"""The counting series as truncated lists of exact integer coefficients.

A series is a plain list c[0..order] of ints; every product truncates
past the order and never touches floats.  The sizes of the two
composition families are generated by

    Q_m(x) = 1 + sum_{i>=0} P_i(x) * prod_{t<i} (1 + 2 P_t(x)),

where P_t(x) = sum_{u >= 1, m not dividing u} x^(m^t * u) collects the
possible peak runs with base m^t: a peak of base m^t and multiplicity u
contributes x^(m^t * u), and every smaller power m^t is either absent
(the 1) or carries its own run on one of two sides of the peak (the
factor 2).  Summing over the peak base i makes the coefficient of x^n
count the run forms of weight n, so it equals sp(n, m).

The sum telescopes: with R_i = prod_{t<i} (1 + 2 P_t), each term is
P_i R_i = (R_{i+1} - R_i) / 2, so Q_m(x) = (1 + prod_t (1 + 2 P_t(x))) / 2,
the series form of the plateau identity (the product counts each
non-empty run form once per side of its peak).  qm_series builds that
one product without any dense product.  With b = m^t,
P_t(x) = (x^b - x^(m b)) / ((1 - x^b)(1 - x^(m b))), so multiplying by
P_t is a two-term shift followed by two running sums (strides b and
m b), O(order) for each peak base and O(order * log_m(order)) for the
whole series.  The dense list products, one per-peak term at a time,
live in the tests, as the slow path this construction is compared
against.

Q_m also satisfies a functional equation under x -> x^m.  With
s(x) = x + ... + x^(m-1),

    (1 - x^m) Q_m(x) + s(x) = (1 + 2 s(x) - x^m) Q_m(x^m),

and functional_equation_residual returns the truncated difference of
the two sides, which must vanish identically; check_functional_equation
records it as a CongruenceReport from core, one instance a coefficient.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import List, Sequence, Tuple

from .core import CongruenceReport, check_bound, check_modulus

# The series costs O(order log order), milliseconds at this bound;
# qm_series and the residual, and so both commands, refuse orders above it.
ORDER_LIMIT = 4096


def _times_sparse(coeffs: List[int], factor: Sequence[Tuple[int, int]]) -> List[int]:
    """coeffs times sum(c * x^e for e, c in factor), truncated: one pass per term."""
    n = len(coeffs)
    out = [0] * n
    for e, c in factor:
        if e < n:
            out[e:] = map(add, out[e:], [c * a for a in coeffs[: n - e]])
    return out


def _divide_geometric(coeffs: List[int], k: int) -> None:
    """coeffs / (1 - x^k) in place: a running sum with stride k."""
    # residue classes j >= len - k hold one coefficient and stay as they are
    for j in range(min(k, len(coeffs) - k)):
        coeffs[j::k] = accumulate(coeffs[j::k])


def _times_peak(coeffs: List[int], m: int, base: int) -> List[int]:
    """coeffs times P(x) = sum over m not dividing u of x^(base * u).

    P is the residue block x^base + ... + x^((m-1) base) over the
    geometric inverse 1 / (1 - x^(m base)), and the block telescopes to
    (x^base - x^(m base)) / (1 - x^base); so the product is a two-term
    shift and two running sums, O(order) whatever m is.
    """
    out = _times_sparse(coeffs, ((base, 1), (m * base, -1)))
    _divide_geometric(out, base)
    _divide_geometric(out, m * base)
    return out


def qm_series(m: int, order: int) -> List[int]:
    """Counting series: coefficient of x^n is sp(n, m), constant term 1.

    Orders above ORDER_LIMIT are refused before anything is allocated.
    """
    check_modulus(m)
    check_bound(order, ORDER_LIMIT, "series order")
    prod = [1] + [0] * order  # prod_t (1 + 2 P_t)
    base = 1
    while base <= order:
        prod = [p + 2 * q for p, q in zip(prod, _times_peak(prod, m, base))]
        base *= m
    return [(1 + c) // 2 for c in prod]


def functional_equation_residual(m: int, order: int) -> List[int]:
    """Difference of the two sides of the functional equation.

    Identically zero through the requested order when the counting
    series is correct; any nonzero coefficient is a defect witness.
    Both sides multiply by sparse factors only, one pass per term.
    Orders above ORDER_LIMIT are refused.
    """
    check_modulus(m)
    check_bound(order, ORDER_LIMIT, "functional_equation_residual order")
    q = qm_series(m, order)
    q_sub = [0] * (order + 1)  # Q(x^m)
    q_sub[::m] = q[: order // m + 1]
    s = range(1, min(m, order + 1))
    lhs = _times_sparse(q, [(0, 1), (m, -1)])
    for r in s:
        lhs[r] += 1
    rhs = _times_sparse(q_sub, [(0, 1), *((r, 2) for r in s), (m, -1)])
    return list(map(sub, lhs, rhs))


def check_functional_equation(m: int, order: int) -> CongruenceReport:
    """functional_equation_residual as a report: each coefficient n <= order must be 0."""
    report = CongruenceReport("funceq", {"m": m, "order": order})
    residual = functional_equation_residual(m, order)
    report.record_all(residual, [0] * len(residual), "n={}".format)
    return report
