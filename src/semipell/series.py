"""Truncated power series with exact integer coefficients.

A Series is a coefficient vector c[0..order]; arithmetic truncates past
the order and never touches floats.  The sizes of the two composition
families are generated by

    Q_m(x) = 1 + sum_{i>=0} P_i(x) * prod_{t<i} (1 + 2 P_t(x)),

where P_t(x) = sum_{u >= 1, m not dividing u} x^(m^t * u) collects the
possible peak runs with base m^t: a peak of base m^t and multiplicity u
contributes x^(m^t * u), and every smaller power m^t is either absent
(the 1) or carries its own run on one of two sides of the peak (the
factor 2).  Summing over the peak base i makes the coefficient of x^n
count the run forms of weight n, so it equals sp(n, m).

The series is built from those factors without any dense product.  With
b = m^t, P_t(x) = (x^b - x^(m b)) / ((1 - x^b)(1 - x^(m b))), so
multiplying by P_t is a two-term shift followed by two running sums
(strides b and m b), O(order) for each peak base and
O(order * log_m(order)) for the whole series.  The dense product of two
Series is the slow path the tests compare this construction against.

Q_m also satisfies a functional equation under x -> x^m.  With
s(x) = x + ... + x^(m-1),

    (1 - x^m) Q_m(x) + s(x) = (1 + 2 s(x) - x^m) Q_m(x^m),

and functional_equation_residual returns the truncated difference of
the two sides, which must vanish identically.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import List, Optional, Sequence, Tuple, Union

from .core import check_modulus


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")


class Series:
    """Integer coefficients c[0..order] of a truncated power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int], order: Optional[int] = None):
        coeffs = list(coeffs)
        if order is not None:
            _check_order(order)
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than the order admits")
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "Series":
        """c * x^exponent, silently truncated if the exponent is too big."""
        _check_order(order)
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        out = cls.zero(order)
        if exponent <= order:
            out.coeffs[exponent] = coefficient
        return out

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{head}{tail}], order={self.order})"

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: Union["Series", int]) -> "Series":
        if isinstance(other, int):
            return Series([c * other for c in self.coeffs])
        self._match(other)
        n = len(self.coeffs)
        out = [0] * n
        b = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += a * b[j]
        return Series(out)

    __rmul__ = __mul__

    def substitute_power(self, k: int) -> "Series":
        """The series in x^k, truncated at the same order."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"substitution power must be a positive integer, got {k!r}")
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                if i * k > self.order:
                    break
                out[i * k] = c
        return Series(out)


def geometric_inverse(k: int, order: int) -> Series:
    """1 / (1 - x^k) truncated: ones at every multiple of k."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"step must be a positive integer, got {k!r}")
    _check_order(order)
    out = Series.zero(order)
    e = 0
    while e <= order:
        out.coeffs[e] = 1
        e += k
    return out


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


def qm_peak_terms(m: int, order: int) -> List[Series]:
    """One series per peak base m^i; term i counts run forms peaking there."""
    check_modulus(m)
    _check_order(order)
    terms = []
    prod = [1] + [0] * order  # prod_{t<i} (1 + 2 P_t)
    base = 1
    while base <= order:
        peak = _times_peak(prod, m, base)
        terms.append(Series(peak))
        prod = [p + 2 * q for p, q in zip(prod, peak)]
        base *= m
    return terms


def qm_series(m: int, order: int) -> Series:
    """Counting series: coefficient of x^n is sp(n, m), constant term 1."""
    out = Series.one(order)
    for term in qm_peak_terms(m, order):
        out = out + term
    return out


def functional_equation_residual(m: int, order: int) -> Series:
    """Difference of the two sides of the functional equation.

    Identically zero through the requested order when the counting
    series is correct; any nonzero coefficient is a defect witness.
    Both sides multiply by sparse factors only, one pass per term.
    """
    check_modulus(m)
    _check_order(order)
    q = qm_series(m, order)
    q_sub = q.substitute_power(m)
    s = range(1, min(m, order + 1))
    lhs = _times_sparse(q.coeffs, [(0, 1), (m, -1)])
    for r in s:
        lhs[r] += 1
    rhs = _times_sparse(q_sub.coeffs, [(0, 1), *((r, 2) for r in s), (m, -1)])
    return Series(list(map(sub, lhs, rhs)))
