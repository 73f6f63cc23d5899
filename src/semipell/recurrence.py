"""Counting semi-m-Pell compositions.

Write sp(n, m) for the number of semi-m-Pell compositions of n.  The
count obeys a three-way recurrence: sp(0, m) = 1 (the empty
composition), sp(n, m) = 1 for 1 <= n <= m - 1, and for n >= m

    sp(n, m) = sp(n // m, m)                     if m divides n,
    sp(n, m) = 2 sp(n - r, m) + sp(n - m, m)     if n = r (mod m), 0 < r < m.

The two-term branch mirrors the paper's construction: a residue part r
can be glued to the front or the back of a composition of n - r (all of
whose parts are divisible by m), or m can be added to the unique residue
part of a composition of n - m.  For m = 2 the sequence 1, 1, 3, 1, 5, 3,
11, 1, 13, 5, ... is OEIS A129095.

Telescoping the two-term branch gives the plateau identity

    sp(mq + r, m) = 1 + 2 (sp(1, m) + ... + sp(q, m))    for 0 < r < m,

so a point count is a prefix sum of counts at a weight m times smaller.
sp evaluates that prefix sum in one pass over the base-m digits of q,
with O(log_m n) levels of exact integer arithmetic and no memo; this is
the prefix-sum structure of Mahler's partition problem (de Bruijn 1948,
Knuth 1966).  Dense ranges sp(0..n_max) come from the recurrence itself,
bottom up; the sweeps read their values from those ranges, so the
plateau sweep checks the identity sp is built on against an independent
evaluation.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul
from typing import List, Optional, Sequence

from .core import CongruenceReport, check_bound, check_modulus, check_nonneg

# Hard input bounds.  A point count costs a polynomial in the number of
# base-m digits of n, under a second at COUNT_LIMIT, the largest weight
# the count command and the scaling sweep hand to sp.  Every sweep reads
# its counts from one dense list up to its top weight, sp_table from one
# list per modulus; RANGE_LIMIT bounds that weight, and sp_table's
# total, at a quarter second and tens of MB.  Each sweep refuses its own
# top weight before it allocates anything.
COUNT_LIMIT = 10**50
RANGE_LIMIT = 10**6


def _sp_range(n_max: int, m: int) -> List[int]:
    """sp(0, m), ..., sp(n_max, m) by the three-way recurrence, bottom up."""
    counts = [1] * (n_max + 1)
    for k in range(m, n_max + 1):
        r = k % m
        counts[k] = counts[k // m] if r == 0 else 2 * counts[k - r] + counts[k - m]
    return counts


def _stretched_rows(m: int, depth: int) -> List[List[int]]:
    """Row j <= depth lists the integers a_i with C(m t, j) = sum_i a_i C(t, i).

    Entry 0 is the value at t = 0.  Entry i + 1 is entry i of the
    forward difference C(m t + m, j) - C(m t, j), which by Vandermonde's
    identity is sum_{a >= 1} C(m, a) C(m t, j - a).
    """
    choose_m = [comb(m, a) for a in range(min(m, depth) + 1)]
    rows: List[List[int]] = []
    for j in range(depth + 1):
        row = [int(j == 0)]
        for i in range(j):
            row.append(sum(choose_m[a] * rows[j - a][i] for a in range(1, min(m, j - i) + 1)))
        rows.append(row)
    return rows


def _prefix_count(q: int, m: int) -> int:
    """sp(0, m) + sp(1, m) + ... + sp(q, m), one level per base-m digit of q.

    Each level replaces the prefix x by x' = m x + d and carries

        P[i] = sum_{t < x} C(t, i) sp(t)    and    T = sum_{t <= x} sp(t).

    Splitting k < x' as k = m t + r: the terms r = 0 give sp(t), and
    the terms 0 < r < m give 2 T(t) - 1 by the plateau identity.  Their
    binomial weights C(m t + r, j) summed over 0 < r < m are
    C(m t + m, j + 1) - C(m t + 1, j + 1) (hockey stick), a polynomial of
    degree j in t, so no level loops over residues.  Both terms come from
    the one table of C(m t, j) in the basis C(t, i): the first is row
    j + 1 shifted by one in t, the second is rows j + 1 and j added
    (Pascal), so fill[j][i] = scaled[j + 1][i + 1] - scaled[j][i].
    Rewritten in the basis C(t, i), the sum over t < x of C(t, i) T(t) is
    C(x, i + 1) P[0] - P[i + 1], and P[j] at x' needs P up to j + 1 at x:
    the degree the top level needs, 0, rises by one per level below it.
    """
    digits = []
    while q:
        q, d = divmod(q, m)
        digits.append(d)
    depth = len(digits)
    scaled = _stretched_rows(m, depth)
    # fill[j]: the residue block sum_{0<r<m} C(m t + r, j), basis C(t, i)
    fill = [[a - b for a, b in zip(scaled[j + 1][1:], scaled[j])] for j in range(depth)]
    # weight[j][i]: coefficient of P[i] in the full blocks t < x
    weight = [[a - 2 * b for a, b in zip(scaled[j] + [0], [0] + fill[j])] for j in range(depth)]
    x, T = 0, 1
    P = [0] * (depth + 1)
    for d in reversed(digits):
        depth -= 1
        sp_x = T - P[0]
        choose_x = [comb(x, i + 1) for i in range(depth + 1)]
        base = m * x
        nxt = []
        for j in range(depth + 1):
            value = sum(map(mul, weight[j], P)) + (2 * P[0] - 1) * sum(map(mul, fill[j], choose_x))
            if d:
                # the partial block t = x: residue 0, then residues 1 .. d - 1
                value += comb(base, j) * sp_x + (2 * T - 1) * (comb(base + d, j + 1) - comb(base + 1, j + 1))
            nxt.append(value)
        T = nxt[0] + (2 * T - 1 if d else sp_x)
        P = nxt
        x = base + d
    return T


def sp(n: int, m: int) -> int:
    """Number of semi-m-Pell compositions of n, exact for any size of n.

    Strips factors of m (sp(m q) = sp(q)), then applies the plateau
    identity; the cost grows with the number of base-m digits of n, not
    with n.
    """
    check_nonneg(n, "weight")
    check_modulus(m)
    while n and n % m == 0:
        n //= m
    if n < m:
        return 1
    return 2 * _prefix_count(n // m, m) - 1


def sp_table(n_max: int, moduli: Sequence[int]) -> List[List[int]]:
    """Rows of counts, one per modulus, columns n = 1 .. n_max."""
    check_nonneg(n_max, "weight")
    check_bound((n_max + 1) * len(moduli), RANGE_LIMIT, "sp_table (n_max + 1) * moduli")
    for m in moduli:
        check_modulus(m)
    return [_sp_range(n_max, m)[1:] for m in moduli]


def check_plateau_identity(v_max: int, m: int) -> CongruenceReport:
    """Constant count across each residue window, tied to a partial sum.

    For every n the m - 1 values sp(nm + 1, m), ..., sp(nm + m - 1, m)
    coincide and equal 1 + 2 * (sp(1, m) + ... + sp(n, m)).  Checked for
    all n <= v_max against the dense recurrence, never against sp, which
    is built on this identity.
    """
    check_nonneg(v_max, "v_max")
    check_modulus(m)
    top = v_max * m + m - 1
    check_bound(top, RANGE_LIMIT, "plateau top weight")
    report = CongruenceReport("plateau", {"m": m, "v_max": v_max})
    counts = _sp_range(top, m)
    # the windows back to back: every weight 1 .. top not divisible by m
    windows = counts[1:]
    del windows[m - 1 :: m]
    # 1 + 2 (sp(1) + ... + sp(n)) for n <= v_max, repeated across window n
    expected = [0] * len(windows)
    plateaus = list(accumulate((2 * c for c in counts[1 : v_max + 1]), initial=1))
    for r in range(m - 1):
        expected[r :: m - 1] = plateaus
    report.record_all(windows, expected, lambda i: f"n={i // (m - 1)},r={i % (m - 1) + 1}")
    return report


def check_scaling_identity(m: int, j_max: int, v_max: Optional[int] = None) -> CongruenceReport:
    """Counts are m-adically self-similar.

    Two statements are swept for 0 <= j <= j_max.  First, multiplying
    the weight by a power of m never changes the count: sp(m^j * h, m)
    equals sp(h, m) whenever m does not divide h, with h running through
    every admissible weight up to m * v_max + m - 1.  Second, on the
    plateau the value is explicit: sp(m^j * (m*v + r), m) = 2v + 1 for
    0 <= v <= min(v_max, m) and 1 <= r < m, which covers the count-one
    weights m^j * h with 1 <= h < m as the v = 0 case.  The scaled
    weights go through sp once per j; the plateau weights lead the
    admissible ones, so both statements read the same row.  The unscaled
    counts come from the dense recurrence.  v_max defaults to m, the
    least bound that reaches the whole plateau.  The largest scaled
    weight, m^j_max * (m * v_max + m - 1), must stay within COUNT_LIMIT.
    """
    check_modulus(m)
    if v_max is None:
        v_max = m
    check_nonneg(v_max, "v_max")
    top = m * v_max + m - 1
    check_bound(top, RANGE_LIMIT, "scaling top weight")
    j_limit, scaled = 0, top * m
    while scaled <= COUNT_LIMIT:
        j_limit, scaled = j_limit + 1, scaled * m
    check_bound(j_max, j_limit, "scaling j_max")
    report = CongruenceReport("scaling", {"m": m, "j_max": j_max, "v_max": v_max})
    counts = _sp_range(top, m)
    weights = [h for h in range(1, top + 1) if h % m]
    unscaled = [counts[h] for h in weights]
    # weight i < (min(v_max, m) + 1)(m - 1) is m v + r, v = i // (m - 1)
    plateau = [2 * (i // (m - 1)) + 1 for i in range((min(v_max, m) + 1) * (m - 1))]
    for j in range(j_max + 1):
        scale = m**j
        scaled = [sp(scale * h, m) for h in weights]
        report.record_all(scaled, unscaled, lambda i: f"j={j},h={weights[i]}")
        report.record_all(scaled[: len(plateau)], plateau, lambda i: f"j={j},v={i // (m - 1)},r={i % (m - 1) + 1}")
    return report
