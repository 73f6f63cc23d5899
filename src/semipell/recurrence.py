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
With b(0) = 1, b(t) = 2 sp(t, m) for t >= 1 and B(x) = b(0) + ... + b(x),
sp(mq + r, m) = B(q), b(mt) = b(t) and b(mt + c) = 2 B(t) for 0 < c < m.
sp finds B(q) in one pass over the base-m digits of q, carrying b(x) and
the moments Q[i] = sum_{t < x} C(x - 1 - t, i) b(t) of the prefix x.  One
table, built from the rows E_j of C(m v + m - 1, j) in the basis C(v, i),
steps every level without reading x, and no memo is kept.  This is the
prefix-sum structure of Mahler's partition problem (de Bruijn 1948,
Knuth 1966).  Dense ranges sp(0..n_max) come from the recurrence itself,
bottom up; the sweeps read their values from those ranges, so the
plateau sweep checks the identity sp is built on against an independent
evaluation.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .core import CongruenceReport, check_bound, check_modulus, check_nonneg

# Hard input bounds.  A point count costs a polynomial in the number of
# base-m digits of n, under a second at COUNT_LIMIT, the largest weight
# the count command and the scaling sweep hand to sp.  Every sweep reads
# its counts from one dense list up to its top weight, sp_table from one
# list per modulus; RANGE_LIMIT bounds that weight, and sp_table's
# total, at a quarter second and tens of MB.  Each sweep refuses its own
# top weight before it allocates anything.  SCALING_LIMIT caps the
# scaling sweep's point counts, and so its top weight, at 1.6 s (m = 2).
COUNT_LIMIT = 10**50
RANGE_LIMIT = 10**6
SCALING_LIMIT = 10**4


def _sp_range(n_max: int, m: int) -> List[int]:
    """sp(0, m), ..., sp(n_max, m) by the three-way recurrence, bottom up."""
    counts = [1] * (n_max + 1)
    for k in range(m, n_max + 1):
        r = k % m
        counts[k] = counts[k // m] if r == 0 else 2 * counts[k - r] + counts[k - m]
    return counts


def _level_table(m: int, depth: int) -> List[List[int]]:
    """Row j <= depth takes the moments Q at a prefix x to Q[j] at m x.

    E_j lists C(m v + m - 1, j) in the basis C(v, i): entry 0 is
    C(m - 1, j), and entry i + 1 is entry i of the forward difference,
    sum_{a >= 1} C(m, a) E_{j-a} by Vandermonde's identity.  Term t < x,
    v = x - 1 - t from the end, gives b(t) at m v + m - 1 and 2 B(t) at
    m v + c, c < m - 1.  So b(u), w = x - 1 - u, weighs E_j(w) plus twice
    the sum of C(k, j) over k <= m w + m - 2 other than the k = m v + m - 1,
    v < w: C(m w + m - 1, j + 1) - sum_{v < w} E_j(v) (hockey stick), and
    sum_{v < w} C(v, i) = C(w, i + 1).  Row j is E_j + 2 E_{j+1} - 2 E_j
    shifted up one place.
    """
    choose_m = [comb(m, a) for a in range(min(m, depth + 1) + 1)]
    E: List[List[int]] = []
    for j in range(depth + 2):
        row = [comb(m - 1, j)]
        for i in range(j):
            row.append(sum(choose_m[a] * E[j - a][i] for a in range(1, min(m, j - i) + 1)))
        E.append(row)
    return [[e + 2 * (f - g) for e, f, g in zip(E[j] + [0], E[j + 1], [0] + E[j])] for j in range(depth + 1)]


def _level(table: List[List[int]], Q: List[int], b: int, d: int) -> Tuple[List[int], int]:
    """Q and b = b(x) at a prefix x, taken to m x + d; Q loses its last entry.

    A digit d > 0 appends b(m x) = b(x) and d - 1 terms 2 B(x), whose
    weights C(d - 1 - c, j) sum to C(d - 1, j + 1), and moves the older
    terms d places: C(k + d, j) = sum_i C(d, i) C(k, j - i).
    """
    plateau = 2 * (Q[0] + b)
    Q = [sum(map(mul, row, Q)) for row in table[: len(Q) - 1]]
    if not d:
        return Q, b
    shift = [comb(d, i) for i in range(min(d, len(Q)) + 1)]
    tail = [comb(d - 1, j) for j in range(len(Q) + 1)]
    return [sum(map(mul, shift, Q[j::-1])) + b * tail[j] + plateau * tail[j + 1] for j in range(len(Q))], plateau


def sp(n: int, m: int) -> int:
    """Number of semi-m-Pell compositions of n, exact for any size of n.

    Strips factors of m (sp(m q) = sp(q)), then reads sp(m q + r) = B(q)
    off the moments of b, one _level per base-m digit of q, from the top.
    """
    check_nonneg(n, "weight")
    check_modulus(m)
    while n and n % m == 0:
        n //= m
    q, digits = n // m, []
    while q:
        q, d = divmod(q, m)
        digits.append(d)
    table = _level_table(m, len(digits) - 1)
    b, Q = 1, [0] * (len(digits) + 1)
    for d in reversed(digits):
        Q, b = _level(table, Q, b, d)
    return Q[0] + b


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
    weight, m^j_max * (m * v_max + m - 1), must stay within COUNT_LIMIT,
    and the (j_max + 1)(v_max + 1)(m - 1) point counts within SCALING_LIMIT.
    """
    check_modulus(m)
    if v_max is None:
        v_max = m
    check_nonneg(v_max, "v_max")
    top = m * v_max + m - 1
    j_limit, scaled = 0, top * m
    while scaled <= COUNT_LIMIT:
        j_limit, scaled = j_limit + 1, scaled * m
    check_bound(j_max, j_limit, "scaling j_max")
    # (v_max + 1)(m - 1) >= (top + 1) / 2, so top stays far below RANGE_LIMIT
    check_bound((j_max + 1) * (v_max + 1) * (m - 1), SCALING_LIMIT, "scaling point counts")
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
