"""Residue facts about the counts sp(n, m), swept over finite ranges.

Every checker replays one family of congruences over a dense range of
counts from the recurrence (the two-size parity family over its own
partition counter) and returns a CongruenceReport, recording each row as
one batch through record_all; nothing here is proved, only verified
instance by instance.  Each family's rows (stride, offset, modulus,
residue) are declared once, in _family, and read from there by _top, the
largest weight they reach, and by _sweep, one progression sweep over one
dense range (for the partial sums, its running sums), which walks the
declaration row by row and never lists the rows; mod 4 at m = 2 and the
special cases reuse those rows.  Each sweep refuses its input bound, a
top weight past recurrence.RANGE_LIMIT or for the parity family an n
past OB_PARITY_LIMIT, before it builds that range or counts anything.

  * oddness: sp(n, m) is odd for every n >= 0.
  * mod 4, base case m = 2: sp(2n + 1, 2) = 2n + 1 (mod 4).
  * mod 4, general m: sp(2mj + 1, m) = 1 and sp(2mj + m + 1, m) = 3
    (mod 4) for every j >= 0.
  * mod 3, for m >= 4 with m = 1 (mod 3): sp(m^2 j + m + r, m) = 0
    (mod 3) for every j >= 0 and 1 <= r < m.
  * partial sums, same moduli: sp(1, m) + ... + sp(mj + 1, m) = 1
    (mod 3) for every j >= 0.
  * two-size parity, m = 2: for odd n, the number of partitions of n
    into powers of 2 with every part size used an odd number of times
    and exactly two distinct sizes is even when n = 1 (mod 4) and odd
    when n = 3 (mod 4).  The counter is an independent count over the
    size pairs.
  * special cases: seven labelled rows of the mod 4 and mod 3
    families at fixed moduli (3, 4, 7 and 10), each entry of
    SPECIAL_CASES replayed from its own dense range.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import CongruenceReport, check_bound, check_modulus, check_nonneg
from .recurrence import RANGE_LIMIT, _sp_range

# The two-size parity counter takes O(log n) steps per n; the sweep
# takes about 4 ms at this bound.
OB_PARITY_LIMIT = 10**4


def _family(family: str, m: int) -> Tuple[int, int, Sequence[int], Iterable[int]]:
    """Stride, residue modulus, rising offsets and expected residues of one
    family's rows at modulus m: the only place a row is written."""
    check_modulus(m)
    if family == "oddness":
        return 1, 2, (0,), (1,)
    if family == "mod4-general":
        return 2 * m, 4, (1, m + 1), (1, 3)
    if m < 4 or m % 3 != 1:
        raise ValueError(f"modulus must be >= 4 and congruent to 1 mod 3, got {m}")
    if family == "mod3":
        return m * m, 3, range(m + 1, 2 * m), repeat(0)
    return m, 3, (1,), (1,)  # partial-sum


def _top(family: str, m: int, j_max: int, rows: Optional[int] = None) -> int:
    """The largest weight that a family's rows at modulus m, or its first
    rows only, reach for j <= j_max; j_max is checked after m."""
    stride, _, offsets, _ = _family(family, m)
    check_nonneg(j_max, "j_max")
    return stride * j_max + offsets[:rows][-1]  # the offsets rise


def _counts(report: CongruenceReport, m: int, top: int) -> List[int]:
    """sp(0, m), ..., sp(top, m), refusing a top weight past RANGE_LIMIT first."""
    check_bound(top, RANGE_LIMIT, f"{report.family} top weight")
    return _sp_range(top, m)


def _sweep(
    report: CongruenceReport, values: Sequence[int], family: str, m: int, j_max: int, labels: Iterable[str] = repeat("")
) -> CongruenceReport:
    """Record values[stride * j + offset] mod modulus == residue for j <= j_max.

    One list of values, indexed by weight, serves every row of the family
    at modulus m, or as many rows as there are labels, each label the prefix
    of its row's instance names.  A row stops at j_max or at the end of the
    list, and is one batch, labelled on failure.
    """
    stride, modulus, offsets, residues = _family(family, m)
    for label, offset, residue in zip(labels, offsets, residues):
        seen = [value % modulus for value in values[offset : stride * j_max + offset + 1 : stride]]
        report.record_all(seen, [residue] * len(seen), lambda i: f"{label}n={offset + i * stride}")
    return report


def check_oddness(n_max: int, m: int) -> CongruenceReport:
    """sp(n, m) mod 2 == 1 for 0 <= n <= n_max."""
    check_nonneg(n_max, "n_max")
    report = CongruenceReport("oddness", {"m": m, "n_max": n_max})
    return _sweep(report, _counts(report, m, _top("oddness", m, n_max)), "oddness", m, n_max)


def check_mod4_base(n_max: int) -> CongruenceReport:
    """sp(2n + 1, 2) mod 4 == (2n + 1) mod 4 for 0 <= n <= n_max.

    At m = 2 the general rows tile the odd weights up to the range's end.
    """
    check_nonneg(n_max, "n_max")
    report = CongruenceReport("mod4", {"m": 2, "n_max": n_max})
    return _sweep(report, _counts(report, 2, 2 * n_max + 1), "mod4-general", 2, n_max)


def check_mod4_general(m: int, j_max: int) -> CongruenceReport:
    """sp(2mj + 1, m) == 1 and sp(2mj + m + 1, m) == 3 mod 4, j <= j_max."""
    report = CongruenceReport("mod4-general", {"m": m, "j_max": j_max})
    return _sweep(report, _counts(report, m, _top("mod4-general", m, j_max)), "mod4-general", m, j_max)


def check_mod3(m: int, j_max: int) -> CongruenceReport:
    """sp(m^2 j + m + r, m) divisible by 3 for j <= j_max, 1 <= r < m."""
    report = CongruenceReport("mod3", {"m": m, "j_max": j_max})
    return _sweep(report, _counts(report, m, _top("mod3", m, j_max)), "mod3", m, j_max)


def check_partial_sum_mod3(m: int, j_max: int) -> CongruenceReport:
    """Partial sums sp(1) + ... + sp(mj + 1) == 1 mod 3, j <= j_max."""
    report = CongruenceReport("partial-sum", {"m": m, "j_max": j_max})
    counts = _counts(report, m, _top("partial-sum", m, j_max))
    return _sweep(report, list(accumulate(counts[1:], initial=0)), "partial-sum", m, j_max)


def _two_size_odd_partitions(n: int) -> int:
    """Partitions of n into powers of 2, each size used an odd number of
    times, with exactly two distinct sizes.

    Counted per size pair 2^a < 2^b: with v parts of size 2^b, the rest
    n - v 2^b is an odd multiple of 2^a exactly when n is, because 2^b
    is an even multiple of 2^a.  So only the pairs whose smaller size is
    the largest power of 2 dividing n count, each with as many odd v as
    v 2^b <= n - 2^a allows: O(log n) steps in all.  This deliberately
    shares no code with the run-form machinery.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"argument must be a positive integer, got {n!r}")
    small = n & -n
    count = 0
    big = 2 * small
    while big + small <= n:
        count += ((n - small) // big + 1) // 2
        big *= 2
    return count


def check_ob_parity(n_max: int) -> CongruenceReport:
    """Two-size partition counts have parity (n mod 4 - 1) / 2, odd n <= n_max."""
    check_bound(n_max, OB_PARITY_LIMIT, "ob-parity n_max")
    report = CongruenceReport("ob-parity", {"n_max": n_max})
    weights = range(1, n_max + 1, 2)
    parities = [_two_size_odd_partitions(n) % 2 for n in weights]
    report.record_all(parities, [(n % 4 - 1) // 2 for n in weights], lambda i: f"n={weights[i]}")
    return report


# family, modulus, and the paper's labels of the family's leading rows
SPECIAL_CASES = (
    ("mod4-general", 3, ("1a", "1b")),
    ("mod4-general", 4, ("2a", "2b")),
    ("mod3", 4, ("1",)),
    ("mod3", 7, ("2",)),
    ("mod3", 10, ("3",)),
)


def check_special_cases(j_max: int) -> CongruenceReport:
    """Replay the seven labelled special-case rows for 0 <= j <= j_max.

    Four are rows of the mod 4 family (moduli 3 and 4) and three the
    r = 1 row of the mod 3 family (moduli 4, 7 and 10).  Each entry of
    SPECIAL_CASES gets its own dense range, the largest refused first.
    """
    tops = [_top(family, m, j_max, len(labels)) for family, m, labels in SPECIAL_CASES]
    check_bound(max(tops), RANGE_LIMIT, "special-cases top weight")
    report = CongruenceReport("special-cases", {"j_max": j_max})
    for (family, m, labels), top in zip(SPECIAL_CASES, tops):
        _sweep(report, _sp_range(top, m), family, m, j_max, (f"({label}) " for label in labels))
    return report
