"""Core objects for semi-m-Pell compositions.

A composition of n is an ordered tuple of positive integers summing to n.
Fix a modulus m >= 2.  The max m-power of a positive integer N is the
largest power of m dividing N, so for N = u * m^s with m not dividing u
it equals m^s.  A composition is semi-m-Pell exactly when the max
m-powers of its parts are pairwise distinct and unimodal: read left to
right they rise strictly to a unique peak and then fall strictly.  The
empty composition and all single-part compositions qualify vacuously.

The same objects have a second life as "run forms": weakly unimodal
compositions whose parts are powers of m, where each part size occupies
a single contiguous run and no run length is divisible by m.  A run form
is stored as a tuple of (base, multiplicity) pairs in positional order.
to_oc expands each part t = m^i * h (m not dividing h) into a run of h
copies of m^i: the max m-powers, distinct and unimodal by membership,
become the distinct, unimodal run bases, and no multiplicity h is
divisible by m.  from_oc reads each run back as the single part
base * mult, inverting the map run by run.  For m = 3 the composition
(14, 3, 18, 27) maps to the run form 1^14, 3, 9^2, 27.

Three reversible operators shrink a semi-m-Pell composition while
preserving membership: tau1 deletes a boundary part smaller than m,
tau2 subtracts m from a chosen part that exceeds m and is not divisible
by m, and tau3 divides every part by m when all parts are multiples.
Everything here is exact integer arithmetic, no floats anywhere.

Every module also takes from here the input checks and errors its
functions raise, and CongruenceReport, the result of every identity and
congruence sweep.  A report never raises on a failed instance; callers
decide whether a violation is fatal.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A composition is a tuple of positive parts; a run form is a tuple of
# (base, multiplicity) pairs.  Plain tuples keep the combinatorics cheap
# and hashable.
Composition = Tuple[int, ...]
RunForm = Tuple[Tuple[int, int], ...]

NOT_DISTINCT = "max m-powers not distinct"
NOT_UNIMODAL = "max m-powers not unimodal"

# (instance label, observed value, expected value)
Violation = Tuple[str, int, int]


def check_modulus(m: int) -> None:
    """Reject anything that is not an integer modulus >= 2."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")


def check_nonneg(value: int, name: str) -> None:
    """Reject anything that is not a nonnegative integer; name goes in the message."""
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


class SearchBoundExceeded(ValueError):
    """A search, a sweep or a command was asked to exceed its hard input bound."""


def check_bound(value: int, limit: int, what: str) -> None:
    """Reject value unless it is an integer in 0..limit; what names it in the message.

    A value above limit raises SearchBoundExceeded, anything else that
    is not a nonnegative integer a plain ValueError.
    """
    check_nonneg(value, what)
    if value > limit:
        raise SearchBoundExceeded(f"{what} refuses {value}, bound is {limit}")


class CongruenceReport:
    """Pass/fail record of one sweep over a finite family of instances."""

    def __init__(self, family: str, params: Dict[str, object]) -> None:
        self.family = family
        self.params = params
        self.checked = 0
        self.violations: List[Violation] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def record_all(self, observed: Sequence[int], expected: Sequence[int], label: Callable[[int], str]) -> None:
        """Count every instance of a batch: observed[i] against expected[i].

        The batch is compared in one pass; label(i) names instance i and is
        called only for a violation, which keeps the order of the batch.
        """
        if len(observed) != len(expected):
            raise ValueError(f"batch of {len(observed)} observed against {len(expected)} expected")
        self.checked += len(observed)
        if observed != expected:
            self.violations += [
                (label(i), seen, want) for i, (seen, want) in enumerate(zip(observed, expected)) if seen != want
            ]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.family} checked={self.checked}"

    def lines(self) -> List[str]:
        out = [self.summary()]
        for label, observed, expected in self.violations:
            out.append(f"  violation {label}: observed={observed} expected={expected}")
        return out


def _membership_scan(
    composition: Sequence[int], m: int, splits: Optional[List[Tuple[int, int]]] = None
) -> Optional[str]:
    """One left-to-right pass over the parts, stopping at the first failure.

    Each part t is split once as t = x * h with x its max m-power and m
    not dividing h.  Returns None for a member, otherwise NOT_DISTINCT
    or NOT_UNIMODAL for the first violation met.  Given a list as
    splits, the scan appends the (x, h) pair of every part it reads
    before the failure; without one it builds no pair at all.  A
    repeated power fails distinctness; a rise after any fall fails
    unimodality (equal neighbours are already repeats, so all
    comparisons are strict).  Both failures are closed under extension,
    so stopping early never changes the verdict.
    """
    check_modulus(m)
    seen = set()
    prev = 0
    falling = False
    for part in composition:
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        x = 1
        h = part
        while h % m == 0:
            h //= m
            x *= m
        if x in seen:
            return NOT_DISTINCT
        seen.add(x)
        if x < prev:
            falling = True
        elif falling:
            return NOT_UNIMODAL
        prev = x
        if splits is not None:
            splits.append((x, h))
    return None


def is_semi_m_pell(composition: Sequence[int], m: int) -> bool:
    """True iff the max m-powers of the parts are distinct and unimodal."""
    return _membership_scan(composition, m) is None


def to_oc(composition: Sequence[int], m: int) -> RunForm:
    """Expand each part m^i * h into a run of h copies of m^i.

    Rejects input that is not semi-m-Pell; the ValueError names the
    violated condition.
    """
    splits: List[Tuple[int, int]] = []
    reason = _membership_scan(composition, m, splits)
    if reason is not None:
        raise ValueError(f"not a semi-m-Pell composition: {reason}")
    return tuple(splits)


def tau1(composition: Sequence[int], m: int) -> Composition:
    """Delete a boundary part smaller than m (first one wins a tie).

    Defined only when the first or last part is smaller than m; raises
    ValueError otherwise, and on the empty composition.
    """
    check_modulus(m)
    parts = tuple(composition)
    if parts and parts[0] < m:
        return parts[1:]
    if parts and parts[-1] < m:
        return parts[:-1]
    raise ValueError("no boundary part smaller than the modulus")


def tau2(composition: Sequence[int], t: int, m: int) -> Composition:
    """Subtract m from the part at 1-based position t.

    The chosen part must exceed m and must not be divisible by m, so the
    result keeps positive parts and the part's residue class mod m.
    """
    check_modulus(m)
    parts = tuple(composition)
    if not 1 <= t <= len(parts):
        raise ValueError(f"position {t} out of range for {len(parts)} parts")
    c = parts[t - 1]
    if c <= m or c % m == 0:
        raise ValueError(f"part {c} at position {t} must exceed {m} and not be divisible by {m}")
    return parts[: t - 1] + (c - m,) + parts[t:]


def tau3(composition: Sequence[int], m: int) -> Composition:
    """Divide every part by m; all parts must be divisible by m."""
    check_modulus(m)
    parts = tuple(composition)
    for c in parts:
        if c % m != 0:
            raise ValueError(f"part {c} is not divisible by {m}")
    return tuple(c // m for c in parts)


def runform_parts(runs: RunForm) -> Composition:
    """Flatten a run form into its underlying part sequence."""
    return tuple(chain.from_iterable(starmap(repeat, runs)))


def runform_failure(runs: Iterable[Tuple[int, int]], m: int) -> Optional[str]:
    """Why a run sequence is not a valid run form, or None if it is.

    Checks, in order: runs that are (base, multiplicity) pairs, positive
    bases that are powers of m, positive multiplicities not divisible by
    m, pairwise distinct bases (each part size lives in one place), and
    bases that rise strictly to a unique peak then fall strictly.

    One pass reads each run once.  A run that fails its own checks is
    reported at once; the first repeated base and the first rise after
    a fall are only noted, because a later run may still fail its own
    checks, and are reported after the pass, the repeat first.  With
    distinct bases, rising until the first fall and never rising again
    is the same as rising strictly to the maximum and falling after it.
    """
    check_modulus(m)
    seen = set()
    repeated = None
    prev = 0
    falling = rose_after_fall = False
    for run in runs:
        try:
            base, mult = run
        except (TypeError, ValueError):
            return f"run {run!r} is not a (base, multiplicity) pair"
        if not isinstance(base, int) or base < 1:
            return f"run base {base!r} is not a positive integer"
        b = base
        while b % m == 0:
            b //= m
        if b != 1:
            return f"run base {base} is not a power of {m}"
        if not isinstance(mult, int) or mult < 1:
            return f"run multiplicity {mult!r} is not a positive integer"
        if mult % m == 0:
            return f"run multiplicity {mult} is divisible by {m}"
        if repeated is None and base in seen:
            repeated = base
        seen.add(base)
        if base < prev:
            falling = True
        elif falling:
            rose_after_fall = True
        prev = base
    if repeated is not None:
        return f"run base {repeated} occurs in more than one place"
    if rose_after_fall:
        return "run bases not unimodal"
    return None


def from_oc(runs: Iterable[Tuple[int, int]], m: int) -> Composition:
    """Collapse each run (base, mult) into the single part base * mult.

    runs is read once, so an iterator or a generator is accepted like
    a sequence.
    """
    runs = tuple(runs)
    reason = runform_failure(runs, m)
    if reason is not None:
        raise ValueError(f"not a valid run form: {reason}")
    return tuple([base * mult for base, mult in runs])
