"""Weight-preserving bijection between compositions and run forms.

Each part of a semi-m-Pell composition factors uniquely as t = m^i * h
with m not dividing h.  Sending the part to the run (m^i repeated h
times) turns the sequence of max m-powers, which is distinct and
unimodal by membership, into the run bases, which must be distinct and
unimodal by the run-form rules.  Multiplicities inherit h, never
divisible by m.  Reading a run (base b, multiplicity u) back as the
single part b * u inverts the map, and weights match run by run since
t = m^i * h = base * mult.

For weight 62 and modulus 3 the composition (14, 3, 18, 27) maps to the
run form 1^14, 3, 9^2, 27.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .core import Composition, CongruenceReport, RunForm, _membership_scan, check_bound, runform_failure


def to_oc(composition: Sequence[int], m: int) -> RunForm:
    """Expand each part m^i * h into a run of h copies of m^i.

    Rejects input that is not semi-m-Pell; the ValueError names the
    violated condition.
    """
    reason, splits = _membership_scan(composition, m)
    if reason is not None:
        raise ValueError(f"not a semi-m-Pell composition: {reason}")
    return tuple(splits)


def from_oc(runs: Sequence[Tuple[int, int]], m: int) -> Composition:
    """Collapse each run (base, mult) into the single part base * mult."""
    reason = runform_failure(runs, m)
    if reason is not None:
        raise ValueError(f"not a valid run form: {reason}")
    return tuple(base * mult for base, mult in runs)


def roundtrip_check(n: int, m: int) -> CongruenceReport:
    """Verify the bijection on every object of weight n.

    Three facts per weight: from_oc(to_oc(c)) == c for every generated
    composition, to_oc(from_oc(rf)) == rf for every generated run form,
    and the image of the composition family is exactly the run-form
    family.  Violations record symmetric-difference or mismatch counts,
    all expected zero.
    """
    report = CongruenceReport("roundtrip", {"n": n, "m": m})
    _record_roundtrip(report, n, m)
    return report


def check_roundtrip(m: int, n_max: int) -> CongruenceReport:
    """roundtrip_check's three facts for every weight 0 <= n <= n_max, as one report.

    n_max above ENUMERATION_LIMIT is refused before any weight is generated.
    """
    from .enumeration import ENUMERATION_LIMIT

    check_bound(n_max, ENUMERATION_LIMIT, "roundtrip n_max")
    report = CongruenceReport("roundtrip", {"m": m, "n_max": n_max})
    for n in range(n_max + 1):
        _record_roundtrip(report, n, m)
    return report


def _record_roundtrip(report: CongruenceReport, n: int, m: int) -> None:
    """Record roundtrip_check's three facts for weight n into report, as one batch.

    Each map runs once per object: to_oc on every composition, from_oc
    on every image.  An image rf whose back is its own composition c is
    settled, since to_oc(from_oc(rf)) = to_oc(c) = rf; so the second fact
    calls both maps afresh only for a run form outside the settled set,
    and none is outside when the first and third facts hold.
    """
    from .enumeration import enumerate_oc, enumerate_sp

    compositions = enumerate_sp(n, m)
    runforms = enumerate_oc(n, m)
    images = [to_oc(c, m) for c in compositions]
    backs = [from_oc(rf, m) for rf in images]
    settled = {rf for c, rf, back in zip(compositions, images, backs) if back == c}
    observed = [
        sum(back != c for c, back in zip(compositions, backs)),
        sum(to_oc(from_oc(rf, m), m) != rf for rf in runforms if rf not in settled),
        len(set(images) ^ set(runforms)),
    ]
    report.record_all(observed, [0, 0, 0], lambda i: f"n={n}:" + ("from_oc(to_oc)", "to_oc(from_oc)", "image")[i])
