"""Round trip of the part-to-run bijection, checked weight by weight.

For one weight the enumeration module generates both families, each by
its own construction; the round trip checks that core's to_oc and
from_oc invert each other on them and that to_oc's image is exactly the
run-form family.
"""

from __future__ import annotations

from .core import CongruenceReport, check_bound, check_modulus, from_oc, to_oc
from .enumeration import ENUMERATION_LIMIT, enumerate_oc, enumerate_sp


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

    The modulus, then n_max above ENUMERATION_LIMIT, is refused before any weight is generated.
    """
    check_modulus(m)
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
