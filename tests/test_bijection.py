import itertools

import pytest
from hypothesis import given, settings, strategies as st

from semipell.bijection import roundtrip_check
from semipell.core import NOT_DISTINCT, NOT_UNIMODAL, _membership_scan, from_oc, is_semi_m_pell, to_oc
from semipell.enumeration import enumerate_oc, enumerate_sp

# the two published weight classes are listed in matching order, so the
# map must send the k-th composition to the k-th run form
PAIRED_WEIGHT_9 = [
    ((1, 8), ((1, 1), (8, 1))),
    ((8, 1), ((8, 1), (1, 1))),
    ((3, 2, 4), ((1, 3), (2, 1), (4, 1))),
    ((2, 4, 3), ((2, 1), (4, 1), (1, 3))),
    ((3, 4, 2), ((1, 3), (4, 1), (2, 1))),
    ((4, 2, 3), ((4, 1), (2, 1), (1, 3))),
    ((3, 6), ((1, 3), (2, 3))),
    ((6, 3), ((2, 3), (1, 3))),
    ((5, 4), ((1, 5), (4, 1))),
    ((4, 5), ((4, 1), (1, 5))),
    ((7, 2), ((1, 7), (2, 1))),
    ((2, 7), ((2, 1), (1, 7))),
    ((9,), ((1, 9),)),
]

PAIRED_WEIGHT_13_M3 = [
    ((1, 3, 9), ((1, 1), (3, 1), (9, 1))),
    ((3, 9, 1), ((3, 1), (9, 1), (1, 1))),
    ((1, 9, 3), ((1, 1), (9, 1), (3, 1))),
    ((9, 3, 1), ((9, 1), (3, 1), (1, 1))),
    ((1, 12), ((1, 1), (3, 4))),
    ((12, 1), ((3, 4), (1, 1))),
    ((4, 9), ((1, 4), (9, 1))),
    ((9, 4), ((9, 1), (1, 4))),
    ((7, 6), ((1, 7), (3, 2))),
    ((6, 7), ((3, 2), (1, 7))),
    ((10, 3), ((1, 10), (3, 1))),
    ((3, 10), ((3, 1), (1, 10))),
    ((13,), ((1, 13),)),
]


def test_worked_example():
    assert to_oc((14, 3, 18, 27), 3) == ((1, 14), (3, 1), (9, 2), (27, 1))
    assert from_oc(((1, 14), (3, 1), (9, 2), (27, 1)), 3) == (14, 3, 18, 27)


def test_simple_values():
    assert to_oc((9,), 3) == ((9, 1),)
    assert to_oc((3, 2, 4), 2) == ((1, 3), (2, 1), (4, 1))
    assert to_oc((), 2) == ()
    assert from_oc(((2, 1), (1, 1)), 2) == (2, 1)
    assert from_oc(((1, 5), (4, 1)), 2) == (5, 4)
    assert from_oc((), 7) == ()


def test_paired_listings_map_elementwise():
    for comp, rf in PAIRED_WEIGHT_9:
        assert to_oc(comp, 2) == rf
        assert from_oc(rf, 2) == comp
    for comp, rf in PAIRED_WEIGHT_13_M3:
        assert to_oc(comp, 3) == rf
        assert from_oc(rf, 3) == comp


def test_rejects_non_members():
    with pytest.raises(ValueError) as err:
        to_oc((2, 9, 4), 2)
    assert NOT_UNIMODAL in str(err.value)
    with pytest.raises(ValueError) as err:
        to_oc((2, 10, 3), 2)
    assert NOT_DISTINCT in str(err.value)
    with pytest.raises(ValueError) as err:
        from_oc(((1, 2),), 2)
    assert "divisible" in str(err.value)
    with pytest.raises(ValueError):
        from_oc(((6, 1),), 2)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def test_to_oc_rejects_exactly_the_non_members():
    for m in (2, 3):
        for n in range(15):
            for comp in _compositions(n):
                reason = _membership_scan(comp, m)
                try:
                    rf = to_oc(comp, m)
                except ValueError as err:
                    assert reason is not None, comp
                    assert str(err) == f"not a semi-m-Pell composition: {reason}"
                else:
                    assert reason is None, comp
                    assert from_oc(rf, m) == comp


def test_bad_parts_raise():
    for bad in (0, -3, 1.5, 2.0, "2", None):
        for comp in ((bad,), (1, bad), (4, 2, bad), (bad, 2, 4)):
            for check in (to_oc, _membership_scan, is_semi_m_pell):
                with pytest.raises(ValueError, match="positive integers"):
                    check(comp, 2)
    # the scan stops at the first failure, so a later part is never read
    assert _membership_scan((2, 2, 0), 2) == NOT_DISTINCT
    assert not is_semi_m_pell((2, 2, 0), 2)
    with pytest.raises(ValueError, match=NOT_DISTINCT):
        to_oc((2, 2, 0), 2)


def test_image_is_exactly_the_runform_family():
    for m in (2, 3, 4, 5):
        for n in range(0, 36):
            comps = enumerate_sp(n, m)
            image = {to_oc(c, m) for c in comps}
            assert image == set(enumerate_oc(n, m))
            assert len(image) == len(comps)


def test_weight_preserved_runwise():
    # part m^i * h and run (m^i, h) carry the same weight
    for m in (2, 3):
        for n in range(0, 30):
            for c in enumerate_sp(n, m):
                rf = to_oc(c, m)
                assert sum(b * u for b, u in rf) == sum(c) == n
                assert all(b * u == part for (b, u), part in zip(rf, c))


def test_residue_run_sits_on_the_boundary():
    # nonmultiple weight: exactly one run of ones, first or last
    for m in (2, 3, 5):
        for n in range(1, 36):
            if n % m == 0:
                continue
            for rf in enumerate_oc(n, m):
                ones_at = [i for i, (b, _) in enumerate(rf) if b == 1]
                assert len(ones_at) == 1
                assert ones_at[0] in (0, len(rf) - 1)
                assert rf[ones_at[0]][1] % m == n % m


def test_roundtrip_reports():
    for m in (2, 3):
        for n in (0, 1, 9, 13, 30):
            report = roundtrip_check(n, m)
            assert report.passed
            assert report.checked == 3


def _observed(report):
    seen = {label.split(":", 1)[1]: observed for label, observed, _ in report.violations}
    return {fact: seen.get(fact, 0) for fact in ("from_oc(to_oc)", "to_oc(from_oc)", "image")}


@pytest.mark.parametrize("n, m", [(9, 2), (13, 3)])
def test_roundtrip_check_sees_a_broken_map(monkeypatch, n, m):
    import semipell.bijection as bijection

    comps = enumerate_sp(n, m)
    victim, other = comps[3], comps[4]
    victim_image = to_oc(victim, m)

    # victim's image is other's, so its true image is nobody's: every
    # fact reads to_oc and each sees the one bad object
    with monkeypatch.context() as patch:
        patch.setattr(bijection, "to_oc", lambda c, m: to_oc(other if c == victim else c, m))
        report = roundtrip_check(n, m)
    assert report.checked == 3
    assert _observed(report) == {"from_oc(to_oc)": 1, "to_oc(from_oc)": 1, "image": 1}

    # victim's image inverts to other: both round trips through from_oc
    # fail once, and the image fact, which never calls from_oc, holds
    with monkeypatch.context() as patch:
        patch.setattr(bijection, "from_oc", lambda rf, m: other if rf == victim_image else from_oc(rf, m))
        report = roundtrip_check(n, m)
    assert report.checked == 3
    assert _observed(report) == {"from_oc(to_oc)": 1, "to_oc(from_oc)": 1, "image": 0}


def test_roundtrip_check_sees_a_shared_image_sent_back_twice(monkeypatch):
    import semipell.bijection as bijection

    n, m = 9, 2
    comps = enumerate_sp(n, m)
    first, second = comps[3], comps[4]
    shared = to_oc(first, m)

    def run(sent_back):
        # to_oc sends both compositions to first's image, and from_oc
        # answers that image with sent_back in turn
        answers = itertools.cycle(sent_back)
        with monkeypatch.context() as patch:
            patch.setattr(bijection, "to_oc", lambda c, m: to_oc(first if c == second else c, m))
            patch.setattr(bijection, "from_oc", lambda rf, m: next(answers) if rf == shared else from_oc(rf, m))
            report = roundtrip_check(n, m)
        assert report.checked == 3
        return _observed(report)

    # every back is its own composition, yet second's true image is
    # nobody's: it fails the image fact, and its round trip through the
    # shared image fails the second fact
    assert run((first, second)) == {"from_oc(to_oc)": 0, "to_oc(from_oc)": 1, "image": 1}
    # sent back the other way round, both backs are wrong as well
    assert run((second, first)) == {"from_oc(to_oc)": 2, "to_oc(from_oc)": 1, "image": 1}


def test_roundtrip_check_runs_each_map_once_per_object(monkeypatch):
    import semipell.bijection as bijection

    calls = {"to_oc": 0, "from_oc": 0}

    def counted(name, apply):
        def wrapper(value, m):
            calls[name] += 1
            return apply(value, m)

        return wrapper

    monkeypatch.setattr(bijection, "to_oc", counted("to_oc", to_oc))
    monkeypatch.setattr(bijection, "from_oc", counted("from_oc", from_oc))
    for n, m in ((30, 2), (13, 3)):
        calls.update(to_oc=0, from_oc=0)
        assert roundtrip_check(n, m).passed
        size = len(enumerate_sp(n, m))
        assert calls == {"to_oc": size, "from_oc": size}, (n, m)


@given(st.integers(0, 45), st.integers(2, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_roundtrip_identity_on_random_members(n, m, data):
    comp = data.draw(st.sampled_from(enumerate_sp(n, m)))
    assert from_oc(to_oc(comp, m), m) == comp
    rf = data.draw(st.sampled_from(enumerate_oc(n, m)))
    assert to_oc(from_oc(rf, m), m) == rf
