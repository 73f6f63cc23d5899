import pytest
from hypothesis import given, strategies as st

from semipell.core import (
    NOT_DISTINCT,
    NOT_UNIMODAL,
    _membership_scan,
    from_oc,
    is_semi_m_pell,
    runform_failure,
    runform_parts,
    tau1,
    tau2,
    tau3,
    to_oc,
)

# the max m-power of a part is read from the split the membership scan
# makes: a single part is always a member, and its one run is (x, h)
# with x its max m-power and h the cofactor


def test_max_m_power_values():
    assert to_oc((50,), 2) == ((2, 25),)
    assert to_oc((216,), 5) == ((1, 216),)
    assert to_oc((27,), 3) == ((27, 1),)
    assert to_oc((1,), 7) == ((1, 1),)
    assert to_oc((12,), 2) == ((4, 3),)


def test_max_m_power_rejects_bad_input():
    with pytest.raises(ValueError):
        to_oc((0,), 2)
    with pytest.raises(ValueError):
        to_oc((-4,), 2)
    with pytest.raises(ValueError):
        to_oc((6,), 1)


@given(st.integers(1, 10**9), st.integers(2, 64))
def test_max_m_power_factorisation(n, m):
    ((x, h),) = to_oc((n,), m)
    # x is the m-power part of n: x h = n and the cofactor is coprime to m
    assert x * h == n
    assert h % m != 0
    while x % m == 0:
        x //= m
    assert x == 1


def test_membership_knowns():
    assert is_semi_m_pell((), 2)
    assert is_semi_m_pell((7,), 2)
    assert is_semi_m_pell((14, 3, 18, 27), 3)
    assert is_semi_m_pell((9, 3, 1), 3)
    assert is_semi_m_pell((2, 8, 4), 2)
    # powers rise then fall but (2,4,2) repeats the power 2
    assert not is_semi_m_pell((2, 4, 2), 2)


def test_membership_rejections_with_reason():
    # valley in the powers: 2, 1, 4
    assert _membership_scan((2, 9, 4), 2)[0] == NOT_UNIMODAL
    assert _membership_scan((1, 4, 2, 8), 2)[0] == NOT_UNIMODAL
    # repeated powers
    assert _membership_scan((2, 10, 3), 2)[0] == NOT_DISTINCT
    assert _membership_scan((3, 4, 6, 2), 2)[0] == NOT_DISTINCT
    assert _membership_scan((14, 3, 18, 27), 3)[0] is None


def test_membership_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        is_semi_m_pell((1, 0, 2), 2)
    with pytest.raises(ValueError):
        is_semi_m_pell((3,), 1)


@given(st.lists(st.integers(1, 400), max_size=7), st.integers(2, 8))
def test_membership_and_failure_agree(parts, m):
    assert is_semi_m_pell(parts, m) == (_membership_scan(parts, m)[0] is None)


def test_tau1():
    assert tau1((1, 2), 2) == (2,)
    assert tau1((2, 1), 2) == (2,)
    # both ends qualify: the first part goes
    assert tau1((2, 6, 1), 3) == (6, 1)
    assert tau1((1, 1), 2) == (1,)
    with pytest.raises(ValueError):
        tau1((4, 5), 2)
    with pytest.raises(ValueError):
        tau1((), 2)


def test_tau2():
    assert tau2((5, 2), 1, 2) == (3, 2)
    assert tau2((4, 7), 2, 3) == (4, 4)
    with pytest.raises(ValueError):
        tau2((4, 3), 2, 3)  # part not above the modulus
    with pytest.raises(ValueError):
        tau2((5, 6), 2, 2)  # part divisible by the modulus
    with pytest.raises(ValueError):
        tau2((5, 2), 3, 2)  # position out of range
    with pytest.raises(ValueError):
        tau2((5, 2), 0, 2)


def test_tau3():
    assert tau3((2, 4), 2) == (1, 2)
    assert tau3((9, 3), 3) == (3, 1)
    assert tau3((), 5) == ()
    with pytest.raises(ValueError):
        tau3((2, 3), 2)


def test_weight_helpers():
    # a run form weighs what its flattened parts sum to
    rf = ((16, 1), (4, 3), (2, 3), (1, 11))
    assert sum(runform_parts(rf)) == sum(b * u for b, u in rf) == 45
    assert runform_parts(((1, 3), (2, 1))) == (1, 1, 1, 2)
    assert runform_parts(()) == ()


def test_runform_validation_knowns():
    assert runform_failure(((16, 1), (4, 3), (2, 3), (1, 11)), 2) is None
    assert runform_failure(((2, 5), (4, 1), (8, 3), (1, 7)), 2) is None
    assert runform_failure(((1, 7), (8, 1), (16, 1), (2, 7)), 2) is None
    assert runform_failure((), 2) is None
    assert runform_failure(((27, 2), (9, 2), (3, 2), (1, 14)), 3) is None
    assert runform_failure(((1, 8), (3, 13), (9, 2), (27, 1)), 3) is None
    assert runform_failure(((3, 14), (9, 1), (27, 1), (1, 14)), 3) is None


def test_runform_validation_failures():
    # the power 2 appears in two places
    r = runform_failure(((2, 3), (4, 3), (16, 1), (2, 1), (1, 9)), 2)
    assert r is not None and "more than one place" in r
    # two defects: the run of ones recurs AND its second multiplicity is
    # even; the per-run multiplicity check fires first by design
    r = runform_failure(((1, 3), (2, 5), (4, 1), (8, 3), (1, 4)), 2)
    assert r is not None and "divisible by 2" in r
    r = runform_failure(((1, 3), (2, 5), (4, 1), (8, 3), (1, 5)), 2)
    assert r is not None and "more than one place" in r
    assert runform_failure(((1, 2),), 2) is not None  # multiplicity divisible by m
    assert runform_failure(((6, 1),), 2) is not None  # base not a power of m
    assert runform_failure(((4, 1), (1, 1), (2, 1)), 2) is not None  # valley
    assert runform_failure(((1, 0),), 2) is not None
    assert runform_failure(((0, 3),), 2) is not None
    assert runform_failure(((4, 1), (1, 1), (2, 1)), 2) == "run bases not unimodal"


def test_runform_validation_refuses_a_run_that_is_not_a_pair():
    # a bare integer, a 1-tuple and a 3-tuple are each refused with a
    # reason, and from_oc raises it with the run-form prefix
    for run in (1, (1,), (1, 2, 3)):
        reason = f"run {run!r} is not a (base, multiplicity) pair"
        assert runform_failure([run], 2) == reason
        with pytest.raises(ValueError) as err:
            from_oc([run], 2)
        assert str(err.value) == f"not a valid run form: {reason}"
    # a list pair is a pair
    assert runform_failure([[1, 1]], 2) is None
    assert from_oc([[1, 1]], 2) == (1,)


@given(st.integers(0, 40), st.integers(2, 5), st.data())
def test_tau_operators_preserve_membership(n, m, data):
    """Each applicable shrink operator lands back inside the family."""
    from semipell.enumeration import enumerate_sp

    members = enumerate_sp(n, m)
    comp = data.draw(st.sampled_from(members))
    if comp and (comp[0] < m or comp[-1] < m):
        assert is_semi_m_pell(tau1(comp, m), m)
    for t, part in enumerate(comp, start=1):
        if part > m and part % m:
            assert is_semi_m_pell(tau2(comp, t, m), m)
    if comp and all(part % m == 0 for part in comp):
        assert is_semi_m_pell(tau3(comp, m), m)


@given(st.integers(0, 40), st.integers(2, 5), st.data())
def test_tau_operators_reduce_weight(n, m, data):
    from semipell.enumeration import enumerate_sp

    comp = data.draw(st.sampled_from(enumerate_sp(n, m)))
    if comp and comp[0] < m:
        assert sum(tau1(comp, m)) == n - comp[0]
    for t, part in enumerate(comp, start=1):
        if part > m and part % m:
            assert sum(tau2(comp, t, m)) == n - m
    if comp and all(part % m == 0 for part in comp):
        assert sum(tau3(comp, m)) * m == n
