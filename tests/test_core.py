from itertools import chain, repeat, starmap

import pytest
from hypothesis import given, settings, strategies as st

from semipell.core import (
    NOT_DISTINCT,
    NOT_UNIMODAL,
    _membership_scan,
    from_oc,
    is_semi_m_pell,
    runform_failure,
    to_oc,
)

# the max m-power of a part is read from the split the membership scan
# makes: a single part is always a member, and its one run is (x, h)
# with x its max m-power and h the cofactor


def test_single_part_run_values():
    assert to_oc((50,), 2) == ((2, 25),)
    assert to_oc((216,), 5) == ((1, 216),)
    assert to_oc((27,), 3) == ((27, 1),)
    assert to_oc((1,), 7) == ((1, 1),)
    assert to_oc((12,), 2) == ((4, 3),)


def test_single_part_run_rejects_bad_input():
    with pytest.raises(ValueError):
        to_oc((0,), 2)
    with pytest.raises(ValueError):
        to_oc((-4,), 2)
    with pytest.raises(ValueError):
        to_oc((6,), 1)


@given(st.integers(1, 10**9), st.integers(2, 64))
def test_single_part_run_factorisation(n, m):
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
    assert _membership_scan((2, 9, 4), 2) == NOT_UNIMODAL
    assert _membership_scan((1, 4, 2, 8), 2) == NOT_UNIMODAL
    # repeated powers
    assert _membership_scan((2, 10, 3), 2) == NOT_DISTINCT
    assert _membership_scan((3, 4, 6, 2), 2) == NOT_DISTINCT
    assert _membership_scan((14, 3, 18, 27), 3) is None


def test_membership_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        is_semi_m_pell((1, 0, 2), 2)
    with pytest.raises(ValueError):
        is_semi_m_pell((3,), 1)


@given(st.lists(st.integers(1, 400), max_size=7), st.integers(2, 8))
def test_membership_and_failure_agree(parts, m):
    assert is_semi_m_pell(parts, m) == (_membership_scan(parts, m) is None)


def test_membership_scan_splits_only_on_request():
    # given a list, the scan appends the (x, h) split of each part read
    # before the first failure; is_semi_m_pell passes none
    splits = []
    assert _membership_scan((2, 9, 4), 2, splits) == NOT_UNIMODAL
    assert splits == [(2, 1), (1, 9)]
    splits = []
    assert _membership_scan((14, 3, 18, 27), 3, splits) is None
    assert splits == [(1, 14), (3, 1), (9, 2), (27, 1)]


# The paper's three reversible shrinking operators, and the flattener
# of a run form into its parts: the reference the generators are tested
# against, here and in test_enumeration.  Each operator keeps a
# semi-m-Pell composition inside the family.


def tau1(composition, m):
    """Delete a boundary part smaller than m (first one wins a tie).

    Defined only when the first or last part is smaller than m; raises
    ValueError otherwise, and on the empty composition.
    """
    parts = tuple(composition)
    if parts and parts[0] < m:
        return parts[1:]
    if parts and parts[-1] < m:
        return parts[:-1]
    raise ValueError("no boundary part smaller than the modulus")


def tau2(composition, t, m):
    """Subtract m from the part at 1-based position t.

    The chosen part must exceed m and must not be divisible by m, so the
    result keeps positive parts and the part's residue class mod m.
    """
    parts = tuple(composition)
    if not 1 <= t <= len(parts):
        raise ValueError(f"position {t} out of range for {len(parts)} parts")
    c = parts[t - 1]
    if c <= m or c % m == 0:
        raise ValueError(f"part {c} at position {t} must exceed {m} and not be divisible by {m}")
    return parts[: t - 1] + (c - m,) + parts[t:]


def tau3(composition, m):
    """Divide every part by m; all parts must be divisible by m."""
    parts = tuple(composition)
    for c in parts:
        if c % m != 0:
            raise ValueError(f"part {c} is not divisible by {m}")
    return tuple(c // m for c in parts)


def runform_parts(runs):
    """Flatten a run form into its underlying part sequence."""
    return tuple(chain.from_iterable(starmap(repeat, runs)))


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


def _two_phase_runform_failure(runs, m):
    # the reference validator: every run's own checks first, then the
    # repeated bases, then the shape of the whole base sequence
    bases = []
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
        bases.append(base)
    if len(set(bases)) != len(bases):
        dup = next(b for i, b in enumerate(bases) if b in bases[:i])
        return f"run base {dup} occurs in more than one place"
    if bases:
        peak = bases.index(max(bases))
        for i in range(peak):
            if bases[i] >= bases[i + 1]:
                return "run bases not unimodal"
        for i in range(peak, len(bases) - 1):
            if bases[i] <= bases[i + 1]:
                return "run bases not unimodal"
    return None


def _mostly(good, bad):
    # about one draw in twenty from bad
    return st.sampled_from([good] * 19 + [bad]).flatmap(lambda strategy: strategy)


def _runs(m):
    # mostly pairs of powers of m and multiplicities prime to m, so
    # repeats, valleys and valid forms all come up; now and then a bad
    # field, or a run that is not a pair at all
    base = _mostly(st.sampled_from([m**i for i in range(5)]), st.sampled_from([0, -m, m + 1, 6 * m, 2.0, "1"]))
    mult = _mostly(st.sampled_from([1, m - 1, m + 1, 2 * m + 1]), st.sampled_from([m, 2 * m, 0, -1, 1.5]))
    pair = st.tuples(base, mult)
    pair = st.one_of(pair, pair.map(list))
    not_pair = st.sampled_from([7, (1,), (1, 2, 3), None, "ab"])
    # distinct valid bases in any order: valleys, rises after a fall and
    # valid forms
    power = st.sampled_from([m**i for i in range(7)])
    distinct = st.lists(st.tuples(power, mult), max_size=7, unique_by=lambda run: run[0])
    return st.one_of(st.lists(_mostly(pair, not_pair), max_size=7), distinct)


@given(st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m), _runs(m))))
@settings(max_examples=300, deadline=None)
def test_runform_validator_matches_the_two_phase_reference(case):
    m, runs = case
    assert runform_failure(runs, m) == _two_phase_runform_failure(runs, m)


def test_runform_validator_reasons_keep_their_order():
    cases = [
        # a repeat on both sides of the peak, which rises and falls strictly
        (((2, 1), (4, 1), (16, 1), (2, 1), (1, 1)), 2, "run base 2 occurs in more than one place"),
        (((1, 1), (3, 1), (27, 2), (3, 1)), 3, "run base 3 occurs in more than one place"),
        # a valley, and a rise after the fall
        (((4, 1), (1, 1), (2, 1)), 2, "run bases not unimodal"),
        (((1, 1), (8, 1), (2, 1), (4, 1)), 2, "run bases not unimodal"),
        # a repeat beats an earlier valley, and the first repeat is named
        (((4, 1), (1, 1), (2, 1), (4, 1), (1, 1)), 2, "run base 4 occurs in more than one place"),
        (((5, 1), (25, 1), (1, 1), (25, 1), (5, 1)), 5, "run base 25 occurs in more than one place"),
        # a later run's own failure beats an earlier repeat or valley
        (((2, 1), (2, 1), (6, 1)), 2, "run base 6 is not a power of 2"),
        (((4, 1), (1, 1), (2, 1), (1, 4)), 2, "run multiplicity 4 is divisible by 2"),
        (((1, 1), (1, 1), 7), 2, "run 7 is not a (base, multiplicity) pair"),
        (((3, 1), (1, 0)), 3, "run multiplicity 0 is not a positive integer"),
        (((3, 1), (1, 1.0)), 3, "run multiplicity 1.0 is not a positive integer"),
        (((0, 1),), 4, "run base 0 is not a positive integer"),
        (((6, 1),), 6, None),
        (((1, 6),), 6, "run multiplicity 6 is divisible by 6"),
        (((36, 5), (6, 7), (1, 1)), 6, None),
    ]
    for runs, m, reason in cases:
        assert _two_phase_runform_failure(runs, m) == reason, runs
        assert runform_failure(runs, m) == reason, runs


def test_from_oc_reads_its_runs_once():
    # an iterator or a generator is read once, validated and collapsed
    assert from_oc(iter([(1, 1), (2, 1)]), 2) == (1, 2)
    assert from_oc((run for run in ((1, 3), (4, 1), (2, 1))), 2) == (3, 4, 2)
    assert from_oc(iter(()), 2) == ()
    assert runform_failure(iter([(1, 1), (2, 1)]), 2) is None
    # and a one-shot invalid form is still refused
    with pytest.raises(ValueError, match="not a valid run form: run bases not unimodal"):
        from_oc(iter([(4, 1), (1, 1), (2, 1)]), 2)
    with pytest.raises(ValueError, match="run multiplicity 2 is divisible by 2"):
        from_oc((run for run in [(1, 1), (2, 2)]), 2)


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
