import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import semipell.bijection as bijection
import semipell.congruence as congruence
import semipell.enumeration as enumeration
import semipell.recurrence as recurrence
import semipell.series as series
from semipell.congruence import (
    OB_PARITY_LIMIT,
    check_mod3,
    check_mod4_base,
    check_mod4_general,
    check_ob_parity,
    check_oddness,
    check_partial_sum_mod3,
    check_special_cases,
    _two_size_odd_partitions,
)
from semipell.core import SearchBoundExceeded
from semipell.enumeration import ENUMERATION_LIMIT, oracle_agreement
from semipell.recurrence import (
    RANGE_LIMIT,
    SCALING_LIMIT,
    check_plateau_identity,
    check_scaling_identity,
    sp,
    sp_table,
)
from semipell.series import ORDER_LIMIT, functional_equation_residual


def test_oddness_sweep():
    for m in (2, 5, 10):
        report = check_oddness(400, m)
        assert report.passed
        assert report.checked == 401
        assert report.params == {"m": m, "n_max": 400}


def test_mod4_base_sweep():
    report = check_mod4_base(500)
    assert report.passed and report.checked == 501
    # the two smallest witnesses, by hand: sp(1)=1, sp(3)=3
    assert sp(1, 2) % 4 == 1
    assert sp(3, 2) % 4 == 3


def test_mod4_general_sweep():
    for m in range(2, 11):
        report = check_mod4_general(m, 100)
        assert report.passed
        assert report.checked == 202


def test_mod4_general_subsumes_base_case():
    """At modulus 2 the two general families tile exactly the odd line."""
    j_max = 50
    n_max = 2 * j_max + 1  # so both sweeps stop at the same largest argument
    base_instances = {(2 * n + 1, (2 * n + 1) % 4) for n in range(n_max + 1)}
    general_instances = set()
    for j in range(j_max + 1):
        general_instances.add((4 * j + 1, 1))  # 2mj + 1 at m = 2
        general_instances.add((4 * j + 3, 3))  # 2mj + m + 1 at m = 2
    assert base_instances == general_instances
    # both runs really pass on that shared instance set
    assert check_mod4_base(n_max).passed
    assert check_mod4_general(2, j_max).passed


def test_mod3_sweep_and_validation():
    for m in (4, 7, 10, 13):
        report = check_mod3(m, 40)
        assert report.passed
        assert report.checked == 41 * (m - 1)
    for bad in (2, 3, 5, 6, 9):
        with pytest.raises(ValueError):
            check_mod3(bad, 10)
        with pytest.raises(ValueError):
            check_partial_sum_mod3(bad, 10)


def test_partial_sum_sweep():
    for m in (4, 7, 10):
        report = check_partial_sum_mod3(m, 40)
        assert report.passed and report.checked == 41
    # smallest window by hand: 1+1+1+1+3 = 7 for m=4, j=1 adds up to n=9
    assert sum(sp(i, 4) for i in range(1, 6)) % 3 == 1
    assert sum(sp(i, 4) for i in range(1, 10)) % 3 == 1


def test_two_size_counter_by_hand():
    # 5 = 4+1 = 2+1+1+1, both with odd multiplicities and two sizes
    assert _two_size_odd_partitions(5) == 2
    # 3 = 2+1 only
    assert _two_size_odd_partitions(3) == 1
    # 1 has a single size
    assert _two_size_odd_partitions(1) == 0
    # 9 = 8+1 = 4+4+1 (even, out) = 4+1*5 = 2+2+2+1+1+1 (even, out)
    #   = 2*3+1*3 = 2+1*7
    assert _two_size_odd_partitions(9) == 4
    with pytest.raises(ValueError):
        _two_size_odd_partitions(0)


def test_two_size_counter_against_exhaustive_partitions():
    """Cross-check the pair search against raw partition generation."""

    def brute(n):
        powers = []
        p = 1
        while p <= n:
            powers.append(p)
            p *= 2
        count = 0

        def rec(idx, remaining, sizes):
            nonlocal count
            if remaining == 0:
                count += sizes == 2
                return
            if idx == len(powers):
                return
            rec(idx + 1, remaining, sizes)
            power = powers[idx]
            mult = 1
            while mult * power <= remaining:
                rec(idx + 1, remaining - mult * power, sizes + 1)
                mult += 2
        rec(0, n, 0)
        return count

    for n in range(1, 120, 2):
        assert _two_size_odd_partitions(n) == brute(n)


def test_two_size_counter_against_per_multiplicity_search():
    """The per-pair count agrees with a search over every odd multiplicity."""

    def search(n):
        powers = []
        p = 1
        while p <= n:
            powers.append(p)
            p *= 2
        count = 0
        for bi in range(1, len(powers)):
            big = powers[bi]
            for ai in range(bi):
                small = powers[ai]
                v = 1
                while v * big + small <= n:
                    remainder = n - v * big
                    if remainder % small == 0 and (remainder // small) % 2 == 1:
                        count += 1
                    v += 2
        return count

    for n in range(1, 4001):
        assert _two_size_odd_partitions(n) == search(n), n


def test_ob_parity_sweep():
    report = check_ob_parity(301)
    assert report.passed
    assert report.checked == 151  # odd weights only


def test_special_cases_sweep():
    # the largest j is the sweep's bound, run for real rather than patched
    for j in (60, (RANGE_LIMIT - 11) // 100):
        report = check_special_cases(j)
        assert report.passed
        assert report.checked == 7 * (j + 1)
        labels = {label.split()[0] for label, _, _ in report.violations}
        assert labels == set()


def test_special_cases_build_one_range_per_row(monkeypatch):
    built = []

    def recorded(n_max, m):
        built.append((m, n_max))
        return dense(n_max, m)

    dense = congruence._sp_range
    monkeypatch.setattr(congruence, "_sp_range", recorded)
    for j in (0, 1, 7, 60):
        built.clear()
        assert check_special_cases(j).checked == 7 * (j + 1)
        assert built == [(3, 6 * j + 4), (4, 8 * j + 5), (4, 16 * j + 5), (7, 49 * j + 8), (10, 100 * j + 11)]


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_special_cases_keep_one_range_alive():
    # the mod 3 sweep at m = 10 builds the largest of the special cases'
    # ranges; holding the previous modulus's range while the next is built
    # would put the special cases near 1.5 times its peak
    j = 500
    assert _traced_peak(check_special_cases, j) <= 1.1 * _traced_peak(check_mod3, 10, j)


def test_special_cases_read_the_family_rows(monkeypatch):
    declared = congruence._family

    def patched(family, m):
        stride, modulus, offsets, residues = declared(family, m)
        if (family, m) == ("mod3", 7):
            # sp(49j + 8, 7) == 1 (mod 3): false; the declared residues
            # repeat without end, so take only as many as there are rows
            residues = [1, *islice(residues, 1, len(offsets))]
        return stride, modulus, offsets, residues

    monkeypatch.setattr(congruence, "_family", patched)
    j_max = 4
    weights = [49 * j + 8 for j in range(j_max + 1)]
    assert [label for label, _, _ in check_mod3(7, j_max).violations] == [f"n={n}" for n in weights]
    special = check_special_cases(j_max)
    assert [label for label, _, _ in special.violations] == [f"(2) n={n}" for n in weights]
    assert special.checked == 7 * (j_max + 1)


def test_identity_sweeps_name_a_negative_argument():
    for call, name in (
        (lambda: check_scaling_identity(2, -1, 0), "j_max"),
        (lambda: check_scaling_identity(2, 0, -1), "v_max"),
        (lambda: check_plateau_identity(-1, 2), "v_max"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer, got -1$"):
            call()


def test_special_cases_smallest_instances():
    # j = 0 row of each family
    assert sp(1, 3) % 4 == 1
    assert sp(4, 3) % 4 == 3
    assert sp(1, 4) % 4 == 1
    assert sp(5, 4) % 4 == 3
    assert sp(5, 4) % 3 == 0
    assert sp(8, 7) % 3 == 0
    assert sp(11, 10) % 3 == 0


def test_reports_carry_counts_and_violations_shape():
    report = check_oddness(10, 2)
    assert report.summary() == "PASS oddness checked=11"
    assert report.lines() == ["PASS oddness checked=11"]
    # a fabricated violation renders with observed and expected
    report.record_all([0], [1], lambda i: "n=99")
    assert not report.passed
    assert report.summary().startswith("FAIL oddness")
    assert report.lines()[-1] == "  violation n=99: observed=0 expected=1"


@given(st.integers(0, 1500), st.integers(2, 10))
@settings(max_examples=60)
def test_counts_are_odd_everywhere_sampled(n, m):
    assert sp(n, m) % 2 == 1


class Reached(Exception):
    """The patched work function was called with these arguments."""


def test_scaling_sweep_evaluates_each_scaled_weight_once(monkeypatch):
    calls = []

    def counted(table, n, m):
        calls.append(n)
        return fold(table, n, m)

    fold = recurrence._fold
    monkeypatch.setattr(recurrence, "_fold", counted)
    j_max = 3
    for m in (2, 3, 5):
        for v_max in (0, m - 1, m, 2 * m + 1):
            calls.clear()
            report = check_scaling_identity(m, j_max, v_max)
            admissible = (v_max + 1) * (m - 1)
            assert report.passed
            assert report.checked == (j_max + 1) * (admissible + (min(v_max, m) + 1) * (m - 1))
            assert len(calls) == (j_max + 1) * admissible
            assert len(set(calls)) == len(calls)


def test_sweeps_refuse_their_bound_before_any_work(monkeypatch):
    def reached(*args):
        raise Reached(args)

    # the dense range, the parity counter, the series and the per-weight
    # roundtrip are the work each sweep would start; none of them may run
    # past a bound
    monkeypatch.setattr(recurrence, "_sp_range", reached)
    monkeypatch.setattr(bijection, "_record_roundtrip", reached)
    monkeypatch.setattr(congruence, "_sp_range", reached)
    monkeypatch.setattr(congruence, "_two_size_odd_partitions", reached)
    monkeypatch.setattr(series, "qm_series", reached)
    top = RANGE_LIMIT
    # function, arguments just past its bound, arguments at or just within it
    cases = [
        (check_oddness, (top + 1, 2), (top, 2)),
        (check_mod4_base, (top // 2,), ((top - 1) // 2,)),
        (check_mod4_general, (top, 0), (top - 1, 0)),
        (check_mod3, (4, (top - 7) // 16 + 1), (4, (top - 7) // 16)),
        (check_partial_sum_mod3, (4, (top - 1) // 4 + 1), (4, (top - 1) // 4)),
        (check_special_cases, ((top - 11) // 100 + 1,), ((top - 11) // 100,)),
        (check_plateau_identity, ((top - 1) // 2 + 1, 2), ((top - 1) // 2, 2)),
        # (j_max + 1)(v_max + 1)(m - 1) point counts, which also bound the top weight
        (check_scaling_identity, (2, 0, SCALING_LIMIT), (2, 0, SCALING_LIMIT - 1)),
        (check_scaling_identity, (5, 4, SCALING_LIMIT // 20), (5, 4, SCALING_LIMIT // 20 - 1)),
        # m = 10, v_max = 0: the largest scaled weight is 10^j_max * 9
        (check_scaling_identity, (10, 50, 0), (10, 49, 0)),
        (check_scaling_identity, (2, 10**12, 2), (2, 0, 2)),
        (sp_table, (top, [2]), (top - 1, [2])),
        (sp_table, (0, range(2, top + 3)), (0, range(2, top + 2))),
        (check_ob_parity, (OB_PARITY_LIMIT + 1,), (OB_PARITY_LIMIT,)),
        (functional_equation_residual, (2, ORDER_LIMIT + 1), (2, ORDER_LIMIT)),
        (series.check_functional_equation, (2, ORDER_LIMIT + 1), (2, ORDER_LIMIT)),
        (bijection.check_roundtrip, (2, ENUMERATION_LIMIT + 1), (2, ENUMERATION_LIMIT)),
    ]
    for fn, past, within in cases:
        with pytest.raises(SearchBoundExceeded, match="bound"):
            fn(*past)
        with pytest.raises(Reached):
            fn(*within)


# every function that takes a modulus, with m = 1 and its other arguments
# past their bound: the modulus is checked first, so each raises the
# modulus error and not SearchBoundExceeded.  sp_table is left out on
# purpose: it checks its product bound first, since checking every
# modulus of range(2, 10**12) before the bound would be unbounded work.
MODULUS_FIRST = [
    (check_oddness, (RANGE_LIMIT + 1, 1)),
    (check_mod4_general, (1, RANGE_LIMIT)),
    (check_mod3, (1, RANGE_LIMIT)),
    (check_partial_sum_mod3, (1, RANGE_LIMIT)),
    (check_plateau_identity, (RANGE_LIMIT, 1)),
    (check_scaling_identity, (1, 10**12, 2)),
    (series.qm_series, (1, ORDER_LIMIT + 1)),
    (functional_equation_residual, (1, ORDER_LIMIT + 1)),
    (series.check_functional_equation, (1, ORDER_LIMIT + 1)),
    (enumeration.enumerate_sp, (ENUMERATION_LIMIT + 1, 1)),
    (enumeration.enumerate_oc, (ENUMERATION_LIMIT + 1, 1)),
    (enumeration.oracle_sp, (enumeration.SP_ORACLE_LIMIT + 1, 1)),
    (enumeration.oracle_oc, (enumeration.OC_ORACLE_LIMIT + 1, 1)),
    (oracle_agreement, (1, ENUMERATION_LIMIT + 1)),
    (bijection.check_roundtrip, (1, ENUMERATION_LIMIT + 1)),
]


@pytest.mark.parametrize("fn, args", MODULUS_FIRST, ids=[fn.__name__ for fn, _ in MODULUS_FIRST])
def test_modulus_is_checked_before_the_bound(fn, args):
    with pytest.raises(ValueError, match="modulus must be an integer >= 2") as err:
        fn(*args)
    assert err.type is ValueError


def test_sweeps_build_only_their_own_rows():
    # m = 3 * 10^5 + 1 admits the mod 3 family, whose m - 1 rows would
    # take tens of MB; no other family may build them, and mod 3 itself
    # not when it refuses.  These calls are refused or tiny, so they stay
    # far below 1 MB.
    m = 3 * 10**5 + 1
    tracemalloc.start()
    try:
        with pytest.raises(SearchBoundExceeded):
            check_mod4_general(m, 2)
        with pytest.raises(SearchBoundExceeded):
            check_partial_sum_mod3(m, 10)
        assert check_oddness(0, m).checked == 1
        with pytest.raises(SearchBoundExceeded, match="^mod3 top weight refuses 180001800003, bound is 1000000$"):
            check_mod3(m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    with pytest.raises(SearchBoundExceeded, match="bound"):
        check_mod3(10**9 + 3, 0)
    # so a modulus far past any range is answered at once, as a bound or a pass
    with pytest.raises(SearchBoundExceeded, match="bound"):
        check_mod4_general(10**12, 0)
    assert check_oddness(0, 10**12).passed
    assert check_partial_sum_mod3(10**12 + 3, 0).passed


def _corrupt(fn, weights):
    def corrupted(*args):
        values = fn(*args)
        for w in weights:
            if w < len(values):
                values[w] += 1
        return values

    return corrupted


# sweep, arguments, weights whose count (partition count, residual
# coefficient, oracle member, scaled count, one-part composition's image)
# is corrupted, the report's lines.  The lines are those of a sweep that
# records one labelled instance at a time.
FAULTS = [
    (check_oddness, (40, 3), {0, 17, 39, 40}, [
        "FAIL oddness checked=41",
        "  violation n=0: observed=0 expected=1",
        "  violation n=17: observed=0 expected=1",
        "  violation n=39: observed=0 expected=1",
        "  violation n=40: observed=0 expected=1",
    ]),
    (check_mod4_base, (30,), {1, 3, 30, 57, 59, 61}, [
        "FAIL mod4 checked=31",
        "  violation n=1: observed=2 expected=1",
        "  violation n=57: observed=2 expected=1",
        "  violation n=61: observed=2 expected=1",
        "  violation n=3: observed=0 expected=3",
        "  violation n=59: observed=0 expected=3",
    ]),
    (check_mod4_general, (5, 6), {1, 6, 7, 51, 56, 61, 66}, [
        "FAIL mod4-general checked=14",
        "  violation n=1: observed=2 expected=1",
        "  violation n=51: observed=2 expected=1",
        "  violation n=61: observed=2 expected=1",
        "  violation n=6: observed=0 expected=3",
        "  violation n=56: observed=0 expected=3",
        "  violation n=66: observed=0 expected=3",
    ]),
    (check_mod3, (7, 3), {8, 60, 154, 155, 160}, [
        "FAIL mod3 checked=24",
        "  violation n=8: observed=1 expected=0",
        "  violation n=155: observed=1 expected=0",
        "  violation n=60: observed=1 expected=0",
        "  violation n=160: observed=1 expected=0",
    ]),
    (check_partial_sum_mod3, (4, 10), {33, 41}, [
        "FAIL partial-sum checked=11",
        "  violation n=33: observed=2 expected=1",
        "  violation n=37: observed=2 expected=1",
        "  violation n=41: observed=0 expected=1",
    ]),
    (check_special_cases, (3,), {1, 19, 155, 311}, [
        "FAIL special-cases checked=28",
        "  violation (1a) n=1: observed=2 expected=1",
        "  violation (1a) n=19: observed=2 expected=1",
        "  violation (2a) n=1: observed=2 expected=1",
        "  violation (2) n=155: observed=1 expected=0",
        "  violation (3) n=311: observed=1 expected=0",
    ]),
    (check_plateau_identity, (20, 3), {22, 40, 44, 45, 62}, [
        "FAIL plateau checked=42",
        "  violation n=7,r=1: observed=32 expected=31",
        "  violation n=13,r=1: observed=104 expected=103",
        "  violation n=14,r=2: observed=130 expected=129",
        "  violation n=20,r=2: observed=298 expected=297",
    ]),
    (check_scaling_identity, (3, 1, 5), {2, 17}, [
        "FAIL scaling checked=40",
        "  violation j=0,h=2: observed=1 expected=2",
        "  violation j=0,h=17: observed=19 expected=20",
        "  violation j=1,h=2: observed=1 expected=2",
        "  violation j=1,h=17: observed=19 expected=20",
    ]),
    # sp itself is off at three scaled weights: 3 * 4 and 9 * 2 are
    # plateau weights (v = 1, r = 1 and v = 0, r = 2), 9 * 13 is not
    (check_scaling_identity, (3, 2, 4), {12, 18, 117}, [
        "FAIL scaling checked=54",
        "  violation j=1,h=4: observed=4 expected=3",
        "  violation j=1,v=1,r=1: observed=4 expected=3",
        "  violation j=2,h=2: observed=2 expected=1",
        "  violation j=2,h=13: observed=14 expected=13",
        "  violation j=2,v=0,r=2: observed=2 expected=1",
    ]),
    (check_ob_parity, (41,), {1, 19, 41}, [
        "FAIL ob-parity checked=21",
        "  violation n=1: observed=1 expected=0",
        "  violation n=19: observed=0 expected=1",
        "  violation n=41: observed=1 expected=0",
    ]),
    (series.check_functional_equation, (3, 40), {0, 17, 40}, [
        "FAIL funceq checked=41",
        "  violation n=0: observed=1 expected=0",
        "  violation n=17: observed=1 expected=0",
        "  violation n=40: observed=1 expected=0",
    ]),
    (oracle_agreement, (2, 5), {2, 5}, [
        "FAIL oracle checked=12",
        "  violation oc:n=2: observed=1 expected=0",
        "  violation oc:n=5: observed=1 expected=0",
    ]),
    (bijection.check_roundtrip, (2, 6), {3, 6}, [
        "FAIL roundtrip checked=21",
        "  violation n=3:from_oc(to_oc): observed=1 expected=0",
        "  violation n=3:to_oc(from_oc): observed=1 expected=0",
        "  violation n=3:image: observed=1 expected=0",
        "  violation n=6:from_oc(to_oc): observed=1 expected=0",
        "  violation n=6:to_oc(from_oc): observed=1 expected=0",
        "  violation n=6:image: observed=1 expected=0",
    ]),
]


def _fault_ids(faults):
    """Each case's family, numbered from the second case of a family on."""
    families = [lines[0].split()[1] for _, _, _, lines in faults]
    return [f if families.index(f) == i else f"{f}-{families[:i].count(f) + 1}" for i, f in enumerate(families)]


@pytest.mark.parametrize("sweep, args, weights, lines", FAULTS, ids=_fault_ids(FAULTS))
def test_violations_keep_their_labels_and_order(monkeypatch, sweep, args, weights, lines):
    monkeypatch.setattr(recurrence, "_sp_range", _corrupt(recurrence._sp_range, weights))
    monkeypatch.setattr(congruence, "_sp_range", _corrupt(congruence._sp_range, weights))
    counter = congruence._two_size_odd_partitions
    monkeypatch.setattr(congruence, "_two_size_odd_partitions", lambda n: counter(n) + (n in weights))
    monkeypatch.setattr(series, "functional_equation_residual", _corrupt(series.functional_equation_residual, weights))
    oracle = enumeration.oracle_oc
    monkeypatch.setattr(enumeration, "oracle_oc", lambda n, m: oracle(n, m)[n in weights:])
    # the point counts only at multiples of m, the weights scaled by m^j
    # with j >= 1: an unscaled weight is read from the dense range too, and
    # corrupting both would hide that range's faults
    fold = recurrence._fold
    monkeypatch.setattr(recurrence, "_fold", lambda table, n, m: fold(table, n, m) + (n in weights and n % m == 0))
    image = bijection.to_oc

    def misplaced(c, m):
        # the one-part composition of a chosen weight takes the first member's image
        if len(c) == 1 and c[0] in weights:
            c = enumeration.enumerate_sp(c[0], m)[0]
        return image(c, m)

    monkeypatch.setattr(bijection, "to_oc", misplaced)
    report = sweep(*args)
    assert report.lines() == lines
    assert report.checked == int(lines[0].rsplit("=", 1)[1])


def test_record_all_counts_a_batch_and_labels_only_violations():
    report = check_oddness(3, 2)
    labelled = []

    def label(i):
        labelled.append(i)
        return f"i={i}"

    report.record_all([1, 2, 3], [1, 2, 3], label)
    assert report.passed and report.checked == 7 and labelled == []
    report.record_all([1, 0, 3, 0], [1, 2, 3, 4], label)
    assert report.checked == 11 and labelled == [1, 3]
    assert report.lines()[1:] == [
        "  violation i=1: observed=0 expected=2",
        "  violation i=3: observed=0 expected=4",
    ]
    with pytest.raises(ValueError):
        report.record_all([1], [1, 1], label)
