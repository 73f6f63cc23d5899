import pytest
from hypothesis import given, settings, strategies as st

import semipell.congruence as congruence
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
    count_two_size_odd_partitions,
)
from semipell.core import SearchBoundExceeded
from semipell.recurrence import (
    RANGE_LIMIT,
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
    assert count_two_size_odd_partitions(5) == 2
    # 3 = 2+1 only
    assert count_two_size_odd_partitions(3) == 1
    # 1 has a single size
    assert count_two_size_odd_partitions(1) == 0
    # 9 = 8+1 = 4+4+1 (even, out) = 4+1*5 = 2+2+2+1+1+1 (even, out)
    #   = 2*3+1*3 = 2+1*7
    assert count_two_size_odd_partitions(9) == 4
    with pytest.raises(ValueError):
        count_two_size_odd_partitions(0)


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
        assert count_two_size_odd_partitions(n) == brute(n)


def test_ob_parity_sweep():
    report = check_ob_parity(301)
    assert report.passed
    assert report.checked == 151  # odd weights only


def test_special_cases_sweep():
    report = check_special_cases(60)
    assert report.passed
    assert report.checked == 7 * 61
    labels = {label.split()[0] for label, _, _ in report.violations}
    assert labels == set()


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
    report.record("n=99", 0, 1)
    assert not report.passed
    assert report.summary().startswith("FAIL oddness")
    assert report.lines()[-1] == "  violation n=99: observed=0 expected=1"


@given(st.integers(0, 1500), st.integers(2, 10))
@settings(max_examples=60)
def test_counts_are_odd_everywhere_sampled(n, m):
    assert sp(n, m) % 2 == 1


class Reached(Exception):
    """The patched work function was called with these arguments."""


def test_sweeps_refuse_their_bound_before_any_work(monkeypatch):
    def reached(*args):
        raise Reached(args)

    # the dense range, the parity counter and the series are the work
    # each sweep would start; none of them may run past a bound
    monkeypatch.setattr(recurrence, "_sp_range", reached)
    monkeypatch.setattr(congruence, "_sp_range", reached)
    monkeypatch.setattr(congruence, "count_two_size_odd_partitions", reached)
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
        (check_scaling_identity, (2, 0, (top - 1) // 2 + 1), (2, 0, (top - 1) // 2)),
        # m = 10, v_max = 0: the largest scaled weight is 10^j_max * 9
        (check_scaling_identity, (10, 50, 0), (10, 49, 0)),
        (check_scaling_identity, (2, 10**12, 2), (2, 0, 2)),
        (sp_table, (top, [2]), (top - 1, [2])),
        (sp_table, (0, range(2, top + 3)), (0, range(2, top + 2))),
        (check_ob_parity, (OB_PARITY_LIMIT + 1,), (OB_PARITY_LIMIT,)),
        (functional_equation_residual, (2, ORDER_LIMIT + 1), (2, ORDER_LIMIT)),
    ]
    for fn, past, within in cases:
        with pytest.raises(SearchBoundExceeded, match="bound"):
            fn(*past)
        with pytest.raises(Reached):
            fn(*within)
