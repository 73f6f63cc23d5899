"""Acceptance sweep: nine end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without -s pytest shows them only for failures.  Every criterion
recomputes its own expected values or freezes them inline, so this file
stands alone from the per-module tests.
"""

import time
from pathlib import Path

from semipell import (
    check_mod3,
    check_mod4_base,
    check_mod4_general,
    check_ob_parity,
    check_oddness,
    check_partial_sum_mod3,
    check_plateau_identity,
    check_scaling_identity,
    check_special_cases,
    enumerate_oc,
    enumerate_sp,
    from_oc,
    functional_equation_residual,
    is_semi_m_pell,
    oracle_oc,
    oracle_sp,
    qm_series,
    roundtrip_check,
    sp,
    sp_table,
    to_oc,
)
from semipell.core import NOT_DISTINCT, NOT_UNIMODAL, _membership_scan

README = Path(__file__).resolve().parents[1] / "README.md"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, detail or f"criterion {number} ({name}) failed"


def test_criterion_1_count_table():
    # 75 values, n = 1..15 by m = 2..6, computed well under a second.
    expected = [
        [1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51],
        [1, 1, 1, 3, 3, 1, 5, 5, 1, 7, 7, 3, 13, 13, 3],
        [1, 1, 1, 1, 3, 3, 3, 1, 5, 5, 5, 1, 7, 7, 7],
        [1, 1, 1, 1, 1, 3, 3, 3, 3, 1, 5, 5, 5, 5, 1],
        [1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 1, 5, 5, 5],
    ]
    start = time.perf_counter()
    rows = sp_table(15, range(2, 7))
    elapsed = time.perf_counter() - start
    report(
        1,
        "count table",
        rows == expected and elapsed < 1.0,
        f"rows match: {rows == expected}, elapsed {elapsed:.3f}s",
    )


def test_criterion_2_base_two_prefix():
    prefix = [sp(n, 2) for n in range(1, 11)]
    expected = [1, 1, 3, 1, 5, 3, 11, 1, 13, 5]
    documented = "A129095" in README.read_text()
    report(
        2,
        "base-two prefix and OEIS cross-reference",
        prefix == expected and documented,
        f"prefix {prefix}, README cites A129095: {documented}",
    )


def test_criterion_3_oracle_equivalence():
    # The brute-force oracles share no logic with the constructions;
    # both sides return canonically sorted lists, so list equality is
    # set equality plus absence of duplicates.
    start = time.perf_counter()
    ok = True
    for m in (2, 3, 4, 5):
        for n in range(41):
            ok = ok and enumerate_sp(n, m) == oracle_sp(n, m)
            ok = ok and enumerate_oc(n, m) == oracle_oc(n, m)
    elapsed = time.perf_counter() - start
    report(
        3,
        "oracle equivalence",
        ok and elapsed < 300.0,
        f"agreement: {ok}, elapsed {elapsed:.1f}s",
    )


def test_criterion_4_equinumerosity():
    bad = []
    for m in (2, 3, 4, 5):
        for n in range(41):
            count = sp(n, m)
            if len(enumerate_sp(n, m)) != count or len(enumerate_oc(n, m)) != count:
                bad.append((n, m))
    report(4, "equinumerosity", not bad, f"counts disagree at {bad}")


def test_criterion_5_bijection_round_trip():
    failures = []
    for m in (2, 3, 4, 5):
        for n in range(41):
            rep = roundtrip_check(n, m)
            if not rep.passed:
                failures.extend(rep.violations)
    worked = (
        to_oc((14, 3, 18, 27), 3) == ((1, 14), (3, 1), (9, 2), (27, 1))
        and from_oc(((1, 14), (3, 1), (9, 2), (27, 1)), 3) == (14, 3, 18, 27)
    )
    report(
        5,
        "bijection round trip",
        not failures and worked,
        f"violations {failures[:5]}, worked example: {worked}",
    )


def test_criterion_6_generating_function():
    start = time.perf_counter()
    mismatches = []
    residual_ok = True
    # Order 4096 is the CLI's ORDER_LIMIT, the largest order a user can ask for.
    for m in range(2, 9):
        q = qm_series(m, 4096)
        for n in range(4097):
            if q[n] != sp(n, m):
                mismatches.append((n, m))
        residual_ok = residual_ok and functional_equation_residual(m, 4096) == [0] * 4097
    elapsed = time.perf_counter() - start
    report(
        6,
        "generating function",
        not mismatches and residual_ok and elapsed < 30.0,
        f"mismatches {mismatches[:5]}, residual zero: {residual_ok}, "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_7_congruence_sweeps():
    reports = [check_mod4_base(1000)]  # arguments 2n+1 up to 2001
    for m in range(2, 11):
        reports.append(check_mod4_general(m, 200))
        reports.append(check_oddness(5000, m))
    for m in (4, 7, 10, 13):
        reports.append(check_mod3(m, 100))
        reports.append(check_partial_sum_mod3(m, 100))
    reports.append(check_special_cases(200))
    reports.append(check_ob_parity(1000))
    failed = [rep.summary() for rep in reports if not rep.passed]
    report(7, "congruence sweeps", not failed, f"failing sweeps: {failed}")


def test_criterion_8_identity_sweeps():
    reports = []
    for m in range(2, 9):
        reports.append(check_plateau_identity(200, m))
        reports.append(check_scaling_identity(m, 12, m))
    failed = [rep.summary() for rep in reports if not rep.passed]
    report(8, "identity sweeps", not failed, f"failing sweeps: {failed}")


def test_criterion_9_structural_agreement():
    # Replay the membership test against the recursive construction over
    # every composition of every n <= 20, then pin the four rejection
    # categories for the standard non-examples.
    disagreements = []

    def sweep(m: int) -> None:
        for n in range(21):
            members = set(enumerate_sp(n, m))
            parts = []

            def rec(remaining: int) -> None:
                for p in range(1, remaining):
                    parts.append(p)
                    rec(remaining - p)
                    parts.pop()
                parts.append(remaining)
                if is_semi_m_pell(parts, m) != (tuple(parts) in members):
                    disagreements.append((tuple(parts), m))
                parts.pop()

            if n == 0:
                if (() in members) != is_semi_m_pell((), m):
                    disagreements.append(((), m))
            else:
                rec(n)

    sweep(2)
    sweep(3)
    rejections = {
        (2, 9, 4): NOT_UNIMODAL,
        (1, 4, 2, 8): NOT_UNIMODAL,
        (2, 10, 3): NOT_DISTINCT,
        (3, 4, 6, 2): NOT_DISTINCT,
    }
    wrong_reason = {
        comp: _membership_scan(comp, 2)
        for comp, reason in rejections.items()
        if _membership_scan(comp, 2) != reason or is_semi_m_pell(comp, 2)
    }
    report(
        9,
        "structural agreement",
        not disagreements and not wrong_reason,
        f"disagreements {disagreements[:5]}, wrong reasons {wrong_reason}",
    )
