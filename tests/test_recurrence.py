import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semipell import recurrence
from semipell.cli import main
from semipell.enumeration import oracle_oc, oracle_sp
from semipell.recurrence import _sp_range, check_plateau_identity, check_scaling_identity, sp, sp_table

# counts for n = 1..15 and m = 2..6, cross-checked against both oracles
TABLE_ROWS = {
    2: [1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51],
    3: [1, 1, 1, 3, 3, 1, 5, 5, 1, 7, 7, 3, 13, 13, 3],
    4: [1, 1, 1, 1, 3, 3, 3, 1, 5, 5, 5, 1, 7, 7, 7],
    5: [1, 1, 1, 1, 1, 3, 3, 3, 3, 1, 5, 5, 5, 5, 1],
    6: [1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 1, 5, 5, 5],
}


def test_small_binary_counts():
    assert [sp(n, 2) for n in range(1, 11)] == [1, 1, 3, 1, 5, 3, 11, 1, 13, 5]
    assert sp(0, 2) == 1
    assert sp(0, 9) == 1
    assert sp(7, 2) == 11
    assert sp(13, 3) == 13


def test_table_rows():
    for m, row in TABLE_ROWS.items():
        assert [sp(n, m) for n in range(1, 16)] == row


def test_sp_table_shape_and_content():
    rows = sp_table(15, range(2, 7))
    assert len(rows) == 5 and all(len(r) == 15 for r in rows)
    for row, m in zip(rows, range(2, 7)):
        assert row == TABLE_ROWS[m]


@pytest.mark.parametrize("moduli", [[2, 1], [3, 2, 0], [2, "3"]])
def test_sp_table_checks_every_modulus_before_any_row(monkeypatch, moduli):
    built = []
    monkeypatch.setattr(recurrence, "_sp_range", lambda n, m: built.append(m))
    with pytest.raises(ValueError, match="modulus"):
        sp_table(299_998, moduli)
    assert built == []


def test_counts_match_brute_force():
    for m in (2, 3, 4, 5):
        for n in range(0, 16):
            assert sp(n, m) == len(oracle_sp(n, m))


def test_input_validation():
    with pytest.raises(ValueError):
        sp(-1, 2)
    with pytest.raises(ValueError):
        sp(5, 1)


def test_large_arguments_do_not_recurse():
    # a million reduces to 15625 by stripping factors of 2
    assert sp(10**6, 2) == sp(15625, 2)
    assert sp(10**6, 2) % 2 == 1
    # and with astronomically large weights that collapse by division
    assert sp(2**200, 2) == 1
    assert sp(3**100 * 2, 3) == 1


def test_warm_cache_matches_cold():
    # sp keeps no memo: a process that has computed many counts agrees
    # with a fresh interpreter, and the module holds no container that
    # could carry state from one call to the next
    warm = [sp(n, 3) for n in range(0, 300)]
    warm_again = [sp(n, 3) for n in range(0, 300)]
    code = "from semipell.recurrence import sp; print([sp(n, 3) for n in range(300)])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cold = json.loads(proc.stdout)
    assert warm == warm_again == cold == _sp_range(299, 3)
    state = {
        name
        for name, value in vars(recurrence).items()
        if not name.startswith("__") and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    }
    assert state == set()


@given(st.integers(0, 3000), st.integers(2, 9))
@settings(max_examples=60)
def test_count_is_odd_and_scale_invariant(n, m):
    value = sp(n, m)
    assert value % 2 == 1
    assert sp(n * m, m) == value


def test_monotone_odd_bisection():
    # sp(2n+3) = 2 sp(2n+2) + sp(2n+1) > sp(2n+1)
    for n in range(0, 200):
        a, b, c = (sp(2 * n + k, 2) for k in (1, 2, 3))
        assert c == 2 * b + a
        assert c > a


def test_plateau_identity_report():
    for m in (2, 3, 5):
        report = check_plateau_identity(60, m)
        assert report.passed
        assert report.checked == 61 * (m - 1)
    # spot value: the window at n=3, m=3 sits at 1 + 2*(1+1+1)
    assert sp(10, 3) == sp(11, 3) == 7


def test_plateau_initial_window():
    assert [sp(r, 5) for r in range(1, 5)] == [1, 1, 1, 1]


def test_scaling_identity_report():
    for m in (2, 3, 4):
        report = check_scaling_identity(m, 8, m)
        assert report.passed
    # m^j * (m*v + r) carries the count 2v + 1
    assert sp(36, 4) == 5  # j=1, v=2, r=1
    assert len(oracle_oc(36, 4)) == 5
    assert sp(2**9 * 7, 2) == sp(7, 2) == 11


def test_scaling_v_max_defaults_to_m():
    for m in (2, 3, 7):
        for j_max in (0, 5):
            explicit = check_scaling_identity(m, j_max, m)
            for report in (check_scaling_identity(m, j_max, None), check_scaling_identity(m, j_max)):
                assert report.params == explicit.params == {"m": m, "j_max": j_max, "v_max": m}
                assert report.lines() == explicit.lines()


def test_cache_file_roundtrip(capsys):
    # the package stores no counts; the JSON record of `count` is their
    # text form, and it reads back exactly, also far beyond float range
    for m in (2, 5):
        for n in list(range(0, 40)) + [10**18 + 1]:
            assert main(["count", str(n), str(m), "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert (record["n"], record["m"], int(record["sp"])) == (n, m, sp(n, m))
            assert record["sp"] == str(int(record["sp"]))


def test_cache_file_is_sorted_single_spaced(capsys):
    # `table` is the one text format that lists many counts: one tab
    # between fields, canonical base-10 values, moduli and weights in order
    assert main(["table", "25", "3", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split("\t")
    assert header == ["n"] + [str(n) for n in range(1, 26)]
    labels = []
    for line, m in zip(lines[1:], range(3, 6)):
        fields = line.split("\t")
        assert len(fields) == 26
        assert all(f == str(int(f)) for f in fields[1:])
        assert [int(f) for f in fields[1:]] == [sp(n, m) for n in range(1, 26)]
        labels.append(fields[0])
    assert labels == ["m=3", "m=4", "m=5"] and len(lines) == 4


def test_fast_count_matches_dense_recurrence():
    for m in range(2, 11):
        counts = _sp_range(5000, m)
        assert [sp(n, m) for n in range(5001)] == counts, m


def test_stretched_rows_expand_scaled_binomials():
    # the one table behind every point count, checked far deeper than
    # the dense comparison above reaches (at most 12 base-m digits)
    for m in range(2, 11):
        rows = recurrence._stretched_rows(m, 40)
        assert len(rows) == 41
        for j, row in enumerate(rows):
            assert len(row) == j + 1
            for t in range(46):
                assert sum(a * comb(t, i) for i, a in enumerate(row)) == comb(m * t, j), (m, j, t)


@given(st.integers(10**40 - 10**39, 10**40 + 10**39), st.integers(2, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_fast_count_obeys_the_recurrence_near_10_to_the_40(n, m, j):
    # sp is built from the plateau identity, not from this recurrence
    r = n % m
    if r:
        assert sp(n, m) == 2 * sp(n - r, m) + sp(n - m, m)
    assert sp(m**j * n, m) == sp(n, m)


def test_point_count_far_beyond_a_dense_range():
    value = sp(10**18 + 1, 2)
    assert value % 2 == 1
    assert len(str(value)) == 455
