import json
import os
import subprocess
import sys
from itertools import accumulate
from math import comb
from operator import mul
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


def test_repeated_counts_match_a_fresh_process():
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


def test_count_json_reads_back_exactly(capsys):
    # the package stores no counts; the JSON record of `count` is their
    # text form, and it reads back exactly, also far beyond float range
    for m in (2, 5):
        for n in list(range(0, 40)) + [10**18 + 1]:
            assert main(["count", str(n), str(m), "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert (record["n"], record["m"], int(record["sp"])) == (n, m, sp(n, m))
            assert record["sp"] == str(int(record["sp"]))


def test_table_output_is_ordered_and_tab_separated(capsys):
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


def _stretched_rows(m, depth):
    """Row j <= depth lists the integers a_i with C(m t, j) = sum_i a_i C(t, i).

    Entry 0 is the value at t = 0.  Entry i + 1 is entry i of the
    forward difference C(m t + m, j) - C(m t, j), which by Vandermonde's
    identity is sum_{a >= 1} C(m, a) C(m t, j - a).
    """
    choose_m = [comb(m, a) for a in range(min(m, depth) + 1)]
    rows = []
    for j in range(depth + 1):
        row = [int(j == 0)]
        for i in range(j):
            row.append(sum(choose_m[a] * rows[j - a][i] for a in range(1, min(m, j - i) + 1)))
        rows.append(row)
    return rows


def test_stretched_rows_expand_scaled_binomials():
    # the table behind both slow paths below, checked far deeper than
    # the dense comparison above reaches (at most 12 base-m digits)
    for m in range(2, 11):
        rows = _stretched_rows(m, 40)
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


def _prefix_count(q, m):
    """sp(0, m) + sp(1, m) + ... + sp(q, m), one level per base-m digit of q.

    The slow path sp replaced: each level replaces the prefix x by
    x' = m x + d and carries

        P[i] = sum_{t < x} C(t, i) sp(t)    and    T = sum_{t <= x} sp(t).

    Splitting k < x' as k = m t + r: the terms r = 0 give sp(t), and
    the terms 0 < r < m give 2 T(t) - 1 by the plateau identity.  Their
    binomial weights C(m t + r, j) summed over 0 < r < m are
    C(m t + m, j + 1) - C(m t + 1, j + 1) (hockey stick), a polynomial of
    degree j in t, so no level loops over residues.  Both terms come from
    the one table of C(m t, j) in the basis C(t, i): the first is row
    j + 1 shifted by one in t, the second is rows j + 1 and j added
    (Pascal), so fill[j][i] = scaled[j + 1][i + 1] - scaled[j][i].
    Rewritten in the basis C(t, i), the sum over t < x of C(t, i) T(t) is
    C(x, i + 1) P[0] - P[i + 1], and P[j] at x' needs P up to j + 1 at x:
    the degree the top level needs, 0, rises by one per level below it.
    Unlike sp, every level reads binomials of the prefix x itself.
    """
    digits = []
    while q:
        q, d = divmod(q, m)
        digits.append(d)
    depth = len(digits)
    scaled = _stretched_rows(m, depth)
    # fill[j]: the residue block sum_{0<r<m} C(m t + r, j), basis C(t, i)
    fill = [[a - b for a, b in zip(scaled[j + 1][1:], scaled[j])] for j in range(depth)]
    # weight[j][i]: coefficient of P[i] in the full blocks t < x
    weight = [[a - 2 * b for a, b in zip(scaled[j] + [0], [0] + fill[j])] for j in range(depth)]
    x, T = 0, 1
    P = [0] * (depth + 1)
    for d in reversed(digits):
        depth -= 1
        sp_x = T - P[0]
        choose_x = [comb(x, i + 1) for i in range(depth + 1)]
        base = m * x
        nxt = []
        for j in range(depth + 1):
            value = sum(map(mul, weight[j], P)) + (2 * P[0] - 1) * sum(map(mul, fill[j], choose_x))
            if d:
                # the partial block t = x: residue 0, then residues 1 .. d - 1
                value += comb(base, j) * sp_x + (2 * T - 1) * (comb(base + d, j + 1) - comb(base + 1, j + 1))
            nxt.append(value)
        T = nxt[0] + (2 * T - 1 if d else sp_x)
        P = nxt
        x = base + d
    return T


def _prefix_sp(n, m):
    """sp(n, m) through _prefix_count and the plateau identity."""
    while n and n % m == 0:
        n //= m
    return 1 if n < m else 2 * _prefix_count(n // m, m) - 1


@given(
    st.sampled_from([12, 40, 50]).flatmap(lambda e: st.integers(10**e - 10 ** (e - 1), 10**e + 10 ** (e - 1))),
    st.integers(2, 10),
)
@settings(max_examples=30, deadline=None)
def test_level_count_matches_prefix_reference(n, m):
    assert sp(n, m) == _prefix_sp(n, m)


@given(st.integers(10**40 - 10**39, 10**40 + 10**39), st.integers(2, 10**6) | st.integers(10**6, 10**25))
@settings(max_examples=30, deadline=None)
def test_level_count_matches_prefix_reference_for_large_moduli(n, m):
    # moduli above 10^6 give digits above 10^6 to _level's shift rows
    assert sp(n, m) == _prefix_sp(n, m)


def _moments(values, x, depth):
    """Q[j] = sum_{t < x} C(x - 1 - t, j) values[t] for j <= depth, summed term by term."""
    return [sum(comb(x - 1 - t, j) * values[t] for t in range(x)) for j in range(depth + 1)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_level_step_takes_the_moments_of_any_sequence(data):
    # b(0..x) are arbitrary integers, not counts, and the moments at the
    # longer prefix are summed directly, so nothing here goes through sp
    m = data.draw(st.sampled_from([*range(2, 11), 97]))
    b = data.draw(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=25))
    d = data.draw(st.integers(0, m - 1))
    depth = data.draw(st.integers(0, 8))
    x = len(b) - 1
    total = list(accumulate(b))
    # b(m u) = b(u) and b(m u + c) = 2 B(u) for 0 < c < m, up to m x + d
    longer = [b[s // m] if s % m == 0 else 2 * total[s // m] for s in range(m * x + d + 1)]
    table = recurrence._level_table(m, depth)
    assert [len(row) for row in table] == list(range(2, depth + 3))
    Q, b_next = recurrence._level(table, _moments(b, x, depth + 1), b[x], d)
    assert Q == _moments(longer, m * x + d, depth)
    assert b_next == longer[m * x + d]


def _two_stage_level_table(m, depth):
    """The level table in two stages: rows C(m v, j - a) of _stretched_rows
    times C(m - 1, a) and C(m - 1, a + 1) (Vandermonde, hockey stick)."""
    scaled = _stretched_rows(m, depth)
    rows = [[0] * (j + 2) for j in range(depth + 1)]
    for j, row in enumerate(rows):
        for a in range(min(m - 1, j) + 1):
            top, block = comb(m - 1, a), 2 * comb(m - 1, a + 1)
            for i, s in enumerate(scaled[j - a]):
                row[i] += (top + block) * s
                row[i + 1] += block * s
    return rows


def test_level_table_matches_two_stage_construction():
    # every depth up to 12, and the depth sp reaches at COUNT_LIMIT
    for m in [*range(2, 11), 97, 10**6, 10**25]:
        q, full = recurrence.COUNT_LIMIT // m, -1
        while q:
            q, full = q // m, full + 1
        for depth in [*range(-1, 13), full]:
            assert recurrence._level_table(m, depth) == _two_stage_level_table(m, depth), (m, depth)


def test_level_table_rows_do_not_depend_on_depth():
    # a deeper table only appends rows, so one table built for the
    # deepest count serves every shallower one
    for m in [*range(2, 11), 97]:
        q, full = recurrence.COUNT_LIMIT // m, -1
        while q:
            q, full = q // m, full + 1
        deepest = recurrence._level_table(m, full)
        for depth in range(-1, full + 1):
            assert recurrence._level_table(m, depth) == deepest[: depth + 1], (m, depth)


@pytest.mark.parametrize("m", [2, 3, 10, 97])
def test_fold_refuses_a_table_too_shallow_for_the_weight(m):
    # n = m^5 + 1 has q = m^4, five base-m digits: the table needs depth 4
    n = m**5 + 1
    for depth in (4, 5, 9):
        assert recurrence._fold(recurrence._level_table(m, depth), n, m) == sp(n, m), depth
    for depth in (-1, 0, 3):
        with pytest.raises(RuntimeError, match="too shallow"):
            recurrence._fold(recurrence._level_table(m, depth), n, m)
    # no table: _fold builds one for the weight's own digits
    for k in (0, 1, m - 1, n, 2**200):
        assert recurrence._fold(None, k, m) == sp(k, m), k
    assert recurrence._fold(None, 0, m) == recurrence._fold(None, m - 1, m) == 1


@pytest.mark.parametrize(
    "args, lines",
    [
        ((2, 0, 9999), ["PASS scaling checked=10003"]),
        ((10, 11, 10), ["PASS scaling checked=2376"]),
        ((3, 4, None), ["PASS scaling checked=80"]),
    ],
)
def test_scaling_sweep_counts_on_one_table(monkeypatch, args, lines):
    # the reports the sweep gave when every count went through sp
    built = []
    level_table = recurrence._level_table
    monkeypatch.setattr(recurrence, "_level_table", lambda m, depth: built.append(depth) or level_table(m, depth))
    assert check_scaling_identity(*args).lines() == lines
    assert len(built) == 1
