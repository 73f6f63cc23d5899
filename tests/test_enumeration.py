import ast
import hashlib
import importlib
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semipell
from semipell.core import SearchBoundExceeded, is_semi_m_pell, runform_failure, runform_parts, tau1, tau2, tau3
from semipell.enumeration import (
    ENUMERATION_LIMIT,
    enumerate_oc,
    enumerate_sp,
    oracle_agreement,
    oracle_oc,
    oracle_sp,
)
from semipell.recurrence import sp

# published member lists, in lexicographic part order
SP_LISTINGS = {
    (3, 2): [(1, 2), (2, 1), (3,)],
    (5, 2): [(1, 4), (2, 3), (3, 2), (4, 1), (5,)],
    (6, 2): [(2, 4), (4, 2), (6,)],
    (7, 2): [(1, 2, 4), (1, 4, 2), (1, 6), (2, 4, 1), (2, 5), (3, 4),
             (4, 2, 1), (4, 3), (5, 2), (6, 1), (7,)],
    (9, 2): [(1, 8), (2, 4, 3), (2, 7), (3, 2, 4), (3, 4, 2), (3, 6),
             (4, 2, 3), (4, 5), (5, 4), (6, 3), (7, 2), (8, 1), (9,)],
    (4, 3): [(1, 3), (3, 1), (4,)],
    (10, 3): [(1, 9), (3, 7), (4, 6), (6, 4), (7, 3), (9, 1), (10,)],
    (13, 3): [(1, 3, 9), (1, 9, 3), (1, 12), (3, 9, 1), (3, 10), (4, 9),
              (6, 7), (7, 6), (9, 3, 1), (9, 4), (10, 3), (12, 1), (13,)],
}

OC_LISTINGS = {
    (3, 2): [((1, 3),), ((1, 1), (2, 1)), ((2, 1), (1, 1))],
    (5, 2): [((1, 5),), ((1, 3), (2, 1)), ((1, 1), (4, 1)),
             ((2, 1), (1, 3)), ((4, 1), (1, 1))],
    (9, 2): [((1, 9),), ((1, 7), (2, 1)), ((1, 5), (4, 1)), ((1, 3), (2, 3)),
             ((1, 3), (2, 1), (4, 1)), ((1, 3), (4, 1), (2, 1)), ((1, 1), (8, 1)),
             ((2, 1), (1, 7)), ((2, 3), (1, 3)), ((2, 1), (4, 1), (1, 3)),
             ((4, 1), (1, 5)), ((4, 1), (2, 1), (1, 3)), ((8, 1), (1, 1))],
    (4, 3): [((1, 4),), ((1, 1), (3, 1)), ((3, 1), (1, 1))],
    (13, 3): [((1, 13),), ((1, 10), (3, 1)), ((1, 7), (3, 2)), ((1, 4), (9, 1)),
              ((1, 1), (3, 4)), ((1, 1), (3, 1), (9, 1)), ((1, 1), (9, 1), (3, 1)),
              ((3, 1), (1, 10)), ((3, 2), (1, 7)), ((3, 4), (1, 1)),
              ((3, 1), (9, 1), (1, 1)), ((9, 1), (1, 4)), ((9, 1), (3, 1), (1, 1))],
}


def test_published_sp_listings():
    for (n, m), want in SP_LISTINGS.items():
        assert enumerate_sp(n, m) == want


def test_published_oc_listings():
    for (n, m), want in OC_LISTINGS.items():
        assert enumerate_oc(n, m) == want


def test_base_cases():
    assert enumerate_sp(0, 2) == [()]
    assert enumerate_oc(0, 2) == [()]
    for m in (2, 3, 7):
        for n in range(1, m):
            assert enumerate_sp(n, m) == [(n,)]
            assert enumerate_oc(n, m) == [((1, n),)]
        assert enumerate_sp(m, m) == [(m,)]
        assert enumerate_oc(m, m) == [((m, 1),)]


def test_enumeration_counts_match_recurrence():
    for m in (2, 3, 4, 5):
        for n in range(0, 41):
            assert len(enumerate_sp(n, m)) == sp(n, m)
            assert len(enumerate_oc(n, m)) == sp(n, m)


def test_generated_objects_are_valid_and_sorted():
    for m in (2, 3, 4):
        for n in range(0, 31):
            comps = enumerate_sp(n, m)
            assert comps == sorted(comps)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == n and is_semi_m_pell(c, m) for c in comps)
            forms = enumerate_oc(n, m)
            flat = [runform_parts(rf) for rf in forms]
            assert flat == sorted(flat)
            assert len(set(forms)) == len(forms)
            assert all(sum(runform_parts(rf)) == n and runform_failure(rf, m) is None for rf in forms)


def test_exactly_one_residue_part_for_nonmultiples():
    # every member of a nonmultiple weight class has exactly one part
    # in the residue class, and that part sits on the boundary
    for m in (2, 3, 5):
        for n in range(1, 41):
            r = n % m
            if r == 0:
                continue
            for c in enumerate_sp(n, m):
                residue_at = [i for i, p in enumerate(c) if p % m == r]
                assert len(residue_at) == 1
                others = [p for p in c if p % m != r]
                assert all(p % m == 0 for p in others)
                if c[residue_at[0]] < m:
                    assert residue_at[0] in (0, len(c) - 1)


def _tau_images(n, m):
    """The members of weight n under the paper's reductions, each tagged by its branch.

    When m divides n, tau3 divides every part by m.  Otherwise the one
    residue part sits at an end: tau1 drops it when it is below m, and
    the tag says which end it left; tau2 lowers it by m when it is not.
    """
    images = Counter()
    for c in enumerate_sp(n, m):
        if n % m == 0:
            images["tau3", tau3(c, m)] += 1
            continue
        at = 0 if c[0] % m else len(c) - 1
        if c[at] < m:
            images["front" if at == 0 else "back", tau1(c, m)] += 1
        else:
            images["tau2", tau2(c, at + 1, m)] += 1
    return images


def test_tau_reductions_split_each_weight_as_the_recurrence_counts():
    # sp(n) = 2 sp(n - r) + sp(n - m) for n = mq + r, q >= 1, 0 < r < m,
    # and sp(mq) = sp(q), each read as a bijection: the tagged images are
    # every member of the smaller weights exactly once, a weight n - r
    # member once per end.  Below m the one member (n) is a residue part
    # whose two ends coincide, so the split starts at q = 1.
    for m in (2, 3, 4, 5):
        for n in range(m, 61):
            r = n % m
            if r:
                expected = Counter((end, c) for c in enumerate_sp(n - r, m) for end in ("front", "back"))
                expected.update(("tau2", c) for c in enumerate_sp(n - m, m))
            else:
                expected = Counter(("tau3", c) for c in enumerate_sp(n // m, m))
            assert _tau_images(n, m) == expected, (n, m)


def _unpruned_oracle_sp(n, m):
    # the reference walk: every one of the 2^(n-1) compositions of n
    # goes through the membership test, no prefix is ever dropped
    if n == 0:
        return [()]
    members = []
    parts = []

    def rec(remaining):
        for p in range(1, remaining):
            parts.append(p)
            rec(remaining - p)
            parts.pop()
        parts.append(remaining)
        if is_semi_m_pell(parts, m):
            members.append(tuple(parts))
        parts.pop()

    rec(n)
    return sorted(members)


def test_pruned_oracle_matches_unpruned_walk():
    for m in (2, 3, 4, 5):
        for n in range(0, 17):
            assert oracle_sp(n, m) == _unpruned_oracle_sp(n, m), (n, m)


def _unpruned_oracle_oc(n, m):
    # the reference search: every multiplicity not divisible by m of
    # every base up to the remainder is tried, with no divisibility
    # prune, and each pick is arranged by every left/right choice at once
    if n == 0:
        return [()]
    powers = []
    p = 1
    while p <= n:
        powers.append(p)
        p *= m
    found = []
    chosen = []

    def rec(idx, remaining):
        if remaining == 0 and chosen:
            peak = chosen[-1]
            rest = chosen[:-1]
            for sides in itertools.product((0, 1), repeat=len(rest)):
                left = tuple(run for run, s in zip(rest, sides) if s == 0)
                right = tuple(run for run, s in zip(rest, sides) if s == 1)
                found.append(left + (peak,) + right[::-1])
        for i in range(idx, len(powers)):
            base = powers[i]
            if base > remaining:
                break
            for mult in range(1, remaining // base + 1):
                if mult % m:
                    chosen.append((base, mult))
                    rec(i + 1, remaining - base * mult)
                    chosen.pop()

    rec(0, n)
    assert len(set(found)) == len(found)
    return sorted(found, key=runform_parts)


def test_pruned_oc_oracle_matches_unpruned_search():
    for m in (2, 3, 4, 5):
        for n in range(0, 41):
            assert oracle_oc(n, m) == _unpruned_oracle_oc(n, m), (n, m)


def test_oracle_leaves_go_through_membership(monkeypatch):
    import semipell.enumeration as enumeration

    checked = []

    def membership(parts, m):
        checked.append(tuple(parts))
        return is_semi_m_pell(parts, m) and parts[0] != 1

    monkeypatch.setattr(enumeration, "is_semi_m_pell", membership)
    got = oracle_sp(12, 2)
    assert got == [c for c in enumerate_sp(12, 2) if c[0] != 1]
    assert set(got) <= set(checked)


def test_oracle_sp_agrees_with_generator():
    for m in (2, 3, 4, 5):
        for n in range(0, 15):
            assert oracle_sp(n, m) == enumerate_sp(n, m)


def test_oracle_oc_agrees_with_generator():
    # up to the oracle's bound at m = 2 and 3, the weights the bench runs
    for m, n_max in ((2, 60), (3, 60), (4, 30), (5, 30)):
        for n in range(0, n_max + 1):
            assert oracle_oc(n, m) == enumerate_oc(n, m), (n, m)


def test_oracle_spot_values():
    assert oracle_sp(6, 2) == [(2, 4), (4, 2), (6,)]
    assert (2, 9, 4) not in oracle_sp(15, 2)
    assert (2, 10, 3) not in oracle_sp(15, 2)
    oc45 = set(oracle_oc(45, 2))
    assert ((16, 1), (4, 3), (2, 3), (1, 11)) in oc45
    assert ((2, 5), (4, 1), (8, 3), (1, 7)) in oc45
    assert ((1, 7), (8, 1), (16, 1), (2, 7)) in oc45
    assert ((2, 3), (4, 3), (16, 1), (2, 1), (1, 9)) not in oc45
    assert ((1, 3), (2, 5), (4, 1), (8, 3), (1, 4)) not in oc45
    # weight 92 is past the brute-force bound; the generator stands in,
    # having been matched against the oracle exhaustively above
    oc92 = set(enumerate_oc(92, 3))
    assert ((27, 2), (9, 2), (3, 2), (1, 14)) in oc92
    assert ((1, 8), (3, 13), (9, 2), (27, 1)) in oc92
    assert ((3, 14), (9, 1), (27, 1), (1, 14)) in oc92


def test_oracle_counts_match_recurrence_beyond_sp_bound():
    for n in range(25, 61):
        assert len(oracle_oc(n, 3)) == sp(n, 3)


def test_search_bounds_are_enforced():
    with pytest.raises(SearchBoundExceeded):
        oracle_sp(41, 2)
    with pytest.raises(SearchBoundExceeded):
        oracle_oc(61, 2)
    with pytest.raises(SearchBoundExceeded):
        enumerate_sp(ENUMERATION_LIMIT + 1, 2)
    with pytest.raises(SearchBoundExceeded):
        enumerate_oc(ENUMERATION_LIMIT + 1, 2)
    with pytest.raises(ValueError):
        enumerate_sp(-1, 2)
    with pytest.raises(ValueError):
        oracle_sp(5, 1)


def test_members_come_in_flattened_order():
    for m, n_max in [(2, 100)] + [(m, 60) for m in range(3, 11)]:
        for n in range(n_max + 1):
            comps = enumerate_sp(n, m)
            assert comps == sorted(comps)
            forms = enumerate_oc(n, m)
            assert forms == sorted(forms, key=runform_parts), (n, m)


# sha256 of the reprs of every list for n = 0..n_max, in order, cut to
# 32 hex digits, so that any change of content or order fails
GENERATOR_DIGESTS = {
    ("sp", 2, 100): "22440ede99a37d826d8bbc4c0a41c1d9",
    ("sp", 3, 60): "0f6bd9d76550e2c9441a2b23f347ec46",
    ("sp", 4, 60): "80df2f6b93100223d657e767be07f5aa",
    ("sp", 5, 60): "c9441a866ff84a344c8d5a6819f4457c",
    ("oc", 2, 100): "409fbac491fd17d7e474e18a71754d44",
    ("oc", 3, 60): "4e61a24831faf458c1c7ce624097092e",
    ("oc", 4, 60): "90658cc1e1c55a22b82df60d9a362266",
    ("oc", 5, 60): "99c8b83de90e8118b9ae236c1dcd62eb",
}


@pytest.mark.parametrize("side, m, n_max", sorted(GENERATOR_DIGESTS))
def test_generator_output_digest(side, m, n_max):
    generate = enumerate_sp if side == "sp" else enumerate_oc
    digest = hashlib.sha256()
    for n in range(n_max + 1):
        digest.update(repr(generate(n, m)).encode())
    assert digest.hexdigest()[:32] == GENERATOR_DIGESTS[side, m, n_max]


def test_run_forms_share_their_runs():
    # runs are shared between forms, not copied: the forms of every
    # weight up to 100 hold only a few thousand distinct run objects,
    # where a copy per form would make about 200,000
    runs = {id(run) for n in range(ENUMERATION_LIMIT + 1) for rf in enumerate_oc(n, 2) for run in rf}
    assert len(runs) < 10_000


@pytest.fixture
def corrupt(monkeypatch):
    """Make one weight of a generator memo return the given members.

    Returns the memo's unwrapped builder, whose recursion then reads the
    corrupted weight.  Both memos are cleared afterwards, so nothing
    built from the corrupted weight outlives the test.
    """
    import semipell.enumeration as enumeration

    memos = (enumeration._sp_members, enumeration._oc_members)

    def apply(name, weight, members):
        memo = getattr(enumeration, name)

        def patched(n, m):
            return tuple(members) if n == weight else memo(n, m)

        monkeypatch.setattr(enumeration, name, patched)
        return memo.__wrapped__

    yield apply
    for memo in memos:
        memo.cache_clear()


# (label, memo, m, weight to corrupt, its members, message).  As a
# composition, weight 7 is built from weights 2, 4 and 6 at m = 2 and
# from 3 and 6 at m = 3; as a run form, from weights 6 and 5 at m = 2 and
# from 6 and 4 at m = 3.  A case's id is built from the case alone, so
# adding or deleting a case renames no other; the labels "membersK" keep
# the ids these cases already had, and a new case takes a label of its own.
CORRUPTIONS = [
    ("members0", "_sp_members", 2, 6, [(2, 4), (2, 4), (4, 2), (6,)], "construction sources overlap"),
    ("members1", "_sp_members", 2, 6, [(1,), (2, 4), (4, 2), (6,)], "construction sources overlap"),
    ("members2", "_sp_members", 2, 4, [(4,), (4,)], "construction sources overlap"),
    ("members3", "_sp_members", 2, 2, [(2,), (2,)], "construction sources overlap"),
    # the part 3 glued to the front of one member and to the back of the other
    ("members4", "_sp_members", 2, 4, [(1, 3), (3, 1)], "construction sources overlap"),
    ("members5", "_oc_members", 2, 6, [((2, 3),), ((2, 3),), ((4, 1), (2, 1))], "construction sources overlap"),
    ("members6", "_oc_members", 2, 6, [((1, 1),), ((2, 3),), ((4, 1), (2, 1))], "construction sources overlap"),
    ("members7", "_oc_members", 2, 5, [((1, 5),), ((1, 5),), ((4, 1), (1, 1))], "construction sources overlap"),
    ("members8", "_oc_members", 2, 5, [((1, 5),), ((1, 1), (2, 1), (1, 1)), ((4, 1), (1, 1))], "lacks a unique run of ones"),
    ("members9", "_oc_members", 2, 5, [((1, 5),), ((2, 1), (4, 1)), ((4, 1), (1, 1))], "lacks a unique run of ones"),
    ("members10", "_sp_members", 3, 3, [(3,), (3,)], "construction sources overlap"),
    # one run of ones per form, but in the middle of one
    ("members11", "_oc_members", 2, 5, [((1, 5),), ((2, 1), (1, 1), (2, 1)), ((4, 1), (1, 1))], "lacks a unique run of ones"),
    # the part 1 glued to either end of a member made of ones
    ("members12", "_sp_members", 3, 6, [(1,) * 6], "construction sources overlap"),
    # as many runs of ones as forms, but none in one and two in the other
    ("members13", "_oc_members", 3, 4, [((2, 2),), ((1, 1), (2, 1), (1, 1))], "lacks a unique run of ones"),
]
CORRUPTION_IDS = [
    f"{memo}-{weight}-{label}-{message}" + (f"-m{m}" if m != 2 else "")
    for label, memo, m, weight, _, message in CORRUPTIONS
]
if len(set(CORRUPTION_IDS)) != len(CORRUPTION_IDS):
    raise ValueError("two corruption cases share an id")


@pytest.mark.parametrize("memo, m, weight, members, message", [case[1:] for case in CORRUPTIONS], ids=CORRUPTION_IDS)
def test_generator_hard_failures(corrupt, memo, m, weight, members, message):
    build = corrupt(memo, weight, members)
    with pytest.raises(RuntimeError, match=message):
        build(7, m)


def test_returned_lists_are_fresh():
    for enumerate_family in (enumerate_sp, enumerate_oc):
        first = enumerate_family(23, 2)
        want = list(first)
        first.reverse()
        first.append(None)
        first[0] = ()
        assert enumerate_family(23, 2) == want
        assert enumerate_family(23, 2) is not enumerate_family(23, 2)


def test_oracle_agreement_reports():
    report = oracle_agreement(2, 10)
    assert report.passed and report.checked == 22
    report = oracle_agreement(3, 30, side="oc")
    assert report.passed and report.checked == 31
    with pytest.raises(ValueError):
        oracle_agreement(2, 10, side="nope")


@given(st.integers(0, ENUMERATION_LIMIT), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_generator_members_pass_membership(n, m):
    members = enumerate_sp(n, m)
    assert len(members) == sp(n, m)
    for c in members[:50]:
        assert is_semi_m_pell(c, m)


def test_package_has_no_assert_statements():
    # the generators' hard failures must survive python -O, which strips asserts
    sources = sorted(Path(semipell.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_public_names_are_used():
    # every exported name is read by the CLI, the README or the benchmark;
    # a name only tests read belongs in its module, not in __all__
    root = Path(__file__).resolve().parents[1]
    sources = [Path(semipell.__file__).parent / "cli.py", root / "README.md"]
    sources += sorted((root / "bench").glob("*.py"))
    words = set()
    for path in sources:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = sorted(set(semipell.__all__) - words)
    assert not unused, unused


# the package's public names, by defining module, written out apart from
# the package's own table
PUBLIC_NAMES = {
    "bijection": ["check_roundtrip", "roundtrip_check"],
    "congruence": [
        "check_mod3",
        "check_mod4_base",
        "check_mod4_general",
        "check_ob_parity",
        "check_oddness",
        "check_partial_sum_mod3",
        "check_special_cases",
    ],
    "core": [
        "CongruenceReport",
        "SearchBoundExceeded",
        "from_oc",
        "is_semi_m_pell",
        "runform_failure",
        "runform_parts",
        "tau1",
        "tau2",
        "tau3",
        "to_oc",
    ],
    "enumeration": ["enumerate_oc", "enumerate_sp", "oracle_agreement", "oracle_oc", "oracle_sp"],
    "recurrence": ["check_plateau_identity", "check_scaling_identity", "sp", "sp_table"],
    "series": ["check_functional_equation", "functional_equation_residual", "qm_series"],
}


def test_package_namespace():
    # the package loads its modules on first use, and each public name is
    # the object its defining module holds
    names = sorted(name for group in PUBLIC_NAMES.values() for name in group)
    assert len(names) == 31
    assert semipell.__all__ == names
    for module, group in PUBLIC_NAMES.items():
        defining = importlib.import_module(f"semipell.{module}")
        for name in group:
            assert getattr(semipell, name) is getattr(defining, name), name
    star = {}
    exec("from semipell import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(semipell))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(semipell, "no_such_name")
