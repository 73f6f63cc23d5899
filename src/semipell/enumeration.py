"""Exhaustive generation of semi-m-Pell compositions and run forms.

Two generators build the families from smaller weights.  When m
divides the weight n, both scale every object of weight n // m by m
(multiply each part, or each run base, by m).  For n = mq + r with
0 < r < m they differ.

Compositions follow the plateau identity sp(mq + r) = 1 + 2(sp(1) +
... + sp(q)).  A member is (n) itself, or the part n - w glued to the
front or the back of a member of weight w = m, 2m, ..., mq.  A member
of weight w is m times a member of weight w // m, so the glued part is
the one part not divisible by m, and its size and end tell the sources
apart.  Each source is built by map, one tuple per member, and the
weight's list is sorted once, lexicographically.

Run forms follow the paper's recursion: glue a run of r ones to the
front or the back of a form of weight n - r, or grow the unique run of
ones of a form of weight n - m by m ones.  In a form of weight n - m
the run of ones has the smallest base, and a strictly unimodal
sequence holds its minimum only at its first or last place, so the
run is grown at the end where it sits.  A form of weight n - m without
exactly one run of ones at one of its ends is a hard failure (a
RuntimeError, also under python -O).  The check takes two steps: one
count over the run bases of the whole weight, which must equal the
number of forms, and a test of each form's two ends.  Every form then
holds one run of ones at an end and no second one anywhere.

In both generators the sources of a weight are pairwise disjoint;
that is checked as each weight is built, and a duplicate is a hard
failure too.

Run forms come out in order because every source keeps the order of
the list it is built from.  Scaling multiplies every part by m.
Gluing adds the same run to the front or the back of forms of one
weight, none of which is a prefix of another.  Growing lengthens by m
the run of ones, which sits at one end of every form; two forms that
first differ before their runs of ones, or in the lengths of those
runs, still do afterwards.  So the grown forms are already in order,
those that start with their run of ones first, and the three sorted
lists need only a merge.  Runs are shared, not copied: a scaled run is
built once per distinct run of the lighter weight, a grown run of ones
once per multiplicity and the glued run once per weight.  Scaled and
glued forms are built by map, one tuple each, and a grown one by a
slice and a concatenation, so generating them allocates little beyond
the forms themselves.

Two oracles cross-check the generators by raw search that shares none
of the construction logic.  oracle_sp grows compositions of n part by
part and drops a prefix as soon as its max m-powers repeat or rise
after a fall; both failures survive any extension, so only prefixes of
members are visited, and every complete composition still goes through
the membership test.  oracle_oc searches all ways to pick distinct
powers of m with multiplicities not divisible by m summing to n, then
arranges each non-peak power on the left or right of the peak; it
prunes by divisibility alone, never by the shape of a form.  The oracles
share only a sort key: oracle_oc orders its forms by _runform_order, the
generator's.  Both refuse weights above a hard bound rather than grind.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import chain, repeat
from operator import countOf, itemgetter
from typing import List

from .core import (
    Composition,
    CongruenceReport,
    RunForm,
    check_bound,
    check_modulus,
    is_semi_m_pell,
)

# Hard input bounds.  The pruned composition search visits only member
# prefixes, a few milliseconds at 40; the run-form search and the
# generators stay small further out.
SP_ORACLE_LIMIT = 40
OC_ORACLE_LIMIT = 60
ENUMERATION_LIMIT = 100


@lru_cache(maxsize=None)
def _sp_members(n: int, m: int) -> tuple:
    if n == 0:
        return ((),)
    if n % m == 0:
        return tuple(map(tuple, map(map, repeat(m.__mul__), _sp_members(n // m, m))))
    out = [(n,)]
    for w in range(m, n, m):
        glue = (n - w,)
        lighter = _sp_members(w, m)
        out += map(glue.__add__, lighter)
        out += map(tuple.__add__, lighter, repeat(glue))
    if len(set(out)) != len(out):
        raise RuntimeError(f"construction sources overlap at n={n}, m={m}")
    out.sort()
    return tuple(out)


def _runform_order(runs: RunForm) -> List[int]:
    """Sort key of a run form: the order of its flattened parts in O(runs).

    Adjacent runs never share a base, so two flattened sequences first
    differ inside the first run where the forms differ.  With equal base
    b a longer run compares larger when the next base is smaller or
    absent, and smaller when it is larger.  So run (b, u) contributes
    (b, 0, u) or (b, 1, -u); the key is built back to front, where the
    next base is at hand, and then reversed.
    """
    key: List[int] = []
    after = 0  # base of the next run, 0 past the end
    for b, u in reversed(runs):
        key += (-u, 1, b) if after > b else (u, 0, b)
        after = b
    key.reverse()
    return key


_run_base = itemgetter(0)


@lru_cache(maxsize=None)
def _oc_members(n: int, m: int) -> tuple:
    if n == 0:
        return ((),)
    if n < m:
        return (((1, n),),)
    if n % m == 0:
        lighter = _oc_members(n // m, m)
        scaled = {run: (run[0] * m, run[1]) for run in set(chain.from_iterable(lighter))}
        return tuple(map(tuple, map(map, repeat(scaled.__getitem__), lighter)))
    r = n % m
    glue = ((1, r),)
    shorter = _oc_members(n - r, m)
    lower = _oc_members(n - m, m)
    if countOf(map(_run_base, chain.from_iterable(lower)), 1) != len(lower):
        raise RuntimeError(f"a weight {n - m} run form lacks a unique run of ones")
    grow = {u: ((1, u + m),) for u in range(r, n - m + 1, m)}  # run of u ones, grown
    leading: List[RunForm] = []  # grown forms that start with their run of ones
    trailing: List[RunForm] = []  # grown forms that do not
    for rf in lower:
        if rf[0][0] == 1:
            leading.append(grow[rf[0][1]] + rf[1:])
        elif rf[-1][0] == 1:
            trailing.append(rf[:-1] + grow[rf[-1][1]])
        else:
            raise RuntimeError(f"weight {n - m} run form {rf} lacks a unique run of ones")
    # A leading run of ones longer than r sorts before the front-glued
    # forms, whose r ones meet a base of at least m; every other form
    # starts with a base of at least m.  So the order is the leading
    # grown forms, then the front-glued ones, then the back-glued ones
    # merged into the trailing grown ones.  The back-glued forms are few,
    # sp(n - r) = sp((n - r) / m) of them, so each is placed by galloping
    # from where the last one went, in steps of 1, 2, 4, ... forms, and
    # bisecting the last step; only those probes compute a sort key.
    out = leading
    out += map(glue.__add__, shorter)
    at = 0  # where the last back-glued form went
    for rf in shorter:
        glued = rf + glue
        key = _runform_order(glued)
        lo = hi = at
        step = 1
        while hi < len(trailing) and _runform_order(trailing[hi]) < key:
            lo = hi + 1
            hi += step
            step += step
        hi = bisect_left(trailing, key, lo, min(hi, len(trailing)), key=_runform_order)
        out += trailing[at:hi]
        out.append(glued)
        at = hi
    out += trailing[at:]
    if len(set(out)) != len(out):
        raise RuntimeError(f"construction sources overlap at n={n}, m={m}")
    return tuple(out)


def enumerate_sp(n: int, m: int) -> List[Composition]:
    """All semi-m-Pell compositions of n in lexicographic part order."""
    check_modulus(m)
    check_bound(n, ENUMERATION_LIMIT, "enumerate_sp weight")
    return list(_sp_members(n, m))


def enumerate_oc(n: int, m: int) -> List[RunForm]:
    """All run forms of weight n, ordered by their flattened parts."""
    check_modulus(m)
    check_bound(n, ENUMERATION_LIMIT, "enumerate_oc weight")
    return list(_oc_members(n, m))


def oracle_sp(n: int, m: int) -> List[Composition]:
    """Brute-force reference: a pruned search over the compositions of n.

    A depth-first walk appends parts 1, 2, ... to one part list in
    place and abandons a prefix whose max m-powers repeat or rise after
    a fall, since no extension can repair either.  Each complete
    composition then goes through is_semi_m_pell.  Shares nothing with
    the recursive construction.
    """
    check_modulus(m)
    check_bound(n, SP_ORACLE_LIMIT, "oracle_sp weight")
    if n == 0:
        return [()]
    power = [0] * (n + 1)  # power[p] is the max m-power of p
    for p in range(1, n + 1):
        power[p] = m * power[p // m] if p % m == 0 else 1
    members: List[Composition] = []
    parts: List[int] = []
    seen = set()

    def rec(remaining: int, prev: int, falling: bool) -> None:
        for p in range(1, remaining + 1):
            x = power[p]
            if x in seen or (falling and x > prev):
                continue
            parts.append(p)
            if p == remaining:
                if is_semi_m_pell(parts, m):
                    members.append(tuple(parts))
            else:
                seen.add(x)
                rec(remaining - p, x, falling or x < prev)
                seen.discard(x)
            parts.pop()

    rec(n, 0, False)
    return sorted(members)


def oracle_oc(n: int, m: int) -> List[RunForm]:
    """Brute-force reference for run forms of weight n.

    Picks a set of distinct powers of m with multiplicities not
    divisible by m whose weighted sum is n, then sends every non-peak
    power to the left or the right of the peak; left runs ascend and
    right runs descend, so each choice yields exactly one run form.

    The bases are picked in ascending order, and the search is pruned
    by divisibility alone.  Every base after b is a multiple of m * b,
    so a remainder R is reachable only if b divides it: the walk stops
    at the first base that does not.  Taking b with multiplicity u
    leaves R - b * u, which the later bases can fill only if it is 0 or
    a multiple of m * b, that is if u = R / b mod m.  So a base whose
    quotient R / b is divisible by m is skipped (its u would be too),
    and u steps by m from R / b mod m up to R / b.
    """
    check_modulus(m)
    check_bound(n, OC_ORACLE_LIMIT, "oracle_oc weight")
    if n == 0:
        return [()]
    powers = []
    p = 1
    while p <= n:
        powers.append(p)
        p *= m
    found: List[RunForm] = []
    chosen: List[tuple] = []  # (base, mult), bases ascending

    def rec(idx: int, remaining: int) -> None:
        if remaining == 0:
            # place the runs below the peak from the largest down, each
            # at the far left or the far right of every form so far
            forms = [(chosen[-1],)]
            for run in reversed(chosen[:-1]):
                single = (run,)
                forms = [single + rf for rf in forms] + [rf + single for rf in forms]
            found.extend(forms)
            return
        for i in range(idx, len(powers)):
            base = powers[i]
            if remaining % base:
                break
            quotient = remaining // base
            if quotient % m == 0:
                continue
            for mult in range(quotient % m, quotient + 1, m):
                chosen.append((base, mult))
                rec(i + 1, remaining - base * mult)
                chosen.pop()

    rec(0, n)
    if len(set(found)) != len(found):
        raise RuntimeError(f"duplicate run form in search at n={n}, m={m}")
    return sorted(found, key=_runform_order)


def oracle_agreement(m: int, n_max: int, side: str = "both") -> CongruenceReport:
    """Set-compare generator output against the oracles for n <= n_max.

    Each instance records the size of the symmetric difference, which
    must be zero.  Weights beyond an oracle bound raise rather than
    silently shrink the sweep.
    """
    check_modulus(m)
    if side not in ("sp", "oc", "both"):
        raise ValueError(f"side must be sp, oc or both, got {side!r}")
    if side in ("sp", "both"):
        check_bound(n_max, SP_ORACLE_LIMIT, "oracle_sp weight")
    if side in ("oc", "both"):
        check_bound(n_max, OC_ORACLE_LIMIT, "oracle_oc weight")
    report = CongruenceReport("oracle", {"m": m, "n_max": n_max, "side": side})
    pairs = {"sp": (enumerate_sp, oracle_sp), "oc": (enumerate_oc, oracle_oc)}
    sides = ("sp", "oc") if side == "both" else (side,)
    diffs = [
        len(set(generate(n, m)) ^ set(oracle(n, m)))
        for n in range(n_max + 1)
        for generate, oracle in (pairs[s] for s in sides)
    ]
    k = len(sides)
    report.record_all(diffs, [0] * len(diffs), lambda i: f"{sides[i % k]}:n={i // k}")
    return report
