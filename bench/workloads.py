"""Seeded workloads of the semipell benchmark: inputs, execution, checks.

Each workload is a fixed batch of operations ("ops") built from the seed
alone.  An op is a tuple whose first item names what to call: a public
function of the package (looked up on the api namespace), or one of the
two benchmark-side kinds "members" and "cli".  The seed picks concrete
inputs inside fixed strata, so the work in one batch stays nearly the
same from seed to seed while the numbers themselves change.

Outputs are checked after the timed phase, mostly against a dense count
recurrence written here and against closed-form instance totals, so a
check never trusts the function it checks.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("library", "cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Every op of a round lies beyond the tail percentile's cut-off in at
# least this many rounds; the runner never measures fewer.
MIN_ROUNDS = 3

Op = Tuple


def dense_counts(n_max: int, m: int) -> List[int]:
    """sp(0..n_max, m) by the three-way recurrence, bottom up."""
    a = [1] * (n_max + 1)
    for k in range(m, n_max + 1):
        r = k % m
        a[k] = a[k // m] if r == 0 else 2 * a[k - r] + a[k - m]
    return a


# Instances a congruence or identity sweep must report, from its
# parameters alone.
EXPECTED_CHECKED = {
    "check_oddness": lambda n_max, m: n_max + 1,
    "check_mod4_base": lambda n_max: n_max + 1,
    "check_mod4_general": lambda m, j_max: 2 * (j_max + 1),
    "check_mod3": lambda m, j_max: (j_max + 1) * (m - 1),
    "check_partial_sum_mod3": lambda m, j_max: j_max + 1,
    "check_ob_parity": lambda n_max: (n_max + 1) // 2,
    "check_special_cases": lambda j_max: 7 * (j_max + 1),
    "check_plateau_identity": lambda v_max, m: (v_max + 1) * (m - 1),
    "check_scaling_identity": lambda m, j_max, v_max: (j_max + 1) * (m - 1) * (v_max + 1 + min(v_max, m) + 1),
}

# CLI family name and flag names, in the function's argument order.
CLI_CHECK_FLAGS = {
    "check_oddness": ("oddness", ("nmax", "m")),
    "check_mod4_base": ("mod4", ("nmax",)),
    "check_mod4_general": ("mod4-general", ("m", "jmax")),
    "check_mod3": ("mod3", ("m", "jmax")),
    "check_partial_sum_mod3": ("partial-sum", ("m", "jmax")),
    "check_ob_parity": ("ob-parity", ("nmax",)),
    "check_plateau_identity": ("plateau", ("vmax", "m")),
    "check_scaling_identity": ("scaling", ("m", "jmax", "vmax")),
    "check_special_cases": ("special-cases", ("jmax",)),
}

MOD3_MODULI = (4, 7, 10)

# Highest series order a memory round reruns.  tracemalloc slows
# big-integer code many times over; a series product of order 2048 takes
# half a minute under it, so the series peaks are measured near 1024.
MEMORY_MAX_ORDER = 1100


def compositions(n: int) -> List[Tuple[int, ...]]:
    """All 2^(n-1) compositions of n >= 1, one per set of cut points."""
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        last = 0
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return out


def counts_ops(rng: random.Random) -> List[Op]:
    # 36 strata, log-spaced over 10^4..10^6, run in ascending order.  The
    # modulus and branch of each stratum are fixed so that every modulus
    # 2..10 meets every size range and the heaviest op is always a
    # non-multiple for m = 2.  The seed picks the residue and a point in
    # the middle quarter of each stratum: a wider spread would move the
    # work, and the peak memory of the largest op, from seed to seed.
    ops = []
    strata = 36
    for j in range(strata):
        m = 10 - j % 9
        t = int(10 ** (4 + 2 * (j + 0.375 + rng.random() / 4) / strata))
        if j % 2:
            n = t - t % m + rng.randrange(1, m)
        else:
            h = t // m
            n = m * (h + 1 if h % m == 0 else h)
        ops.append(("sp", n, m))
    return ops


def series_ops(rng: random.Random) -> List[Op]:
    # One call per modulus, qm_series for even m and the residual for
    # odd m, at orders near 2048 for m = 2, 5, 6 and near 1024 otherwise;
    # the seed picks the jitter and the order of the calls.
    ops = []
    for m in range(2, 9):
        kind = "qm_series" if m % 2 == 0 else "functional_equation_residual"
        order = 2048 - rng.randrange(32) if m in (2, 5, 6) else 1024 + rng.randrange(32)
        ops.append((kind, m, order))
    rng.shuffle(ops)
    return ops


def verify_ops(rng: random.Random) -> List[Op]:
    top = 10**4
    ops: List[Op] = []
    for m in range(2, 11):
        ops.append(("check_oddness", top - rng.randrange(500), m))
        ops.append(("check_mod4_general", m, (top - rng.randrange(500)) // (2 * m)))
        ops.append(("check_plateau_identity", (top - rng.randrange(500)) // m, m))
        ops.append(("check_scaling_identity", m, rng.randint(8, 12), m))
    ops.append(("check_mod4_base", top // 2 - rng.randrange(250)))
    for m in MOD3_MODULI:
        ops.append(("check_mod3", m, (top - rng.randrange(500)) // (m * m)))
        ops.append(("check_partial_sum_mod3", m, (top - rng.randrange(500)) // m))
    ops.append(("check_ob_parity", 2000 - rng.randrange(100)))
    ops.append(("check_special_cases", 200 - rng.randrange(20)))
    ops.append(("sp_table", 2000 - rng.randrange(100), tuple(range(2, 11))))
    rng.shuffle(ops)
    # Generators in ascending weight, as a sweep over weights meets them.
    ops += [("enumerate_sp", n, 2) for n in range(101)]
    ops += [("enumerate_oc", n, 2) for n in range(101)]
    ops += [("roundtrip_check", n, 2) for n in range(61)]
    moduli = [2, 3, 4, 5]
    rng.shuffle(moduli)
    ops += [("oracle_sp", n, m) for n, m in zip(range(17, 21), moduli)]
    ops += [("oracle_oc", n, rng.choice((2, 3))) for n in range(40, 61)]
    ops += [("members", n, rng.randint(2, 5), compositions(n)) for n in range(1, 17)]
    ops += [("functional_equation_residual", m, 256 - rng.randrange(32)) for m in range(2, 11)]
    return ops


def memory_ops(ops: Sequence[Op]) -> List[int]:
    """Indices of the ops a memory round reruns: for each kind with a
    traced-memory metric, the first op with the largest output."""

    def output_size(op: Op) -> Optional[int]:
        kind = op[0]
        if kind == "sp":
            return op[1]
        if kind in ("qm_series", "functional_equation_residual"):
            return op[2] if op[2] <= MEMORY_MAX_ORDER else None
        if kind in ("enumerate_sp", "enumerate_oc", "oracle_sp", "oracle_oc"):
            return dense_counts(op[1], op[2])[op[1]]
        return None

    best: Dict[str, Tuple[int, int]] = {}
    for i, op in enumerate(ops):
        size = output_size(op)
        if size is not None and (op[0] not in best or size > best[op[0]][0]):
            best[op[0]] = (size, i)
    return sorted(i for _, i in best.values())


def format_composition(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def format_runform(runs: Sequence[Tuple[int, int]]) -> str:
    return "(" + ",".join(str(b) if u == 1 else f"{b}^{u}" for b, u in runs) + ")"


def cli_ops(rng: random.Random, api) -> List[Op]:
    """Commands as ("cli", argv, expect); expect says what must come out."""
    # Five commands compute for about twice as long as the interpreter
    # takes to start: two counts near 2 * 10^5, series of order near 900
    # for m = 2 and 3, and an oracle sweep to 17.  They outnumber the ten
    # samples per three rounds beyond the tail percentile, so the tail
    # falls among them and measures work rather than start-up noise.
    # The two counts are odd: an even n reduces to n / 2^k at once.
    specs = [
        ("count", 200_001 + 2 * rng.randrange(1000), 2, False),
        ("count", 200_001 + 2 * rng.randrange(1000), 2, True),
        ("series", 2, 896 + rng.randrange(8)),
        ("series", 3, 960 + rng.randrange(8)),
        ("check", ("check", "oracle", "--m", "2", "--nmax", "17"), "oracle", 36),
    ]
    for i in range(4):
        n = int(10 ** (4 * rng.random()))
        specs.append(("count", n, rng.randint(2, 10), i < 1))
    for _ in range(4):
        lo = rng.randint(2, 5)
        specs.append(("table", rng.randint(10, 30), lo, lo + rng.randint(0, 3)))
    for i in range(6):
        specs.append(("enum", rng.randint(5, 14), rng.randint(2, 4), "oc" if i % 2 else "sp"))
    for i in range(6):
        n, m = rng.randint(10, 40), rng.randint(2, 4)
        if i % 2:
            specs.append(("from-oc", rng.choice(api.enumerate_oc(n, m)), m))
        else:
            specs.append(("to-oc", rng.choice(api.enumerate_sp(n, m)), m))
    for _ in range(3):
        specs.append(("series", rng.randint(2, 6), rng.randint(16, 64)))
    m4 = rng.choice(MOD3_MODULI)
    sweeps = [
        ("check_oddness", (rng.randint(200, 600), rng.randint(2, 10))),
        ("check_mod4_base", (rng.randint(100, 300),)),
        ("check_mod4_general", (rng.randint(2, 10), rng.randint(20, 60))),
        ("check_mod3", (m4, rng.randint(10, 40))),
        ("check_partial_sum_mod3", (m4, rng.randint(20, 60))),
        ("check_ob_parity", (rng.randint(100, 300),)),
        ("check_plateau_identity", (rng.randint(20, 60), rng.randint(2, 10))),
        ("check_scaling_identity", (rng.randint(2, 10), rng.randint(4, 10), rng.randint(1, 4))),
        ("check_special_cases", (rng.randint(20, 60),)),
    ]
    for name, args in sweeps:
        family, flags = CLI_CHECK_FLAGS[name]
        argv = ["check", family]
        for flag, value in sorted(zip(flags, args)):
            argv += [f"--{flag}", str(value)]
        specs.append(("check", tuple(argv), family, EXPECTED_CHECKED[name](*args)))
    nmax = rng.randint(6, 14)
    specs.append(("check", ("check", "roundtrip", "--m", str(rng.randint(2, 4)), "--nmax", str(nmax)), "roundtrip", 3 * (nmax + 1)))
    order = rng.randint(32, 128)
    specs.append(("check", ("check", "funceq", "--m", str(rng.randint(2, 8)), "--order", str(order)), "funceq", order + 1))
    # Past the generators' hard bound: the one command that must exit 3.
    specs.append(("refused", rng.randint(101, 120), rng.randint(2, 4)))
    rng.shuffle(specs)
    return [("cli", cli_argv(spec), spec) for spec in specs]


def cli_argv(spec: Tuple) -> Tuple[str, ...]:
    kind = spec[0]
    if kind == "count":
        _, n, m, as_json = spec
        return ("count", str(n), str(m)) + (("--json",) if as_json else ())
    if kind == "table":
        return ("table",) + tuple(str(v) for v in spec[1:])
    if kind == "enum":
        _, n, m, side = spec
        return ("enum", str(n), str(m), "--side", side)
    if kind == "to-oc":
        return ("map", format_composition(spec[1])[1:-1], str(spec[2]))
    if kind == "from-oc":
        return ("map", format_runform(spec[1])[1:-1], str(spec[2]), "--direction", "from-oc")
    if kind == "series":
        return ("series", str(spec[1]), str(spec[2]))
    if kind == "check":
        return spec[1]
    return ("enum", str(spec[1]), str(spec[2]))


def make_ops(workload: str, seed: int, api) -> List[Op]:
    def rng(part: str) -> random.Random:
        return random.Random(f"{part}-{seed}")

    if workload == "library":
        return counts_ops(rng("counts")) + series_ops(rng("series")) + verify_ops(rng("verify"))
    if workload == "cli":
        return cli_ops(rng("cli"), api)
    raise ValueError(f"unknown workload {workload!r}")


def execute(op: Op, api):
    kind = op[0]
    if kind == "members":
        _, n, m, comps = op
        return sum(1 for c in comps if api.is_semi_m_pell(c, m))
    if kind == "cli":
        return api.run_cli(op[1])
    return getattr(api, kind)(*op[1:])


def plain(op: Op, result):
    """The result as plain data: what is digested and checked."""
    kind = op[0]
    if kind in ("qm_series", "functional_equation_residual"):
        order = op[2]
        return [result[i] for i in range(order + 1)]
    if kind.startswith("check_") or kind == "roundtrip_check":
        return (result.passed, result.checked, list(result.violations))
    return result


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


class Checker:
    """Judges plain op outputs; keeps dense count ranges between ops."""

    def __init__(self, api, reference: Optional[Dict[str, str]] = None):
        self.api = api
        self.reference = reference
        self.ranges: Dict[int, List[int]] = {}
        self.sums: Dict[int, List[int]] = {}

    def counts(self, m: int, n_max: int) -> List[int]:
        a = self.ranges.get(m)
        if a is None or len(a) <= n_max:
            a = self.ranges[m] = dense_counts(n_max, m)
            self.sums.pop(m, None)
        return a

    def plateau(self, n: int, m: int) -> int:
        """sp(mq + r) = 1 + 2 (sp(1) + ... + sp(q)) for 0 < r < m."""
        q = n // m
        s = self.sums.get(m)
        if s is None or len(s) <= q:
            a = self.counts(m, q)
            s = [0]
            for v in a[1:]:
                s.append(s[-1] + v)
            self.sums[m] = s
        return 1 + 2 * s[q]

    def __call__(self, op: Op, value) -> bool:
        if isinstance(value, Failure):
            return False
        kind = op[0]
        if kind == "sp":
            _, n, m = op
            if self.reference is not None:
                return str(value) == self.reference.get(f"{n} {m}")
            h = n // m if n % m == 0 else n
            return value % 2 == 1 and value == self.plateau(h, m)
        if kind == "qm_series":
            _, m, order = op
            return value == self.counts(m, order)[: order + 1]
        if kind == "functional_equation_residual":
            return all(c == 0 for c in value)
        if kind in ("enumerate_sp", "enumerate_oc"):
            _, n, m = op
            size = (lambda c: sum(c)) if kind == "enumerate_sp" else (lambda rf: sum(b * u for b, u in rf))
            return (
                len(value) == self.counts(m, n)[n]
                and len(set(value)) == len(value)
                and all(size(c) == n for c in value)
            )
        if kind in ("oracle_sp", "oracle_oc"):
            _, n, m = op
            generated = self.api.enumerate_sp(n, m) if kind == "oracle_sp" else self.api.enumerate_oc(n, m)
            return len(value) == self.counts(m, n)[n] and set(value) == set(generated)
        if kind == "roundtrip_check":
            passed, checked, _ = value
            return passed and checked == 3
        if kind == "members":
            _, n, m, _ = op
            return value == self.counts(m, n)[n]
        if kind == "sp_table":
            _, n_max, moduli = op
            return value == [self.counts(m, n_max)[1 : n_max + 1] for m in moduli]
        if kind in EXPECTED_CHECKED:
            passed, checked, _ = value
            return passed and checked == EXPECTED_CHECKED[kind](*op[1:])
        if kind == "cli":
            return value == self.cli_expected(op[2])
        raise ValueError(f"no check for op kind {kind!r}")

    def cli_expected(self, spec: Tuple) -> Tuple[int, str]:
        """(exit code, stdout) that a correct command prints."""
        kind = spec[0]
        if kind == "refused":
            return 3, ""
        if kind == "count":
            _, n, m, as_json = spec
            value = self.counts(m, n)[n]
            text = f'{{"n": {n}, "m": {m}, "sp": "{value}"}}' if as_json else f"sp({n},{m}) = {value}"
            lines = [text]
        elif kind == "table":
            _, n_max, lo, hi = spec
            lines = ["\t".join(["n"] + [str(n) for n in range(1, n_max + 1)])]
            for m in range(lo, hi + 1):
                lines.append("\t".join([f"m={m}"] + [str(v) for v in self.counts(m, n_max)[1 : n_max + 1]]))
        elif kind == "enum":
            _, n, m, side = spec
            if side == "sp":
                lines = [format_composition(c) for c in self.api.enumerate_sp(n, m)]
            else:
                lines = [format_runform(rf) for rf in self.api.enumerate_oc(n, m)]
        elif kind == "to-oc":
            lines = [format_runform(self.api.to_oc(spec[1], spec[2]))]
        elif kind == "from-oc":
            lines = [format_composition(self.api.from_oc(spec[1], spec[2]))]
        elif kind == "series":
            _, m, order = spec
            lines = [f"{n} {c}" for n, c in enumerate(self.counts(m, order)[: order + 1])]
        else:
            _, _, family, checked = spec
            lines = [f"PASS {family} checked={checked}"]
        return 0, "".join(line + "\n" for line in lines)


class Failure(str):
    """An op that raised; the text is the exception's repr."""
