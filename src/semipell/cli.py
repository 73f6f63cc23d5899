"""Command line front end.

Subcommands: count, table, enum, map, series, check.  Exit codes are
part of the contract: 0 success, 1 a verification sweep found a
violation, 2 malformed usage or arguments, 3 an input bound was
exceeded, 4 the input was rejected as not belonging to the domain
(for example a composition that is not semi-m-Pell handed to map).

The bounds are fixed: enum, roundtrip and the oracle sweep stop at the
search bounds of the enumeration module, count refuses n above
COUNT_LIMIT, series and check funceq refuse orders above ORDER_LIMIT,
table and the check sweeps refuse dense count ranges past RANGE_LIMIT,
ob-parity refuses n above OB_PARITY_LIMIT, and scaling refuses scaled
weights above COUNT_LIMIT.

Compositions print as (1,2) and run forms as (1^3,2), with the
multiplicity omitted when it is 1; the same syntax, minus the
parentheses, is accepted as input by the map subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .bijection import from_oc, roundtrip_check, to_oc
from .congruence import (
    SPECIAL_CASES,
    check_mod3,
    check_mod4_base,
    check_mod4_general,
    check_ob_parity,
    check_oddness,
    check_partial_sum_mod3,
    check_special_cases,
)
from .enumeration import (
    ENUMERATION_LIMIT,
    SearchBoundExceeded,
    enumerate_oc,
    enumerate_sp,
    oracle_agreement,
)
from .recurrence import check_plateau_identity, check_scaling_identity, sp, sp_table
from .report import CongruenceReport, merge_reports
from .series import functional_equation_residual, qm_series

# Fixed input bounds, exit 3 beyond them.  A count costs a polynomial in
# the number of base-m digits of n, under a second at COUNT_LIMIT; the
# series is built from its sparse factors and running sums in
# O(order log order), milliseconds at ORDER_LIMIT.  The sweeps allocate
# a dense count list up to their top weight, and table one per modulus;
# RANGE_LIMIT bounds that weight, and table's total, at a quarter second
# and tens of MB.  The two-size parity counter is quadratic, about 1.5 s
# at OB_PARITY_LIMIT.
COUNT_LIMIT = 10**50
ORDER_LIMIT = 4096
RANGE_LIMIT = 10**6
OB_PARITY_LIMIT = 10**4

CHECK_FAMILIES = (
    "oddness",
    "mod4",
    "mod4-general",
    "mod3",
    "partial-sum",
    "ob-parity",
    "plateau",
    "scaling",
    "special-cases",
    "roundtrip",
    "oracle",
    "funceq",
)


def format_composition(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def format_runform(runs: Sequence[Tuple[int, int]]) -> str:
    body = ",".join(str(b) if u == 1 else f"{b}^{u}" for b, u in runs)
    return "(" + body + ")"


def _tokens(text: str) -> List[str]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        return []
    return text.split(",")


def parse_composition(text: str) -> Tuple[int, ...]:
    parts = []
    for token in _tokens(text):
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"bad part {token!r}") from None
        if value < 1:
            raise ValueError(f"parts must be positive, got {value}")
        parts.append(value)
    return tuple(parts)


def parse_runform(text: str) -> Tuple[Tuple[int, int], ...]:
    runs = []
    for token in _tokens(text):
        base_text, sep, mult_text = token.partition("^")
        try:
            base = int(base_text)
            mult = int(mult_text) if sep else 1
        except ValueError:
            raise ValueError(f"bad run {token!r}") from None
        if base < 1 or mult < 1:
            raise ValueError(f"bad run {token!r}")
        runs.append((base, mult))
    return tuple(runs)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _modulus(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("modulus must be at least 2")
    return value


def _check_limit(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise SearchBoundExceeded(f"{what} refuses {value}, bound is {limit}")


def _scaling_power_limit(m: int, top: int) -> int:
    """Largest j with m^j * top <= COUNT_LIMIT, for 1 <= top <= COUNT_LIMIT."""
    j = 0
    while top * m <= COUNT_LIMIT:
        top *= m
        j += 1
    return j


def cmd_count(args: argparse.Namespace) -> int:
    _check_limit(args.n, COUNT_LIMIT, "count")
    value = sp(args.n, args.m)
    if args.json:
        print(json.dumps({"n": args.n, "m": args.m, "sp": str(value)}))
    else:
        print(f"sp({args.n},{args.m}) = {value}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.m_min > args.m_max:
        raise ValueError("m_min exceeds m_max")
    moduli = range(args.m_min, args.m_max + 1)
    _check_limit((args.n_max + 1) * len(moduli), RANGE_LIMIT, "table (n_max + 1) * moduli")
    rows = sp_table(args.n_max, moduli)
    print("\t".join(["n"] + [str(n) for n in range(1, args.n_max + 1)]))
    for m, row in zip(moduli, rows):
        print("\t".join([f"m={m}"] + [str(v) for v in row]))
    return 0


def cmd_enum(args: argparse.Namespace) -> int:
    if args.side == "sp":
        for comp in enumerate_sp(args.n, args.m):
            print(format_composition(comp))
    else:
        for runs in enumerate_oc(args.n, args.m):
            print(format_runform(runs))
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    if args.direction == "to-oc":
        composition = parse_composition(args.parts)
        try:
            print(format_runform(to_oc(composition, args.m)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
    else:
        runform = parse_runform(args.parts)
        try:
            print(format_composition(from_oc(runform, args.m)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    _check_limit(args.order, ORDER_LIMIT, "series order")
    for n, coefficient in enumerate(qm_series(args.m, args.order)):
        print(f"{n} {coefficient}")
    return 0


def _pick(value: Optional[int], default: int) -> int:
    return default if value is None else value


def _funceq_report(m: int, order: int) -> CongruenceReport:
    _check_limit(order, ORDER_LIMIT, "funceq order")
    report = CongruenceReport("funceq", {"m": m, "order": order})
    for n, coefficient in enumerate(functional_equation_residual(m, order)):
        report.record(f"n={n}", coefficient, 0)
    return report


def cmd_check(args: argparse.Namespace) -> int:
    family = args.family
    m = args.m
    if family in ("mod4", "ob-parity") and m not in (None, 2):
        raise ValueError(f"{family} is a base-two family; omit --m or pass 2")
    if family == "special-cases" and m is not None:
        raise ValueError("special-cases has fixed moduli; omit --m")
    what = f"{family} top weight"
    if family == "oddness":
        n_max = _pick(args.nmax, 1000)
        _check_limit(n_max, RANGE_LIMIT, what)
        report = check_oddness(n_max, _pick(m, 2))
    elif family == "mod4":
        n_max = _pick(args.nmax, 500)
        _check_limit(2 * n_max + 1, RANGE_LIMIT, what)
        report = check_mod4_base(n_max)
    elif family == "mod4-general":
        modulus, j_max = _pick(m, 2), _pick(args.jmax, 200)
        _check_limit(2 * modulus * j_max + modulus + 1, RANGE_LIMIT, what)
        report = check_mod4_general(modulus, j_max)
    elif family == "mod3":
        modulus, j_max = _pick(m, 4), _pick(args.jmax, 100)
        _check_limit(modulus * modulus * j_max + 2 * modulus - 1, RANGE_LIMIT, what)
        report = check_mod3(modulus, j_max)
    elif family == "partial-sum":
        modulus, j_max = _pick(m, 4), _pick(args.jmax, 100)
        _check_limit(modulus * j_max + 1, RANGE_LIMIT, what)
        report = check_partial_sum_mod3(modulus, j_max)
    elif family == "ob-parity":
        n_max = _pick(args.nmax, 1000)
        _check_limit(n_max, OB_PARITY_LIMIT, "ob-parity n_max")
        report = check_ob_parity(n_max)
    elif family == "plateau":
        modulus, v_max = _pick(m, 2), _pick(args.vmax, 100)
        _check_limit(v_max * modulus + modulus - 1, RANGE_LIMIT, what)
        report = check_plateau_identity(v_max, modulus)
    elif family == "scaling":
        modulus = _pick(m, 2)
        j_max, v_max = _pick(args.jmax, 12), _pick(args.vmax, modulus)
        top = modulus * v_max + modulus - 1
        _check_limit(top, RANGE_LIMIT, what)
        # the largest scaled weight is modulus^j_max * top
        _check_limit(j_max, _scaling_power_limit(modulus, top), "scaling j_max")
        report = check_scaling_identity(modulus, j_max, v_max)
    elif family == "special-cases":
        j_max = _pick(args.jmax, 200)
        top = max(stride * j_max + offset for _, _, stride, offset, _, _ in SPECIAL_CASES)
        _check_limit(top, RANGE_LIMIT, what)
        report = check_special_cases(j_max)
    elif family == "roundtrip":
        modulus = _pick(m, 2)
        n_max = _pick(args.nmax, 20)
        _check_limit(n_max, ENUMERATION_LIMIT, "roundtrip n_max")
        reports = [roundtrip_check(n, modulus) for n in range(n_max + 1)]
        report = merge_reports("roundtrip", {"m": modulus, "n_max": n_max}, reports)
    elif family == "oracle":
        report = oracle_agreement(_pick(m, 2), _pick(args.nmax, 20), args.side)
    else:
        report = _funceq_report(_pick(m, 2), _pick(args.order, 256))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipell",
        description="Count, enumerate and verify semi-m-Pell compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print sp(n, m)")
    p.add_argument("n", type=_nonneg)
    p.add_argument("m", type=_modulus)
    p.add_argument("--json", action="store_true", help="emit one JSON record instead of text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="tab-separated counts, rows per modulus")
    p.add_argument("n_max", type=_nonneg)
    p.add_argument("m_min", type=_modulus)
    p.add_argument("m_max", type=_modulus)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enum", help="list all objects of one weight")
    p.add_argument("n", type=_nonneg)
    p.add_argument("m", type=_modulus)
    p.add_argument("--side", choices=("sp", "oc"), default="sp")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("map", help="apply the bijection to one object")
    p.add_argument("parts", help="comma-separated parts, or runs like 1^3,2 with from-oc")
    p.add_argument("m", type=_modulus)
    p.add_argument("--direction", choices=("to-oc", "from-oc"), default="to-oc")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("series", help="coefficients of the counting series")
    p.add_argument("m", type=_modulus)
    p.add_argument("order", type=_nonneg)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("check", help="run one verification sweep")
    p.add_argument("family", choices=CHECK_FAMILIES)
    p.add_argument("--m", type=_modulus, default=None)
    p.add_argument("--nmax", type=_nonneg, default=None)
    p.add_argument("--jmax", type=_nonneg, default=None)
    p.add_argument("--vmax", type=_nonneg, default=None)
    p.add_argument("--order", type=_nonneg, default=None)
    p.add_argument("--side", choices=("sp", "oc", "both"), default="both",
                   help="which oracle comparison to run (oracle family only)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except SearchBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
