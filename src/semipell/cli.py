"""Command line front end.

Subcommands: count, table, enum, map, series, check.  Exit codes are
part of the contract: 0 success, 1 a verification sweep found a
violation, 2 malformed usage or arguments, 3 an input bound was
exceeded, 4 the input was rejected as not belonging to the domain
(for example a composition that is not semi-m-Pell handed to map).

The bounds are fixed, and the library enforces most of them itself:
enum, roundtrip and the oracle sweep stop at the search bounds of the
enumeration module, table and the check sweeps refuse dense count
ranges past recurrence.RANGE_LIMIT, ob-parity n above
congruence.OB_PARITY_LIMIT, scaling scaled weights above
recurrence.COUNT_LIMIT and more point counts than
recurrence.SCALING_LIMIT, and series and funceq orders above
series.ORDER_LIMIT.  This module adds one: count refuses n above
recurrence.COUNT_LIMIT.

Each command, and each check family under it, is declared once in
_COMMANDS, with its handler, help text and arguments, and argparse
refuses, as malformed usage, a flag the family does not read.  A family
names its function by its public name, and check reads that name from
the package, which loads the module that defines it.
Start-up is most of a short command's time, so a command builds only its
own arguments, and imports the library modules it runs when it runs
(count, for instance, loads recurrence and nothing else).  At import this
module loads only core, which holds the errors main maps to exit codes,
the report every check prints and the two maps that map applies.

Compositions print as (1,2) and run forms as (1^3,2), with the
multiplicity omitted when it is 1; the same syntax, minus the
parentheses, is accepted as input by the map subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from .core import SearchBoundExceeded, check_bound, from_oc, to_oc


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


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return parse


def cmd_count(args: argparse.Namespace) -> int:
    from .recurrence import COUNT_LIMIT, sp

    check_bound(args.n, COUNT_LIMIT, "count")
    value = sp(args.n, args.m)
    if args.json:
        import json

        print(json.dumps({"n": args.n, "m": args.m, "sp": str(value)}))
    else:
        print(f"sp({args.n},{args.m}) = {value}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from .recurrence import sp_table

    if args.m_min > args.m_max:
        raise ValueError("m_min exceeds m_max")
    moduli = range(args.m_min, args.m_max + 1)
    rows = sp_table(args.n_max, moduli)
    print("\t".join(["n"] + [str(n) for n in range(1, args.n_max + 1)]))
    for m, row in zip(moduli, rows):
        print("\t".join([f"m={m}"] + [str(v) for v in row]))
    return 0


def cmd_enum(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_oc, enumerate_sp

    if args.side == "sp":
        for comp in enumerate_sp(args.n, args.m):
            print(format_composition(comp))
    else:
        for runs in enumerate_oc(args.n, args.m):
            print(format_runform(runs))
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    if args.direction == "to-oc":
        parse, apply, show = parse_composition, to_oc, format_runform
    else:
        parse, apply, show = parse_runform, from_oc, format_composition
    value = parse(args.parts)
    try:
        image = apply(value, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(show(image))
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    from .series import qm_series

    for n, coefficient in enumerate(qm_series(args.m, args.order)):
        print(f"{n} {coefficient}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    function, flags = _COMMANDS["check"][2][args.family]
    check = getattr(sys.modules[__package__], function)
    report = check(*(getattr(args, flag[2:]) for flag, _, _ in flags))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


_COUNT, _MODULUS = {"type": _at_least(0)}, {"type": _at_least(2)}
_SIDES = {"choices": ("sp", "oc", "both"), "help": "which oracle comparison to run"}

# command -> (handler, help, arguments), each argument (name, default, argparse
# keywords); check has families in place of arguments, family ->
# (function, flags).  The flags' values are the function's arguments, in order;
# the function is named by its public name, not bound, so its module loads
# only when check reads the name from the package.
_COMMANDS: dict = {
    "count": (cmd_count, "print sp(n, m)", (
        ("n", None, _COUNT), ("m", None, _MODULUS),
        ("--json", False, {"action": "store_true", "help": "emit one JSON record instead of text"}))),
    "table": (cmd_table, "tab-separated counts, rows per modulus", (
        ("n_max", None, _COUNT), ("m_min", None, _MODULUS), ("m_max", None, _MODULUS))),
    "enum": (cmd_enum, "list all objects of one weight", (
        ("n", None, _COUNT), ("m", None, _MODULUS), ("--side", "sp", {"choices": ("sp", "oc")}))),
    "map": (cmd_map, "apply the bijection to one object", (
        ("parts", None, {"help": "comma-separated parts, or runs like 1^3,2 with from-oc"}),
        ("m", None, _MODULUS), ("--direction", "to-oc", {"choices": ("to-oc", "from-oc")}))),
    "series": (cmd_series, "coefficients of the counting series", (("m", None, _MODULUS), ("order", None, _COUNT))),
    "check": (cmd_check, "run one verification sweep", {
        "oddness": ("check_oddness", (("--nmax", 1000, _COUNT), ("--m", 2, _MODULUS))),
        "mod4": ("check_mod4_base", (("--nmax", 500, _COUNT),)),
        "mod4-general": ("check_mod4_general", (("--m", 2, _MODULUS), ("--jmax", 200, _COUNT))),
        "mod3": ("check_mod3", (("--m", 4, _MODULUS), ("--jmax", 100, _COUNT))),
        "partial-sum": ("check_partial_sum_mod3", (("--m", 4, _MODULUS), ("--jmax", 100, _COUNT))),
        "ob-parity": ("check_ob_parity", (("--nmax", 1000, _COUNT),)),
        "plateau": ("check_plateau_identity", (("--vmax", 100, _COUNT), ("--m", 2, _MODULUS))),
        "scaling": ("check_scaling_identity", (("--m", 2, _MODULUS), ("--jmax", 12, _COUNT), ("--vmax", None, _COUNT))),
        "special-cases": ("check_special_cases", (("--jmax", 200, _COUNT),)),
        "roundtrip": ("check_roundtrip", (("--m", 2, _MODULUS), ("--nmax", 20, _COUNT))),
        "oracle": ("oracle_agreement", (("--m", 2, _MODULUS), ("--nmax", 20, _COUNT), ("--side", "both", _SIDES))),
        "funceq": ("check_functional_equation", (("--m", 2, _MODULUS), ("--order", 256, _COUNT))),
    }),
}


def _named(argv: Sequence[str], table: dict) -> Optional[str]:
    # argparse takes the first word that is not an option as the choice,
    # and no name in a table starts with "-"
    return next((word for word in argv if word in table), None)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv, built from _COMMANDS.

    Every command is registered, and every family when check runs, so
    help, usage and "invalid choice" read the same whatever argv holds,
    but only the command and family that argv names get their arguments.
    """
    parser = argparse.ArgumentParser(prog="semipell", description="Count, enumerate and verify semi-m-Pell compositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    command = _named(argv, _COMMANDS)
    for name, (handler, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=handler)
        if name == command == "check":
            families = p.add_subparsers(dest="family", required=True)
            chosen = _named(argv, arguments)
            for family, (_, flags) in arguments.items():
                f = families.add_parser(family)
                if family == chosen:
                    for flag, default, keywords in flags:
                        f.add_argument(flag, default=default, **keywords)
        elif name == command:
            for argument, default, keywords in arguments:
                p.add_argument(argument, default=default, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
