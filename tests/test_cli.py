import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semipell
from semipell import bijection, sp
from semipell.cli import (
    _COMMANDS,
    build_parser,
    format_composition,
    format_runform,
    main,
    parse_composition,
    parse_runform,
)
from semipell.congruence import OB_PARITY_LIMIT
from semipell.enumeration import ENUMERATION_LIMIT
from semipell.recurrence import COUNT_LIMIT, RANGE_LIMIT, SCALING_LIMIT, _sp_range
from semipell.series import ORDER_LIMIT

SRC = str(Path(__file__).resolve().parents[1] / "src")

TABLE_1_TO_15 = {
    2: [1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51],
    3: [1, 1, 1, 3, 3, 1, 5, 5, 1, 7, 7, 3, 13, 13, 3],
    4: [1, 1, 1, 1, 3, 3, 3, 1, 5, 5, 5, 1, 7, 7, 7],
    5: [1, 1, 1, 1, 1, 3, 3, 3, 3, 1, 5, 5, 5, 5, 1],
    6: [1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 1, 5, 5, 5],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formatting_helpers():
    assert format_composition((1, 2)) == "(1,2)"
    assert format_composition(()) == "()"
    assert format_runform(((1, 3), (2, 1))) == "(1^3,2)"
    assert format_runform(()) == "()"
    assert parse_composition("14,3,18,27") == (14, 3, 18, 27)
    assert parse_composition("(1,2)") == (1, 2)
    assert parse_composition("()") == ()
    assert parse_runform("1^14,3,9^2,27") == ((1, 14), (3, 1), (9, 2), (27, 1))
    with pytest.raises(ValueError):
        parse_composition("1,x")
    with pytest.raises(ValueError):
        parse_composition("1,0")
    with pytest.raises(ValueError):
        parse_runform("2^")


def test_count(capsys):
    code, out, _ = run(capsys, "count", "7", "2")
    assert code == 0 and out == "sp(7,2) = 11\n"
    code, out, _ = run(capsys, "count", "0", "9")
    assert code == 0 and out == "sp(0,9) = 1\n"
    code, out, _ = run(capsys, "count", "15", "6")
    assert code == 0 and out == "sp(15,6) = 5\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "7", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 7, "m": 2, "sp": "11"}
    assert out == '{"n": 7, "m": 2, "sp": "11"}\n'


def test_count_cache_roundtrip(tmp_path, monkeypatch, capsys):
    # counts are never stored: a file in the old count-cache format, even
    # one claiming sp(7,2) = 12, cannot change a printed count, and
    # counting writes no file
    monkeypatch.chdir(tmp_path)
    poisoned = tmp_path / "counts.txt"
    poisoned.write_text("2 7 12\n")
    for n, expected in (("7", "sp(7,2) = 11\n"), ("40", f"sp(40,2) = {sp(40, 2)}\n")):
        code, out1, _ = run(capsys, "count", n, "2")
        assert code == 0 and out1 == expected
        code, out2, _ = run(capsys, "count", n, "2")
        assert code == 0 and out2 == out1
    assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]
    assert poisoned.read_text() == "2 7 12\n"
    # count takes no option that names a file
    args = build_parser(["count", "7", "2"]).parse_args(["count", "7", "2"])
    assert set(vars(args)) == {"command", "n", "m", "json", "func"}


def test_table_matches_published_values(capsys):
    code, out, _ = run(capsys, "table", "15", "2", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["n"] + [str(n) for n in range(1, 16)]
    assert len(lines) == 6
    for line, m in zip(lines[1:], range(2, 7)):
        cells = line.split("\t")
        assert cells[0] == f"m={m}"
        assert [int(c) for c in cells[1:]] == TABLE_1_TO_15[m]


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "3", "2")
    assert code == 0 and out == "(1,2)\n(2,1)\n(3)\n"
    code, out, _ = run(capsys, "enum", "0", "2")
    assert code == 0 and out == "()\n"
    code, out, _ = run(capsys, "enum", "5", "2", "--side", "oc")
    assert code == 0
    assert out == "(1^5)\n(1^3,2)\n(1,4)\n(2,1^3)\n(4,1)\n"


# SHA-256 of the full stdout and its line count: any change to the
# members or to their order changes the digest
ENUM_DIGESTS = {
    ("63", "2", "sp"): ("316a47f8f293898f870a764df8194bd0d2dfa87bc3fbd60a136ef5b3e6b120c5", 3075),
    ("95", "2", "oc"): ("fcd6efc8787f9c836f110f0068b363f1caced8dd333ac4e50f0501714f657c06", 14319),
    ("44", "3", "sp"): ("ee2bfcfa806d6b927f880ba20234e91b5aea42f0933c6bf74224524ae753ae57", 129),
    ("58", "3", "oc"): ("b0a1f8bd3098061018d46ec39d2bbf226f3b3d3e9a90c098b65e1ee60dde2b4a", 255),
    ("59", "5", "sp"): ("35d12e0f3c27ea82c4b9f4d71988b5aae821a13cf54303468bb2cd7476f80228", 47),
    ("59", "5", "oc"): ("e72b0634aa5f01413ce6cf095992a7046f9b3ca6269346e78f8e2ded3dc4db68", 47),
    # the generators at their weight bound, and near it at m = 3
    ("100", "2", "oc"): ("d2e5cd67f71b860d52125bddf229b3e33697a24578c470ac61d09c0babc20800", 141),
    ("100", "2", "sp"): ("88afae4b15926a15681f2cc721ea173265060ed6667aeaa25593dd1b4d46b99a", 141),
    ("97", "3", "oc"): ("d4e35c4332466f0a1c47e1e6b1e2a0193f6cfc00cf9bd53b87e8878c1538b9e1", 1021),
    ("97", "3", "sp"): ("8f3be8ce7f18667646147e40710e49237472999cff8d87a0951b14cf7c20492e", 1021),
}


def test_enum_output_is_frozen(capsys):
    for (n, m, side), (digest, lines) in ENUM_DIGESTS.items():
        code, out, _ = run(capsys, "enum", n, m, "--side", side)
        assert code == 0
        assert out.count("\n") == lines == sp(int(n), int(m))
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, m, side)


# SHA-256 of `check` stdout and its line count, recorded before the
# congruence rows were declared once: each family at its defaults and
# at two other shapes
CHECK_DIGESTS = {
    ("oddness",): ("04bf6ed2761940c9a2f244b83085c59ee46e86b274996bc6f40d85cfb5e4ff52", 1),
    ("oddness", "--nmax", "7", "--m", "5"): ("e8d4d84d5b8fe0439a76a8d1d95386b7b637c0ca56f46b2d1458dc6bc8e2a903", 1),
    ("oddness", "--nmax", "40000", "--m", "10"): ("5fb9a3c156bb5706e04ef16610eb6cc68b1f8db7cbf8e53d6cdd97dd9427f529", 1),
    ("mod4",): ("2ed09ff164fc2373f688ee4ae5de7a500a222408f810a8dc18c5cb4d79ca5129", 1),
    ("mod4", "--nmax", "0"): ("956bf8d2516857414bb4598010071372390bf07f516a535c9d45b8d2945aff49", 1),
    ("mod4", "--nmax", "99999"): ("3f0bab78e987aa2461d86f3265448ed317b66e43be16c40d46108c15f6ca3965", 1),
    ("mod4-general",): ("04984442f247bb8dbe6c07f21b9c3871132b52df17670f46a7a5472b22579719", 1),
    ("mod4-general", "--m", "3", "--jmax", "0"): ("a870e7996e9105bc193c61ef2c0cd7328d605e70a3a316f40c470cffe641a076", 1),
    ("mod4-general", "--m", "10", "--jmax", "4999"): ("b67c38e2af6334c4477c4d602120f6895cb680cfb5696aadf4349233d3e1fc6f", 1),
    ("mod3",): ("545cd8cf6cbc9f6d08a398e1abb8d7d0e58690c529e83458d1ef81b6d0832c3f", 1),
    ("mod3", "--m", "7", "--jmax", "0"): ("6a874053ad3729fd8bf1fef4e68e580e6d5111cc5fdb5f8db6f99670abb4bb5d", 1),
    ("mod3", "--m", "13", "--jmax", "300"): ("5a8a3f501a24f267771f108d16ee0f03fbf4c0b144c3e52272c17795941cbe22", 1),
    ("partial-sum",): ("d08a7ae50c57d8a5ab1ed0e5eae94aa3180ff4b03b6d15726df203274535b158", 1),
    ("partial-sum", "--m", "10", "--jmax", "0"): ("066f21ab4f347233991d5e7e516cca00e654947cffcbd6ad1733c9fe97ed6c49", 1),
    ("partial-sum", "--m", "7", "--jmax", "5000"): ("4f8ad3f53a71e7b9d8eae283c006bd68b8d6809231a1c0191d1c380c64d3aaf6", 1),
    ("special-cases",): ("bdee4d31f21e8ecf2defc3665e49cfc7989776ade8d7c257c91329557dab054c", 1),
    ("special-cases", "--jmax", "0"): ("3f9346852342b86446d3dd9c3cef0f39a908ef86b358cbb2fb0fcce8b203ddae", 1),
    ("special-cases", "--jmax", "999"): ("4c958db8c0b23d4d4c2976e87d4b25b2ff7e2ff1edc42fc2ab1c28588c294307", 1),
    # recorded before every family became one library call: the other
    # families at their defaults, scaling where --vmax falls back to --m
    # (checked=78 at the defaults), and ob-parity at a second shape
    ("scaling",): ("1512ffc02f8e72521a5a687399151c1c4e857765a2d83ca8480c79fc9100577e", 1),
    ("scaling", "--m", "3", "--jmax", "4"): ("309eed1373e5c4a6b6a3754c652d0030cc90245ff2f48f30ca72729df18a61e1", 1),
    ("roundtrip",): ("c998f5632989183e5e0609807bae55b2474a0f13abc004949273edb53ca375b0", 1),
    ("funceq",): ("1f4482813231154f3563a4a972d8a7643706a0d71434621bec3b7564ea4226ba", 1),
    ("ob-parity",): ("519ffc88926b8a631fd58142e90ce928fa294b5b5c1cb7ddbdd4d325adacf3d0", 1),
    ("ob-parity", "--nmax", "11"): ("074fc90b3a364942d960be52bd479d21a2a9c7016f77a2fdf1e37ad220718ac8", 1),
    ("plateau",): ("c86fd98e97c9c42cd566b677111749d0fac76ea81de4490f0e403f34d64e3f01", 1),
    ("oracle",): ("87ec78fd30ddc18a3e90d32f494fb167e8392c0fb41bb53e27d9257ba81a0228", 1),
}


def test_check_output_is_frozen(capsys):
    for argv, (digest, lines) in CHECK_DIGESTS.items():
        code, out, _ = run(capsys, "check", *argv)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_map(capsys):
    code, out, _ = run(capsys, "map", "14,3,18,27", "3")
    assert code == 0 and out == "(1^14,3,9^2,27)\n"
    code, out, _ = run(capsys, "map", "14,3,18,27", "3", "--direction", "to-oc")
    assert code == 0 and out == "(1^14,3,9^2,27)\n"
    code, out, _ = run(capsys, "map", "9", "3")
    assert code == 0 and out == "(9)\n"
    code, out, _ = run(capsys, "map", "1^14,3,9^2,27", "3", "--direction", "from-oc")
    assert code == 0 and out == "(14,3,18,27)\n"
    code, out, _ = run(capsys, "map", "1^5,4", "2", "--direction", "from-oc")
    assert code == 0 and out == "(5,4)\n"


def test_map_domain_rejection(capsys):
    code, out, err = run(capsys, "map", "2,9,4", "2")
    assert code == 4 and out == ""
    assert "max m-powers not unimodal" in err
    code, _, err = run(capsys, "map", "2,10,3", "2")
    assert code == 4
    assert "max m-powers not distinct" in err
    code, _, err = run(capsys, "map", "1^2,2", "2", "--direction", "from-oc")
    assert code == 4
    assert "divisible" in err


def test_series(capsys):
    code, out, _ = run(capsys, "series", "2", "7")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1", "2 1", "3 3", "4 1", "5 5", "6 3", "7 11"]
    code, out, _ = run(capsys, "series", "3", "13")
    assert code == 0
    assert out.splitlines()[13] == "13 13"
    # every coefficient against the recurrence, up to the order bound
    for m, order in ((3, 40), (2, 4096)):
        code, out, _ = run(capsys, "series", str(m), str(order))
        assert code == 0
        assert out == "".join(f"{n} {c}\n" for n, c in enumerate(_sp_range(order, m))), (m, order)


def test_check_families_pass(capsys):
    cases = [
        ("check", "oddness", "--nmax", "300"),
        ("check", "mod4", "--nmax", "200"),
        ("check", "mod4-general", "--m", "5", "--jmax", "50"),
        ("check", "mod3", "--m", "4", "--jmax", "30"),
        ("check", "partial-sum", "--m", "7", "--jmax", "20"),
        ("check", "ob-parity", "--nmax", "301"),
        ("check", "plateau", "--m", "3", "--vmax", "50"),
        ("check", "scaling", "--m", "4", "--jmax", "6"),
        ("check", "special-cases", "--jmax", "25"),
        ("check", "roundtrip", "--m", "2", "--nmax", "12"),
        ("check", "oracle", "--m", "2", "--nmax", "10"),
        ("check", "oracle", "--m", "3", "--nmax", "40", "--side", "oc"),
        ("check", "funceq", "--m", "2", "--order", "128"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out.startswith("PASS"), argv
        assert "checked=" in out
    # three oracle sweeps, two at their weight bounds, the round trip at its
    # weight bound and the plateau sweep at m = 10 over 900000 instances,
    # with their exact summaries
    for argv, summary in (
        (("check", "oracle", "--m", "2", "--nmax", "12"), "oracle checked=26"),
        (("check", "oracle", "--side", "sp", "--nmax", "40"), "oracle checked=41"),
        (("check", "oracle", "--side", "oc", "--nmax", "60"), "oracle checked=61"),
        (("check", "roundtrip", "--m", "2", "--nmax", "100"), "roundtrip checked=303"),
        (("check", "plateau", "--m", "10", "--vmax", "99999"), "plateau checked=900000"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == f"PASS {summary}\n", argv


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "-3", "2")[0] == 2
    assert run(capsys, "count", "5", "1")[0] == 2
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys, "cnt", "5", "2")[0] == 2
    assert run(capsys, "check", "nosuch")[0] == 2
    assert run(capsys, "check", "mod3", "--m", "5")[0] == 2
    assert run(capsys, "check", "mod4", "--m", "3")[0] == 2
    # a family's flags follow its name
    assert run(capsys, "check", "--m", "4", "mod3")[0] == 2
    assert run(capsys, "table", "10", "6", "3")[0] == 2
    assert run(capsys, "map", "1,x", "2")[0] == 2
    # a bad modulus is malformed usage, never a domain rejection (exit 4)
    assert run(capsys, "map", "1,2", "1")[0] == 2
    assert run(capsys, "map", "1^2", "1", "--direction", "from-oc")[0] == 2
    assert run(capsys)[0] == 2
    # a run needs a base and a multiplicity of at least 1, a count an integer
    for argv, refusal in (
        (("map", "0^1,2", "2", "--direction", "from-oc"), "error: bad run '0^1'\n"),
        (("map", "1^0", "2", "--direction", "from-oc"), "error: bad run '1^0'\n"),
        (("count", "x", "2"), "error: argument n: not an integer: 'x'\n"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.endswith(refusal), argv


def test_check_refuses_flags_the_family_does_not_read(capsys):
    for argv, refusal in (
        (("check", "mod3", "--nmax", "5"), "unrecognized arguments: --nmax 5"),
        (("check", "oddness", "--jmax", "5"), "unrecognized arguments: --jmax 5"),
        (("check", "oddness", "--side", "sp"), "unrecognized arguments: --side sp"),
        (("check", "special-cases", "--m", "4"), "unrecognized arguments: --m 4"),
        (("check", "funceq", "--nmax", "5"), "unrecognized arguments: --nmax 5"),
        (("check", "roundtrip", "--order", "5"), "unrecognized arguments: --order 5"),
        # mod4 and ob-parity hold only at m = 2, so they take no modulus at all
        (("check", "mod4", "--m", "3"), "unrecognized arguments: --m 3"),
        (("check", "mod4", "--m", "2"), "unrecognized arguments: --m 2"),
        (("check", "mod4", "--m", "2", "--nmax", "3"), "unrecognized arguments: --m 2"),
        (("check", "ob-parity", "--m", "2", "--nmax", "11"), "unrecognized arguments: --m 2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and refusal in err, argv


# the flags each family reads, written out apart from the parser's table
CHECK_FLAGS = {
    "oddness": {"nmax", "m"},
    "mod4": {"nmax"},
    "mod4-general": {"m", "jmax"},
    "mod3": {"m", "jmax"},
    "partial-sum": {"m", "jmax"},
    "ob-parity": {"nmax"},
    "plateau": {"vmax", "m"},
    "scaling": {"m", "jmax", "vmax"},
    "special-cases": {"jmax"},
    "roundtrip": {"m", "nmax"},
    "oracle": {"m", "nmax", "side"},
    "funceq": {"m", "order"},
}


def test_check_help_lists_only_the_family_flags(capsys):
    assert set(_COMMANDS["check"][2]) == set(CHECK_FLAGS)
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0 and all(family in out for family in CHECK_FLAGS)
    for family, flags in CHECK_FLAGS.items():
        code, out, _ = run(capsys, "check", family, "--help")
        assert code == 0 and out.startswith(f"usage: semipell check {family} "), family
        assert set(re.findall(r"--(\w+)", out)) == flags | {"help"}, family


def test_check_table_follows_each_function_signature():
    # cmd_check passes a family's flag values positionally, so the flags
    # must be the function's parameters in order, and a report's params
    # must name every input of its sweep
    for family, (function, flags) in _COMMANDS["check"][2].items():
        check = getattr(semipell, function)
        parameters = list(inspect.signature(check).parameters)
        assert [name.replace("_", "") for name in parameters] == [flag[2:] for flag, _, _ in flags], family
        small = [default if flag in ("--m", "--side") or default is None else min(default, 3) for flag, default, _ in flags]
        assert set(parameters) <= set(check(*small).params), family


# SHA-256 of the help text of every command and family, recorded before
# the commands were declared in one table; COLUMNS fixes argparse's width
HELP_DIGESTS = {
    ("--help",): "9e7ae5a4a304f41a240191f9678c13b44f1bbfb2316f6402853dffca6da9bc55",
    ("check", "--help"): "78e4145a7df7b220a16b1fc6370aa83e37df7131503d543fcdc256f827551cd0",
    ("count", "--help"): "87b1798d93b457e23b2340feebd8a384d29d3f6b72bb8f49869d19ce988ad207",
    ("table", "--help"): "a23a9f7d0254de9eddf4ff715f353faf585255f3ef355d09c1a55e6b11ac05c3",
    ("enum", "--help"): "0b1d0ef9282b0bde4fc7b1dbfe85448f3abbeb9bccc2792de69d0da28427aa75",
    ("map", "--help"): "1647269cc0d4afcb34990d97918653cf4e34706807b768bb6edbdc92e32bf2cc",
    ("series", "--help"): "ee375ba301d54f8e0f44bd3d994bb838145ad188244300c8f48f01ba9d822fc3",
    ("check", "oddness", "--help"): "917380c58dddd961eb45571259df8adebe363e4a2ab49c1c3b4c4b01ac4e901c",
    ("check", "mod4", "--help"): "7a0504bdc58d89dba21ee394a3b957f6943b51030d8ad79690d502c758f8050f",
    ("check", "mod4-general", "--help"): "ecc791f894d6a98cee6dbc06148b18f5d4b1b40518d24328295869ae0dc6b10e",
    ("check", "mod3", "--help"): "959813822c7ce951264f70106f0b7896f35320a352ff1bc45b98aee372004f31",
    ("check", "partial-sum", "--help"): "36e0dd12617c9ea43772c4f64891897a4acc5291bbc64ca94fd6233dd5b28b4a",
    ("check", "ob-parity", "--help"): "9422fcd4baa91954398592547617d5096d17c6ca8789294d195aa5e99a511ed6",
    ("check", "plateau", "--help"): "1f859d4b6fd818d72df62296eaf716c16e12d575b68d831cbc1f4973da3da5ad",
    ("check", "scaling", "--help"): "a49a534f4015c0cc2e3fabc5f2f1ca6ac0a5b9f756586be8e9bba1e87f905b9c",
    ("check", "special-cases", "--help"): "d0f0d5196c0fccd77456414dd2d0745bc643810938bd39df7921a52e9eef00cb",
    ("check", "roundtrip", "--help"): "4b96f65407a6f5c79d425a13751bb86b96b3a9fe462472bd7047288946160712",
    ("check", "oracle", "--help"): "6bca462b4cb89d879b7373fe63ae3784f11de4fba7bd30014c791b094207a801",
    ("check", "funceq", "--help"): "b239c1ea1e604623af3036a7f3cdbac02c06abd883e8bfbc3fdfea7f9b84f8d1",
}


def test_help_is_frozen(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, digest in HELP_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_each_command_adds_only_its_own_arguments(capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *names, **keywords):
        if names != ("-h", "--help"):
            added.append(names[0])
        return add_argument(parser, *names, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    for argv, arguments in (
        (["count", "5", "2"], ["n", "m", "--json"]),
        (["check", "mod3", "--m", "4", "--jmax", "3"], ["--m", "--jmax"]),
    ):
        added.clear()
        assert run(capsys, *argv)[0] == 0
        assert added == arguments, argv


def test_bound_errors_exit_3(capsys):
    code, _, err = run(capsys, "enum", "101", "2")
    assert code == 3 and "bound" in err
    code, _, err = run(capsys, "check", "oracle", "--m", "2", "--nmax", "41")
    assert code == 3
    # the oc-only side is allowed further out
    code, _, _ = run(capsys, "check", "oracle", "--m", "2", "--nmax", "41", "--side", "oc")
    assert code == 0
    code, out, err = run(capsys, "check", "oracle", "--side", "oc", "--nmax", "61")
    assert code == 3 and out == "" and "oracle_oc weight refuses 61" in err


def test_roundtrip_limit(capsys, monkeypatch):
    def refuse(report, n, m):
        raise AssertionError(f"weight {n} at m={m} ran before the bound check")

    assert ENUMERATION_LIMIT == 100
    # refused before any weight is generated
    monkeypatch.setattr(bijection, "_record_roundtrip", refuse)
    code, out, err = run(capsys, "check", "roundtrip", "--nmax", str(ENUMERATION_LIMIT + 1))
    assert code == 3 and out == "" and "bound" in err
    # the patch reaches the command: a sweep within the bound runs into it
    with pytest.raises(AssertionError, match="weight 0 at m=2"):
        main(["check", "roundtrip", "--nmax", "0"])
    monkeypatch.undo()
    code, out, _ = run(capsys, "check", "roundtrip", "--m", "10", "--nmax", str(ENUMERATION_LIMIT))
    assert code == 0 and out.startswith("PASS roundtrip")


def test_count_limit(capsys):
    assert COUNT_LIMIT >= 10**50
    code, out, err = run(capsys, "count", str(COUNT_LIMIT + 1), "2")
    assert code == 3 and out == "" and "bound" in err
    # m = 3 does not divide the limit, so this is a full-length count
    code, out, _ = run(capsys, "count", str(COUNT_LIMIT), "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == COUNT_LIMIT and int(record["sp"]) % 2 == 1


def test_series_order_limit(capsys):
    assert ORDER_LIMIT >= 4096
    code, out, err = run(capsys, "series", "50", str(ORDER_LIMIT + 1))
    assert code == 3 and out == "" and "bound" in err
    code, out, _ = run(capsys, "series", "50", str(ORDER_LIMIT))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == ORDER_LIMIT + 1
    assert lines[-1] == f"{ORDER_LIMIT} {sp(ORDER_LIMIT, 50)}"


def test_funceq_order_limit(capsys):
    code, out, err = run(capsys, "check", "funceq", "--m", "50", "--order", str(ORDER_LIMIT + 1))
    assert code == 3 and out == "" and "bound" in err
    code, out, _ = run(capsys, "check", "funceq", "--m", "50", "--order", str(ORDER_LIMIT))
    assert code == 0
    assert out == f"PASS funceq checked={ORDER_LIMIT + 1}\n"
    code, out, _ = run(capsys, "check", "funceq", "--m", "5", "--order", "4096")
    assert code == 0 and out == "PASS funceq checked=4097\n"


def test_range_limit(capsys):
    # Each refused argument list puts the top weight of the dense count
    # range just past RANGE_LIMIT, each passing one just within it;
    # table's bound is on its total count.
    top = RANGE_LIMIT
    assert top == 10**6
    refused = [
        ("check", "oddness", "--nmax", str(top + 1)),
        ("check", "mod4", "--nmax", str(top // 2)),
        ("check", "mod4-general", "--m", str(top), "--jmax", "0"),
        ("check", "mod3", "--m", "4", "--jmax", str(top // 16)),
        # the modulus alone puts the first row past the bound
        ("check", "mod3", "--m", "1000000003", "--jmax", "0"),
        ("check", "partial-sum", "--m", "4", "--jmax", str(top // 4)),
        ("check", "plateau", "--m", "2", "--vmax", str(top // 2)),
        ("check", "scaling", "--m", "2", "--vmax", str(top // 2), "--jmax", "0"),
        ("check", "special-cases", "--jmax", str(top // 100)),
        ("table", str(top), "2", "2"),
        ("table", "0", "2", str(top + 2)),
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "bound" in err, argv
    passing = [
        (("check", "oddness", "--nmax", str(top)), f"PASS oddness checked={top + 1}"),
        (("check", "mod4", "--nmax", str(top // 2 - 1)), "PASS mod4 checked=500000"),
        (("check", "mod4-general", "--m", str(top - 1), "--jmax", "0"), "PASS mod4-general checked=2"),
        (("check", "mod3", "--m", "4", "--jmax", str(top // 16 - 1)), "PASS mod3 checked=187500"),
        (("check", "partial-sum", "--m", "4", "--jmax", str(top // 4 - 1)), "PASS partial-sum checked=250000"),
        (("check", "special-cases", "--jmax", str(top // 100 - 1)), "PASS special-cases checked=70000"),
    ]
    for argv, summary in passing:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == summary + "\n", argv
    # 1000 moduli of 1000 counts each: every weight is below its modulus
    code, out, _ = run(capsys, "table", "999", "2", "1001")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1001
    assert lines[-1] == "\t".join(["m=1001"] + ["1"] * 999)


def test_ob_parity_limit(capsys):
    assert OB_PARITY_LIMIT == 10**4
    code, out, err = run(capsys, "check", "ob-parity", "--nmax", str(OB_PARITY_LIMIT + 1))
    assert code == 3 and out == "" and "bound" in err
    code, out, _ = run(capsys, "check", "ob-parity", "--nmax", str(OB_PARITY_LIMIT))
    assert code == 0 and out == f"PASS ob-parity checked={OB_PARITY_LIMIT // 2}\n"


def test_scaling_limit(capsys):
    # m = 10, v_max = 0: the largest scaled weight is 10^j_max * 9
    assert COUNT_LIMIT == 10**50
    code, out, err = run(capsys, "check", "scaling", "--m", "10", "--jmax", "50", "--vmax", "0")
    assert code == 3 and out == "" and "bound" in err
    # refused without building the power
    code, out, err = run(capsys, "check", "scaling", "--jmax", str(10**12))
    assert code == 3 and out == "" and "bound" in err
    code, out, _ = run(capsys, "check", "scaling", "--m", "10", "--jmax", "49", "--vmax", "0")
    assert code == 0 and out == "PASS scaling checked=900\n"
    # (jmax + 1)(vmax + 1)(m - 1) point counts: 73.5 million in the first,
    # whose scaled weights are within COUNT_LIMIT and top weight within RANGE_LIMIT
    assert SCALING_LIMIT == 10**4
    for argv in (("--m", "2", "--vmax", "499999", "--jmax", "146"), ("--m", "10002", "--vmax", "0", "--jmax", "0")):
        code, out, err = run(capsys, "check", "scaling", *argv)
        assert code == 3 and out == "" and "scaling point counts refuses" in err, argv
    code, out, _ = run(capsys, "check", "scaling", "--m", "10001", "--vmax", "0", "--jmax", "0")
    assert code == 0 and out == "PASS scaling checked=20000\n"


def test_check_failure_exits_1(capsys, monkeypatch):
    from semipell import CongruenceReport

    def broken(n_max, m):
        report = CongruenceReport("oddness", {"m": m, "n_max": n_max})
        report.record_all([0], [1], lambda i: "n=0")
        return report

    # check reads the family's function from the package
    monkeypatch.setattr(semipell, "check_oddness", broken)
    code, out, _ = run(capsys, "check", "oddness")
    assert code == 1
    assert out.startswith("FAIL oddness")
    assert "violation" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "semipell", "count", "7", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0
    assert proc.stdout == "sp(7,2) = 11\n"


def _loaded_after(code):
    """The semipell, dataclasses and inspect modules in sys.modules after code runs.

    The probe runs at this interpreter's optimisation level, so a run
    under python -O checks what python -O loads.
    """
    probe = f"{code}\nprint(*sorted(m for m in sys.modules if m.startswith(('semipell', 'dataclasses', 'inspect'))))"
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_skips_dataclasses_and_inspect():
    # start-up is most of a short command's time; dataclasses pulls in
    # inspect, which alone takes longer to import than core and recurrence
    # together
    assert {"dataclasses", "inspect"}.isdisjoint(_loaded_after("import sys, semipell.cli"))


# the library modules each command runs, beyond semipell and semipell.cli
COMMAND_MODULES = [
    (["count", "5", "2"], {"core", "recurrence"}),
    (["count", "5", "2", "--json"], {"core", "recurrence"}),
    (["table", "9", "2", "3"], {"core", "recurrence"}),
    (["check", "plateau", "--vmax", "5"], {"core", "recurrence"}),
    (["enum", "5", "2", "--side", "oc"], {"core", "enumeration"}),
    (["check", "oracle", "--nmax", "8"], {"core", "enumeration"}),
    (["series", "3", "40"], {"core", "series"}),
    (["map", "14,3,18,27", "3"], {"core"}),
    (["map", "1^14,3,9^2,27", "3", "--direction", "from-oc"], {"core"}),
    (["check", "roundtrip", "--nmax", "8"], {"core", "enumeration", "bijection"}),
    (["check", "funceq", "--order", "40"], {"core", "series"}),
    (["check", "scaling", "--jmax", "3"], {"core", "recurrence"}),
    (["check", "mod4", "--nmax", "20"], {"core", "recurrence", "congruence"}),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[" ".join(a) for a, _ in COMMAND_MODULES])
def test_each_command_imports_only_its_modules(argv, modules):
    loaded = _loaded_after(f"import sys\nfrom semipell import cli\nif cli.main({argv!r}) != 0:\n    sys.exit(1)")
    assert loaded == {"semipell", "semipell.cli"} | {f"semipell.{m}" for m in modules}


def test_bare_package_import_loads_no_submodule():
    assert _loaded_after("import sys, semipell") == {"semipell"}


def test_determinism_across_runs():
    argv = [sys.executable, "-m", "semipell", "enum", "17", "2", "--side", "oc"]
    env = {**os.environ, "PYTHONPATH": SRC}
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
