"""Tests of the benchmark itself; the package under src/ is never patched.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ALLOWED = re.compile(
    r"(sp|sp_table|qm_series|functional_equation_residual|enumerate_\w+|oracle_\w+"
    r"|to_oc|from_oc|roundtrip_check|check_\w+|is_semi_m_pell)$"
)
# Names planned for deletion, which the benchmark must never depend on.
FORBIDDEN = ("CountCache", "Series", "load_count_cache", "save_count_cache")


@pytest.fixture(scope="module")
def api():
    return worker.load_api(ROOT)


def bench_sources():
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            path = os.path.join(BENCH, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), path)


def test_benchmark_uses_only_surviving_public_names():
    assert all(ALLOWED.match(name) for name in worker.API_NAMES)
    imported = []
    for name, tree in bench_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
                assert not any(m.split(".")[0] == "semipell" for m in modules), f"{name} imports semipell directly"
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
                imported.append(node.args[0].value)
            elif isinstance(node, ast.Name):
                assert node.id not in FORBIDDEN, f"{name} uses {node.id}"
            elif isinstance(node, ast.Attribute):
                assert node.attr not in FORBIDDEN, f"{name} uses .{node.attr}"
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                assert not private, f"{name} uses the underscore name .{node.attr}"
            elif isinstance(node, ast.keyword):
                assert node.arg != "cache", f"{name} passes cache="
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "--cache" not in node.value, f"{name} uses --cache"
                assert node.value not in FORBIDDEN, f"{name} names {node.value}"
    assert sorted(imported) == ["semipell", "semipell.cli"]


def span(sid, parent, start, end, name="x", op=0):
    return spans.Span(sid, parent, op, name, start, end)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    trace = [
        span(0, None, 0.0, 10.0, "bench.op"),
        span(1, 0, 1.0, 3.0, "recurrence.sp"),
        span(2, 0, 2.0, 4.0, "recurrence.sp"),  # overlaps its sibling
        span(3, 0, 9.0, 12.0, "series.qm_series"),  # runs past its parent
        span(4, 3, 9.5, 10.5, "inner"),
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(10 - (3 + 1))
    assert own[1] == pytest.approx(2) and own[2] == pytest.approx(2)
    assert own[3] == pytest.approx(3 - 1)
    assert own[4] == pytest.approx(1)
    totals = spans.totals_by_name(trace)
    assert totals["recurrence.sp"].calls == 2
    assert totals["recurrence.sp"].busy == pytest.approx(4)
    metrics = spans.layer_metrics(trace)
    assert metrics["recurrence.sp.busy_s"] == pytest.approx(4)
    assert metrics["bench.op.self_s"] == pytest.approx(6)
    assert set(metrics) == set(spans.LAYER_METRICS) | {"congruence.checked_per_s", "cli.startup_s"}


def test_tracer_links_layer_spans_to_their_op(api):
    tracer = spans.Tracer()
    traced = tracer.instrument(api, worker.WORK)
    assert tracer.run_op(7, workloads.execute, ("sp", 15, 2), traced) == 51
    op_span, layer = tracer.spans
    assert (op_span.name, op_span.parent, op_span.op) == ("bench.op", None, 7)
    assert (layer.name, layer.parent, layer.op) == ("recurrence.sp", op_span.sid, 7)
    assert op_span.start <= layer.start <= layer.end <= op_span.end


def test_cli_startup_pairs_subprocess_and_in_process_spans():
    trace = [
        span(0, None, 0.0, 0.30, "cli.subprocess", op=0),
        span(1, None, 0.30, 0.32, "cli.main", op=0),
        span(2, None, 1.0, 1.10, "cli.subprocess", op=1),
        span(3, None, 1.10, 1.14, "cli.main", op=1),
    ]
    assert spans.startup(trace) == pytest.approx((0.28 + 0.06) / 2)


def test_the_seed_alone_fixes_the_inputs(api):
    for workload in workloads.WORKLOADS:
        one = workloads.make_ops(workload, 5, api)
        assert workloads.digest(one) == workloads.digest(workloads.make_ops(workload, 5, api))
        assert workloads.digest(one) != workloads.digest(workloads.make_ops(workload, 6, api))


def smallest(ops, k):
    return sorted(ops, key=lambda op: op[1])[:k]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 7])
def test_a_wrong_count_is_a_failed_op(api, seed):
    ops = smallest([op for op in workloads.make_ops("library", seed, api) if op[0] == "sp"], 3)
    assert worker.run_round("library", seed, api, ops=ops)["ok"] == [True] * 3
    _, bad_n, bad_m = ops[1]
    wrong = SimpleNamespace(**vars(api))
    wrong.sp = lambda n, m: api.sp(n, m) + 2 * (n == bad_n and m == bad_m)
    assert worker.run_round("library", seed, wrong, ops=ops)["ok"] == [True, False, True]


def test_wrong_series_and_raising_calls_are_failed_ops(api):
    ops = [("qm_series", 3, 40), ("functional_equation_residual", 3, 40), ("enumerate_sp", 9, 2)]
    assert worker.run_round("library", 1, api, ops=ops)["ok"] == [True, True, True]
    wrong = SimpleNamespace(**vars(api))
    wrong.functional_equation_residual = lambda m, order: [0] * 5 + [1] + [0] * (order - 5)
    wrong.qm_series = lambda m, order: [1] * (order + 1)

    def refuse(n, m):
        raise ValueError("refused")

    wrong.enumerate_sp = refuse
    assert worker.run_round("library", 1, wrong, ops=ops)["ok"] == [False, False, False]


def test_exit_3_is_correct_only_for_the_refused_command(api):
    ops = workloads.make_ops("cli", workloads.DEFAULT_SEED, api)
    refused = [op[2][0] == "refused" for op in ops]
    assert sum(refused) == 1
    checker = workloads.Checker(api)
    expected = {op[1]: checker.cli_expected(op[2]) for op in ops}
    assert all(code == 0 for (code, _), r in zip(expected.values(), refused) if not r)

    fake = SimpleNamespace(**vars(api))
    fake.run_cli = lambda argv: expected[argv]
    assert worker.run_round("cli", 1, fake, ops=ops)["ok"] == [True] * len(ops)
    fake.run_cli = lambda argv: (3, "")
    assert worker.run_round("cli", 1, fake, ops=ops)["ok"] == refused
    fake.run_cli = lambda argv: (0, "") if expected[argv][0] == 3 else expected[argv]
    assert worker.run_round("cli", 1, fake, ops=ops)["ok"] == [not r for r in refused]


def test_memory_round_reruns_the_largest_output_of_each_kind(api):
    ops = workloads.make_ops("library", workloads.DEFAULT_SEED, api)
    by_kind = {ops[i][0]: ops[i] for i in workloads.memory_ops(ops)}
    assert sorted(by_kind) == sorted(
        ["sp", "qm_series", "functional_equation_residual", "enumerate_sp", "enumerate_oc", "oracle_sp", "oracle_oc"]
    )
    assert by_kind["sp"][1] == max(op[1] for op in ops if op[0] == "sp") > 9 * 10**5
    assert 1024 <= by_kind["qm_series"][2] <= workloads.MEMORY_MAX_ORDER
    # sp(n, 2) = sp(n / 2, 2) for even n, so the largest generator output lies at an odd weight.
    assert by_kind["enumerate_oc"][1] == 99
    assert workloads.memory_ops(workloads.make_ops("cli", workloads.DEFAULT_SEED, api)) == []


def test_later_rounds_fail_where_the_output_changed_or_was_wrong():
    first = {"ok": [True, True, False], "digests": ["a", "b", "c"], "indices": [0, 1, 2]}
    assert bench.failures(first, first) == 1
    assert bench.failures(first, {"digests": ["a", "x", "c"], "indices": [0, 1, 2]}) == 2
    assert bench.failures(first, {"digests": ["x", "c"], "indices": [1, 2]}) == 2
    assert bench.failures(first, {"digests": ["b"], "indices": [1]}) == 0


@pytest.mark.parametrize("name", sorted(workloads.EXPECTED_CHECKED))
def test_expected_instance_totals_match_the_sweeps(api, name):
    args = {
        "check_oddness": (37, 3),
        "check_mod4_base": (41,),
        "check_mod4_general": (5, 9),
        "check_mod3": (7, 6),
        "check_partial_sum_mod3": (4, 11),
        "check_ob_parity": (45,),
        "check_special_cases": (8,),
        "check_plateau_identity": (13, 4),
        "check_scaling_identity": (3, 5, 4),
    }[name]
    assert getattr(api, name)(*args).checked == workloads.EXPECTED_CHECKED[name](*args)


def test_dense_counts_start_like_a129095():
    assert workloads.dense_counts(15, 2)[1:] == [1, 1, 3, 1, 5, 3, 11, 1, 13, 5, 23, 3, 29, 11, 51]


def test_quantile_interpolates():
    assert bench.quantile([4, 1, 3, 2], 0.5) == pytest.approx(2.5)
    assert bench.quantile(range(11), 0.9) == pytest.approx(9)


def test_runs_refuse_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == bench.E2E_METRICS
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    printed = {name: spec[:2] for name, spec in {**spans.LAYER_METRICS, **spans.DERIVED_METRICS}.items()}
    assert layers == printed
