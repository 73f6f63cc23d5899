"""The semipell benchmark.

    python3 bench/bench.py --workload library --seed 1 --seconds 50 --trace 0
    python3 bench/bench.py                      # every workload, interleaved

One run repeats rounds of one workload for --seconds seconds (at least
three of each kind), each round in a fresh interpreter started by
worker.py.  The first round's outputs are checked in full; later rounds
must reproduce its output digests.  --trace 0 prints the end-to-end
metrics from untraced rounds.  --trace 1 alternates untraced rounds with
rounds that record spans, ends with a round under tracemalloc for the
memory peaks, and prints the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Without --workload every workload runs REPEATS times, interleaved
(library, cli, library, ...), and the medians over the
repeats are printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# A run stops starting rounds after this long even when short of the
# minimum, so that it ends well within three minutes.
ROUND_CUTOFF_S = 100
RUN_LIMIT_S = 170
# Runs of each workload when every workload runs, interleaved.
REPEATS = 3

E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class RoundFailed(RuntimeError):
    """A worker process crashed, timed out or printed no record."""


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def spawn(workload: str, seed: int, kind: str, check: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    t0 = time.monotonic()
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--kind", kind, "--check", str(int(check)), "--t0", repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{kind} round of {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{kind} round of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, p: float) -> float:
    """Linearly interpolated p-quantile, 0 <= p <= 1."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failures(first: dict, rec: dict) -> int:
    """Ops of rec that failed: wrong in the checked first round, or
    with an output that differs from the first round's."""
    return sum(
        1 for i, d in zip(rec["indices"], rec["digests"]) if not (first["ok"][i] and d == first["digests"][i])
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds of one workload and reduce them to metrics."""
    env = environment()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cycle = ("plain", "spans") if trace else ("plain",)
    rounds = {kind: [] for kind in cycle}
    first = None
    attempted = failed = 0

    def account(rec: dict) -> None:
        nonlocal attempted, failed
        if rec["input_digest"] != first["input_digest"]:
            raise RoundFailed("the same seed built different inputs in two rounds")
        attempted += len(rec["digests"])
        failed += failures(first, rec)

    i = 0
    while True:
        kind = cycle[i % len(cycle)]
        rec = spawn(workload, seed, kind, check=first is None, deadline=deadline)
        if first is None:
            first = rec
        account(rec)
        rounds[kind].append(rec)
        i += 1
        elapsed = time.monotonic() - start
        fewest = min(len(r) for r in rounds.values())
        if elapsed >= (seconds if fewest >= workloads.MIN_ROUNDS else ROUND_CUTOFF_S) and fewest:
            break
    mem = None
    if trace:
        mem = spawn(workload, seed, "mem", check=False, deadline=deadline)
        account(mem)

    plain = rounds["plain"]
    n_ops = len(first["digests"])
    lat = [x for rec in plain for x in rec["lat"]]
    tail_p = 1 - 10 / (workloads.MIN_ROUNDS * n_ops)
    wall = statistics.median(rec["wall_s"] for rec in plain)
    e2e = {
        "wall_s": wall,
        "ops_per_s": n_ops / wall,
        # Each op's latency is its median over the rounds; pooling the
        # samples instead puts the median on the boundary between two ops
        # whenever a round has an even number of them.
        "op_p50_s": statistics.median(statistics.median(rec["lat"][i] for rec in plain) for i in range(n_ops)),
        "op_tail_s": quantile(lat, tail_p),
        "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in plain),
        "setup_s": statistics.median(rec["setup_s"] for rec in plain),
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "input_digest": first["input_digest"],
        "rounds": {kind: len(r) for kind, r in rounds.items()},
        "round_walls": {kind: [rec["wall_s"] for rec in r] for kind, r in rounds.items()},
        "ops_per_round": n_ops,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "tail": {"percentile": 100 * tail_p, "samples": len(lat)},
        "e2e": e2e,
    }
    if trace:
        layers = {
            name: statistics.median(rec["layers"][name] for rec in rounds["spans"])
            for name in rounds["spans"][0]["layers"]
        }
        for name in layers:
            if name.endswith("peak_traced_mb"):
                layers[name] = mem["layers"][name]
        traced = statistics.median(rec["wall_s"] for rec in rounds["spans"])
        layers["trace.wall_traced_s"] = traced
        layers["trace.wall_untraced_s"] = wall
        layers["trace.overhead_ratio"] = traced / wall
        summary["layers"] = layers
    return summary


def units() -> dict:
    table = {name: unit for name, (unit, _) in E2E_METRICS.items()}
    table.update({name: spec[0] for name, spec in spans.LAYER_METRICS.items()})
    table.update({name: spec[0] for name, spec in spans.DERIVED_METRICS.items()})
    return table


def report(summary: dict, trace: bool) -> dict:
    """Print one run's human-readable lines; return its metrics."""
    env = summary["env"]
    print(f"# env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"loadavg={' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"# workload={summary['workload']} seed={summary['seed']} input_digest={summary['input_digest']} "
          f"rounds={summary['rounds']} ops_per_round={summary['ops_per_round']}")
    unit = units()
    for name, value in summary["e2e"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{summary['tail']['percentile']:.2f} of {summary['tail']['samples']} samples)"
        print(f"{name} {value:.6g} {unit[name]}{note}")
    print(f"fail_ratio {summary['fail_ratio']:.6g} ratio  ({summary['failed']} of {summary['attempted']} ops)")
    metrics = summary["layers"] if trace else summary["e2e"]
    if trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {unit[name]}")
    return {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()}


def save(summary: dict, trace: bool) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{summary['workload']}-seed{summary['seed']}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    runs = {w: [] for w in workloads.WORKLOADS}
    for _ in range(REPEATS):
        for w in workloads.WORKLOADS:
            summary = measure(w, seed, seconds, trace)
            save(summary, trace)
            runs[w].append(summary)
    unit = units()
    result = {}
    for w, summaries in runs.items():
        key = "layers" if trace else "e2e"
        print(f"# {w}: medians over {REPEATS} interleaved runs, seed {seed}")
        metrics = {}
        for name in summaries[0][key]:
            values = [s[key][name] for s in summaries]
            metrics[name] = {"value": statistics.median(values), "unit": unit[name]}
            print(f"{w} {name} {statistics.median(values):.6g} {unit[name]}  "
                  f"(min {min(values):.6g}, max {max(values):.6g})")
        failed = sum(s["failed"] for s in summaries)
        attempted = sum(s["attempted"] for s in summaries)
        print(f"{w} fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
        result[w] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in result.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="semipell benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload; without it every workload runs, interleaved")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "semipell", "__init__.py")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'semipell')}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, bool(args.trace))
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(summary, bool(args.trace))
    metrics = report(summary, bool(args.trace))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
