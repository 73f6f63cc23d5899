"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload library --seed 1 --kind plain --check 1

imports semipell from the checkout's src/, builds the seeded ops (the
set-up), runs them back to back (the timed phase), then digests and
checks the outputs and prints one JSON record on stdout.  --kind spans
records a span around every call into the package, --kind mem does the
same under tracemalloc for the few ops that workloads.memory_ops picks.  A
fresh interpreter per round keeps the generators' memo tables cold, as
they are for a command-line user.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
import tracemalloc
from types import SimpleNamespace

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The only package names the benchmark touches.  They are the ones that
# survive the planned redesigns of counting, series and verification.
API_NAMES = (
    "sp",
    "sp_table",
    "qm_series",
    "functional_equation_residual",
    "enumerate_sp",
    "enumerate_oc",
    "oracle_sp",
    "oracle_oc",
    "to_oc",
    "from_oc",
    "roundtrip_check",
    "is_semi_m_pell",
    "check_oddness",
    "check_mod4_base",
    "check_mod4_general",
    "check_mod3",
    "check_partial_sum_mod3",
    "check_ob_parity",
    "check_special_cases",
    "check_plateau_identity",
    "check_scaling_identity",
)

# Work counted at the span boundary, from the call's arguments and result.
WORK = {
    "enumerate_sp": lambda args, result: len(result),
    "enumerate_oc": lambda args, result: len(result),
    "qm_series": lambda args, result: args[1] + 1,
    "functional_equation_residual": lambda args, result: args[1] + 1,
    **{name: (lambda args, result: result.checked) for name in API_NAMES if name.startswith("check_")},
}


class MissingPackage(RuntimeError):
    """The checkout has no src/semipell to benchmark."""


def load_api(root: str = ROOT) -> SimpleNamespace:
    """The package's public functions, imported from root/src only."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "semipell", "__init__.py")):
        raise MissingPackage(f"no package at {os.path.join(src, 'semipell')}")
    sys.path.insert(0, src)
    package = importlib.import_module("semipell")
    cli = importlib.import_module("semipell.cli")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise MissingPackage(f"semipell was imported from {package.__file__}, not {src}")
    api = SimpleNamespace(**{name: getattr(package, name) for name in API_NAMES})
    api.cli_main = lambda argv: captured_main(cli.main, argv)
    api.run_cli = lambda argv: run_cli(src, argv)
    return api


def captured_main(main, argv):
    """(exit code, stdout) of an in-process cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def run_cli(src: str, argv):
    """(exit code, stdout) of `python -m semipell argv` with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "semipell", *argv],
        cwd=os.path.dirname(src),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def load_reference(seed: int):
    """Point counts recorded for the default and held-out seeds, else None."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["counts"].get(str(seed))


def run_round(workload, seed, api, kind="plain", check=True, ops=None, t0=None):
    """Set up, run and check one round; returns the round's record.

    A "mem" round runs only the ops that workloads.memory_ops picks.
    """
    start = time.monotonic() if t0 is None else t0
    if ops is None:
        ops = workloads.make_ops(workload, seed, api)
    input_digest = workloads.digest(ops)
    indices = workloads.memory_ops(ops) if kind == "mem" else list(range(len(ops)))
    ops = [ops[i] for i in indices]
    tracer = spans.Tracer(memory=kind == "mem") if kind != "plain" else None
    calls = tracer.instrument(api, WORK) if tracer else api
    if kind == "mem":
        tracemalloc.start()
    setup_s = time.monotonic() - start

    results, lat = [], []
    began = time.perf_counter()
    for i, op in zip(indices, ops):
        t = time.perf_counter()
        try:
            if tracer:
                result = tracer.run_op(i, workloads.execute, op, calls)
            else:
                result = workloads.execute(op, calls)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            result = workloads.Failure(repr(exc))
        lat.append(time.perf_counter() - t)
        results.append(result)
    wall_s = time.perf_counter() - began
    if tracer and workload == "cli":
        # cli.main in-process, after the timed phase so that it does not
        # count as tracing overhead; its span carries the command's op id.
        for i, op in zip(indices, ops):
            tracer.op = i
            calls.cli_main(op[1])
        tracer.op = None

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if kind == "mem":
        tracemalloc.stop()

    values = [r if isinstance(r, workloads.Failure) else workloads.plain(op, r) for op, r in zip(ops, results)]
    ok = None
    if check:
        checker = workloads.Checker(api, load_reference(seed))
        ok = [checker(op, v) for op, v in zip(ops, values)]
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "lat": lat,
        "rss_mb": rss_mb,
        "digests": [workloads.digest(v) for v in values],
        "ok": ok,
        "input_digest": input_digest,
        "indices": indices,
        "layers": spans.layer_metrics(tracer.spans) if tracer else None,
    }
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{kind}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("plain", "spans", "mem"), default="plain")
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the parent started this process")
    args = parser.parse_args()
    try:
        api = load_api()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run_round(args.workload, args.seed, api, args.kind, bool(args.check), t0=args.t0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
