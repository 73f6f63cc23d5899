"""In-memory spans around the benchmark's calls into each package module.

A span records its name ("<module>.<function>"), start, end, the span
that was open when it began, and the op it belongs to.  Every op of a
traced round is one "bench.op" span; the layer spans opened by the
wrapped package functions are its children.  Layer spans never nest in
each other, because the package's own cross-module calls are not
wrapped, so a layer span's traced-memory peak is measured by resetting
the tracemalloc peak when it opens.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

MB = 1 << 20


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float = 0.0
    mem_mb: Optional[float] = None
    mem_base: int = 0
    work: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Collects spans; with memory=True also per-span tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.op: Optional[int] = None

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, 0.0)
        self.spans.append(span)
        self.stack.append(span)
        if self.memory and name != "bench.op":
            tracemalloc.reset_peak()
            span.mem_base = tracemalloc.get_traced_memory()[0]
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.memory and span.name != "bench.op":
            span.mem_mb = (tracemalloc.get_traced_memory()[1] - span.mem_base) / MB
        self.stack.pop()

    def run_op(self, index: int, fn: Callable, *args):
        """fn(*args) inside the "bench.op" span of op number index."""
        self.op = index
        span = self.open("bench.op")
        try:
            return fn(*args)
        finally:
            self.close(span)
            self.op = None

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """fn with a span per call; work(args, result) counts work done."""

        def traced(*args):
            span = self.open(name)
            try:
                result = fn(*args)
            finally:
                self.close(span)
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def instrument(self, api: SimpleNamespace, work: Dict[str, Callable]) -> SimpleNamespace:
        """A copy of api whose callables record spans.

        Package functions are named after their module; the benchmark's
        own subprocess runner is "cli.subprocess" and cli.main is
        "cli.main".
        """
        traced = {}
        for attr, fn in vars(api).items():
            if attr == "run_cli":
                name = "cli.subprocess"
            elif attr == "cli_main":
                name = "cli.main"
            else:
                name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
            traced[attr] = self.wrap(name, fn, work.get(attr))
        return SimpleNamespace(**traced)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


@dataclass
class Totals:
    calls: int = 0
    busy: float = 0.0
    self_s: float = 0.0
    work: int = 0
    mem_mb: float = 0.0


def totals_by_name(spans: List[Span]) -> Dict[str, Totals]:
    own = self_times(spans)
    out: Dict[str, Totals] = {}
    for s in spans:
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.busy += s.end - s.start
        t.self_s += own[s.sid]
        t.work += s.work or 0
        if s.mem_mb is not None:
            t.mem_mb = max(t.mem_mb, s.mem_mb)
    return out


CONGRUENCE = (
    ("oddness", "check_oddness"),
    ("mod4", "check_mod4_base"),
    ("mod4-general", "check_mod4_general"),
    ("mod3", "check_mod3"),
    ("partial-sum", "check_partial_sum_mod3"),
    ("ob-parity", "check_ob_parity"),
    ("special-cases", "check_special_cases"),
)
SERIES = ("series.qm_series", "series.functional_equation_residual")
ENUMERATION = tuple(f"enumeration.{f}" for f in ("enumerate_sp", "enumerate_oc", "oracle_sp", "oracle_oc"))

# metric name -> (unit, better, span names, field of Totals)
LAYER_METRICS = {
    "recurrence.sp.calls": ("count", "lower", ("recurrence.sp",), "calls"),
    "recurrence.sp.busy_s": ("s", "lower", ("recurrence.sp",), "busy"),
    "recurrence.sp.peak_traced_mb": ("MB", "lower", ("recurrence.sp",), "mem_mb"),
    "recurrence.sp_table.busy_s": ("s", "lower", ("recurrence.sp_table",), "busy"),
    "recurrence.identity.busy_s": (
        "s", "lower", ("recurrence.check_plateau_identity", "recurrence.check_scaling_identity"), "busy"),
    "series.qm_series.busy_s": ("s", "lower", ("series.qm_series",), "busy"),
    "series.residual.busy_s": ("s", "lower", ("series.functional_equation_residual",), "busy"),
    "series.coeffs": ("count", "higher", SERIES, "work"),
    "series.peak_traced_mb": ("MB", "lower", SERIES, "mem_mb"),
    "enumeration.enumerate_sp.busy_s": ("s", "lower", ("enumeration.enumerate_sp",), "busy"),
    "enumeration.enumerate_oc.busy_s": ("s", "lower", ("enumeration.enumerate_oc",), "busy"),
    "enumeration.objects": ("count", "higher", ("enumeration.enumerate_sp", "enumeration.enumerate_oc"), "work"),
    "enumeration.oracle_sp.busy_s": ("s", "lower", ("enumeration.oracle_sp",), "busy"),
    "enumeration.oracle_oc.busy_s": ("s", "lower", ("enumeration.oracle_oc",), "busy"),
    "enumeration.peak_traced_mb": ("MB", "lower", ENUMERATION, "mem_mb"),
    "bijection.roundtrip.calls": ("count", "lower", ("bijection.roundtrip_check",), "calls"),
    "bijection.roundtrip.busy_s": ("s", "lower", ("bijection.roundtrip_check",), "busy"),
    "core.is_semi_m_pell.calls": ("count", "lower", ("core.is_semi_m_pell",), "calls"),
    "core.is_semi_m_pell.busy_s": ("s", "lower", ("core.is_semi_m_pell",), "busy"),
    **{
        f"congruence.{family}.busy_s": ("s", "lower", (f"congruence.{fn}",), "busy")
        for family, fn in CONGRUENCE
    },
    "congruence.checked": ("count", "higher", tuple(f"congruence.{fn}" for _, fn in CONGRUENCE), "work"),
    "cli.main.busy_s": ("s", "lower", ("cli.main",), "busy"),
    "bench.op.self_s": ("s", "lower", ("bench.op",), "self_s"),
}

# Metrics derived from the ones above or from the runner.
DERIVED_METRICS = {
    "congruence.checked_per_s": ("1/s", "higher"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_traced_s": ("s", "lower"),
    "trace.wall_untraced_s": ("s", "lower"),
}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced round (0 where a layer is idle)."""
    totals = totals_by_name(spans)
    out: Dict[str, float] = {}
    for metric, (_, _, names, field) in LAYER_METRICS.items():
        values = [getattr(totals[n], field) for n in names if n in totals]
        out[metric] = (max(values) if field == "mem_mb" else sum(values)) if values else 0
    busy = sum(totals[f"congruence.{fn}"].busy for _, fn in CONGRUENCE if f"congruence.{fn}" in totals)
    out["congruence.checked_per_s"] = out["congruence.checked"] / busy if busy else 0
    out["cli.startup_s"] = startup(spans)
    return out


def startup(spans: List[Span]) -> float:
    """Median over ops of subprocess wall minus in-process cli.main time."""
    per_op: Dict[int, Dict[str, float]] = {}
    for s in spans:
        if s.name in ("cli.subprocess", "cli.main"):
            per_op.setdefault(s.op, {})[s.name] = s.end - s.start
    gaps = [d["cli.subprocess"] - d["cli.main"] for d in per_op.values() if len(d) == 2]
    return statistics.median(gaps) if gaps else 0
