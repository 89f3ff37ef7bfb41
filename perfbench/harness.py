"""Measurement loop, metrics and output of the halfspace-qed benchmark.

A run makes the seeded item list of one workload and passes over it again and
again until ``--seconds`` are used up, not counting the work between passes
(set-up probes, span aggregation).  It makes at least one pass, and does not
begin a pass when the median pass so far would overrun.  Every item is checked
against its closed form; a tolerance miss or a ``QuadratureError`` counts as a
failed item and the run goes on.

``--trace 0`` reports the end-to-end metrics.  Item times are reported in
units of the yardstick: a fixed numpy computation that does not use the
package, timed right before and after each item.  Load from other tenants of
a shared host slows both alike, so their ratio holds where the times
themselves swing by 2x.  Set-up time is the median over several fresh
interpreters, each timed from its start until the item list is ready, and
started one after each pass so that they spread over the run.
``--trace 1`` spends half the time untraced and half traced, and reports
per-layer metrics per pass plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from run import THREAD_VARS
from halfspace_qed import report
from halfspace_qed.spectral import QuadratureError, QuadratureSpec
from tracing import ANALYTIC_LAYERS, QUADRATURE_LAYERS, ROOT_LAYER, LayerStats, Tracer

__all__ = ["END_TO_END", "PER_LAYER", "Run", "run_workload", "main"]

SETUP_REPS = 9
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
RUN_PY = Path(__file__).resolve().parent / "run.py"

# The yardstick's share of the time spent on items, and its nodes and weights.
YARDSTICK_SHARE = 0.1
_YARDSTICK_PANELS = 16
_YARDSTICK_X = np.cos(np.pi * (np.arange(15) + 0.5) / 15)
_YARDSTICK_W = np.full(15, 2.0 / 15)

END_TO_END = {
    "wall_ref": "ref",
    "item_ref.p50": "ref",
    "item_ref.p90": "ref",
    "pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in QUADRATURE_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s",
                      f"{layer}.nodes": "count", f"{layer}.failed": "count"})
    for layer in (ROOT_LAYER,) + ANALYTIC_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    units.update({
        "err_over_tol.max": "ratio",
        "kernels.est_over_obs.min": "ratio",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Pass:
    """Summary of one pass; the outcomes themselves are not kept, so memory
    does not grow with the number of passes."""

    wall_s: float
    item_s: list[float]
    outside_s: float  # pass time spent neither on items nor on the yardstick
    item_ref: list[float]  # item time over the yardstick time around it; empty if not timed
    yardstick_s: float  # median yardstick call of the pass; 0 if not timed
    failed: int  # tolerance misses and QuadratureErrors
    err_over_tol: float  # worst error over tolerance among the items that returned
    est_over_obs: list[float]  # engine estimate over observed error, where reported
    digest: str


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float]
    raw: dict[str, float]  # plain times, printed and recorded but not bounded
    attempted: int
    failed: int
    passes: int
    err_over_tol_max: float
    digest: str
    digest_stable: bool
    absent: list[str]
    spans: list | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _digest(outcomes: list[workloads.Outcome | None], report_json: str) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update((" ".join(map(_fmt, outcome.outputs)) if outcome else "failed").encode())
        digest.update(b"\n")
    digest.update(report_json.encode())
    return digest.hexdigest()


def _yardstick() -> float:
    """Time of one call of the yardstick: a damped oscillatory integrand on
    15-node panels, summed with a heap of panel sizes.  That is the make-up of
    the package's quadrature engine (a Python loop over numpy calls on small
    arrays), so load on the host slows both alike: on a 2-vCPU VM, a process
    busy on the other vCPU slowed the benchmark's items by 12-42% and their
    ratio to this yardstick by at most 2%.  It never calls the package, so a
    change to the package leaves it alone."""
    t0 = perf_counter()
    heap: list[tuple[float, int]] = []
    total = 0j
    for m in range(_YARDSTICK_PANELS):
        x = 0.05 * _YARDSTICK_X + (0.1 * m + 0.05)
        values = np.exp(-0.1 * x) * np.cos(7.0 * x) / (1.0 + x * x) + 0j
        panel = 0.05 * np.tensordot(_YARDSTICK_W, values, axes=(0, 0))
        heapq.heappush(heap, (-float(np.max(np.abs(panel))), m))
        total = total + panel
    return perf_counter() - t0


def _yardstick_block(item_s: float) -> list[float]:
    """Yardstick calls that together take ``YARDSTICK_SHARE`` of ``item_s``,
    one at least, so a long item is matched by many calls around it."""
    times = [_yardstick()]
    spent = times[0]
    while spent < YARDSTICK_SHARE * item_s:
        times.append(_yardstick())
        spent += times[-1]
    return times


def _run_pass(items: list[workloads.Item], seed: int, spec: QuadratureSpec,
              tracer: Tracer | None, yardstick: bool) -> Pass:
    """One timed pass over the items, checks and report included; with
    ``yardstick``, each item is bracketed by yardstick calls."""
    item_s, item_ref, outcomes, reports = [], [], [], []
    yardstick_s: list[float] = []
    t_pass = perf_counter()
    before = _yardstick_block(0.0) if yardstick else []
    yardstick_s += before
    for index, item in enumerate(items):
        t0 = perf_counter()
        with tracer.span(ROOT_LAYER) if tracer else nullcontext():
            try:
                outcome = workloads.run_item(item, spec)
            except QuadratureError:
                outcome = None
            if outcome is not None:
                reports.append(report.make_check(
                    outcome.check, {"item": index, "seed": seed}, outcome.err, 0.0, outcome.tol))
        item_s.append(perf_counter() - t0)
        outcomes.append(outcome)
        if yardstick:
            after = _yardstick_block(item_s[-1])
            item_ref.append(item_s[-1] / statistics.median(before + after))
            yardstick_s += after
            before = after
    report_json = report.to_json(reports)
    wall_s = perf_counter() - t_pass
    outside_s = wall_s - sum(item_s) - sum(yardstick_s)
    returned = [o for o in outcomes if o is not None]
    return Pass(
        wall_s=wall_s,
        item_s=item_s,
        outside_s=outside_s,
        item_ref=item_ref,
        yardstick_s=statistics.median(yardstick_s) if yardstick else 0.0,
        failed=sum(1 for o in outcomes if o is None or not o.passed),
        err_over_tol=max((o.err / o.tol for o in returned), default=0.0),
        est_over_obs=[o.est_over_obs for o in returned if o.est_over_obs is not None],
        digest=_digest(outcomes, report_json),
    )


def _run_passes(items: list[workloads.Item], seed: int, spec: QuadratureSpec, budget_s: float,
                tracer: Tracer | None = None, on_pass=None, yardstick: bool = False) -> list[Pass]:
    """Passes until ``budget_s`` is spent; ``on_pass`` runs after each one,
    outside the budget."""
    passes: list[Pass] = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 + statistics.median(p.wall_s for p in passes) <= budget_s:
        passes.append(_run_pass(items, seed, spec, tracer, yardstick))
        if on_pass:
            t_hook = perf_counter()
            on_pass()
            t0 += perf_counter() - t_hook
    return passes


def setup_probe(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter on run.py until it has imported
    the package and made the item list."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(passes: list[Pass]) -> dict[str, float]:
    # Each item's cost is its median over the passes of its time over the
    # yardstick time around it.  The least plain time over the passes is not
    # steady on a shared host: the host runs at about half speed for spans of
    # seconds to minutes, longer than a run of the long-item workloads, so
    # their least times swing by 30-40% between runs.
    item_ref = [statistics.median(ratios) for ratios in zip(*(p.item_ref for p in passes))]
    attempted = sum(len(p.item_s) for p in passes)
    return {
        "wall_ref": sum(item_ref) + statistics.median(p.outside_s / p.yardstick_s for p in passes),
        "item_ref.p50": statistics.median(item_ref),
        "item_ref.p90": _percentile(item_ref, 90),
        "pass_frac": 1.0 - sum(p.failed for p in passes) / attempted,
    }


def _raw_times(passes: list[Pass]) -> dict[str, float]:
    """Plain times, each item's least over the passes, for the reader."""
    item_ms = [1e3 * min(times) for times in zip(*(p.item_s for p in passes))]
    raw = {
        "wall_s": 1e-3 * sum(item_ms) + min(p.outside_s for p in passes),
        "item_ms.p50": statistics.median(item_ms),
        "item_ms.p90": _percentile(item_ms, 90),
    }
    if passes[0].yardstick_s:
        raw["yardstick_ms"] = 1e3 * statistics.median(p.yardstick_s for p in passes)
    return raw


def _per_layer(totals: dict[str, LayerStats], traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Per-pass means of the layer totals, plus the trace bookkeeping."""
    count = len(traced)
    metrics: dict[str, float] = {}
    for name, stats in totals.items():
        fields = {"calls": stats.calls, "busy_s": stats.busy_s, "self_s": stats.self_s}
        if name in QUADRATURE_LAYERS:
            fields.update(nodes=stats.nodes, failed=stats.failed)
        for key, value in fields.items():
            metrics[f"{name}.{key}"] = value / count
    estimates = [e for p in traced for e in p.est_over_obs]
    traced_wall = statistics.mean(p.wall_s for p in traced)
    metrics.update({
        # 0 where no item reports an engine estimate (only kernel assembly does)
        "kernels.est_over_obs.min": min(estimates, default=0.0),
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": sum(s.self_s for s in totals.values()) / count,
        "trace.overhead_s": traced_wall - statistics.mean(p.wall_s for p in untraced),
    })
    return metrics


def _traced_passes(items: list[workloads.Item], seed: int, spec: QuadratureSpec, budget_s: float,
                   ) -> tuple[list[Pass], dict[str, LayerStats], list[str], list]:
    """Passes with the tracer installed; the spans are aggregated and dropped
    after each pass, except those of the last pass."""
    tracer = Tracer()
    totals = {name: LayerStats() for name in tracer.layers}
    last_spans: list = []

    def collect() -> None:
        nonlocal last_spans
        for name, stats in tracer.aggregate().items():
            totals[name].add(stats)
        last_spans = tracer.spans()
        tracer.reset()

    with tracer:
        traced = _run_passes(items, seed, spec, budget_s, tracer, collect)
    return traced, totals, tracer.absent, last_spans


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 count: int | None = None, setup_reps: int = SETUP_REPS) -> Run:
    """Measure one workload; ``count`` truncates the item list (for tests)."""
    items = workloads.make_items(workload, seed, count)
    spec = QuadratureSpec()
    absent: list[str] = []
    spans = None
    if not trace:
        setup_times: list[float] = []

        def probe() -> None:
            if len(setup_times) < setup_reps:
                setup_times.append(setup_probe(workload, seed))

        _yardstick()  # first call outside the timing
        passes = _run_passes(items, seed, spec, seconds, on_pass=probe, yardstick=True)
        while len(setup_times) < setup_reps:
            probe()
        metrics = _end_to_end(passes)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced = _run_passes(items, seed, spec, 0.5 * seconds)
        traced, totals, absent, spans = _traced_passes(items, seed, spec, 0.5 * seconds)
        passes = untraced + traced
        metrics = _per_layer(totals, traced, untraced)
    # Deterministic for a seed, but it swings by 10x and more between seeds
    # (the worst item is a rare corner of the input range), so it goes with
    # the unbounded traced metrics and is printed as information otherwise.
    err_over_tol = max(p.err_over_tol for p in passes)
    if trace:
        metrics["err_over_tol.max"] = err_over_tol
    return Run(
        workload=workload,
        seed=seed,
        trace=trace,
        metrics=metrics,
        raw=_raw_times(passes),
        attempted=sum(len(p.item_s) for p in passes),
        failed=sum(p.failed for p in passes),
        passes=len(passes),
        err_over_tol_max=err_over_tol,
        digest=passes[0].digest,
        digest_stable=len({p.digest for p in passes}) == 1,
        absent=absent,
        spans=spans,
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _write_record(run: Run, units: dict[str, str]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "attempted": run.attempted,
        "failed": run.failed,
        "passes": run.passes,
        "err_over_tol.max": run.err_over_tol_max,
        "raw_times": run.raw,
        "results_digest": run.digest,
        "digest_stable": run.digest_stable,
        "environment": environment(),
        "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit in units.items()},
        "absent_layers": run.absent,
    }
    if run.spans is not None:
        t0 = run.spans[0][2] if run.spans else 0.0
        record["spans_last_pass"] = [[name, parent, start - t0, end - start, nodes]
                                     for name, parent, start, end, nodes in run.spans]
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads.make_items(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if run.trace else END_TO_END
    for name in run.absent:
        print(f"trace: {name} is absent from the package and is not traced", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {run.metrics[name]:.6g} {unit}")
    print("plain times, not bounded: " + ", ".join(f"{k} = {v:.6g}" for k, v in run.raw.items()))
    print(f"items = {run.attempted} in {run.passes} passes, failed = {run.failed}, "
          f"err_over_tol.max = {run.err_over_tol_max:.3g}")
    print(f"results_digest = {run.digest} (stable across passes: {run.digest_stable})")
    print(f"record = {_write_record(run, units)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if run.failed == 0 else 1
