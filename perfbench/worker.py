"""One workload run in a fresh, single-threaded interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker times its
own ``import repro.cli`` first (so nothing else is imported before it),
builds the workload's inputs, prints ``READY <import seconds>`` and, unless
``--setup-only``, runs timed passes until ``--seconds`` have elapsed (and at
least the workload's minimum), records peak RSS, checks every output and
writes its figures as JSON to ``--out``.

With ``--trace 1`` passes alternate: untraced, then traced with bench spans
around every layer call, and so on.  The traced passes give the per-layer
figures; the untraced ones give the traced-minus-untraced span overhead.
"""

import time

_IMPORT_START = time.perf_counter()
import repro.cli  # noqa: E402,F401  - timed: the cold CLI import

IMPORT_SECONDS = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from benchspans import Probes, SpanRecorder  # noqa: E402
from benchstats import OpLog, median, per_op_medians, tail_percentile  # noqa: E402
from workloads import NULL_SPANS, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layer span names that make up each per-layer busy metric.
BUSY_LAYERS = {
    "graphs.busy_s": ("graphs",),
    "core.load_model.busy_s": ("core.load_model",),
    "placement.build_s": ("placement.build",),
    "core.volume.busy_s": ("core.volume",),
    "simulator.init_s": ("simulator.init",),
    "simulator.busy_s": ("simulator",),
    "dynamics.busy_s": ("dynamics",),
    "obs.trace.emit_s": ("obs.trace.emit",),
    "obs.trace.write_s": ("obs.trace.write",),
    "obs.trace.read_s": ("obs.trace.read",),
    "obs.critical_path.busy_s": ("obs.critical_path",),
    "obs.decisions.busy_s": ("obs.decisions",),
    "obs.drift.busy_s": ("obs.drift",),
    "obs.slo.busy_s": ("obs.slo",),
    "obs.runs.busy_s": ("obs.runs",),
}
PLACERS = ("rod", "correlation", "llf", "random", "connected")
CALL_LAYERS = {
    "graphs.calls": ("graphs",),
    "core.volume.calls": ("core.volume",),
    "simulator.calls": ("simulator",),
    "dynamics.calls": ("dynamics",),
    "placement.calls": tuple(f"placement.{p}" for p in PLACERS),
}
#: Per-layer counts read from the outputs; 0 where a workload has none.
COUNTERS = (
    "core.volume.cache_hit_ratio", "core.volume.cache_points",
    "simulator.tuples", "simulator.max_backlog_s", "dynamics.migrations",
    "dynamics.pause_s", "faults.applied", "obs.trace.events", "obs.trace.bytes",
)
#: Roots whose self time is the operation time no layer span covers.
GLUE = ("pass", "op")


def _layer_metrics(recorder, traced_passes):
    """Per-layer figures: set-up once plus the mean of one traced pass.

    Returns the metrics, the sum of every span's self time inside one
    traced pass, and the traced pass time those self times must add up to.
    """
    busy, calls = recorder.self_times()
    per = max(1, traced_passes)

    def total(table, names):
        return sum(
            table.get(("setup", n), 0) + table.get(("pass", n), 0) / per
            for n in names
        )

    metrics = {key: total(busy, names) for key, names in BUSY_LAYERS.items()}
    metrics["placement.place_s"] = total(busy, [f"placement.{p}" for p in PLACERS])
    for p in PLACERS:
        metrics[f"placement.{p}.place_s"] = total(busy, [f"placement.{p}"])
    metrics.update({key: total(calls, names) for key, names in CALL_LAYERS.items()})
    metrics["cli.self_s"] = sum(busy.get(("pass", n), 0.0) for n in GLUE) / per
    accounted = sum(v for (root, _), v in busy.items() if root == "pass") / per
    return metrics, accounted, recorder.root_seconds("pass") / per


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, spec, work_dir)
    recorder = SpanRecorder() if args.trace else None
    probes = Probes(recorder) if recorder is not None else None
    try:
        if probes is not None:
            probes.install()
            with recorder.span("setup"):
                workload.setup()
            probes.remove()
        else:
            workload.setup()
        print(f"READY {IMPORT_SECONDS!r}", flush=True)
        if args.setup_only:
            return 0
        return _run(args, workload, recorder, probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, workload, recorder, probes) -> int:
    log = OpLog()
    passes = []
    simulator_runs = []
    start = time.perf_counter()
    while (len(passes) < max(workload.min_passes, 2 if args.trace else 1)
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_op = log.attempted
        if traced:
            probes.install()
            with recorder.span("pass"):
                seconds = _timed_pass(workload, log, recorder)
            probes.remove()
        elif args.trace and hasattr(workload, "overhead_x"):
            with _timing_runs(simulator_runs):
                seconds = _timed_pass(workload, log, NULL_SPANS)
        else:
            seconds = _timed_pass(workload, log, NULL_SPANS)
        passes.append({"seconds": seconds, "traced": traced,
                       "first_op": first_op, "ops": log.attempted - first_op})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = workload.check(log)

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "import_s": IMPORT_SECONDS,
        "passes": passes,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": [log.failures[i] for i in sorted(log.failures)][:20],
        "results": results,
    }
    if args.trace:
        traced_seconds = [p["seconds"] for p in passes if p["traced"]]
        metrics, accounted, pass_span = _layer_metrics(
            recorder, len(traced_seconds)
        )
        traced_job = sum(traced_seconds) / len(traced_seconds)
        metrics.update(dict.fromkeys(COUNTERS, 0.0))
        metrics.update(workload.counts)
        metrics["obs.trace.overhead_x"] = (
            workload.overhead_x(simulator_runs) if simulator_runs else 0.0
        )
        metrics["bench.traced_job_s"] = traced_job
        metrics["bench.span_overhead_s"] = traced_job - median(untraced)
        metrics["bench.spans"] = float(len(recorder))
        out["layers"] = metrics
        # Layer self times plus cli.self_s must add up to the pass time.
        out["accounting"] = {"pass_s": pass_span, "layers_plus_self_s": accounted}
        balanced = abs(accounted - pass_span) <= 1e-6 * max(pass_span, 1.0)
        out["missing_probes"] = probes.missing
        recorder.dump(os.path.join(HERE, "_work", f"spans-{workload.name}.tsv"))
    else:
        # Each operation's time is its median over the passes, so a slow
        # stretch of the host that covers a minority of the passes moves no
        # figure; the pass's own work outside
        # the operations is added back as its median over the passes.  The
        # tail rule applies to one pass's operations, so every run reads
        # the same percentile of the same operation list.
        typical = per_op_medians(log.durations, [
            [index for index, _ in outputs] for outputs in workload.passes
        ])
        glue = median([
            p["seconds"] - sum(log.durations[p["first_op"]:p["first_op"] + p["ops"]])
            for p in passes
        ])
        value, pct, n, beyond = tail_percentile(typical)
        out["end_to_end"] = {
            "job_s": glue + sum(typical),
            "op_p50_ms": median(typical) * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "fail_share": log.fail_share,
            **results,
        }
        out["tail"] = {"percentile": pct, "samples": n, "beyond": beyond,
                       "passes": len(passes)}
    finite = all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for v in (out.get("end_to_end") or out.get("layers")).values()
    )
    out["correct"] = finite and log.failed == 0 and (
        not args.trace or balanced
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
    return 0


def _timed_pass(workload, log, spans) -> float:
    start = time.perf_counter()
    workload.run_pass(log, spans)
    return time.perf_counter() - start


@contextlib.contextmanager
def _timing_runs(runs):
    """Time each ``Simulator.run`` call into ``runs`` (for the traced over
    untraced engine ratio), touching nothing else."""
    from repro.simulator.engine import Simulator

    original = Simulator.run

    def timed(self, *args, **kwargs):
        begin = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            runs.append(time.perf_counter() - begin)

    Simulator.run = timed
    try:
        yield
    finally:
        Simulator.run = original


if __name__ == "__main__":
    sys.exit(main())
