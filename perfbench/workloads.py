"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs its fixed list of operations back to back in :meth:`run_pass` (one
caller, closed loop), and verifies the outputs in :meth:`check`, outside
the timed region.  Outputs are deterministic on a seed, so every pass
after the first must reproduce the first pass exactly.

Inputs and sizes come from ``spec.json``; see its ``workloads`` entries
for why each workload was chosen and which layers it exercises.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import shutil
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchstats import OpLog, derive_seed, median, sustainable_level

import repro.cli as cli
from repro.check import check_artifact
from repro.core.analysis import headroom
from repro.core.load_model import build_load_model
from repro.core.plans import placement_from_mapping
from repro.core.volume import cache as volume_cache
from repro.deploy import Deployment
from repro.dynamics import FailoverController
from repro.experiments import common, resiliency
from repro.faults import chaos_schedule
from repro.graphs import generator
from repro.graphs.serialize import load_graph
from repro.obs.critical_path import analyze_critical_path
from repro.obs.timeline import busy_totals
from repro.obs.trace import read_trace
from repro.simulator.engine import Simulator
from repro.workload.scenarios import steady_trace_series

def sustainable_utilization(placement, direction: Sequence[float]) -> float:
    """Analytic twin of the ``simulate --check`` ladder: the share of total
    cluster capacity the plan carries along ``direction`` before some node
    saturates (``L^n R <= C``)."""
    d = np.asarray(direction, dtype=float)
    scale = headroom(placement, d)
    demand = float(placement.model.column_totals() @ d)
    return scale * demand / float(np.sum(placement.capacities))


class _NullSpans:
    """Stands in for a :class:`SpanRecorder` on untraced passes."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


NULL_SPANS = _NullSpans()


class Workload:
    """Common shape: setup, timed passes, untimed checks, metrics."""

    name = ""
    #: Passes a run makes even when ``--seconds`` has already elapsed.
    min_passes = 1

    def __init__(self, seed: int, spec: dict, work_dir: str) -> None:
        self.seed = seed
        self.spec = spec
        self.work_dir = work_dir
        #: Per pass: each op's index in the op log and its output, in the
        #: workload's fixed op order (the same op at the same position in
        #: every pass, whatever order the pass ran them in).
        self.passes: List[List[Tuple[int, object]]] = []
        #: Layer counters read from the first pass's outputs.
        self.counts: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, log: OpLog, spans) -> None:
        """One pass over the fixed op list, from a cold QMC point cache
        as a fresh process would start with."""
        volume_cache.clear_cache()
        self.passes.append(self._ops(log, spans))
        if len(self.passes) == 1:
            stats = volume_cache.cache_stats()
            lookups = stats["hits"] + stats["misses"]
            self.counts["core.volume.cache_hit_ratio"] = (
                stats["hits"] / lookups if lookups else 0.0
            )
            self.counts["core.volume.cache_points"] = float(stats["points"])

    def _ops(self, log: OpLog, spans) -> List[Tuple[int, object]]:
        raise NotImplementedError

    def check(self, log: OpLog) -> Dict[str, float]:
        """Verify outputs (marking failed ops); return result metrics."""
        raise NotImplementedError

    def _check_repeats(self, log: OpLog, digest) -> None:
        """Later passes must reproduce the first pass output for output."""
        first = [digest(out) if out is not None else None
                 for _, out in self.passes[0]]
        for outputs in self.passes[1:]:
            for (index, out), expected in zip(outputs, first):
                if out is not None and digest(out) != expected:
                    log.mark_failed(index, "output differs from pass 1")


class PlanSweep(Workload):
    """Figure 14 at ``experiments.resiliency`` defaults, one plan request
    (build the placer, place, score) per operation."""

    name = "plan_sweep"
    #: Each request's time is its median over the passes.
    min_passes = 3

    def setup(self) -> None:
        defaults = {
            name: param.default
            for name, param in inspect.signature(resiliency.run).parameters.items()
        }
        self.counts_per_size = tuple(defaults["operator_counts"])
        self.num_inputs = int(defaults["num_inputs"])
        self.capacities = [1.0] * int(defaults["num_nodes"])
        self.repeats = int(defaults["repeats"])
        self.graph_repeats = int(defaults["graph_repeats"])
        self.samples = int(defaults["samples"])
        self.algorithms = tuple(defaults["algorithms"])
        # The workload seed is the sweep's graph seed (the experiment's
        # default is 7, so --seed 7 replays Figure 14 itself).
        self.graph_seed = self.seed

    def _plan_request(self, spans, name, model, run_seed):
        with spans.span("placement.build"):
            placer = common.make_placer(name, model, run_seed=run_seed)
        placement = placer.place(model, self.capacities)
        ratio = float(placement.volume_ratio(samples=self.samples))
        return name, placement, ratio

    def _ops(self, log: OpLog, spans) -> List[Tuple[int, object]]:
        requests = []
        for total_ops in self.counts_per_size:
            for g in range(self.graph_repeats):
                model = common.make_model(
                    self.num_inputs, total_ops // self.num_inputs,
                    seed=self.graph_seed + 7919 * g,
                )
                for name in self.algorithms:
                    base_seed = self.graph_seed + total_ops + 31 * g
                    common.validate_run(
                        model, self.capacities, seed=base_seed, strategy=name
                    )
                    runs = 1 if name == "rod" else self.repeats
                    requests.extend(
                        (name, model, base_seed * 1000 + r) for r in range(runs)
                    )
        # Each pass runs the requests in its own seeded order, so the
        # passes time every request at different moments of the run and
        # the per-request median does not follow one slow stretch of the
        # host.  Outputs stay in sweep order.
        order = np.random.default_rng(
            derive_seed(self.seed, "order", len(self.passes))
        ).permutation(len(requests))
        outputs: List[Tuple[int, object]] = [None] * len(requests)
        for i in order:
            with spans.span("op"):
                index, out = log.run(self._plan_request, spans, *requests[i])
            # Later passes keep only what the repeat check compares, so
            # peak memory does not grow with the number of passes.
            if out is not None and self.passes:
                out = (out[0], None, out[2])
            outputs[i] = (index, out)
        return outputs

    def check(self, log: OpLog) -> Dict[str, float]:
        rod: List[object] = []
        for index, out in self.passes[0]:
            if out is None:
                continue
            name, placement, ratio = out
            report = check_artifact(placement)
            if not report.ok:
                log.mark_failed(index, f"check_artifact: {report.format()}")
            elif not 0.0 < ratio <= 1.0:
                log.mark_failed(index, f"ratio {ratio!r} outside (0, 1]")
            elif name == "rod":
                rod.append((index, placement, ratio))
        self._check_repeats(log, lambda out: (out[0], out[2]))
        # Replay every ROD plan at half its analytic headroom: the check
        # and runtime layers must agree that the point is sustainable.
        replay = self.spec["plan_check"]
        ones = np.ones(self.num_inputs)
        sustainable, p50, p99 = [], [], []
        for index, placement, _ in rod:
            level = sustainable_utilization(placement, ones)
            sustainable.append(level)
            rates = ones * headroom(placement, ones) * replay["headroom_share"]
            result = Simulator(
                placement, step_seconds=replay["step_seconds"]
            ).run(rates=rates, duration=replay["duration"])
            if not result.is_feasible(backlog_tolerance=replay["step_seconds"]):
                log.mark_failed(
                    index, "ROD plan backlogged inside its feasible set"
                )
            p50.append(result.latency.percentile(50) * 1e3)
            p99.append(result.latency.percentile(99) * 1e3)
        return {
            "volume_ratio": float(np.mean([r for _, _, r in rod])),
            "sustainable_scale": float(np.mean(sustainable)),
            "sim_p50_ms": median(p50),
            "sim_p99_ms": median(p99),
        }


class ReplayTraced(Workload):
    """``repro-rod simulate --record --trace-out --slo`` through
    ``repro.cli.main`` in-process, one replay per generated graph.

    The replayed base point's deterministic figures (volume ratio,
    sustainable level, simulated latency) are averaged over a panel of
    ``panel_graphs`` graphs that includes the timed ones: the rest of the
    panel is replayed untraced in the checks, outside the timed region.
    """

    name = "replay_traced"

    def setup(self) -> None:
        spec = self.spec["replay_traced"]
        self.rates = [float(spec["rate"])] * int(spec["inputs"])
        self.inputs: List[Tuple[str, str]] = []
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        for k in range(int(spec["graphs"])):
            self.inputs.append(self._plan_files(k))
        self.slo = os.path.join(os.path.dirname(__file__), spec["slo"])
        self.duration = str(spec["duration"])
        self.untraced_seconds: List[float] = []

    def _plan_files(self, k: int) -> Tuple[str, str]:
        """``repro-rod generate`` then ``place --algorithm rod``."""
        spec = self.spec["replay_traced"]
        graph = os.path.join(self.work_dir, f"graph{k}.json")
        plan = os.path.join(self.work_dir, f"plan{k}.json")
        _cli([
            "generate", "--inputs", str(spec["inputs"]),
            "--ops-per-tree", str(spec["ops_per_tree"]),
            "--seed", str(derive_seed(self.seed, "graph", k)),
            "-o", graph,
        ])
        _cli([
            "place", "--graph", graph, "--nodes", str(spec["nodes"]),
            "--algorithm", "rod", "-o", plan,
        ])
        return graph, plan

    def _replay(self, k: int, tag: str) -> dict:
        graph, plan = self.inputs[k]
        trace = os.path.join(self.work_dir, f"{tag}.jsonl")
        runs = os.path.join(self.work_dir, "runs")
        code, text = _cli([
            "simulate", "--graph", graph, "--plan", plan,
            "--rates", ",".join(f"{r:g}" for r in self.rates),
            "--duration", self.duration,
            "--record", runs, "--run-id", tag,
            "--trace-out", trace, "--slo", self.slo,
        ])
        return {"k": k, "code": code, "stdout": text, "trace": trace,
                "run": os.path.join(runs, tag)}

    def _ops(self, log: OpLog, spans) -> List[Tuple[int, object]]:
        p = len(self.passes)
        outputs = []
        for k in range(len(self.inputs)):
            with spans.span("op"):
                outputs.append(log.run(self._replay, k, f"pass{p}-graph{k}"))
        return outputs

    def check(self, log: OpLog) -> Dict[str, float]:
        counts = dict.fromkeys(
            ("obs.trace.bytes", "obs.trace.events", "simulator.tuples"), 0.0
        )
        results = {}
        for outputs in self.passes:
            for index, out in outputs:
                if out is None:
                    continue
                result = _load_json(os.path.join(out["run"], "result.json"))
                results[index] = result
                if out["code"] != 0:
                    log.mark_failed(index, f"exit code {out['code']}")
                elif "feasible at this rate point: True" not in out["stdout"]:
                    log.mark_failed(index, "replay reported infeasible")
        for index, out in self.passes[0]:
            if out is None or index not in results:
                continue
            result = results[index]
            counts["obs.trace.bytes"] += os.path.getsize(out["trace"])
            events = read_trace(out["trace"])
            counts["obs.trace.events"] += len(events)
            counts["simulator.tuples"] += result["tuples_in"] + result["tuples_out"]
            problem = _trace_problem(events, result)
            del events
            if problem:
                log.mark_failed(index, problem)
        for outputs in self.passes:
            for index, out in outputs:
                if out is not None:
                    os.remove(out["trace"])
        first = {out["k"]: results[i] for i, out in self.passes[0] if i in results}
        for outputs in self.passes[1:]:
            for index, out in outputs:
                if index in results and results[index] != first.get(out["k"]):
                    log.mark_failed(index, "result.json differs from pass 1")
        self.counts.update(counts)
        return self._panel(log, first)

    def _panel(self, log: OpLog, cli_results: Dict[int, dict]) -> Dict[str, float]:
        """Replay the base point untraced on every panel graph; on the
        timed graphs it must reproduce the traced CLI result exactly."""
        spec = self.spec["replay_traced"]
        ratios, sustainable, p50, p99 = [], [], [], []
        first_ops = {out["k"]: i for i, out in self.passes[0] if out is not None}
        for k in range(int(spec["panel_graphs"])):
            graph, plan = self.inputs[k] if k < len(self.inputs) else self._plan_files(k)
            placement = _placement(graph, plan)
            simulator = Simulator(placement, step_seconds=0.1)
            start = time.perf_counter()
            result = simulator.run(rates=self.rates, duration=float(self.duration))
            if k < len(self.inputs):
                self.untraced_seconds.append(time.perf_counter() - start)
                traced = cli_results.get(k)
                if traced is not None and (
                    _latency_summary(result.latency) != traced["latency"]
                    or list(map(float, result.node_busy)) != traced["node_busy"]
                ):
                    log.mark_failed(
                        first_ops[k], "untraced replay differs from the traced one"
                    )
            ratios.append(placement.volume_ratio())
            sustainable.append(sustainable_utilization(placement, self.rates))
            p50.append(result.latency.percentile(50) * 1e3)
            p99.append(result.latency.percentile(99) * 1e3)
        return {
            "volume_ratio": float(np.mean(ratios)),
            "sustainable_scale": float(np.mean(sustainable)),
            "sim_p50_ms": float(np.mean(p50)),
            "sim_p99_ms": float(np.mean(p99)),
        }

    def overhead_x(self, traced_seconds: Sequence[float]) -> float:
        """Traced over untraced ``Simulator.run`` on the timed graphs (the
        untraced runs are the panel replays made in :meth:`check`)."""
        return float(np.mean(traced_seconds)) / float(np.mean(self.untraced_seconds))


class ReplayChaos(Workload):
    """Bursty per-input traces, seeded chaos faults and volume-policy
    failover through ``Deployment.simulate``, untraced.

    Every configuration (graph, trace, fault schedule) is replayed at the
    reference level; the first ``ladder_configurations`` also climb down
    the utilisation ladder from its top rung until one passes the
    ``simulate --check`` predicate, which is then their highest passing
    level.  One operation is one replay at one level.
    """

    name = "replay_chaos"

    def setup(self) -> None:
        spec = self.spec["replay_chaos"]
        self.levels = sorted((float(u) for u in spec["levels"]), reverse=True)
        self.reference = float(spec["reference_level"])
        self.ladder_configs = int(spec["ladder_configurations"])
        self.step = float(spec["step_seconds"])
        self.policy = spec["failover_policy"]
        self.nodes = int(spec["nodes"])
        capacities = [1.0] * self.nodes
        horizon = float(spec["horizon"])
        steps = int(round(horizon / self.step))
        config = generator.RandomGraphConfig(
            num_inputs=int(spec["inputs"]),
            operators_per_tree=int(spec["ops_per_tree"]),
        )
        self.configs = []
        for k in range(int(spec["reference_configurations"])):
            graph = generator.random_tree_graph(
                config, seed=derive_seed(self.seed, "graph", k)
            )
            deployment = Deployment.plan(graph, capacities, strategy="rod")
            faults = chaos_schedule(
                self.nodes, horizon=horizon,
                seed=derive_seed(self.seed, "chaos", k),
                operator_names=graph.operator_names,
                intensity=float(spec["chaos_intensity"]),
            )
            levels = self.levels if k < self.ladder_configs else [self.reference]
            series = {
                level: steady_trace_series(
                    deployment.model, capacities, steps, level,
                    seed=derive_seed(self.seed, "trace", k),
                )
                for level in levels
            }
            self.configs.append((deployment, faults, series))

    def _replay(self, k: int, level: float):
        deployment, faults, series = self.configs[k]
        return deployment.simulate(
            rate_series=series[level], faults=faults,
            controller=FailoverController(policy=self.policy),
            step_seconds=self.step,
        )

    def _op(self, log: OpLog, spans, k: int, level: float, outputs) -> Optional[dict]:
        with spans.span("op"):
            index, result = log.run(self._replay, k, level)
        record = None if result is None else _chaos_record(
            result, k, level, self.step
        )
        outputs.append((index, record))
        return record

    def _ops(self, log: OpLog, spans) -> List[Tuple[int, object]]:
        outputs: List[Tuple[int, object]] = []
        for k in range(len(self.configs)):
            ref = self._op(log, spans, k, self.reference, outputs)
            if k >= self.ladder_configs:
                continue
            for level in self.levels:
                record = ref if level == self.reference else self._op(
                    log, spans, k, level, outputs
                )
                if record is None or record["feasible"]:
                    break
        return outputs

    def check(self, log: OpLog) -> Dict[str, float]:
        for outputs in self.passes:
            for index, record in outputs:
                if record is None:
                    continue
                if self.nodes > 1 and record["stranded"]:
                    log.mark_failed(
                        index,
                        f"{record['stranded']} tuples stranded with a "
                        "survivor up",
                    )
                elif record["empty"]:
                    log.mark_failed(index, "no tuple reached a sink")
        self._check_repeats(log, lambda record: record["summary"])
        records = [record for _, record in self.passes[0] if record is not None]
        ladders: Dict[int, List[Tuple[float, bool]]] = {}
        p50, p99 = [], []
        for record in records:
            if record["k"] < self.ladder_configs:
                ladders.setdefault(record["k"], []).append(
                    (record["level"], record["feasible"])
                )
            if record["level"] == self.reference:
                p50.append(record["p50_ms"])
                p99.append(record["p99_ms"])
        self.counts.update({
            key: float(sum(record[field] for record in records))
            for key, field in (
                ("simulator.tuples", "tuples"),
                ("simulator.max_backlog_s", "backlog_s"),
                ("dynamics.migrations", "migrations"),
                ("dynamics.pause_s", "pause_s"),
                ("faults.applied", "faults"),
            )
        })
        ratios = [d.volume_ratio() for d, _, _ in self.configs]
        return {
            "volume_ratio": float(np.mean(ratios)),
            "sustainable_scale": float(np.mean(
                [sustainable_level(ladder) for ladder in ladders.values()]
            )),
            "sim_p50_ms": median(p50),
            "sim_p99_ms": median(p99),
        }


def _chaos_record(result, k: int, level: float, step: float) -> dict:
    """What the checks and metrics need from one chaos replay."""
    return {
        "k": k,
        "level": level,
        "feasible": result.is_feasible(backlog_tolerance=step),
        "p50_ms": result.latency.percentile(50) * 1e3,
        "p99_ms": result.latency.percentile(99) * 1e3,
        "stranded": result.stranded_tuples,
        "empty": result.latency.is_empty,
        "tuples": result.tuples_in + result.tuples_out,
        "backlog_s": float(result.backlog_seconds.max()),
        "migrations": result.migration_count,
        "pause_s": result.total_migration_pause,
        "faults": result.fault_count,
        "summary": result.summary(),
    }


WORKLOADS = {w.name: w for w in (PlanSweep, ReplayTraced, ReplayChaos)}


def _cli(argv: List[str]) -> Tuple[int, str]:
    """Run one ``repro-rod`` command in-process, capturing its stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            raise RuntimeError(f"repro-rod {argv[0]} exited: {exc}") from None
    if code not in (0, 1):
        raise RuntimeError(f"repro-rod {argv[0]} returned {code}")
    return code, buffer.getvalue()


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _placement(graph: str, plan: str):
    """The plan document ``repro-rod place`` wrote, as a Placement."""
    doc = _load_json(plan)
    model = build_load_model(load_graph(graph))
    return placement_from_mapping(model, doc["capacities"], doc["assignment"])


def _latency_summary(latency) -> dict:
    """A LatencyStats as ``result.json`` records it."""
    return {
        "mean": latency.mean(),
        "max": latency.maximum(),
        "tuples": latency.total_tuples,
        **latency.percentiles(),
    }


def _trace_problem(events, result: dict) -> Optional[str]:
    """Cross-layer equalities between the event trace and ``result.json``."""
    rebuilt = _latency_summary(analyze_critical_path(events).latency)
    if rebuilt != result["latency"]:
        return f"critical path rebuilt latency {rebuilt} != {result['latency']}"
    totals = busy_totals(events, num_nodes=len(result["node_busy"]))
    if not np.allclose(totals, result["node_busy"], rtol=1e-9, atol=0.0):
        return "trace busy totals differ from node_busy"
    return None
