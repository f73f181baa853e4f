"""Tests for the double-run determinism harness and its guarantees.

Three layers: :func:`repro.check.determinism.compare_runs` unit tests on
synthetic run directories, an actual two-subprocess PYTHONHASHSEED
stability check on the simulator (chaos faults alone, under failover,
and an elastic repartitioning run), and the jobs-invariance guarantee
of the fault-tolerance experiment.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.check.determinism import (
    DEFAULT_HASH_SEEDS,
    compare_runs,
    run_digest,
)
from repro.experiments import fault_tolerance
from repro.obs import JsonlSink, Tracer

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _write_run(root, name, events, result):
    run_dir = root / name
    run_dir.mkdir(parents=True)
    sink = JsonlSink(str(run_dir / "trace.jsonl"))
    tracer = Tracer(sink)
    for type_, t, fields in events:
        tracer.emit(type_, t=t, **fields)
    sink.close()
    (run_dir / "result.json").write_text(json.dumps(result))
    return str(run_dir)


EVENTS = [
    ("sim.start", 0.0, {"duration": 2.0, "num_nodes": 1}),
    ("node.busy", 1.0, {"node": 0}),
    ("sim.end", 2.0, {"tuples_out": 7}),
]
RESULT = {"tuples_out": 7, "duration": 2.0}


class TestCompareRuns:
    def test_identical_runs_have_no_mismatches(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        b = _write_run(tmp_path, "b", EVENTS, RESULT)
        assert compare_runs(a, b) == []

    def test_result_value_difference_is_reported_by_key(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        b = _write_run(tmp_path, "b", EVENTS, {**RESULT, "tuples_out": 8})
        mismatches = compare_runs(a, b)
        assert len(mismatches) == 1
        assert "tuples_out" in mismatches[0]

    def test_missing_result_key_is_reported(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        short = {k: v for k, v in RESULT.items() if k != "duration"}
        b = _write_run(tmp_path, "b", EVENTS, short)
        assert any("duration" in m for m in compare_runs(a, b))

    def test_trace_difference_changes_the_digest(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        tampered = EVENTS[:-1] + [("sim.end", 2.0, {"tuples_out": 8})]
        b = _write_run(tmp_path, "b", tampered, RESULT)
        mismatches = compare_runs(a, b)
        assert any("trace_digest" in m for m in mismatches)

    def test_run_digest_is_stable_for_one_directory(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        assert run_digest(a) == run_digest(a)


_PROBE = """
import sys
from repro.core.load_model import build_load_model, partition_load_model
from repro.core.plans import placement_from_mapping
from repro.core.rod import rod_place
from repro.dynamics import ElasticityController, FailoverController
from repro.experiments.common import make_model
from repro.faults import chaos_schedule
from repro.graphs.operators import Delay
from repro.graphs.query_graph import QueryGraph
from repro.obs import MemorySink, Tracer
from repro.obs.trace import trace_digest
from repro.simulator.engine import Simulator


def probe(placement, rates, duration, **kwargs):
    sink = MemorySink()
    result = Simulator(
        placement, step_seconds=0.1, tracer=Tracer(sink), **kwargs
    ).run(rates=rates, duration=duration)
    sys.stdout.write("%s|%d;" % (trace_digest(sink.events), result.tuples_out))


model = make_model(2, 6, seed=5)
plan = rod_place(model, [1.0, 1.0, 1.0])
chaos = chaos_schedule(num_nodes=3, horizon=4.0, seed=9)
probe(plan, [30.0, 30.0], 4.0, faults=chaos)
probe(
    plan, [30.0, 30.0], 4.0, faults=chaos,
    controller=FailoverController(samples=64, failback=True),
)
graph = QueryGraph()
source = graph.add_input("I")
graph.add_operator(Delay("hot", cost=3e-3, selectivity=0.8), [source])
hot = partition_load_model(
    build_load_model(graph), "hot", 2, fractions=(0.8, 0.2)
)
hosts = {"hot.route0": 2, "hot.part0": 0, "hot.route1": 2, "hot.part1": 1,
         "hot.merge": 2}
probe(
    placement_from_mapping(hot, [1.0] * 3, hosts), [400.0], 4.0,
    controller=ElasticityController(period=1.0),
)
"""


def _probe_digest(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHashSeedStability:
    def test_trace_digest_is_hash_seed_invariant(self):
        first, second = (
            _probe_digest(seed) for seed in DEFAULT_HASH_SEEDS
        )
        assert first == second
        # Chaos without a controller, chaos under failover, elastic.
        runs = first.rstrip(";").split(";")
        assert len(runs) == 3
        for run in runs:
            digest, tuples_out = run.split("|")
            assert len(digest) == 64
            assert int(tuples_out) > 0


class TestJobsInvariance:
    def test_fault_tolerance_rows_identical_across_jobs(self):
        kwargs = dict(
            duration=4.0, samples=64, operators_per_tree=6, seed=11,
        )
        serial = fault_tolerance.run(jobs=1, **kwargs)
        fanned = fault_tolerance.run(jobs=4, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            fanned, sort_keys=True
        )
        assert len(serial) == 12
