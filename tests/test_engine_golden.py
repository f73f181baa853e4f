"""Golden pin of the simulator engine's observable behaviour.

A fixed corpus of runs, chosen so that together they drive every event
handler of :class:`repro.simulator.engine.Simulator`, is hashed two ways:
the trace digest (every emitted event, wall clock masked) and a digest
of the :class:`~repro.simulator.metrics.SimulationResult` fields the
experiments read.  The constants were recorded from the engine before
its event loop was split into per-event handlers; any refactor of the
engine must reproduce them bit for bit.

Corpus:

* ``balance`` — :class:`LoadBalancingController` on a rate-spiked
  series over a lopsided placement, traced: periodic decisions,
  migrations, drift detections.
* ``failover`` — a seeded chaos schedule under
  ``FailoverController(failback=True)``, traced: crash/recover hooks,
  degrade/slowdown reverts, rate spikes.
* ``stranded`` — the same chaos schedule plus a final unrecovered
  crash and no controller, traced: a failed node going quiet with work
  queued, which strands at the end of the run.
* ``elastic`` — the hot partitioned pipeline under
  :class:`ElasticityController`, traced: a repartition.
* ``joins`` — a window-join graph split across nodes with per-stream
  transfer costs and seeded Poisson arrivals, untraced.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.load_model import build_load_model, partition_load_model
from repro.core.plans import placement_from_mapping
from repro.dynamics import (
    ElasticityController,
    FailoverController,
    LoadBalancingController,
)
from repro.faults import FaultEvent, FaultSchedule, chaos_schedule
from repro.graphs.generator import (
    RandomGraphConfig,
    join_graph,
    monitoring_graph,
    random_tree_graph,
)
from repro.graphs.operators import Delay
from repro.graphs.query_graph import QueryGraph
from repro.obs import MemorySink, Tracer
from repro.obs.trace import trace_digest
from repro.simulator.engine import Simulator


def result_digest(result):
    """SHA-256 over the result fields the experiments consume."""
    doc = {
        "node_busy": [float(value) for value in result.node_busy],
        "percentiles": result.latency.percentiles(),
        "tuples_in": result.tuples_in,
        "tuples_out": result.tuples_out,
        "migrations": [repr(move) for move in result.migrations],
        "stranded_tuples": result.stranded_tuples,
    }
    hasher = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    timeline = np.ascontiguousarray(result.work_timeline, dtype=float)
    hasher.update(repr(timeline.shape).encode())
    hasher.update(timeline.tobytes())
    return hasher.hexdigest()


def _run(placement, run_kwargs, traced=True, **simulator_kwargs):
    sink = MemorySink() if traced else None
    simulator = Simulator(
        placement,
        tracer=Tracer(sink, validate=True) if traced else None,
        **simulator_kwargs,
    )
    result = simulator.run(**run_kwargs)
    return result, (sink.events if traced else [])


def _balance():
    graph = monitoring_graph(2, seed=7)
    mapping = {
        name: 0 if name.endswith("0") else 1
        for name in graph.operator_names
    }
    placement = placement_from_mapping(
        build_load_model(graph), [1.0, 1.0], mapping
    )
    series = np.full((200, 2), 200.0)
    series[60:160, 0] *= 6.0
    return _run(
        placement, {"rate_series": series}, step_seconds=0.1,
        controller=LoadBalancingController(period=1.0),
    )


def _chaos_placement():
    graph = random_tree_graph(
        RandomGraphConfig(num_inputs=2, operators_per_tree=8), seed=11
    )
    mapping = {
        name: index % 3
        for index, name in enumerate(sorted(graph.operator_names))
    }
    placement = placement_from_mapping(
        build_load_model(graph), [1.0] * 3, mapping
    )
    chaos = chaos_schedule(
        3, horizon=12.0, seed=7, operator_names=graph.operator_names,
        intensity=2.0,
    )
    return placement, list(chaos)


def _failover():
    placement, events = _chaos_placement()
    return _run(
        placement, {"rates": [40.0, 40.0], "duration": 12.0},
        step_seconds=0.1, faults=FaultSchedule(events),
        controller=FailoverController(samples=64, failback=True),
    )


def _stranded():
    placement, events = _chaos_placement()
    events.append(FaultEvent(time=11.5, kind="node.crash", node=2))
    return _run(
        placement, {"rates": [40.0, 40.0], "duration": 12.0},
        step_seconds=0.1, faults=FaultSchedule(events),
    )


def _elastic():
    graph = QueryGraph()
    source = graph.add_input("I")
    graph.add_operator(Delay("hot", cost=3e-3, selectivity=0.8), [source])
    graph.add_operator(Delay("mid", cost=4e-4, selectivity=0.5),
                       ["hot.out"])
    model = partition_load_model(
        build_load_model(graph), "hot", 2, fractions=(0.8, 0.2)
    )
    mapping = {
        "hot.route0": 2, "hot.part0": 0,
        "hot.route1": 2, "hot.part1": 1,
        "hot.merge": 2, "mid": 2,
    }
    placement = placement_from_mapping(model, [1.0] * 3, mapping)
    return _run(
        placement, {"rates": [400.0], "duration": 6.0}, step_seconds=0.1,
        controller=ElasticityController(period=1.0),
    )


def _joins():
    graph = join_graph(
        num_join_pairs=1, downstream_per_join=2, window=0.1, seed=5
    )
    names = sorted(graph.operator_names)
    placement = placement_from_mapping(
        build_load_model(graph), [1.0, 1.0],
        {name: index % 2 for index, name in enumerate(names)},
    )
    costs = {
        stream.name: 1e-4 * (index + 1)
        for index, stream in enumerate(graph.streams())
    }
    return _run(
        placement, {"rates": [60.0, 60.0], "duration": 5.0}, traced=False,
        step_seconds=0.01, transfer_costs=costs, arrival_kind="poisson",
        seed=3,
    )


CORPUS = {
    "balance": _balance,
    "failover": _failover,
    "stranded": _stranded,
    "elastic": _elastic,
    "joins": _joins,
}

#: ``(trace digest, result digest)`` per corpus entry.
GOLDEN = {
    "balance": (
        "e1006e42f9f8fef787d8413820ef28405fdd71eb877e267f02bfb5e66f3eb5b6",
        "6638f0904bdeb29c95591063dcf33b796701196db86d3502c55e14c023d27bb4",
    ),
    "failover": (
        "dc77a943f88a43375ac1610dcac3390f6e23d72c5c7083c83c97a14550c94c4b",
        "43b8108fae63299a0025da916a70c2bec3ff74bfc4e84f0e935ea4624751114e",
    ),
    "stranded": (
        "19dc3d88ab856ddf4134da0d484118b0664713fa01781b11e9a7136fdaa9b94c",
        "33bb034f3ec8627f43caaefe91096a51d2be47ae42715d42d285e2da491000ae",
    ),
    "elastic": (
        "8b8d6c1e521a6466dd0ec239f9c3775ce6e8d2f8b394883fa23318ef00143444",
        "1dc2ab0678ef8a6abf1b41a8777bf7e5e09c68013cd54e89f3371c4b0f51598f",
    ),
    "joins": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "364c045db80cc42113c60494285633946f887293ea7d38555ecb632b9638baac",
    ),
}


@pytest.fixture(scope="module", params=sorted(CORPUS))
def corpus_run(request):
    result, events = CORPUS[request.param]()
    return request.param, result, events


class TestGoldenPin:
    def test_digests_match_recorded_engine(self, corpus_run):
        name, result, events = corpus_run
        assert (trace_digest(events), result_digest(result)) == GOLDEN[name]

    def test_corpus_reaches_its_handlers(self, corpus_run):
        """Each entry still drives the engine path it is there for, so
        a digest match is not vacuous."""
        name, result, events = corpus_run
        types = {event.type for event in events}
        triggers = {
            event.fields["trigger"] for event in events
            if event.type == "decision.evaluated"
        }
        if name == "balance":
            assert result.migration_count > 0
            assert {"drift.detected", "migration.decided"} <= types
            assert "periodic" in triggers
        elif name == "failover":
            assert {"fault", "recover"} <= triggers
            assert "fault.reverted" in types
            assert result.migration_count > 0
        elif name == "stranded":
            assert result.stranded_tuples > 0
            assert "fault.reverted" in types
        elif name == "elastic":
            assert "elastic.repartition" in types
            assert result.migration_count == 0
        else:
            assert events == []
            assert result.tuples_out > 0
