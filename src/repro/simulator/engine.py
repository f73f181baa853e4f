"""Discrete-event simulator for distributed stream processing.

The Borealis stand-in: a cluster of single-CPU nodes, each running the
operators a :class:`~repro.core.plans.Placement` assigned to it.  Tuples
arrive in per-step batches from the input streams, flow through operator
runtimes (costs, selectivities, join windows), and cross the network —
charging CPU on both endpoints — whenever an arc spans two nodes.

Each node serves one batch at a time at its capacity (CPU-seconds of
operator work per wall-clock second); pending batches wait in a
per-node queue whose service order is set by a scheduling policy
(:mod:`repro.simulator.scheduling`).  The engine records per-node
utilization and backlog plus end-to-end tuple latency at every sink,
which is everything Section 7's prototype experiments measure.

An optional controller (a ``period`` and a ``decide`` method, see
:class:`~repro.dynamics.controller.MigrationController`) turns the
static deployment into a reactive one: the engine polls it on a fixed
period with each node's recent utilization, and applies the migrations
it returns — stalling both endpoint nodes for the state-dependent pause
(as the paper's prototype measurements describe, Section 1) and moving
the operator's queued batches to the destination — or repartitions.
Its optional ``telemetry``, ``slo_watcher`` and failover hooks are
looked up once per run.

An optional :class:`~repro.faults.FaultSchedule` injects timed system
faults — node crashes/recoveries, capacity brownouts, per-operator
slowdowns, input-rate spikes — at event-queue priority ahead of control
polls at the same timestamp.  A crashed node finishes its in-flight
batch (fail-stop at batch granularity) and then serves nothing until it
recovers; its queued work strands unless the controller implements
the failover hooks (``on_node_failed`` / ``on_node_recovered``, see
:class:`repro.dynamics.FailoverController`), in which case displaced
operators and their queued batches move to surviving nodes immediately.
Fault application is deterministic: the same schedule and seed always
produce bit-identical traces and results.

The engine is instrumented for :mod:`repro.obs`: pass a ``tracer`` to
stream typed events (``sim.start``/``sim.end``, batch enqueue/service,
node busy/idle transitions, migration decisions, causal span lineage
``span.open``/``span.close`` linking every batch to the source
injection it descends from — see :mod:`repro.obs.spans`) and a
``metrics`` registry to collect run counters and latency quantiles.
Both default to disabled, and every hot-path emit is guarded on
``tracer.enabled``, so an uninstrumented run allocates no event
objects at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.plans import Placement
from ..dynamics.elasticity import Repartition
from ..dynamics.failover import residual_volume_ratio
from ..faults.schedule import FaultEvent, FaultSchedule
from ..graphs.operators import Filter
from ..obs.decisions import DecisionRecord, DecisionTelemetry
from ..obs.drift import DriftDetection, DriftMonitor, record_drift_metrics
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanEmitter
from ..obs.trace import NULL_TRACER, Tracer
from ..workload.arrivals import ArrivalProcess
from .metrics import LatencyStats, OperatorStats, SimulationResult
from .runtime import OperatorRuntime, make_runtime
from .scheduling import SchedulerQueue, Stall

__all__ = ["Simulator"]

TransferCosts = Union[float, Mapping[str, float]]

# Event priorities at equal timestamps: faults first (the system changes
# before anything reacts to it), then controls (migrations take effect
# before new work lands), then completions, then arrivals.
# Drift detections share the fault priority so a ``drift.detected``
# event always lands before any same-instant control reaction.
_FAULT, _CONTROL, _COMPLETION, _ARRIVAL = 0, 1, 2, 3

#: QMC sample count for the per-poll feasible-volume drift signal —
#: small on purpose: it runs once per control period, not per batch.
_DRIFT_VOLUME_SAMPLES = 128


def _checked_transfer_cost(cost: object, stream: str) -> float:
    value = float(cost)
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"transfer cost for {stream!r} must be finite >= 0")
    return value


def _present(**fields: object) -> Dict[str, object]:
    """The given optional trace fields whose value is not ``None``."""
    return {key: value for key, value in fields.items() if value is not None}


def _check_rates(rates: np.ndarray, name: str) -> None:
    """Reject negative or non-finite rates, naming the first bad one."""
    bad = ~np.isfinite(rates) | (rates < 0)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        where = ", ".join(map(str, index))
        raise ValueError(
            f"{name}[{where}] = {float(rates[index])} is not a finite "
            "rate >= 0"
        )


@dataclass(frozen=True)
class _Batch:
    """A batch of identical-age tuples bound for one operator port."""

    birth: float        # when the originating source tuples entered
    arrival: float      # when this batch reached its current operator
    operator: str
    port: int
    count: int
    extra_work: float = 0.0  # receive-side network CPU, unit capacity
    span: int = -1      # causal span id; -1 when tracing is disabled


@dataclass(frozen=True)
class _Completion:
    """A node finishing its current queue entry."""

    node: int
    batch: Optional[_Batch]          # None for stalls
    out_count: int = 0
    deliveries: Tuple[Tuple[str, int, float], ...] = ()
    work: float = 0.0
    start: float = 0.0               # when the node began serving it
    decision: int = -1               # stall-causing decision id (stalls)


@dataclass(frozen=True)
class _FaultRevert:
    """A windowed fault (degrade/slowdown) expiring."""

    event: FaultEvent


class Simulator:
    """Simulate a placed query graph under a rate workload."""

    def __init__(
        self,
        placement: Placement,
        step_seconds: float = 0.1,
        transfer_costs: TransferCosts = 0.0,
        arrival_kind: str = "deterministic",
        seed: Optional[int] = None,
        controller: Optional[object] = None,
        scheduling: str = "fifo",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        """``controller``, if given, is a ``MigrationController`` polled
        every ``controller.period`` seconds to move operators at run
        time; ``scheduling`` picks the per-node service discipline.
        ``tracer`` streams structured run events (disabled by default);
        ``metrics`` collects run counters/gauges after the event loop.
        ``faults`` is a :class:`~repro.faults.FaultSchedule` of timed
        system faults to inject (validated eagerly against the cluster
        and graph shape)."""
        if step_seconds <= 0:
            raise ValueError("step_seconds must be > 0")
        self.placement = placement
        self.graph = placement.model.graph
        for op in self.graph.operators():
            window = getattr(op, "window", None)
            if window is not None and step_seconds > window / 2.0:
                raise ValueError(
                    f"{op.name}: simulation step {step_seconds:g}s exceeds "
                    f"the join half-window {window / 2.0:g}s; batch "
                    "arrivals would misstate the pairing load — use "
                    "step_seconds well below window/2 (window/4 or finer "
                    "recommended)"
                )
        self.step_seconds = float(step_seconds)
        self.transfer_costs = transfer_costs
        # The per-stream Mapping, or None when one cost fits every
        # stream: resolved here, not on every transfer.
        self._stream_costs: Optional[Mapping[str, float]] = (
            transfer_costs if isinstance(transfer_costs, Mapping) else None
        )
        self.arrival_kind = arrival_kind
        self.seed = seed
        self.controller = controller
        self.scheduling = scheduling
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.faults = faults
        if faults is not None:
            faults.validate(
                placement.num_nodes, self.graph.operator_names
            )
        SchedulerQueue(scheduling)  # validate the policy eagerly
        # Output stream per operator, and (consumer operator, port)
        # pairs per stream, precomputed.
        self._outputs: Dict[str, str] = {
            op.name: self.graph.output_of(op.name).name
            for op in self.graph.operators()
        }
        self._routes: Dict[str, List[Tuple[str, int]]] = {}
        for stream in self.graph.streams():
            routes = []
            for consumer in self.graph.consumers_of(stream.name):
                for port, s in enumerate(self.graph.inputs_of(consumer)):
                    if s == stream.name:
                        routes.append((consumer, port))
            self._routes[stream.name] = routes

    # ------------------------------------------------------------------ run

    def run(
        self,
        rate_series: Optional[np.ndarray] = None,
        rates: Optional[Sequence[float]] = None,
        duration: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate either a rate time series or a constant rate point.

        ``rate_series`` has shape ``(steps, num_inputs)``, one row per
        ``step_seconds``.  Alternatively pass constant ``rates`` plus a
        ``duration`` in seconds.  Arrivals stop at the horizon; processing
        continues until every queued tuple drains, so latency of
        backlogged tuples is fully observed.
        """
        series = self._resolve_series(rate_series, rates, duration)
        if self.faults is not None:
            series = self.faults.apply_rate_events(
                series, self.step_seconds
            )
        state = _Run(self, steps=series.shape[0])
        try:
            state.schedule(series)
            state.loop()
        finally:
            # Detach even when the run raises, so a later untraced run
            # of the same controller goes back to allocating nothing.
            state.detach()
        return state.finish()

    # -------------------------------------------------------------- helpers

    def _resolve_series(
        self,
        rate_series: Optional[np.ndarray],
        rates: Optional[Sequence[float]],
        duration: Optional[float],
    ) -> np.ndarray:
        d = self.graph.num_inputs
        if rate_series is not None:
            if rates is not None or duration is not None:
                raise ValueError(
                    "pass either rate_series or (rates, duration), not both"
                )
            series = np.asarray(rate_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != d:
                raise ValueError(
                    f"rate series must have shape (steps, {d}), "
                    f"got {series.shape}"
                )
            _check_rates(series, "rate_series")
            return series
        if rates is None or duration is None:
            raise ValueError("pass rate_series, or both rates and duration")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        r = np.asarray(rates, dtype=float)
        if r.shape != (d,):
            raise ValueError(f"expected {d} rates, got shape {r.shape}")
        _check_rates(r, "rates")
        steps = max(1, int(round(duration / self.step_seconds)))
        return np.tile(r, (steps, 1))


class _Run:
    """The state of one :meth:`Simulator.run` call and its event handlers.

    Holds what every handler shares — queues, busy/failed flags, the
    live assignment and capacities, statistics, spans, telemetry and
    the drift monitor — and has one handler per event kind, chosen by
    the payload's type (see :meth:`loop`).
    """

    # Slots keep attribute access on the hot path as cheap as a local.
    __slots__ = (
        "sim", "graph", "model", "step_seconds", "steps", "horizon",
        "nominal", "capacities", "stream_costs", "uniform_cost", "outputs",
        "routes", "tracer", "tracing", "spans", "drift_monitor",
        "decision_seq", "decision_counts", "runtimes", "queues", "busy",
        "last_free", "node_work", "timeline", "latency", "sink_latency",
        "operator_stats", "tuples_in", "tuples_out", "migrations",
        "repartitions", "failed", "slow", "applied_faults", "assignment",
        "last_work", "last_op_work", "sequence", "events", "controller",
        "period", "telemetry", "slo_watcher", "fault_hooks",
    )

    def __init__(self, sim: Simulator, steps: int) -> None:
        self.sim = sim
        self.graph = sim.graph
        self.model = sim.placement.model
        self.step_seconds = sim.step_seconds
        self.steps = steps
        self.horizon = steps * sim.step_seconds
        n = sim.placement.num_nodes
        # ``capacities`` is the live vector (brownout faults rewrite it
        # mid-run); ``nominal`` reports end-of-run utilization.
        self.nominal = sim.placement.capacities
        self.capacities = self.nominal.copy()
        self.stream_costs = sim._stream_costs
        self.uniform_cost = sim.transfer_costs
        self.outputs = sim._outputs
        self.routes = sim._routes

        # Hoisted observability state: `tracing` is the single hot-path
        # guard — when False, no trace call runs and no event object is
        # ever allocated.
        self.tracer = sim.tracer
        self.tracing = self.tracer.enabled
        # Span ids link every batch to its causal parent; allocation and
        # emission happen only under the `tracing` guard, so a disabled
        # run leaves every batch at span=-1 and never calls the emitter.
        self.spans = SpanEmitter(self.tracer)
        # Decision audit + drift detection exist only while tracing.
        self.drift_monitor = DriftMonitor() if self.tracing else None
        self.decision_seq = itertools.count(1)
        self.decision_counts: Dict[str, int] = {}

        self.runtimes: Dict[str, OperatorRuntime] = {
            op.name: make_runtime(op) for op in self.graph.operators()
        }
        self.queues = [SchedulerQueue(sim.scheduling) for _ in range(n)]
        self.busy = [False] * n
        self.last_free = np.zeros(n)
        self.node_work = np.zeros(n)
        self.timeline = np.zeros((self.steps, n))

        self.latency = LatencyStats()
        self.sink_latency: Dict[str, LatencyStats] = {}
        self.operator_stats: Dict[str, OperatorStats] = {
            name: OperatorStats() for name in self.graph.operator_names
        }
        self.tuples_in = 0
        self.tuples_out = 0
        self.migrations: List[object] = []
        # Repartitions are kept apart from migrations: they stall nodes
        # like a migration but never change the assignment, and the
        # migration-derived metrics (count, total pause) must not see
        # them.
        self.repartitions: List[Repartition] = []

        # Fault state: crashed nodes serve nothing; ``slow`` multiplies
        # per-batch operator cost during slowdown windows.
        self.failed = [False] * n
        self.slow: Dict[str, float] = {}
        self.applied_faults: List[FaultEvent] = []

        # Mutable routing table: starts at the static placement; a
        # controller may rewrite it mid-run.
        self.assignment: Dict[str, int] = {
            name: sim.placement.node_of(name)
            for name in self.graph.operator_names
        }

        # Control-poll baselines: work done up to the previous poll.
        self.last_work = np.zeros(n)
        self.last_op_work: Dict[str, float] = {
            name: 0.0 for name in self.graph.operator_names
        }
        self.sequence = itertools.count()
        self.events: List[Tuple[float, int, int, object]] = []
        self._resolve_controller(sim.controller)

    def _resolve_controller(self, controller: Optional[object]) -> None:
        """Look up the controller's optional capabilities, once per run.

        A ``telemetry`` attribute gets a decision-audit collector only
        while tracing (detached by :meth:`detach`), so the untraced path
        never allocates a decision record.  An ``slo_watcher`` is fed
        every sink latency sample regardless of tracing (labelling
        decisions as SLO-triggered must not change what the controller
        does).
        """
        self.controller = controller
        self.period = (
            None if controller is None else float(controller.period)
        )
        self.telemetry: Optional[DecisionTelemetry] = None
        if self.tracing and hasattr(controller, "telemetry"):
            self.telemetry = DecisionTelemetry()
            controller.telemetry = self.telemetry
        self.slo_watcher = getattr(controller, "slo_watcher", None)
        self.fault_hooks = {
            "node.crash": getattr(controller, "on_node_failed", None),
            "node.recover": getattr(controller, "on_node_recovered", None),
        }

    def detach(self) -> None:
        if self.telemetry is not None:
            self.controller.telemetry = None

    # ----------------------------------------------------------- schedule

    def push(self, time: float, priority: int, payload: object) -> None:
        heapq.heappush(
            self.events, (time, priority, next(self.sequence), payload)
        )

    def schedule(self, series: np.ndarray) -> None:
        """Emit ``sim.start`` and seed the event queue: control polls,
        faults with their revert markers, rate-drift detections, and
        every source arrival."""
        sim = self.sim
        if self.tracing:
            self.tracer.emit(
                "sim.start",
                t=0.0,
                nodes=sim.placement.num_nodes,
                operators=len(self.graph.operator_names),
                step_seconds=self.step_seconds,
                horizon=self.horizon,
                capacities=[float(c) for c in self.capacities],
                scheduling=sim.scheduling,
                arrival_kind=sim.arrival_kind,
            )
        if self.period is not None:
            t = self.period
            while t < self.horizon + self.period:
                self.push(t, _CONTROL, None)
                t += self.period
        if sim.faults is not None:
            for fault in sim.faults:
                self.push(fault.time, _FAULT, fault)
                if fault.duration is not None and fault.kind in (
                    "node.degrade", "operator.slowdown"
                ):
                    self.push(
                        fault.time + fault.duration,
                        _FAULT,
                        _FaultRevert(fault),
                    )
        # Arrival-rate drift: stream the resolved series (rate.spike
        # faults already folded in) through per-input Page–Hinkley
        # detectors.  The detectors are causal — each verdict sees only
        # rows up to its step — so only the trigger times are known up
        # front; each detection is enqueued at fault priority and its
        # event therefore precedes any same-instant control reaction.
        if self.drift_monitor is not None:
            for detection in self.drift_monitor.scan_rate_series(
                series, self.step_seconds
            ):
                self.push(detection.t, _FAULT, detection)
        for k, input_name in enumerate(self.graph.input_names):
            process = ArrivalProcess(
                series[:, k],
                self.step_seconds,
                kind=sim.arrival_kind,
                seed=None if sim.seed is None else sim.seed * 8191 + k,
            )
            routes = self.routes[input_name]
            for start, count in process.steps():
                self.tuples_in += count
                for consumer, port in routes:
                    self.spawn(start, start, consumer, port, count)

    def spawn(
        self, now: float, birth: float, operator: str, port: int, count: int,
        extra_work: float = 0.0, parent: Optional[int] = None,
    ) -> None:
        """Open the span of a new batch and schedule its arrival."""
        span = -1
        if self.tracing:
            span = self.spans.open_span(
                now, operator=operator, port=port, count=count,
                birth=birth, parent=parent,
            )
        self.push(now, _ARRIVAL, _Batch(
            birth=birth, arrival=now, operator=operator, port=port,
            count=count, extra_work=extra_work, span=span,
        ))

    def loop(self) -> None:
        """Pop events in (time, priority, sequence) order and dispatch
        each to the handler for its payload type."""
        handlers = {
            _Batch: self.on_arrival,
            _Completion: self.on_completion,
            type(None): self.on_control,  # control polls carry no payload
            FaultEvent: self.on_fault,
            _FaultRevert: self.on_fault_revert,
            DriftDetection: self.on_drift,
        }
        events = self.events
        pop = heapq.heappop
        while events:
            time, _, _, payload = pop(events)
            handlers[type(payload)](time, payload)

    # ---------------------------------------------------- batch handlers

    def wake(self, node: int, now: float) -> None:
        """Start serving on ``node`` if it is idle, alive and has work."""
        if self.busy[node] or self.failed[node] or self.queues[node].is_empty:
            return
        if self.tracing:
            self.tracer.emit("node.busy", t=now, node=node)
        self.start_service(node, now)

    def on_arrival(self, now: float, batch: _Batch) -> None:
        node = self.assignment[batch.operator]
        self.queues[node].push(batch)
        if self.tracing:
            self.tracer.emit(
                "batch.enqueued",
                t=now,
                node=node,
                operator=batch.operator,
                port=batch.port,
                count=batch.count,
            )
        self.wake(node, now)

    def start_service(self, node: int, now: float) -> None:
        """Begin serving the next queue entry on an idle node."""
        entry = self.queues[node].pop()
        self.busy[node] = True
        capacity = self.capacities[node]
        if isinstance(entry, Stall):
            self.push(
                now + entry.duration,
                _COMPLETION,
                _Completion(node=node, batch=None,
                            work=entry.duration * capacity,
                            start=now, decision=entry.decision),
            )
            return
        batch: _Batch = entry
        operator = batch.operator
        work, out_count = self.runtimes[operator].process(
            batch.arrival, batch.port, batch.count
        )
        slow_factor = self.slow.get(operator)
        if slow_factor is not None:
            work *= slow_factor
        stats = self.operator_stats[operator]
        stats.tuples_in += batch.count
        stats.tuples_out += out_count
        stats.work_seconds += work
        work += batch.extra_work

        out_stream = self.outputs[operator]
        send_work = 0.0
        deliveries: List[Tuple[str, int, float]] = []
        if out_count > 0:
            assignment = self.assignment
            for consumer, port in self.routes[out_stream]:
                recv = 0.0
                if assignment[consumer] != node:
                    per_tuple = _checked_transfer_cost(
                        self.uniform_cost if self.stream_costs is None
                        else self.stream_costs.get(out_stream, 0.0),
                        out_stream,
                    )
                    send_work += per_tuple * out_count
                    recv = per_tuple * out_count
                deliveries.append((consumer, port, recv))
        total_work = work + send_work
        self.push(
            now + total_work / capacity,
            _COMPLETION,
            _Completion(
                node=node,
                batch=batch,
                out_count=out_count,
                deliveries=tuple(deliveries),
                work=total_work,
                start=now,
            ),
        )

    def on_completion(self, now: float, completion: _Completion) -> None:
        node = completion.node
        self.node_work[node] += completion.work
        bin_index = min(int(now / self.step_seconds), self.steps - 1)
        self.timeline[bin_index, node] += completion.work
        batch = completion.batch
        if batch is None:
            if self.tracing:
                self.tracer.emit(
                    "node.stall", t=now, node=node,
                    work=completion.work,
                    start=completion.start,
                    decision=completion.decision,
                )
        else:
            out_count = completion.out_count
            # Output with no onward deliveries is sink output: its
            # end-to-end latency is known here.  The trace carries the
            # identical float on the serviced event and the span close,
            # so analyzers rebuild LatencyStats bit-for-bit
            # (repro.obs.analyze).
            sink_stream = latency = None
            if out_count > 0 and not completion.deliveries:
                sink_stream = self.outputs[batch.operator]
                latency = now - batch.birth
            if self.tracing:
                self.tracer.emit(
                    "batch.serviced",
                    t=now,
                    node=node,
                    operator=batch.operator,
                    port=batch.port,
                    count=batch.count,
                    out=out_count,
                    work=completion.work,
                    # Inline, not _present: this runs once per batch.
                    **(
                        {} if sink_stream is None
                        else {"sink": sink_stream, "latency": latency}
                    ),
                )
                self.spans.close_span(
                    batch.span,
                    now,
                    node=node,
                    start=completion.start,
                    work=completion.work,
                    out=out_count,
                    sink=sink_stream,
                    latency=latency,
                )
            for consumer, port, recv in completion.deliveries:
                self.spawn(
                    now, batch.birth, consumer, port, out_count, recv,
                    batch.span,
                )
            if sink_stream is not None:
                self.tuples_out += out_count
                self.latency.record(latency, out_count)
                self.sink_latency.setdefault(
                    sink_stream, LatencyStats()
                ).record(latency, out_count)
                if self.slo_watcher is not None:
                    self.slo_watcher.observe(now, latency, out_count)
        if self.queues[node].is_empty or self.failed[node]:
            # A crashed node goes quiet after its in-flight batch
            # even if work is still queued (it resumes on recovery).
            self.busy[node] = False
            self.last_free[node] = now
            if self.tracing:
                self.tracer.emit("node.idle", t=now, node=node)
        else:
            self.start_service(node, now)

    # -------------------------------------------------- control handlers

    def on_control(self, now: float, _payload: None) -> None:
        """Poll the controller with the last period's node and operator
        loads, then apply what it decides."""
        period = self.period
        recent = (self.node_work - self.last_work) / (
            self.capacities * period
        )
        self.last_work = self.node_work.copy()
        op_loads = {}
        for name, stats in self.operator_stats.items():
            op_loads[name] = (
                stats.work_seconds - self.last_op_work[name]
            ) / period
            self.last_op_work[name] = stats.work_seconds
        # Feasible-volume-over-time: sample once per poll (only while
        # tracing) and run it through the drift detector.
        volume_now: Optional[float] = None
        if self.drift_monitor is not None:
            volume_now = self.sample_volume(self.assignment)
            detection = self.drift_monitor.observe(
                "feasible_volume", now, volume_now
            )
            if detection is not None:
                self.on_drift(now, detection)
        actions = list(self.controller.decide(
            now, recent, self.assignment, self.model,
            self.capacities, operator_loads=op_loads,
        ))
        self.act("periodic", now, actions, volume_now, loads=recent)

    def act(
        self, trigger: str, now: float, actions: List[object],
        volume_before: Optional[float], loads: Optional[np.ndarray] = None,
        node: Optional[int] = None, failover: bool = False,
    ) -> None:
        """Record one deliberation and apply its actions in order.

        Every action type is dispatched here: a :class:`Repartition`
        swaps router fractions, anything else is a migration.  Periodic
        migrations are announced with ``migration.decided`` first.
        Traced deliberations always get an id >= 1 to tag the applied
        events and their stalls with; untraced ones stay at -1.
        """
        decision = -1
        if self.tracing:
            decision = self.emit_decisions(
                trigger, now, actions, loads, node, volume_before
            )
        for action in actions:
            if isinstance(action, Repartition):
                self.apply_repartition(action, now, decision)
                continue
            if self.tracing and trigger == "periodic":
                self.tracer.emit(
                    "migration.decided",
                    t=now,
                    operator=action.operator,
                    source=action.source,
                    target=action.target,
                    pause=action.pause_seconds,
                    decision=decision,
                )
            self.apply_move(action, now, failover, decision)

    def stall(
        self, endpoints: Sequence[int], pause: float, decision: int, now: float
    ) -> None:
        """Queue a reconfiguration pause on each endpoint node, tagged
        with the decision-audit id that caused it."""
        for endpoint in endpoints:
            self.queues[endpoint].push_stall(pause, decision)
            self.wake(endpoint, now)

    def apply_move(
        self, move, now: float, failover: bool, decision: int
    ) -> None:
        """Apply one controller/failover migration; stale ones are
        ignored.

        Regular migrations stall both endpoints; failover moves stall
        only the destination (the source is dead — there is no state to
        serialize and nothing to schedule on it).
        """
        if self.assignment.get(move.operator) != move.source:
            return  # stale decision; operator already moved
        if not failover and (
            self.failed[move.source] or self.failed[move.target]
        ):
            return  # blind reactive move involving a dead node
        self.assignment[move.operator] = move.target
        # Queued work follows the operator.
        for batch in self.queues[move.source].take_operator(move.operator):
            self.queues[move.target].push(batch)
        self.stall(
            (move.target,) if failover else (move.source, move.target),
            move.pause_seconds, decision, now,
        )
        self.migrations.append(move)
        if self.tracing:
            self.tracer.emit(
                "migration.applied",
                t=now,
                operator=move.operator,
                source=move.source,
                target=move.target,
                pause=move.pause_seconds,
                reason="failover" if failover else "balance",
                decision=decision,
            )

    def apply_repartition(
        self, rep: Repartition, now: float, decision: int
    ) -> None:
        """Swap a partition group's router selectivities in place.

        Rebuilds the group's route runtimes with the new key-range
        fractions (the shared :class:`QueryGraph` is never mutated) and
        stalls every node hosting a route or instance for the
        state-handoff pause — a migration-like reconfiguration that
        leaves the operator-to-node assignment untouched.  A stale
        decision (group gone or the wrong width) is ignored.
        """
        group = getattr(self.graph, "partition_groups", {}).get(rep.operator)
        if group is None or len(rep.fractions) != group.ways:
            return
        for route, fraction in zip(group.routes, rep.fractions):
            route_op = self.graph.operator(route)
            self.runtimes[route] = make_runtime(Filter(
                route, cost=route_op.costs[0],
                selectivity=float(fraction),
            ))
        endpoints = sorted({
            self.assignment[name]
            for name in (*group.routes, *group.parts)
        })
        self.stall(endpoints, rep.pause_seconds, decision, now)
        self.repartitions.append(rep)
        if self.tracing:
            self.tracer.emit(
                "elastic.repartition",
                t=now,
                operator=rep.operator,
                fractions=[float(f) for f in rep.fractions],
                pause=rep.pause_seconds,
                decision=decision,
            )

    def down_nodes(self) -> List[int]:
        return [node for node, down in enumerate(self.failed) if down]

    def sample_volume(self, current: Mapping[str, int]) -> float:
        """Feasible-volume ratio of the (degraded) cluster now."""
        return residual_volume_ratio(
            self.model, self.capacities, current,
            failed_nodes=self.down_nodes(),
            samples=_DRIFT_VOLUME_SAMPLES, ignore_stranded=True,
        )

    def volume_after(self, actions: List[object]) -> Optional[float]:
        """Ratio the cluster would keep once ``actions`` apply."""
        if not actions:
            return None
        trial = dict(self.assignment)
        for action in actions:
            if isinstance(action, Repartition):
                continue  # assignment-preserving; no volume effect
            if trial.get(action.operator) == action.source:
                trial[action.operator] = action.target
        return self.sample_volume(trial)

    def emit_decisions(
        self, trigger: str, now: float, actions: List[object],
        loads: Optional[np.ndarray], node: Optional[int],
        volume_before: Optional[float],
    ) -> int:
        """Emit the pending decision record(s) for one deliberation.

        Controllers with telemetry support produced real records; for
        anything else a minimal record is synthesized so every control
        poll / fault hook still yields exactly one ``decision.evaluated``
        event.  Returns the id the caller tags the resulting actions
        with.
        """
        volume_after = self.volume_after(actions)
        records = [] if self.telemetry is None else self.telemetry.drain()
        if not records:
            records = [DecisionRecord(
                trigger=trigger,
                controller=type(self.controller).__name__,
                loads=[],
                reason="migrate" if actions else "unobserved",
                actions=len(actions),
                node=node,
            )]
        decision_id = -1
        for record in records:
            decision_id = next(self.decision_seq)
            self.decision_counts[record.trigger] = (
                self.decision_counts.get(record.trigger, 0) + 1
            )
            if not record.loads and loads is not None:
                record.loads = [float(value) for value in loads]
            self.tracer.emit(
                "decision.evaluated",
                t=now,
                decision=decision_id,
                trigger=record.trigger,
                controller=record.controller,
                reason=record.reason,
                actions=record.actions,
                loads=list(record.loads),
                **_present(
                    candidates=[
                        c.to_json_obj() for c in record.candidates
                    ] or None,
                    node=record.node,
                    burn_rate=record.burn_rate,
                    volume_before=volume_before,
                    volume_after=volume_after,
                ),
            )
        return decision_id

    def on_drift(self, now: float, detection: DriftDetection) -> None:
        self.tracer.emit(
            "drift.detected",
            t=detection.t,
            signal=detection.signal,
            direction=detection.direction,
            statistic=detection.statistic,
            threshold=detection.threshold,
            observed=detection.observed,
            baseline=detection.baseline,
            **_present(input=detection.input),
        )

    # ---------------------------------------------------- fault handlers

    def on_fault(self, now: float, fault: FaultEvent) -> None:
        self.applied_faults.append(fault)
        if self.tracing:
            self.tracer.emit(
                "fault.injected",
                t=now,
                kind=fault.kind,
                **_present(
                    node=fault.node, operator=fault.operator,
                    factor=fault.factor, duration=fault.duration,
                ),
            )
        if fault.kind in self.fault_hooks:  # node.crash / node.recover
            crashed = fault.kind == "node.crash"
            self.failed[fault.node] = crashed
            hook = self.fault_hooks[fault.kind]
            if hook is not None:
                volume_before = (
                    self.sample_volume(self.assignment)
                    if self.drift_monitor is not None else None
                )
                actions = list(hook(
                    now, fault.node, self.assignment, self.model,
                    self.capacities, self.down_nodes(),
                ))
                # Evacuating a crashed node is a failover; moving
                # operators back to a recovered one is a regular move.
                self.act(
                    "fault" if crashed else "recover", now, actions,
                    volume_before, node=fault.node, failover=crashed,
                )
            # Resume whatever queued up while the node was down (a
            # crashed node stays quiet: wake skips failed nodes).
            self.wake(fault.node, now)
        elif fault.kind == "node.degrade":
            self.capacities[fault.node] = (
                self.nominal[fault.node] * fault.factor
            )
        elif fault.kind == "operator.slowdown":
            self.slow[fault.operator] = fault.factor
        # rate.spike was folded into the series before arrivals were
        # generated; its fault.injected event above is informational.

    def on_fault_revert(self, now: float, revert: _FaultRevert) -> None:
        fault = revert.event
        if self.tracing:
            self.tracer.emit(
                "fault.reverted",
                t=now,
                kind=fault.kind,
                **_present(node=fault.node, operator=fault.operator),
            )
        if fault.kind == "node.degrade":
            self.capacities[fault.node] = self.nominal[fault.node]
        elif fault.kind == "operator.slowdown":
            self.slow.pop(fault.operator, None)

    # -------------------------------------------------------------- finish

    def finish(self) -> SimulationResult:
        """Emit ``sim.end``, fold metrics, and build the result."""
        sim = self.sim
        horizon = self.horizon
        utilization = self.node_work / (self.nominal * horizon)
        backlog = np.maximum(self.last_free - horizon, 0.0)
        # Tuples still queued when the event loop drained: work stranded
        # on nodes that were down (or degraded past the horizon) with no
        # failover to rescue it.
        stranded = sum(queue.queued_tuples() for queue in self.queues)
        if self.tracing:
            faulted = sim.faults is not None
            self.tracer.emit(
                "sim.end",
                t=horizon,
                node_busy=[float(w) for w in self.node_work],
                tuples_in=self.tuples_in,
                tuples_out=self.tuples_out,
                max_utilization=float(utilization.max()),
                migrations=len(self.migrations),
                **_present(
                    faults=len(self.applied_faults) if faulted else None,
                    stranded_tuples=stranded if faulted else None,
                    repartitions=len(self.repartitions) or None,
                ),
            )
        if sim.metrics is not None:
            self.record_metrics(sim.metrics, utilization)
        return SimulationResult(
            duration=horizon,
            node_busy=self.node_work,
            node_utilization=utilization,
            backlog_seconds=backlog,
            latency=self.latency,
            sink_latency=self.sink_latency,
            operator_stats=self.operator_stats,
            tuples_in=self.tuples_in,
            tuples_out=self.tuples_out,
            migrations=self.migrations,
            work_timeline=self.timeline,
            faults=self.applied_faults,
            stranded_tuples=stranded,
        )

    def record_metrics(
        self, registry: MetricsRegistry, utilization: np.ndarray
    ) -> None:
        """Fold the run's outcomes into the metrics registry.

        Runs once after the event loop — never on the hot path — so an
        attached registry costs nothing per event.
        """
        tuples = registry.counter(
            "rod_sim_tuples_total",
            "source tuples injected / sink tuples produced",
            ("direction",),
        )
        tuples.labels(direction="in").inc(self.tuples_in)
        tuples.labels(direction="out").inc(self.tuples_out)
        registry.counter(
            "rod_sim_migrations_total", "operator migrations applied"
        ).inc(len(self.migrations))
        if self.applied_faults:
            fault_counter = registry.counter(
                "rod_sim_faults_total",
                "fault events injected into simulation runs",
                ("kind",),
            )
            for fault in self.applied_faults:
                fault_counter.labels(kind=fault.kind).inc()
        registry.counter(
            "rod_sim_runs_total", "simulation runs completed"
        ).inc()
        node_gauge = registry.gauge(
            "rod_sim_node_utilization",
            "per-node utilization of the latest run",
            ("node",),
        )
        for node, value in enumerate(utilization):
            node_gauge.labels(node=node).set(float(value))
        quantiles = registry.gauge(
            "rod_sim_latency_seconds",
            "end-to-end latency quantiles of the latest run",
            ("quantile",),
        )
        for name, value in self.latency.percentiles().items():
            quantiles.labels(quantile=name).set(value)
        quantiles.labels(quantile="mean").set(self.latency.mean())
        if self.decision_counts:
            decided = registry.counter(
                "rod_decisions_total",
                "controller decision records emitted",
                ("trigger",),
            )
            for trigger, count in sorted(self.decision_counts.items()):
                decided.labels(trigger=trigger).inc(count)
        if self.drift_monitor is not None:
            record_drift_metrics(
                registry, self.drift_monitor.detections,
                self.drift_monitor.summary(),
            )
