"""Dynamic operator migration controllers.

The alternative the paper argues against for short-term variations:
watch node loads and move operators at run time.  A controller is polled
by the simulator every ``period`` seconds with the utilization each node
accumulated over the last period and may return migrations; each
migration stalls both endpoint nodes for a state-dependent pause
(:class:`~repro.dynamics.state.MigrationCostModel`).

:class:`LoadBalancingController` reproduces the classic reactive scheme:
when the most loaded node exceeds the least loaded by more than a
threshold, move the best-fitting operator across.  Its weakness is
exactly the paper's point — by the time a short burst is observed, paying
hundreds of milliseconds of stall to chase it makes latency worse.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.load_model import LoadModel
from ..obs.log import get_logger
from .state import MigrationCostModel

__all__ = ["Migration", "MigrationController", "LoadBalancingController"]

_LOG = get_logger(__name__)


def smooth_loads(
    smoothed: Dict[str, float],
    operator_loads: Optional[Mapping[str, float]],
    factor: float,
) -> None:
    """Fold measured operator loads into ``smoothed`` in place (EWMA
    with weight ``factor`` on the new sample)."""
    for name, value in (operator_loads or {}).items():
        value = float(value)
        previous = smoothed.get(name, value)
        smoothed[name] = factor * value + (1 - factor) * previous


@dataclass(frozen=True)
class Migration:
    """One operator move decided by a controller."""

    operator: str
    source: int
    target: int
    pause_seconds: float


class MigrationController(abc.ABC):
    """Interface the simulator polls for migration decisions."""

    #: Optional :class:`repro.obs.slo.SloWatcher`; when it reports
    #: ``burning``, deliberations are recorded as SLO-triggered.
    slo_watcher: Optional[object] = None

    def __init__(self, period: float = 1.0) -> None:
        if period <= 0:
            raise ValueError("control period must be > 0")
        self.period = period
        #: Decision-audit collector (``repro.obs.decisions``).  The
        #: simulator attaches one only while tracing is enabled;
        #: controllers must guard every record-building line on
        #: ``self.telemetry is not None`` so an untraced run allocates
        #: no decision records at all.
        self.telemetry: Optional[object] = None
        #: Every action this controller issued, in time order.
        self.history: List[object] = []

    @abc.abstractmethod
    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Migration]:
        """Return migrations to apply at time ``now`` (may be empty).

        ``operator_loads`` carries each operator's measured CPU demand
        (fraction of one CPU) over the last control period — the per-
        operator statistics a Borealis-style monitor provides.
        """

    def _checked_cooldown(self, cooldown: Optional[float]) -> float:
        """``cooldown`` seconds (default ``5 * period``), validated."""
        value = 5.0 * self.period if cooldown is None else float(cooldown)
        if value < 0:
            raise ValueError("cooldown must be >= 0")
        return value

    def _begin_record(
        self, controller: str, loads: Sequence[float],
        trigger: str = "periodic", node: Optional[int] = None,
    ) -> Optional[object]:
        """Open a deliberation's decision record, or ``None`` untraced.

        Only the simulator-attached telemetry allocates anything, so the
        untraced path builds no record.  A periodic deliberation while
        the SLO watcher is burning is recorded as ``slo-burn``.
        """
        if self.telemetry is None:
            return None
        watcher = self.slo_watcher if trigger == "periodic" else None
        burning = watcher is not None and watcher.burning
        return self.telemetry.begin(
            trigger="slo-burn" if burning else trigger,
            controller=controller,
            loads=[float(value) for value in loads],
            node=node,
            burn_rate=float(watcher.last_burn_rate) if burning else None,
        )


class LoadBalancingController(MigrationController):
    """Reactive pairwise balancing with state-aware migration costs."""

    def __init__(
        self,
        period: float = 1.0,
        imbalance_threshold: float = 0.2,
        max_moves_per_period: int = 1,
        cooldown: Optional[float] = None,
        cost_model: Optional[MigrationCostModel] = None,
        state_tuples: Optional[Mapping[str, float]] = None,
        slo_watcher: Optional[object] = None,
    ) -> None:
        """``state_tuples`` maps operator name to estimated state size
        (see :func:`repro.dynamics.state.graph_state_tuples`); operators
        not listed are treated as stateless.  ``cooldown`` (default
        ``5 * period``) is how long a just-moved operator is pinned, the
        usual anti-thrashing guard in reactive balancers.
        ``slo_watcher``, if given, marks deliberations that happen while
        the watcher is burning as SLO-triggered in the decision audit
        (the simulator feeds the watcher every sink latency sample)."""
        super().__init__(period)
        self.slo_watcher = slo_watcher
        if imbalance_threshold < 0:
            raise ValueError("imbalance threshold must be >= 0")
        if max_moves_per_period < 1:
            raise ValueError("max_moves_per_period must be >= 1")
        self.imbalance_threshold = imbalance_threshold
        self.max_moves_per_period = max_moves_per_period
        self.cooldown = self._checked_cooldown(cooldown)
        self.cost_model = cost_model or MigrationCostModel()
        self.state_tuples: Dict[str, float] = dict(state_tuples or {})
        #: EWMA factor for utilization smoothing; reactive balancers must
        #: filter per-period measurement noise or they chase it.
        self.smoothing = 0.5
        self._last_moved: Dict[str, float] = {}
        self._smoothed: Optional[np.ndarray] = None
        self._smoothed_loads: Dict[str, float] = {}

    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Migration]:
        moves: List[Migration] = []
        raw = np.asarray(utilizations, dtype=float)
        record = self._begin_record("balance", raw)
        if self._smoothed is None or self._smoothed.shape != raw.shape:
            self._smoothed = raw.copy()
        else:
            self._smoothed = (
                self.smoothing * raw + (1 - self.smoothing) * self._smoothed
            )
        utilizations = self._smoothed.copy()
        smooth_loads(self._smoothed_loads, operator_loads, self.smoothing)
        working = dict(assignment)

        def load_of(name: str) -> float:
            measured = self._smoothed_loads.get(name)
            if measured is not None:
                return measured
            # Monitoring fallback, per operator: apportion demand by
            # coefficient mass when this operator has no measured
            # statistics yet (other operators having some must not make
            # an unmeasured one look idle and unmovable).
            return float(model.coefficients[model.operator_index(name)].sum())

        noop_reason = "below-threshold"
        exhausted = False
        for _ in range(self.max_moves_per_period):
            busiest = int(np.argmax(utilizations))
            calmest = int(np.argmin(utilizations))
            gap = utilizations[busiest] - utilizations[calmest]
            if busiest == calmest or gap < self.imbalance_threshold:
                noop_reason = "below-threshold"
                break
            # Move the operator whose measured demand best matches half
            # the gap — the standard even-out move.  Never move more than
            # the whole gap (that would just flip the imbalance), and
            # never a zero-demand operator (nothing to even out) — such
            # candidates are skipped, not allowed to abandon the period.
            target = gap / 2.0 * capacities[busiest]
            candidates = []
            for name, node in working.items():
                if node != busiest:
                    continue
                cooling = (
                    now - self._last_moved.get(name, -math.inf)
                    < self.cooldown
                )
                if cooling:
                    if record is not None:
                        record.add_candidate(
                            name, busiest, calmest,
                            -abs(load_of(name) - target),
                            "cooldown-pinned",
                        )
                else:
                    candidates.append(name)
            if not candidates:
                noop_reason = "cooldown-pinned"
                _LOG.debug(
                    "t=%.2fs gap %.3f over threshold but node %d has no "
                    "movable operator (all cooling down)",
                    now, gap, busiest,
                )
                break
            weighed = [
                (name, load_of(name) / capacities[busiest])
                for name in candidates
            ]
            movable = [
                (name, transfer)
                for name, transfer in weighed
                if 0.0 < transfer <= gap
            ]
            if record is not None:
                in_range = {name for name, _ in movable}
                for name, transfer in weighed:
                    if name not in in_range:
                        record.add_candidate(
                            name, busiest, calmest,
                            -abs(
                                transfer * capacities[busiest] - target
                            ),
                            "out-of-range",
                        )
            if not movable:
                noop_reason = "no-valid-candidate"
                _LOG.debug(
                    "t=%.2fs gap %.3f over threshold but every candidate "
                    "transfer on node %d is zero or exceeds the gap",
                    now, gap, busiest,
                )
                break
            best, transfer = min(
                movable,
                key=lambda item: abs(
                    item[1] * capacities[busiest] - target
                ),
            )
            if record is not None:
                for name, option in movable:
                    record.add_candidate(
                        name, busiest, calmest,
                        -abs(option * capacities[busiest] - target),
                        "chosen" if name == best else "outscored",
                    )
            pause = self.cost_model.pause_seconds(
                self.state_tuples.get(best, 0.0)
            )
            move = Migration(
                operator=best, source=busiest, target=calmest,
                pause_seconds=pause,
            )
            _LOG.debug(
                "t=%.2fs migrate %s: node %d -> %d (gap %.3f, "
                "transfer %.3f, pause %.3fs)",
                now, best, busiest, calmest, gap, transfer, pause,
            )
            moves.append(move)
            self._last_moved[best] = now
            working[best] = calmest
            utilizations[busiest] -= transfer
            utilizations[calmest] += (
                transfer * capacities[busiest] / capacities[calmest]
            )
        else:
            exhausted = True
        if record is not None:
            record.actions = len(moves)
            if moves:
                # "max-moves-exhausted" with actions > 0 flags that the
                # per-period budget — not restored balance — stopped the
                # deliberation.
                record.reason = (
                    "max-moves-exhausted" if exhausted else "migrate"
                )
            else:
                record.reason = noop_reason
        self.history.extend(moves)
        return moves
