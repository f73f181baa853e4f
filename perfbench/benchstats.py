"""Arithmetic of the pipeline benchmark, kept free of any ``repro`` import.

Everything here is a pure function of numbers the benchmark collected, so
``test_benchstats.py`` can pin the rules on synthetic inputs:

* :func:`tail_percentile` — the highest percentile that still has at least
  ten operations beyond it, with that percentile and the sample count;
* :class:`OpLog` — operation wall times plus the set of failed operations
  (an operation that raised, or whose output failed a check), giving
  ``fail_share``;
* :func:`per_op_medians` — each operation's median time over the passes,
  matched by the operation's place in the list, not the order it ran in;
* :func:`sustainable_level` — the highest rung of a utilisation ladder
  whose run passed the ``simulate --check`` predicate;
* :func:`self_times` — per-layer self time of bench spans: a span's
  duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Operations that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """A 31-bit seed for one input stream, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Tuple[float, float, int, int]:
    """``(value, percentile, samples, beyond)`` of the tail rule.

    Sorted ascending, the sample at index ``n - beyond - 1`` has exactly
    ``beyond`` samples after it; its percentile rank is
    ``100 * (n - beyond) / n``.  With ``n <= beyond`` no percentile has
    enough operations beyond it, so the maximum is returned at the 100th
    percentile with however many samples lie beyond it (none).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n, 0
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n, beyond


class OpLog:
    """Wall time of every operation and which operations failed."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.failures: Dict[int, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, op: Callable[..., object], *args: object) -> Tuple[int, object]:
        """Time one operation; an exception marks it failed.

        Returns ``(index, output)``; the output is ``None`` for a failed
        operation.  Exceptions the caller can act on are counted, not
        raised, so one bad operation does not end the run.
        """
        index = len(self.durations)
        start = time.perf_counter()
        try:
            output = op(*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            self.durations.append(time.perf_counter() - start)
            self.mark_failed(index, f"raised {type(exc).__name__}: {exc}")
            return index, None
        self.durations.append(time.perf_counter() - start)
        return index, output

    def mark_failed(self, index: int, reason: str) -> None:
        """Record a failed operation (the first reason wins)."""
        self.failures.setdefault(index, reason)


def per_op_medians(
    durations: Sequence[float], passes: Sequence[Sequence[int]]
) -> List[float]:
    """Each operation's median wall time over the passes.

    ``passes[p][j]`` is the index into ``durations`` at which pass ``p``
    timed operation ``j`` of the workload's fixed operation list, so a pass
    may run the operations in any order.  With one pass this is that pass's
    times; with several, a stretch in which the host ran slow moves only
    the passes it fell in.
    """
    if not passes:
        raise ValueError("no passes")
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes ran different operation lists")
    return [median([durations[i] for i in column]) for column in zip(*passes)]


def sustainable_level(ladder: Iterable[Tuple[float, bool]]) -> float:
    """Highest ladder level whose run passed; ``0.0`` when none did."""
    passed = [level for level, ok in ladder if ok]
    return max(passed) if passed else 0.0


def _covered(
    intervals: List[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str], int]]:
    """Self time and call count per ``(root name, span name)``.

    Span ``i`` is named ``names[i]``, runs ``[starts[i], ends[i]]`` and was
    caused by span ``parents[i]`` (``-1`` for a root; a parent precedes its
    children).  Its self time is its duration minus the union of its
    children's intervals, so the self times under a root add up to the
    root's duration.  A call counts once per entry into a layer: a span
    whose parent carries the same name is work inside that layer, not a
    new call.  Keys carry the name of the span's root, so the caller can
    tell set-up from timed passes.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    busy: Dict[Tuple[str, str], float] = {}
    calls: Dict[Tuple[str, str], int] = {}
    roots: List[str] = []
    for i, name in enumerate(names):
        parent = parents[i]
        roots.append(roots[parent] if parent >= 0 else name)
        key = (roots[i], name)
        kids = children.get(i)
        covered = _covered(kids, starts[i], ends[i]) if kids else 0.0
        busy[key] = busy.get(key, 0.0) + (ends[i] - starts[i]) - covered
        if parent < 0 or names[parent] != name:
            calls[key] = calls.get(key, 0) + 1
    return busy, calls
