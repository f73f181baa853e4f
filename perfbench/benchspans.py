"""Bench spans: the benchmark's own timers around calls into each layer.

Spans live in memory as parallel arrays (name id, start, end, parent) and
are written out once, when the run ends.  Nothing here is imported by the
program; layer calls are timed by wrapping the program's public functions
and methods from the outside for the duration of a traced pass
(:class:`Probes`), and the wrappers are removed again afterwards, so an
untraced pass runs the program's own code objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from benchstats import self_times

#: Module-level functions timed as a layer: (module, attribute, layer).
#: Every loaded ``repro`` module holding the same function object (a
#: ``from x import f``) is patched too, so the call is timed whichever
#: name the caller uses.
FUNCTION_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.generator", "random_tree_graph", "graphs"),
    ("repro.graphs.serialize", "load_graph", "graphs"),
    ("repro.graphs.serialize", "dump_graph", "graphs"),
    ("repro.core.load_model", "build_load_model", "core.load_model"),
    ("repro.core.rod", "rod_place", "placement.rod"),
    ("repro.obs.trace", "read_trace", "obs.trace.read"),
    ("repro.obs.critical_path", "analyze_critical_path", "obs.critical_path"),
    ("repro.obs.decisions", "decision_snapshot", "obs.decisions"),
    ("repro.obs.drift", "drift_snapshot", "obs.drift"),
    ("repro.obs.slo", "load_slo_config", "obs.slo"),
    ("repro.obs.slo", "evaluate_slos", "obs.slo"),
)

#: Methods timed as a layer: (module, class, method, layer).
METHOD_PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.placement.rod_placer", "RODPlacer", "place", "placement.rod"),
    ("repro.placement.correlation", "CorrelationPlacer", "place",
     "placement.correlation"),
    ("repro.placement.llf", "LLFPlacer", "place", "placement.llf"),
    ("repro.placement.random_placer", "RandomPlacer", "place",
     "placement.random"),
    ("repro.placement.connected", "ConnectedPlacer", "place",
     "placement.connected"),
    ("repro.core.plans", "Placement", "volume_ratio", "core.volume"),
    ("repro.core.feasible_set", "FeasibleSet", "volume_ratio", "core.volume"),
    ("repro.simulator.engine", "Simulator", "__init__", "simulator.init"),
    ("repro.simulator.engine", "Simulator", "run", "simulator"),
    ("repro.dynamics.failover", "FailoverController", "decide", "dynamics"),
    ("repro.dynamics.failover", "FailoverController", "on_node_failed",
     "dynamics"),
    ("repro.dynamics.failover", "FailoverController", "on_node_recovered",
     "dynamics"),
    ("repro.obs.trace", "Tracer", "emit", "obs.trace.emit"),
    ("repro.obs.trace", "JsonlSink", "write", "obs.trace.write"),
    ("repro.obs.runs", "RunWriter", "__init__", "obs.runs"),
    ("repro.obs.runs", "RunWriter", "finish", "obs.runs"),
)


class SpanRecorder:
    """In-memory span store: one entry per timed call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, fn: Callable, layer: str) -> Callable:
        name_id = self.name_id(layer)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return timed

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> Tuple[
        Dict[Tuple[str, str], float], Dict[Tuple[str, str], int]
    ]:
        """Busy seconds and calls per ``(root name, layer)``."""
        names = [self.names[i] for i in self.name_ids]
        return self_times(names, self.starts, self.ends, self.parents)

    def root_seconds(self, name: str) -> float:
        """Total duration of the root spans called ``name``."""
        target = self._ids.get(name)
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0 and self.name_ids[i] == target
        )

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header naming the layers, then one
        ``name_id<TAB>start<TAB>end<TAB>parent`` row per span (the row
        number is the span id)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            handle.writelines(
                f"{n}\t{s!r}\t{e!r}\t{p}\n" for n, s, e, p in zip(
                    self.name_ids, self.starts, self.ends, self.parents
                )
            )


class Probes:
    """Install and remove the layer wrappers around the program."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes already installed")
        self.missing = []
        loaded = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for module_name, attr, layer in FUNCTION_PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            timed = self.recorder.wrap(original, layer)
            for holder in loaded + [module]:
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, timed)
        for module_name, cls_name, attr, layer in METHOD_PROBES:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.recorder.wrap(original, layer))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
