"""In-memory span recorder wrapped around the program's public calls.

Spans live in memory as ``[name, start_ns, end_ns, parent, op]`` rows and
are written out once, when the run ends.  The
program itself carries no instrumentation: :func:`instrument` swaps the
layer-boundary callables for timing wrappers and restores them on exit.
Replays are single-threaded, so a plain stack tracks the parent span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_NOW = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _NOW(), 0, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _NOW()

    # -- readout -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start - child[index]) / 1e9
        return dict(out)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, seconds)`` over whole span durations."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, _op in self.spans:
            out[name][0] += 1
            out[name][1] += (end - start) / 1e9
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def per_op(self, name: str) -> dict[int, float]:
        """Seconds of ``name`` spans, summed per operation id."""
        out: dict[int, float] = defaultdict(float)
        for span_name, start, end, _parent, op in self.spans:
            if span_name == name:
                out[op] += (end - start) / 1e9
        return dict(out)

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Seconds of ``child_name`` spans opened directly under a ``parent_name`` span."""
        return sum(
            (end - start) / 1e9
            for name, start, end, parent, _op in self.spans
            if name == child_name and parent is not None and self.spans[parent][0] == parent_name
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                handle.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer boundaries reached *inside* program calls.

    The benchmark's own replay opens spans around the calls it makes
    directly; this adds the nested ones: registry resolution, topology
    construction and the engines.
    """
    import repro.graphs.ensemble as graph_ensemble
    import repro.scenario as scenario
    from repro.core.registry import TOPOLOGIES

    patches = [
        (scenario.ScenarioSpec, "resolve", "scenario.resolve"),
        (scenario, "run_ensemble", "core.run_ensemble"),
        (graph_ensemble, "run_graph_ensemble", "graphs.run_graph_ensemble"),
        (TOPOLOGIES, "build", "graphs.topology_build"),
    ]
    saved = []
    try:
        for owner, attribute, name in patches:
            had_own = attribute in vars(owner)
            original = vars(owner)[attribute] if had_own else None
            setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
            saved.append((owner, attribute, had_own, original))
        yield tracer
    finally:
        for owner, attribute, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
