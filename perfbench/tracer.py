"""In-memory span recorder around the calls into the package's layers.

A trace point replaces one function under the name its caller looks it up
(a module global such as ``bessctl.optimizer.project``, or a class attribute
such as ``FeasibleRegion.contains``) with a wrapper that records a span:
name, start, end and the span that was open when it was entered.  Spans are
kept in flat arrays while the run lasts and written out once it ends.  The
package itself is not modified; leaving the ``with`` block restores every
original function.
"""

from __future__ import annotations

import csv
import statistics
import time
from array import array
from pathlib import Path
from typing import Any, Sequence

import bessctl.battery as battery
import bessctl.capability as capability
import bessctl.optimizer as optimizer
import bessctl.simctl as simctl

STEP = "optimizer.solve_step"

#: (span name, owner, attribute) of the step root.
STEP_POINT = (STEP, optimizer.SetpointController, "solve_step")

#: Public functions of every layer, wrapped where the caller looks them up.
LAYER_POINTS = (
    ("optimizer.project", optimizer, "project"),
    ("battery.params_for_soc", optimizer, "params_for_soc"),
    ("battery.dc_power_bounds", optimizer, "dc_power_bounds"),
    ("battery.ac_from_dc", optimizer, "ac_from_dc"),
    ("battery.dc_from_ac", optimizer, "dc_from_ac"),
    ("battery.solve_vdc", optimizer, "solve_vdc"),
    ("battery.ttc_step", optimizer, "ttc_step"),
    ("grid.droop_targets", optimizer, "droop_targets"),
    ("grid.predict_vac", optimizer, "predict_vac"),
    ("grid.optimal_droops", optimizer, "optimal_droops"),
    ("capability.build_region", optimizer, "build_region"),
    ("capability.contains", capability.FeasibleRegion, "contains"),
    ("simctl.run_scenario", simctl, "run_scenario"),
    ("simctl.generate_trace", simctl, "generate_trace"),
    ("simctl.write_records", simctl, "write_records"),
    ("simctl.summarize", simctl, "summarize"),
    ("linefmt.load_run_config", simctl, "load_run_config"),
    ("linefmt.parse_curves", capability, "parse_curves"),
    ("linefmt.parse_ttc_params", battery, "parse_ttc_params"),
)

ALL_POINTS = (STEP_POINT,) + LAYER_POINTS


class Tracer:
    """Records spans for the given trace points while used as a context manager.

    One tracer may be entered several times; spans accumulate.
    """

    def __init__(self, points: Sequence[tuple[str, Any, str]]) -> None:
        self.points = tuple(points)
        self.names = [name for name, _, _ in self.points]
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, idx: int, fn):
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(end)
            start.append(0)
            end.append(0)
            name.append(idx)
            parent.append(stack[-1])
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for idx, (_, owner, attr) in enumerate(self.points):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(idx, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def durations_ns(self, span_name: str) -> list[int]:
        idx = self.names.index(span_name)
        return [e - s for s, e, n in zip(self.start, self.end, self.name) if n == idx]

    def count(self, span_name: str) -> int:
        return self.name.count(self.names.index(span_name))

    def step_ids(self) -> list[int]:
        """Step id of every span: the index of its enclosing step root, else -1.

        A span is recorded before any span it encloses, so one forward pass
        resolves every parent.
        """
        step_idx = self.names.index(STEP) if STEP in self.names else -2
        out: list[int] = []
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            out.append(i if n == step_idx else (out[p] if p >= 0 else -1))
        return out

    def self_ns(self, span_name: str) -> list[int]:
        """Span duration minus the time its direct child spans cover.

        Calls are single-threaded and strictly nested, so direct children
        never overlap and their union is their sum.
        """
        covered = [0] * len(self.end)
        for s, e, p in zip(self.start, self.end, self.parent):
            if p >= 0:
                covered[p] += e - s
        idx = self.names.index(span_name)
        return [
            e - s - covered[i]
            for i, (s, e, n) in enumerate(zip(self.start, self.end, self.name))
            if n == idx
        ]

    def in_step_ns(self, span_name: str) -> int:
        """Total time of the named spans that ran inside a step."""
        idx = self.names.index(span_name)
        steps = self.step_ids()
        return sum(
            e - s
            for s, e, n, st in zip(self.start, self.end, self.name, steps)
            if n == idx and st >= 0
        )

    def write(self, path: Path) -> None:
        """Write all spans as CSV; ``parent`` and ``step`` are span indices, -1 for none."""
        path.parent.mkdir(parents=True, exist_ok=True)
        steps = self.step_ids()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent", "step"])
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                writer.writerow([i, self.names[n], s, e, p, steps[i]])


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]
