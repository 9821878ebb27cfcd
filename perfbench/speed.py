"""Machine-speed probe: a fixed kernel timed between the steps it normalises.

On a shared machine other load slows every instruction of the benchmark by
up to 2x, and the slowdown changes within a second.  The timed end-to-end
figures are therefore normalised to a reference speed.  The kernel's mix of
small numpy calls and scalar float code resembles a controller step, and it
uses nothing from the package under test.  Its slowdown is its time over
``KERNEL_REF_NS``; on the reference machine at rest it is close to 1, so the
normalised figures read as microseconds and seconds of that machine.

``CalibratedCalls`` runs the kernel between the timed calls, about every
``CHUNK_NS`` of call time, so that every call is normalised by the speed of
the machine in the same fraction of a second.  Adjacent kernel and step
times move together (correlation about 0.85 under contention), while a
slowdown measured once per multi-second pass does not follow the changes.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from typing import Any

import numpy as np

#: Kernel time on the reference machine at rest (2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4).
KERNEL_REF_NS = 3_000_000

#: Call time between two kernel runs inside a pass.
CHUNK_NS = 25_000_000


def kernel() -> float:
    acc = 0.0
    for i in range(100):
        roots = np.roots([1.0, -6.0 - i * 1e-3, 11.0, -6.0])
        acc += float(np.polyval([1.0, 2.0, 3.0], float(roots.real[0])))
        for j in range(30):
            acc += math.hypot(j * 0.5, i * 0.25) / (1.0 + j)
    return acc


def sample() -> float:
    """Slowdown of one kernel run now (above 1 when slower than the reference)."""
    t0 = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - t0) / KERNEL_REF_NS


class CalibratedCalls:
    """Times every call of ``owner.attr`` and normalises it by the machine speed.

    Used as a context manager, it replaces the function the caller looks up
    with a timing wrapper.  Inside ``timed_pass()`` the wrapper runs the
    kernel after every CHUNK_NS of call time, and the pass starts and ends
    with a kernel run.  The kernel runs cut the pass into segments; a
    segment's slowdown is the mean of the two kernel runs around it.  Each
    call's time, and each segment's share of the pass's wall time (kernel
    time excluded), is divided by its segment's slowdown.  After each pass,
    ``latencies`` holds one more list of normalised call times [ns] and
    ``walls`` one more normalised wall time [s].
    """

    def __init__(self, owner: Any, attr: str) -> None:
        self.owner = owner
        self.attr = attr
        self.latencies: list[array] = []
        self.walls: list[float] = []
        self.slowdowns: list[float] = []
        self._on = False

    def __enter__(self) -> "CalibratedCalls":
        fn = getattr(self.owner, self.attr)
        self._saved = fn
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            self._calls.append(dt)
            self._segment_of.append(len(self._marks) - 1)
            self._since += dt
            if self._since >= CHUNK_NS:
                self._mark()
            return result

        timed.__wrapped__ = fn
        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self._saved)

    def _mark(self) -> None:
        """Close the open segment and run the kernel once."""
        self._lengths.append(time.perf_counter_ns() - self._start)
        self._marks.append(sample())
        self._since = 0
        self._start = time.perf_counter_ns()

    @contextlib.contextmanager
    def timed_pass(self):
        self._calls: list[int] = []
        self._segment_of: list[int] = []
        self._lengths: list[int] = []
        self._marks = [sample()]
        self._since = 0
        self._on = True
        self._start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._mark()
            self._on = False
        marks = self._marks
        slow = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
        self.latencies.append(array("d", (dt / slow[s] for dt, s in zip(self._calls, self._segment_of))))
        self.walls.append(sum(n / s for n, s in zip(self._lengths, slow)) / 1e9)
        self.slowdowns.extend(marks)
