"""Calibrated timing: wall time corrected by the host's speed while it ran.

On a shared host the same replay takes from 1x to 1.8x its fastest time,
depending on what else runs on the physical core, and the slow and fast
spells last from seconds to minutes. A median over one run cannot remove
that, so runs disagree. ``SpeedProbe.measure`` therefore samples the host's
speed during the timed section: every 10 ms a SIGALRM handler times a fixed
reference slice of interpreter work, with the garbage collector off so
that a collection of the section's garbage does not land in the sample.
The section's calibrated time is its wall time, less the time spent in the
handler, multiplied by the mean of ``REFERENCE_NS / sample``: the seconds
it would have taken on a host where the reference slice takes
``REFERENCE_NS``. The reference depends on nothing in ``mempoolsim``; how
closely calibrated and wall seconds agree on a known change is measured in
README.md.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterator, List

REFERENCE_NS = 100_000  # the reference slice's time on the nominal host
INTERVAL_S = 0.01


@dataclass(frozen=True, slots=True)
class _Item:
    key: int
    weight: int

    @property
    def cost(self) -> int:
        return self.key * self.weight


_SMALL = [_Item(i % 97, i) for i in range(96)]
_SCAN = [_Item(i % 97, i) for i in range(512)]


def reference() -> int:
    """A fixed slice of the kinds of work a replay does: dict updates, a set
    and a min over a short list, and property reads over a longer one."""
    counts = {}
    for item in _SMALL:
        counts[item.key] = counts.get(item.key, 0) + item.weight
    small = min(t.cost for t in _SMALL) + len({t.weight for t in _SMALL}) + len(counts)
    return small + min(t.cost for t in _SCAN)


@dataclass
class Timing:
    seconds: float = 0.0  # wall time, the probe's own time included
    calibrated: float = 0.0  # seconds at the nominal host's speed


class SpeedProbe:
    def __init__(self) -> None:
        self._samples: List[int] = []
        self._spent = 0

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the section's garbage, not the slice's
        start = perf_counter_ns()
        reference()
        end = perf_counter_ns()
        if collecting:
            gc.enable()
        self._samples.append(end - start)
        self._spent += perf_counter_ns() - start

    @contextmanager
    def measure(self) -> Iterator[Timing]:
        """Time the ``with`` body; the yielded ``Timing`` is filled on exit."""
        timing = Timing()
        self._samples, self._spent = [], 0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter_ns()
        try:
            yield timing
        finally:
            end = perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        work_ns = end - start - self._spent
        if not self._samples:  # shorter than one interval: sample just after
            self._sample()
        speed = statistics.fmean(REFERENCE_NS / s for s in self._samples)
        timing.seconds = (end - start) / 1e9
        timing.calibrated = work_ns * speed / 1e9
