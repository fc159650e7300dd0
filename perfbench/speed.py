"""Host speed sampling, so that timings can be stated at a fixed host speed.

The benchmark's virtual machine shares its host: the speed of its CPUs
changes by itself, by a fifth and more over seconds to minutes, in CPU time
as much as in wall time.  A :class:`SpeedSampler` measures that speed while
the benchmark runs.  An interval timer interrupts the main thread every
``interval`` seconds, and the signal handler times one call of
:func:`probe`, a fixed piece of interpreted Python work.  The probe runs on
the same thread and CPU as the work it interrupts, at the moment it
interrupts it.

:meth:`SpeedSampler.reference_seconds` turns a measured interval into
*reference seconds*: the interval less the probe time inside it, divided by
the mean slowdown of the probes inside it (the probe's time over
:data:`PROBE_REFERENCE_S`).  A program change moves reference seconds as
much as it moves seconds; a change of host speed does not move them.
"""

from __future__ import annotations

import bisect
import signal
import time

#: Iterations of :func:`probe`.
PROBE_N = 2000
#: Duration of one :func:`probe` call at the reference speed.  Any fixed
#: value would do.  This one is about the trimmed mean probe time inside the
#: benchmark's workloads on a 2-vCPU 2.1 GHz Xeon virtual machine with
#: CPython 3.11, so that reference seconds are about seconds there.
PROBE_REFERENCE_S = 0.0005
#: Fewest probes an interval needs for its own speed; shorter intervals
#: take the speed of the whole sampled run.
MIN_LOCAL_PROBES = 8


def probe() -> int:
    """A fixed piece of interpreted work: a loop, integer arithmetic, dict use.

    It allocates no containers, so it never triggers a garbage collection
    whose cost would depend on the heap of the work it interrupts.
    """
    table = _PROBE_TABLE
    total = 0
    for index in range(PROBE_N):
        key = index & 63
        table[key] = (table[key] + index) & 0xFFFF
        total += (index * index) % 7
    return total + table[0]


_PROBE_TABLE = dict.fromkeys(range(64), 0)


class SpeedSampler:
    """Times :func:`probe` every ``interval`` seconds of wall time, on the main thread."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Probe time over :data:`PROBE_REFERENCE_S`, in ``[start, end)`` or overall.

        The probe time is a trimmed mean: the tenth of the probes at either
        end is left out, so that a probe hit by an interrupt or by the
        first touch of a cold cache does not weigh as much as a hundred.
        """
        low, high = (0, len(self.starts)) if start is None else self._window(start, end)
        if high - low < MIN_LOCAL_PROBES:
            low, high = 0, len(self.starts)
        if high == low:
            raise RuntimeError("the speed sampler took no samples")
        durations = sorted(self.durations[low:high])
        cut = len(durations) // 10
        kept = durations[cut:len(durations) - cut]
        return sum(kept) / len(kept) / PROBE_REFERENCE_S

    def reference_seconds(self, start: float, end: float) -> float:
        """The work time of ``[start, end)`` (probes taken out) at the reference speed."""
        low, high = self._window(start, end)
        work = (end - start) - sum(self.durations[low:high])
        return work / self.slowdown(start, end)
