"""Host times rescaled to a fixed reference speed.

On a shared host the speed of a vCPU drifts: a fixed pure-Python loop
takes from 1.0x to 1.7x its fastest time, changing over a few seconds
and again over minutes, in CPU time as well as wall time.  Raw times of
the same work then spread by 20-35% between runs.

:class:`SpeedClock` follows the drift.  Once started, a ``SIGALRM``
handler times a short fixed reference loop (:func:`reference`) every
``INTERVAL_S``, in the measured process, between the program's own
bytecodes, and in every pool worker forked from it.
:meth:`SpeedClock.seconds` then rescales each stretch of the program's
work between two samples by ``REF_S / t``, where ``t`` is the median CPU
time of the reference samples taken around that stretch: a stretch
measured while the host ran at half speed counts half.  The handler's
own time is left out.  The result is the work's host time at the speed
at which the reference takes ``REF_S`` seconds, which is about the
fastest this loop runs on the 2-vCPU Xeon (2.0 GHz) sandbox where the
benchmark was written.  Raw times are reported next to it.

The reference loop is fixed code of the benchmark, so a change to the
program moves the rescaled time as much as it moves the raw time.  The
reference costs about 3% of each sampled process's time.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import signal
import statistics
import struct
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple

#: Seconds between reference samples.
INTERVAL_S = 0.05
#: CPU time of one reference loop at the reference speed.
REF_S = 0.0011

Sample = Tuple[float, float, float]
_RECORD = struct.Struct("<ddd")

_KEYS = list(range(256))
random.Random(0).shuffle(_KEYS)


def reference() -> int:
    """A fixed mix of dict, integer and sort work (about 1 ms)."""
    table = {}
    total = 0
    for _ in range(28):
        for key in _KEYS:
            table[key & 63] = key
            total += table.get(key ^ 1, 0) & 7
    return total + sorted(_KEYS)[0]


class SpeedClock:
    """Samples the reference loop's speed while the program runs.

    With ``share``, every process forked from this one (the sweep
    engine's pool workers) samples its own speed too and appends each
    sample to a file under ``share``; :meth:`collect` reads them back.
    """

    def __init__(self, share: Optional[Path] = None) -> None:
        #: ``(start, end, cpu_s)`` of each reference sample, monotonic clock.
        self.samples: List[Sample] = []
        #: Samples of forked processes, after :meth:`collect`.
        self.foreign: List[Sample] = []
        self.share = share
        self._running = False
        self._fd: Optional[int] = None
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        cpu = time.thread_time()
        reference()
        cpu = time.thread_time() - cpu
        sample = (start, time.monotonic(), cpu)
        if self._fd is None:
            self.samples.append(sample)
        else:
            os.write(self._fd, _RECORD.pack(*sample))
        if collecting:
            gc.enable()

    def _forked(self) -> None:
        self.samples = []
        if self._running and self.share is not None:
            path = self.share / str(os.getpid())
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        if self.share is not None:
            self.share.mkdir(parents=True, exist_ok=True)
            os.register_at_fork(after_in_child=self._forked)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False

    def collect(self) -> None:
        """Read the samples that forked processes wrote under ``share``."""
        if self.share is None or not self.share.is_dir():
            return
        for path in sorted(self.share.iterdir()):
            data = path.read_bytes()
            usable = len(data) - len(data) % _RECORD.size
            self.foreign += [tuple(r) for r in _RECORD.iter_unpack(data[:usable])]

    def raw_seconds(self, begin: float, end: float) -> float:
        """Monotonic seconds in ``[begin, end]`` outside this process's samples."""
        inside = sum(
            max(0.0, min(stop, end) - max(start, begin))
            for start, stop, _cpu in self.samples
        )
        return end - begin - inside

    def seconds(self, begin: float, end: float) -> float:
        """Work time in ``[begin, end]`` at the reference speed.

        The work is the time outside this process's samples.  Each
        stretch of it between two of them is weighted by the median
        speed of the samples of every process that started from
        ``INTERVAL_S`` before the stretch to its end: in one process,
        the samples on either side of it.
        """
        if not self.samples:
            return end - begin
        every = sorted(self.samples + self.foreign)
        starts = [start for start, _stop, _cpu in every]
        total = 0.0
        cursor = begin
        for start, stop, _cpu in self.samples + [(end, end, 0.0)]:
            if stop <= cursor:
                continue
            left, right = cursor, min(start, end)
            if right > left:
                total += (right - left) * self._speed(every, starts, left, right)
            cursor = stop
            if cursor >= end:
                break
        return total

    @staticmethod
    def _speed(
        every: List[Sample], starts: List[float], left: float, right: float
    ) -> float:
        lo = bisect.bisect_left(starts, left - INTERVAL_S)
        hi = bisect.bisect_right(starts, right)
        if lo == hi:  # no sample near: the nearest one
            lo = min(lo, len(every) - 1)
            if lo > 0 and left - every[lo - 1][1] < every[lo][0] - right:
                lo -= 1
            hi = lo + 1
        return statistics.median(REF_S / cpu for _s, _e, cpu in every[lo:hi])

    def speed(self) -> float:
        """Median reference speed of the samples, 1.0 at ``REF_S``."""
        cpus = [cpu for _s, _e, cpu in self.samples + self.foreign]
        return REF_S / statistics.median(cpus) if cpus else 1.0
