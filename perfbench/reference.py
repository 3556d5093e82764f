"""The benchmark's clock, and a gauge of how fast the host runs.

On a shared host the same program can take 1.6 times as long in one
second as in the next, in CPU time as well as in wall time.  So while a
unit runs, a :class:`Gauge` times a fixed pure-Python :func:`snippet`
every :data:`GAUGE_INTERVAL` of CPU time, from a ``SIGPROF`` handler.
The samples are spread over the unit, slow and fast stretches alike,
and the benchmark reports the unit's CPU time (without the samples)
over their mean, stalled samples left out.  The snippet is the benchmark's own code: it imports
nothing from the program, so a change to the program moves the ratio
and a change of host speed does not.

The snippet has the shape of a cycle loop like the simulator's: objects
with slots ticked in turn, queues, tuple keys counted in a dict.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from time import thread_time
from typing import Any, List, Optional

#: the benchmark's clock: CPU seconds (user + system) of the calling
#: thread, which is the only one the benchmark runs.  Not
#: ``process_time``: while a process CPU timer such as the gauge's is
#: armed, Linux answers the process clock from tick-granular samples.
clock = thread_time

SNIPPET_CYCLES = 40
SNIPPET_PORTS = 64
#: what the snippet returns: a check that it ran the same way every time
SNIPPET_RESULT = 3_128
#: CPU seconds of the program between two samples
GAUGE_INTERVAL = 0.02
#: a sample this many times the median one was stalled (the host held
#: the thread inside it, once up to 35 ms against 2.4 ms) and says
#: nothing of speed; the mean leaves it out
STALL_FACTOR = 4.0
#: the snippet's CPU time on a quiet host, about; ``setup_s`` is given
#: in seconds of a host that runs the snippet in this time
REFERENCE_SECONDS = 0.001


class _Port:
    __slots__ = ("name", "queue", "peer", "sent", "seen")

    def __init__(self, name: str):
        self.name = name
        self.queue: deque = deque()
        self.peer: "_Port" = self
        self.sent = 0
        self.seen: dict = {}

    def tick(self, cycle: int) -> None:
        if self.queue:
            dst, size = self.queue.popleft()
            self.peer.accept(self.name, dst, size, cycle)
            self.sent += 1

    def accept(self, src: str, dst: str, size: int, cycle: int) -> None:
        key = (src, dst)
        self.seen[key] = self.seen.get(key, 0) + size
        self.queue.append((src, size + (cycle & 7)))


def snippet() -> int:
    """Pass messages round a fixed ring of ports; returns a checksum."""
    ports = [_Port(f"p{i}") for i in range(SNIPPET_PORTS)]
    for i, port in enumerate(ports):
        port.peer = ports[(i * 37 + 11) % SNIPPET_PORTS]
        for j in range(8):
            port.queue.append((f"p{(i + j) % SNIPPET_PORTS}", 16 << (j % 4)))
    for cycle in range(SNIPPET_CYCLES):
        for port in ports:
            port.tick(cycle)
    return sum(p.sent for p in ports) + sum(len(p.seen) for p in ports)


class Gauge:
    """Times :func:`snippet` every :data:`GAUGE_INTERVAL` of process
    CPU time between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        #: CPU seconds of each sample
        self.samples: List[float] = []
        self._previous: Any = None

    def _sample(self, _signum: int, _frame: Optional[Any]) -> None:
        # the collector is off so the program's garbage is not charged
        # to the snippet
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            result = snippet()
            self.samples.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()
        if result != SNIPPET_RESULT:
            raise RuntimeError(f"gauge snippet returned {result}")

    def start(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_INTERVAL, GAUGE_INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @property
    def seconds(self) -> float:
        """CPU seconds of all samples."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Mean CPU seconds of a sample, stalled ones left out (0 before
        the first)."""
        if not self.samples:
            return 0.0
        cut = STALL_FACTOR * statistics.median(self.samples)
        kept = [s for s in self.samples if s <= cut]
        return sum(kept) / len(kept)
