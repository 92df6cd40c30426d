"""The in-memory wire behind ``runtime="net"``.

:class:`MemoryTransport` is the latency-ordered heap the kernel's
:class:`~repro.sim.scheduler.LatencyScheduler` delivers from. It is plain
synchronous code, so kernel net runs load no asyncio; the TCP runtime's
asyncio :class:`~repro.net.runtime.Router` lives beside
:class:`~repro.net.runtime.NetRuntime`, its only user.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional


class MemoryTransport:
    """The in-memory wire: a virtual-clock heap of in-flight messages.

    :class:`~repro.sim.scheduler.LatencyScheduler` owns one per run.
    ``post`` schedules a uid at ``now + delay``; ``pop`` hands back the
    earliest entry whose uid is still in transit and advances the clock to
    its arrival. The ``(arrival, post order)`` key makes zero-latency runs
    replay global send order — the fifo schedule — byte for byte.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0.0

    def post(self, uid: int, delay: float) -> None:
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, uid))

    def pop(self, in_transit) -> Optional[int]:
        """The earliest uid with ``in_transit(uid)`` true, or None.

        Entries whose message has left the pool (dropped, delivered
        through an older entry, or withdrawn by a fault) are discarded.
        """
        heap = self._heap
        while heap:
            arrival, _seq, uid = heappop(heap)
            if in_transit(uid):
                self.now = arrival
                return uid
        return None
