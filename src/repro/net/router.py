"""Message routing: the TCP substrate's node inboxes, the in-memory wire.

:class:`Router` wires :class:`~repro.net.runtime.NetRuntime` in the
HoneyBadgerMPC ``test_router`` idiom: every node owns an inbox queue, a
central dispatcher hands it each message that arrived off a socket, and
the node tasks are plain consumers. Each delivery is a serialized
handshake — the dispatcher enqueues the message and *awaits* the node's
done token before taking the next one — so handler side effects (sends,
outputs, halts) never interleave even though every node runs as its own
asyncio task.

:class:`MemoryTransport` is the synchronous in-memory wire behind
``runtime="net"``: the latency-ordered heap the kernel's
:class:`~repro.sim.scheduler.LatencyScheduler` delivers from.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from typing import Optional


class Router:
    """Per-process inbox queues plus the serialized done-token channel."""

    def __init__(self, pids) -> None:
        self._inboxes = {pid: asyncio.Queue() for pid in sorted(pids)}
        self._done: asyncio.Queue = asyncio.Queue()

    def inbox(self, pid: int) -> asyncio.Queue:
        return self._inboxes[pid]

    async def dispatch(self, pid: int, item) -> None:
        """Hand ``item`` to node ``pid`` and wait for its activation to end.

        Re-raises whatever the node's handler raised, so protocol errors
        propagate out of the run loop exactly like in the simulated kernel.
        """
        self._inboxes[pid].put_nowait(item)
        error = await self._done.get()
        if error is not None:
            raise error

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Node side: signal the current activation completed (or failed)."""
        self._done.put_nowait(error)


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
