"""Real-socket transport: asyncio TCP on localhost behind the Router API.

Every node runs a ``StreamServer`` on ``127.0.0.1`` (OS-assigned port) and
every directed edge opens its own client connection, so each protocol
message genuinely crosses a socket as a CRC-checked, length-prefixed
pickle frame (``len | crc32 | uid | body``). Latency is injected by
delaying the write: a model delay of ``d`` virtual units sleeps
``d * time_scale`` wall seconds before the frame goes out.

Fault injection is physical here: ``kill_node`` closes a node's server
and every socket touching it, ``revive_node`` restarts the server on a
fresh port, and writers re-establish dropped edges through bounded
seeded-jitter exponential backoff (``repro_net_reconnects_total`` /
``repro_net_reconnect_delay`` in obs) instead of failing the run on the
first broken pipe. A ``corrupt-tcp-*`` fault flips body bytes after the
CRC is computed; the receiver detects the mismatch and the message is
dropped — the CRC field never lies about what crossed the wire.

Arrival order is whatever the kernel's scheduler and loop produce — a real
asynchronous adversary — so TCP runs are *not* byte-deterministic; the
conformance contract for them is payoff/outcome equality only (see
``repro.net.conformance``). The central :class:`~repro.sim.network.Network`
bookkeeping is retained: quiescence is ``len(network) == 0``, and an
``idle_timeout_s`` guard turns a wedged transport into a loud
:class:`~repro.errors.NetError` instead of a hung run.
"""

from __future__ import annotations

import asyncio
import pickle
import time
import zlib
from functools import partial
from typing import Optional

from repro.errors import NetError
from repro.obs.metrics import registry as obs_registry
from repro.utils.rng import RngTree

RECONNECT_ATTEMPTS = 5
"""Bounded reconnect budget per frame before the frame counts as lost."""

RECONNECT_BASE_S = 0.05
RECONNECT_CAP_S = 1.0


async def _close(writer: asyncio.StreamWriter) -> None:
    """Close one stream and wait until its socket is released."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass  # the peer went first; the socket is closed all the same


class TcpTransport:
    """Localhost TCP transport: one server per node, one conn per edge."""

    name = "tcp"
    deterministic = False

    def __init__(
        self,
        time_scale: float = 0.0005,
        idle_timeout_s: float = 30.0,
        seed: int = 0,
        faults=None,
    ) -> None:
        if time_scale <= 0:
            raise NetError(f"time_scale must be > 0, got {time_scale}")
        self._time_scale = time_scale
        self._idle_timeout_s = idle_timeout_s
        self._faults = faults
        self._reconnect_rng = RngTree(seed).child("tcp-reconnect").rng
        self._arrived: asyncio.Queue = asyncio.Queue()
        self._servers: dict[int, asyncio.base_events.Server] = {}
        self._ports: dict[int, int] = {}
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        self._serving: set = set()
        """Server-side tasks, one per accepted connection; each closes
        its own stream when the peer hangs up."""
        self._pending: set = set()
        self._sent_at: dict[int, float] = {}
        self._t0: float | None = None
        self._network = None
        self._down: set[int] = set()

    @property
    def now(self) -> float:
        """Elapsed wall time since start, in virtual latency units."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self._time_scale

    async def start(self, pids, network) -> None:
        self._t0 = time.monotonic()
        self._network = network
        for pid in sorted(pids):
            await self._start_server(pid)
        for sender in sorted(pids):
            for recipient in sorted(pids):
                await self._connect_edge(sender, recipient)

    async def _start_server(self, pid: int) -> None:
        server = await asyncio.start_server(
            partial(self._serve_peer, pid), "127.0.0.1", 0
        )
        self._servers[pid] = server
        self._ports[pid] = server.sockets[0].getsockname()[1]

    async def _connect_edge(self, sender: int, recipient: int) -> None:
        _reader, writer = await asyncio.open_connection(
            "127.0.0.1", self._ports[recipient]
        )
        broken = self._writers.get((sender, recipient))
        self._writers[(sender, recipient)] = writer
        if broken is not None:
            await _close(broken)

    async def _serve_peer(self, pid, reader, writer) -> None:
        """Server side of one edge: frames in, arrival queue out."""
        task = asyncio.current_task()
        self._serving.add(task)
        try:
            while True:
                header = await reader.readexactly(4)
                frame = await reader.readexactly(int.from_bytes(header, "big"))
                crc = int.from_bytes(frame[:4], "big")
                uid = int.from_bytes(frame[4:12], "big")
                body = frame[12:]
                if zlib.crc32(body) != crc:
                    self._on_corrupt_frame(uid)
                    continue
                _uid, _sender, _recipient, payload = pickle.loads(body)
                self._arrived.put_nowait((uid, payload))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            await _close(writer)
            self._serving.discard(task)

    def _on_corrupt_frame(self, uid: int) -> None:
        """A frame failed its CRC: the message it carried is lost."""
        obs_registry().counter(
            "repro_net_corrupt_frames_total",
            "TCP frames that failed their CRC check on arrival.",
        ).inc(transport=self.name)
        network = self._network
        if network is not None and uid in network:
            network.drop(uid)
        # Wake next_delivery so it re-checks quiescence instead of idling
        # out on a message that will never arrive.
        self._arrived.put_nowait((None, None))

    def post(self, msg, delay: float) -> None:
        self._sent_at[msg.uid] = time.monotonic()
        if msg.sender < 0:
            # Environment-injected start signals have no socket peer (the
            # environment is the dispatcher itself): loop back locally,
            # still honouring the injected delay.
            coro = self._arrive_later(
                msg.uid, msg.payload, delay * self._time_scale
            )
        else:
            body = pickle.dumps(
                (msg.uid, msg.sender, msg.recipient, msg.payload),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            crc = zlib.crc32(body)
            if self._faults is not None and self._faults.corrupts(
                msg.sender, msg.recipient
            ):
                # Flip a byte *after* the CRC is computed: the receiver's
                # check fails and the frame is discarded on arrival.
                body = bytes([body[0] ^ 0xFF]) + body[1:]
            frame = (
                crc.to_bytes(4, "big")
                + msg.uid.to_bytes(8, "big")
                + body
            )
            coro = self._write_later(
                msg.sender, msg.recipient, msg.uid, frame,
                delay * self._time_scale,
            )
        task = asyncio.get_running_loop().create_task(coro)
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def _arrive_later(self, uid, payload, seconds: float) -> None:
        if seconds > 0:
            await asyncio.sleep(seconds)
        self._arrived.put_nowait((uid, payload))

    async def _write_later(
        self, sender: int, recipient: int, uid: int, frame: bytes,
        seconds: float,
    ) -> None:
        if seconds > 0:
            await asyncio.sleep(seconds)
        data = len(frame).to_bytes(4, "big") + frame
        attempt = 0
        while True:
            writer = self._writers.get((sender, recipient))
            try:
                if writer is None or writer.is_closing():
                    raise ConnectionResetError("edge not connected")
                # One write call per frame: StreamWriter.write appends the
                # whole bytes object to the transport buffer atomically, so
                # concurrent delayed sends on the same edge never
                # interleave mid-frame.
                writer.write(data)
                await writer.drain()
                return
            except (ConnectionError, OSError):
                attempt += 1
                if attempt > RECONNECT_ATTEMPTS:
                    self._on_undeliverable(uid)
                    return
                backoff = min(
                    RECONNECT_BASE_S * 2 ** (attempt - 1), RECONNECT_CAP_S
                )
                # Seeded jitter in [0.5, 1.5) of the exponential step so
                # reconnect storms across edges decorrelate repeatably.
                backoff *= 0.5 + self._reconnect_rng.random()
                metrics = obs_registry()
                metrics.counter(
                    "repro_net_reconnects_total",
                    "TCP edge reconnect attempts after a broken connection.",
                ).inc(transport=self.name, edge=f"{sender}->{recipient}")
                metrics.histogram(
                    "repro_net_reconnect_delay",
                    "Backoff slept before a TCP reconnect attempt, seconds.",
                ).observe(
                    backoff, transport=self.name,
                    edge=f"{sender}->{recipient}",
                )
                await asyncio.sleep(backoff)
                try:
                    await self._connect_edge(sender, recipient)
                except OSError:
                    continue

    def _on_undeliverable(self, uid: int) -> None:
        """Reconnect budget exhausted: the frame (and message) is lost."""
        obs_registry().counter(
            "repro_net_undeliverable_total",
            "TCP frames abandoned after the reconnect budget ran out.",
        ).inc(transport=self.name)
        network = self._network
        if network is not None and uid in network:
            network.drop(uid)
        self._arrived.put_nowait((None, None))

    # -- fault hooks ---------------------------------------------------------

    async def kill_node(self, pid: int) -> None:
        """Physically take a node off the network: close its server and
        every established socket that touches it."""
        self._down.add(pid)
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for edge in [e for e in self._writers if pid in e]:
            await _close(self._writers.pop(edge))

    async def revive_node(self, pid: int) -> None:
        """Bring a killed node back: fresh server, fresh port; edges are
        re-established lazily by the reconnect path."""
        self._down.discard(pid)
        await self._start_server(pid)

    async def next_delivery(self, network):
        """``(uid, (wire_payload,), observed_delay)`` or None at quiesce.

        The payload that actually crossed the socket is handed back as the
        delivery override, so the protocol runs on wire bytes, not on the
        local object the sender kept.
        """
        while len(network):
            try:
                uid, payload = await asyncio.wait_for(
                    self._arrived.get(), self._idle_timeout_s
                )
            except asyncio.TimeoutError:
                raise NetError(
                    f"tcp transport made no progress for "
                    f"{self._idle_timeout_s}s with {len(network)} messages "
                    f"in transit"
                ) from None
            if uid is None:
                continue  # wake-up sentinel: re-check quiescence
            sent = self._sent_at.pop(uid, None)
            if uid not in network:
                continue  # dropped (recipient halted) while in flight
            observed = (
                0.0
                if sent is None
                else (time.monotonic() - sent) / self._time_scale
            )
            return uid, (payload,), observed
        return None

    async def stop(self) -> None:
        """Cancel queued writes, then close every socket and await it.

        Closing the client side of each edge ends the server side's read
        loop, which closes that stream in turn."""
        for task in list(self._pending):
            task.cancel()
        if self._pending:
            await asyncio.gather(*self._pending, return_exceptions=True)
        writers = list(self._writers.values())
        self._writers.clear()
        await asyncio.gather(*(_close(writer) for writer in writers))
        for server in self._servers.values():
            server.close()
        if self._servers:
            await asyncio.gather(
                *(server.wait_closed() for server in self._servers.values()),
                return_exceptions=True,
            )
        if self._serving:
            await asyncio.gather(*self._serving, return_exceptions=True)
