"""NetRuntime: the unchanged Process objects over real localhost sockets.

``runtime="net-tcp"`` runs here. The protocol layer cannot tell this
runtime from :class:`repro.sim.runtime.Runtime`: the same
:class:`Process` objects receive the same :class:`Context` capability
object (imported from ``repro.sim.process``), the same
:class:`~repro.sim.network.Network` keeps uid/batch/counter bookkeeping,
and the run ends in the same :class:`~repro.sim.runtime.RunResult` with
the kernel's quiesce taxonomy. What changes is *who decides delivery
order*: every node is a live asyncio task behind a :class:`Router`
(defined here, its only user), every protocol message crosses a
:class:`~repro.net.tcp.TcpTransport` socket after a
:class:`~repro.net.latency.LatencyModel` delay, and messages are
delivered in the order they come off the wire.

Arrival order is real-world, so TCP runs are not byte-reproducible; only
payoffs and outcome taxonomy are comparable to the kernel (invariant 9).
Deterministic ``runtime="net"`` runs do not come here: they are kernel
runs under :class:`~repro.sim.scheduler.LatencyScheduler`.

Telemetry (per-edge delivery latency, in-flight depth, delivered counts)
goes through ``repro.obs`` strictly out-of-band per invariant 8: metrics
are bumped after delivery bookkeeping exists and never feed back into the
run.
"""

from __future__ import annotations

import asyncio
from contextlib import ExitStack
from typing import Any, Optional, Union

from repro.errors import SimulationError, StepLimitExceeded
from repro.faults.injector import injector_for
from repro.net.latency import LatencyModel, latency_from_name
from repro.net.tcp import TcpTransport
from repro.obs.metrics import registry as obs_registry
from repro.obs.tracing import span as obs_span
from repro.sim.network import Network, START_SIGNAL
from repro.sim.process import Context, Process
from repro.sim.runtime import ENVIRONMENT_PID, RunResult
from repro.sim.trace import Trace, TraceEvent
from repro.utils.rng import RngTree


class Router:
    """Per-process inbox queues plus the serialized done-token channel.

    Wires :class:`NetRuntime` in the HoneyBadgerMPC ``test_router`` idiom:
    every node owns an inbox queue, a central dispatcher hands it each
    message that arrived off a socket, and the node tasks are plain
    consumers. Each delivery is a serialized handshake — the dispatcher
    enqueues the message and *awaits* the node's done token before taking
    the next one — so handler side effects (sends, outputs, halts) never
    interleave even though every node runs as its own asyncio task.
    """

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


class NetRuntime:
    """Run processes to completion as asyncio tasks over localhost TCP.

    Mirrors the :class:`~repro.sim.runtime.Runtime` constructor where the
    concepts coincide; ``scheduler``/``timing`` are replaced by
    ``latency`` (a model instance or a ``latency_from_name`` string), and
    ``time_scale`` turns its virtual units into wall seconds.
    """

    def __init__(
        self,
        processes: dict[int, Process],
        latency: Union[LatencyModel, str, None] = None,
        seed: int = 0,
        step_limit: int = 2_000_000,
        mediator_pid: Optional[int] = None,
        record_payloads: bool = False,
        raise_on_step_limit: bool = True,
        rng_namespace: str = "proc",
        record_trace: bool = True,
        time_scale: float = 0.0005,
        idle_timeout_s: float = 30.0,
        faults: Any = None,
    ) -> None:
        if not processes:
            raise SimulationError("need at least one process")
        if latency is None:
            latency = LatencyModel()
        elif isinstance(latency, str):
            latency = latency_from_name(latency)
        self.processes = dict(processes)
        self.latency = latency
        self.seed = seed
        self.step_limit = step_limit
        self.mediator_pid = mediator_pid
        self.raise_on_step_limit = raise_on_step_limit
        self.rng_namespace = rng_namespace
        self._time_scale = time_scale
        self._idle_timeout_s = idle_timeout_s
        self._faults = injector_for(faults)

        self.network = Network()
        self.trace = Trace(record_payloads=record_payloads)
        self._trace_on = record_trace
        self._contexts: dict[int, Context] = {}
        self.outputs: dict[int, Any] = {}
        self.halted: set[int] = set()
        self.started: set[int] = set()
        self._rng_tree = RngTree(seed)
        self._rngs: dict[int, Any] = {}
        self._step = 0
        self._env_sent = 0
        self._transport = None
        self._router: Optional[Router] = None

    # -- services used by Context (same capability surface as the kernel) --

    def rng_for(self, pid: int):
        if pid not in self._rngs:
            self._rngs[pid] = self._rng_tree.child(self.rng_namespace, pid).rng
        return self._rngs[pid]

    def _context(self, pid: int, batch: int) -> Context:
        ctx = self._contexts.get(pid)
        if ctx is None:
            ctx = Context(self, pid, self._step, batch)
            self._contexts[pid] = ctx
        else:
            ctx.step = self._step
            ctx._batch = batch
        return ctx

    def _send_from(
        self, sender: int, recipient: int, payload: Any, batch: int
    ) -> None:
        if recipient not in self.processes:
            raise SimulationError(f"send to unknown process {recipient}")
        faults = self._faults
        if faults is not None and faults.replaying:
            # Inbox replay after a crash-restart: the pre-crash activations
            # already put these sends on the wire.
            return
        msg = self.network.send(sender, recipient, payload, self._step, batch)
        if self._trace_on:
            self.trace.add(
                TraceEvent(
                    step=self._step,
                    kind="send",
                    pid=sender,
                    sender=sender,
                    recipient=recipient,
                    uid=msg.uid,
                    payload=payload if self.trace.record_payloads else None,
                )
            )
        if recipient in self.halted:
            self.network.drop(msg.uid)
            return
        if faults is not None:
            fate, arg = faults.fate(sender, recipient, self._step)
            if fate == "hold":
                faults.hold(arg, self.network.withdraw(msg.uid))
                return
            if fate == "drop":
                self.network.drop(msg.uid)
                if self._trace_on:
                    self.trace.add(
                        TraceEvent(
                            step=self._step,
                            kind="drop",
                            pid=recipient,
                            sender=sender,
                            recipient=recipient,
                            uid=msg.uid,
                        )
                    )
                return
            copies = arg
        else:
            copies = 1
        self._transport.post(
            msg, self.latency.delay(sender, recipient, self._transport.now)
        )
        for _ in range(copies - 1):
            dup = self.network.send(
                sender, recipient, payload, self._step, batch
            )
            if self._trace_on:
                self.trace.add(
                    TraceEvent(
                        step=self._step,
                        kind="send",
                        pid=sender,
                        sender=sender,
                        recipient=recipient,
                        uid=dup.uid,
                        payload=(
                            payload if self.trace.record_payloads else None
                        ),
                    )
                )
            self._transport.post(
                dup, self.latency.delay(sender, recipient, self._transport.now)
            )

    def _record_output(self, pid: int, action: Any) -> None:
        if self._faults is not None and self._faults.replaying:
            # The pre-crash activation already recorded this output.
            return
        if pid in self.outputs:
            raise SimulationError(f"process {pid} attempted to output twice")
        self.outputs[pid] = action
        if self._trace_on:
            self.trace.add(
                TraceEvent(step=self._step, kind="output", pid=pid,
                           payload=action)
            )

    def _record_halt(self, pid: int) -> None:
        if pid in self.halted:
            return
        self.halted.add(pid)
        if self._trace_on:
            self.trace.add(TraceEvent(step=self._step, kind="halt", pid=pid))
        self.network.discard_to({pid})

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> RunResult:
        """Run to quiescence; synchronous facade over the event loop.

        Must be called from outside any running event loop (it owns one
        via ``asyncio.run``), which is how every experiment-layer caller
        and pool worker invokes runtimes today.
        """
        with obs_span(
            "net-run",
            transport=TcpTransport.name,
            latency=self.latency.name,
            n=len(self.processes),
        ):
            return asyncio.run(self._run())

    async def _run(self) -> RunResult:
        self.latency.reset(self.seed)
        faults = self._faults
        if faults is not None:
            faults.reset(self.seed, self.processes)
        self._transport = transport = TcpTransport(
            time_scale=self._time_scale,
            idle_timeout_s=self._idle_timeout_s,
            seed=self.seed,
            faults=self._faults,
        )
        self._router = router = Router(self.processes)
        metrics = obs_registry()
        all_pids = set(self.processes)
        await transport.start(sorted(self.processes), self.network)
        tasks: list[asyncio.Task] = []
        try:
            with ExitStack() as stack:
                for pid in sorted(self.processes):
                    task = asyncio.create_task(
                        self._node_main(pid, router.inbox(pid)),
                        name=f"net-node-{pid}",
                    )
                    stack.callback(task.cancel)
                    tasks.append(task)
                self._inject_start_signals()
                while True:
                    if self._step >= self.step_limit:
                        if self.raise_on_step_limit:
                            raise StepLimitExceeded(
                                f"no quiescence after {self.step_limit} "
                                f"steps (transport {transport.name})"
                            )
                        break
                    if self.halted >= all_pids:
                        break
                    if faults is not None:
                        due = faults.due_events(self._step)
                        if due:
                            await self._apply_fault_events(due)
                            if self.halted >= all_pids:
                                break
                    delivery = await transport.next_delivery(self.network)
                    if delivery is None:
                        if faults is not None and await self._advance_faults():
                            continue
                        break  # quiesced: nothing left in flight
                    uid, override, observed_delay = delivery
                    if self.network.get(uid) is None:
                        # Withdrawn while in flight (recipient crashed):
                        # the frame arrived but the message no longer
                        # exists — the injector holds or dropped it.
                        continue
                    await self._deliver(
                        uid, override, router, metrics, observed_delay
                    )
        finally:
            await transport.stop()
            # Contexts point back at this runtime; see Runtime.run.
            self._contexts.clear()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

        live = set(self.processes) - self.halted
        deadlocked = bool(live) and len(self.network) == 0
        wills = {}
        for pid in sorted(live):
            if pid not in self.outputs and pid != self.mediator_pid:
                wills[pid] = self.processes[pid].on_deadlock(pid)
        return RunResult(
            outputs=dict(self.outputs),
            halted=set(self.halted),
            live=live,
            deadlocked=deadlocked,
            wills=wills,
            trace=self.trace,
            steps=self._step,
            messages_sent=self.network.total_sent,
            messages_delivered=self.network.total_delivered,
            messages_dropped=self.network.total_dropped,
            env_messages=self._env_sent,
        )

    # -- fault application (mirrors the kernel's, plus socket lifecycles) ----

    async def _apply_fault_events(self, events) -> None:
        faults = self._faults
        for event in events:
            if event.kind == "crash":
                await self._apply_crash(event.pid)
            elif event.kind == "restart":
                await self._apply_restart(event.pid)
            else:  # heal
                faults.mark_healed(event.index)
                self._release_and_post(("heal", event.index))

    async def _apply_crash(self, pid: int) -> None:
        faults = self._faults
        if pid in self.halted:
            return  # halted on its own before the fault arrived
        if self._trace_on:
            self.trace.add(TraceEvent(step=self._step, kind="crash", pid=pid))
        await self._transport.kill_node(pid)
        if faults.is_restart_target(pid):
            faults.go_down(pid)
            for msg in self.network.withdraw_to(pid):
                faults.hold(("restart", pid), msg)
        else:
            self._record_halt(pid)

    async def _apply_restart(self, pid: int) -> None:
        """Same recovery semantics as the kernel: pristine copy, inbox
        replay with sends/outputs suppressed, held messages reposted."""
        faults = self._faults
        process = faults.restore(pid)
        if process is None:
            return  # the crash never fired; nothing to recover
        self.processes[pid] = process
        self.started.discard(pid)
        if self._trace_on:
            self.trace.add(
                TraceEvent(step=self._step, kind="restart", pid=pid)
            )
        await self._transport.revive_node(pid)
        faults.replaying = True
        try:
            for sender, payload in faults.inbox_log.get(pid, ()):
                if pid in self.halted:
                    break
                batch = self.network.new_batch()
                ctx = self._context(pid, batch)
                if pid not in self.started:
                    self.started.add(pid)
                    process.on_start(ctx)
                if payload == START_SIGNAL and sender == ENVIRONMENT_PID:
                    continue
                process.on_message(ctx, sender, payload)
        finally:
            faults.replaying = False
        if pid in self.halted:
            faults.release(("restart", pid))
            return  # replay re-halted it; its held messages die with it
        self._release_and_post(("restart", pid))

    def _release_and_post(self, key: tuple) -> None:
        """Reinstate held messages and put them back on the wire."""
        released = self._faults.release(key)
        if not released:
            return
        self.network.reinstate(released)
        stale = {m.recipient for m in released} & self.halted
        if stale:
            self.network.discard_to(stale)
        for msg in sorted(released, key=lambda m: m.uid):
            if msg.recipient in stale:
                continue
            self._transport.post(
                msg,
                self.latency.delay(
                    msg.sender, msg.recipient, self._transport.now
                ),
            )

    async def _advance_faults(self) -> bool:
        """Quiesce pull-forward: fire the earliest pending recovery when
        nothing is left in flight (crashes never fire early)."""
        event = self._faults.pop_recovery()
        if event is None:
            return False
        await self._apply_fault_events([event])
        return True

    # -- internals -----------------------------------------------------------

    def _inject_start_signals(self) -> None:
        for pid in sorted(self.processes):
            batch = self.network.new_batch()
            msg = self.network.send(
                ENVIRONMENT_PID, pid, START_SIGNAL, 0, batch
            )
            self._env_sent += 1
            self._transport.post(
                msg,
                self.latency.delay(ENVIRONMENT_PID, pid, self._transport.now),
            )

    async def _deliver(
        self,
        uid: int,
        override: tuple,
        router: Router,
        metrics,
        observed_delay: float,
    ) -> None:
        msg = self.network.deliver(uid)
        self._step += 1
        if self._trace_on:
            self.trace.add(
                TraceEvent(
                    step=self._step,
                    kind="deliver",
                    pid=msg.recipient,
                    sender=msg.sender,
                    recipient=msg.recipient,
                    uid=msg.uid,
                    payload=(
                        msg.payload if self.trace.record_payloads else None
                    ),
                )
            )
        if msg.recipient not in self.halted:
            payload = override[0] if override else msg.payload
            if self._faults is not None:
                self._faults.log_delivery(msg.recipient, msg.sender, payload)
            await router.dispatch(msg.recipient, (msg, payload))
        self._observe_delivery(metrics, msg, observed_delay)

    async def _node_main(self, pid: int, inbox: asyncio.Queue) -> None:
        """One per-node consumer task: activate the process per delivery."""
        finish = self._router.finish
        while True:
            msg, payload = await inbox.get()
            try:
                self._activate(pid, msg, payload)
            except Exception as exc:
                finish(exc)
            else:
                finish(None)

    def _activate(self, pid: int, msg, payload: Any) -> None:
        """The kernel's post-delivery activation sequence, verbatim."""
        process = self.processes[pid]
        batch = self.network.new_batch()
        ctx = self._context(pid, batch)
        if pid not in self.started:
            self.started.add(pid)
            if self._trace_on:
                self.trace.add(
                    TraceEvent(step=self._step, kind="start", pid=pid)
                )
            process.on_start(ctx)
        if payload == START_SIGNAL and msg.sender == ENVIRONMENT_PID:
            return
        if pid in self.halted:
            return
        process.on_message(ctx, msg.sender, payload)

    def _observe_delivery(self, metrics, msg, observed_delay: float) -> None:
        """Out-of-band telemetry (invariant 8): after the fact, no feedback."""
        metrics.counter(
            "repro_net_delivered_total",
            "Messages delivered by the real-network substrate.",
        ).inc(transport=TcpTransport.name)
        metrics.histogram(
            "repro_net_delivery_delay",
            "Per-edge in-flight delay, in virtual latency units.",
        ).observe(
            observed_delay,
            transport=TcpTransport.name,
            edge=f"{msg.sender}->{msg.recipient}",
        )
        metrics.gauge(
            "repro_net_in_flight",
            "Messages currently in flight on the net substrate.",
        ).set(float(len(self.network)), transport=TcpTransport.name)
