"""The simulation kernel: one event loop, pluggable timing models.

The loop generalises the paper's alternation: a
:class:`~repro.sim.timing.TimingModel` decides which in-transit messages
are currently *eligible*; the environment (scheduler) chooses one of them
to deliver; the recipient is activated with it; the recipient's sends join
the in-transit pool; repeat. With the default :class:`Asynchronous` model
every message is always eligible and the loop is exactly the paper's
Section 2 game against the environment. :class:`LockStep` restricts
eligibility to synchronous rounds (the R1/R2 baseline —
``repro.sim.sync.SyncRuntime`` is a thin adapter over this kernel), and
:class:`BoundedDelay` gives partial synchrony with an explicit delay bound
and GST. Start signals are modelled as synthetic environment messages so
that "a player is told the game started when first scheduled" falls out of
the same mechanism; timing models may additionally fire *ticks*
(:meth:`Process.on_tick`) at virtual-time boundaries.

Termination taxonomy of a run (identical across timing models):

* *quiesced* — no deliverable messages remain and the timing model cannot
  advance (every protocol either halted or is waiting forever on nothing;
  with non-relaxed schedulers this only happens when no one will ever send
  again);
* *deadlocked* — a relaxed scheduler stopped delivering (Lemma 6.10
  situation) or quiescence was reached with live processes remaining;
  the AH-approach *wills* of live processes are collected in the result;
* *step-limited* — the step budget ran out (raises
  :class:`StepLimitExceeded` unless ``raise_on_step_limit=False``).

The all-or-none rule for mediator batches under relaxed schedulers is
enforced here: if any message of a batch sent by the mediator was delivered,
the rest of that batch is force-delivered before the run is allowed to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SchedulerError, SimulationError, StepLimitExceeded
from repro.faults.injector import injector_for
from repro.sim.network import Message, Network, START_SIGNAL, TransitView
from repro.sim.process import Context, Process
from repro.sim.scheduler import Scheduler
from repro.sim.timing import Asynchronous, TimingModel
from repro.sim.trace import Trace, TraceEvent
from repro.utils.rng import RngTree

ENVIRONMENT_PID = -1
"""Synthetic sender id for start signals."""


@dataclass
class RunResult:
    """Everything observable about one completed run."""

    outputs: dict[int, Any]
    halted: set[int]
    live: set[int]
    deadlocked: bool
    wills: dict[int, Any]
    trace: Trace
    steps: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    env_messages: int = 0
    """How many of ``messages_sent`` were environment-injected signals
    (start signals): ``messages_sent - env_messages`` is the protocol's own
    traffic."""

    def output_profile(self, pids: list[int], missing: Any = None) -> tuple:
        """Outputs as a tuple ordered by ``pids`` (``missing`` if absent)."""
        return tuple(self.outputs.get(pid, missing) for pid in pids)


class Runtime:
    """Run a set of processes to completion under a scheduler.

    ``timing`` selects the network model (default
    :class:`~repro.sim.timing.Asynchronous`); the same processes, scheduler,
    and seed under a different timing model give the controlled comparisons
    the paper's R1-vs-Theorem-4.1 discussion is about.
    """

    def __init__(
        self,
        processes: dict[int, Process],
        scheduler: Scheduler,
        seed: int = 0,
        step_limit: int = 2_000_000,
        mediator_pid: Optional[int] = None,
        record_payloads: bool = False,
        raise_on_step_limit: bool = True,
        timing: Optional[TimingModel] = None,
        rng_namespace: str = "proc",
        record_trace: bool = True,
        faults: Any = None,
    ) -> None:
        if not processes:
            raise SimulationError("need at least one process")
        self.processes = dict(processes)
        self.scheduler = scheduler
        self.timing = timing if timing is not None else Asynchronous()
        self.seed = seed
        self.step_limit = step_limit
        self.mediator_pid = mediator_pid
        self.raise_on_step_limit = raise_on_step_limit
        self.rng_namespace = rng_namespace
        self._faults = injector_for(faults)

        self.network = Network()
        # Pure Asynchronous timing has no-op observation hooks and an
        # eligibility pool that is always the whole in-transit view; the
        # loop skips those calls entirely on this (dominant) fast path.
        # Exact type check: a subclass may override any hook.
        self._timing_passive = type(self.timing) is Asynchronous
        self.trace = Trace(record_payloads=record_payloads)
        self._trace_on = record_trace
        """``record_trace=False`` skips event recording entirely (the trace
        stays empty). Runs are otherwise bit-identical — counters come from
        the network — so batch sweeps that never read traces opt out of
        per-message event construction."""
        self._contexts: dict[int, Context] = {}
        self.outputs: dict[int, Any] = {}
        self.halted: set[int] = set()
        self.started: set[int] = set()
        self._rng_tree = RngTree(seed)
        self._rngs: dict[int, Any] = {}
        self._step = 0
        self._env_sent = 0
        self._mediator_batches: set[int] = set()
        self._delivered_mediator_batches: set[int] = set()
        """Mediator batches with a delivered message: the only batches the
        all-or-none rule asks about, so the only ones worth recording."""

    # -- services used by Context -------------------------------------------

    def rng_for(self, pid: int):
        if pid not in self._rngs:
            self._rngs[pid] = self._rng_tree.child(self.rng_namespace, pid).rng
        return self._rngs[pid]

    def _context(self, pid: int, batch: int) -> Context:
        """The per-pid activation context, refreshed for this activation.

        Contexts are capability objects whose only activation-varying state
        is ``(step, batch)``; reusing one per pid avoids an allocation and
        an rng lookup per delivery. Processes that stash their context see
        the same object every activation.
        """
        ctx = self._contexts.get(pid)
        if ctx is None:
            ctx = Context(self, pid, self._step, batch)
            self._contexts[pid] = ctx
        else:
            ctx.step = self._step
            ctx._batch = batch
        return ctx

    def _send_from(self, sender: int, recipient: int, payload: Any, batch: int) -> None:
        if recipient not in self.processes:
            raise SimulationError(f"send to unknown process {recipient}")
        faults = self._faults
        if faults is not None and faults.replaying:
            # Inbox replay after a crash-restart: the pre-crash activations
            # already put these sends on the wire; re-sending would double
            # every message the restarted node ever emitted.
            return
        if sender == self.mediator_pid:
            self._mediator_batches.add(batch)
        msg = self.network.send(sender, recipient, payload, self._step, batch)
        if not self._timing_passive:
            self.timing.on_send(msg, self._step)
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
        if faults is None:
            return
        fate, arg = faults.fate(sender, recipient, self._step)
        if fate == "hold":
            faults.hold(arg, self.network.withdraw(msg.uid))
        elif fate == "drop":
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
        elif arg > 1:
            for _ in range(arg - 1):
                dup = self.network.send(
                    sender, recipient, payload, self._step, batch
                )
                if not self._timing_passive:
                    self.timing.on_send(dup, self._step)
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

    # -- services used by timing models --------------------------------------

    def tick_processes(self, round_no: int) -> None:
        """Fire :meth:`Process.on_tick` on every live process (pid order).

        Called by timing models at virtual-time boundaries (e.g. the round
        boundary of :class:`~repro.sim.timing.LockStep`). Sends performed
        during a tick form one batch per process, like any activation.
        """
        for pid in sorted(self.processes):
            if pid in self.halted:
                continue
            process = self.processes[pid]
            batch = self.network.new_batch()
            ctx = self._context(pid, batch)
            if self._trace_on:
                self.trace.add(
                    TraceEvent(step=self._step, kind="tick", pid=pid)
                )
            process.on_tick(ctx, round_no)

    # -- the main loop -------------------------------------------------------

    def run(self) -> RunResult:
        self.scheduler.reset(self.seed)
        self.timing.reset(self)
        faults = self._faults
        if faults is not None:
            faults.reset(self.seed, self.processes)
        self._inject_start_signals()
        stopped_by_scheduler = False
        all_pids = set(self.processes)
        # Localize per-iteration state: the loop runs once per delivered
        # message and attribute lookups are a measurable share of it.
        timing_passive = self._timing_passive
        network_view = self.network.view
        choose = self.scheduler.choose
        step_limit = self.step_limit
        halted = self.halted

        while True:
            if self._step >= step_limit:
                if self.raise_on_step_limit:
                    raise StepLimitExceeded(
                        f"no quiescence after {self.step_limit} steps "
                        f"(scheduler {self.scheduler.name})"
                    )
                break
            if halted >= all_pids:
                break
            if faults is not None:
                due = faults.due_events(self._step)
                if due:
                    self._apply_fault_events(due)
                    if halted >= all_pids:
                        break

            if timing_passive:
                pool = network_view()
            else:
                pool = self.timing.eligible(self.network, self._step)
            if not len(pool):
                if self.timing.advance(self):
                    continue
                if faults is not None and self._advance_faults():
                    continue
                break  # quiesced: nothing deliverable, time cannot advance

            uid = choose(pool, self._step)
            if uid is None:
                if not self.scheduler.is_relaxed():
                    raise SchedulerError(
                        f"non-relaxed scheduler {self.scheduler.name} refused "
                        f"to deliver with {len(self.network)} messages in transit"
                    )
                forced = self._forced_batch_completion(pool)
                if forced is None:
                    stopped_by_scheduler = True
                    break
                uid = forced
            self._deliver(uid)

        if stopped_by_scheduler:
            for msg in self.network.in_transit():
                if self._trace_on:
                    self.trace.add(
                        TraceEvent(
                            step=self._step,
                            kind="drop",
                            pid=msg.recipient,
                            sender=msg.sender,
                            recipient=msg.recipient,
                            uid=msg.uid,
                        )
                    )
                self.network.drop(msg.uid)

        live = set(self.processes) - self.halted
        deadlocked = bool(live) and (
            stopped_by_scheduler or len(self.network) == 0
        )
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

    # -- fault application ---------------------------------------------------

    def _apply_fault_events(self, events) -> None:
        """Apply crash/restart/heal transitions whose step has arrived."""
        faults = self._faults
        for event in events:
            if event.kind == "crash":
                self._apply_crash(event.pid)
            elif event.kind == "restart":
                self._apply_restart(event.pid)
            else:  # heal: reopen the cut, release what it held
                faults.mark_healed(event.index)
                released = faults.release(("heal", event.index))
                self.network.reinstate(released)
                stale = {m.recipient for m in released} & self.halted
                if stale:
                    self.network.discard_to(stale)

    def _apply_crash(self, pid: int) -> None:
        faults = self._faults
        if pid in self.halted:
            return  # halted on its own before the fault arrived
        if self._trace_on:
            self.trace.add(TraceEvent(step=self._step, kind="crash", pid=pid))
        if faults.is_restart_target(pid):
            # Down-but-restartable: in-flight and future messages to the
            # pid are held (not dropped) so the restart can deliver them.
            faults.go_down(pid)
            for msg in self.network.withdraw_to(pid):
                faults.hold(("restart", pid), msg)
        else:
            self._record_halt(pid)

    def _apply_restart(self, pid: int) -> None:
        """Install a pristine process copy and replay its logged inbox.

        Replayed activations have their sends and outputs suppressed (the
        pre-crash activations already performed them); messages held while
        the pid was down are then reinstated into the pool. Replay re-draws
        ``ctx.rng`` from the continuing per-pid stream, so only protocols
        whose randomness derives from their own configuration (as the
        cheap-talk players' does) recover bit-exactly.
        """
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
        released = faults.release(("restart", pid))
        if pid in self.halted:
            return  # replay re-halted it; its held messages die with it
        self.network.reinstate(released)

    def _advance_faults(self) -> bool:
        """Pull the earliest pending recovery forward when traffic drains.

        Guarantees partitioned and crash-restart runs always quiesce: a
        heal or restart scheduled beyond the run's natural length fires as
        soon as nothing else can happen. Crashes never fire early — a crash
        past quiescence simply does not happen.
        """
        event = self._faults.pop_recovery()
        if event is None:
            return False
        self._apply_fault_events([event])
        return True

    # -- internals -----------------------------------------------------------

    def _inject_start_signals(self) -> None:
        for pid in sorted(self.processes):
            batch = self.network.new_batch()
            msg = self.network.send(ENVIRONMENT_PID, pid, START_SIGNAL, 0, batch)
            if not self._timing_passive:
                self.timing.on_send(msg, 0)
            self._env_sent += 1

    def _forced_batch_completion(self, pool=None) -> Optional[int]:
        """Uid of a message that must still be delivered (batch atomicity).

        Mediator batches must be all-or-none under relaxed schedulers; start
        signals must always be delivered (every player is eventually
        scheduled, even by relaxed environments). Candidates are drawn from
        the timing model's eligible ``pool`` first, so forcing respects the
        timing model whenever it can; if the only remaining obligations are
        not yet eligible, the full in-transit set is the fallback — the
        paper's hard guarantees outrank the timing bound when a relaxed
        environment stops mid-batch.
        """
        if pool is not None:
            forced = self._forced_candidate(pool)
            if forced is not None:
                return forced
        return self._forced_candidate(self.network.view())

    def _forced_candidate(self, views) -> Optional[int]:
        if isinstance(views, TransitView):
            return self._forced_candidate_indexed(views)
        candidates = []
        for view in views:
            # The environment only ever injects start signals, so the
            # sender check identifies them without reading payloads.
            if view.sender == ENVIRONMENT_PID:
                if view.recipient not in self.halted:
                    candidates.append(view.uid)
            elif view.batch in self._delivered_mediator_batches:
                candidates.append(view.uid)
        if not candidates:
            return None
        return min(candidates)

    def _forced_candidate_indexed(self, views: TransitView) -> Optional[int]:
        """The same forced-delivery obligation, answered from the pool's
        buckets instead of a full scan — a relaxed scheduler that has
        stopped delivering otherwise pays O(in-transit) per drain step.
        """
        candidates = [
            view.uid
            for view in views.from_sender(ENVIRONMENT_PID)
            if view.recipient not in self.halted
        ]
        for batch in sorted(self._delivered_mediator_batches):
            uid = views.oldest_in_batch(batch)
            if uid is not None:
                candidates.append(uid)
        if not candidates:
            return None
        return min(candidates)

    def _deliver(self, uid: int) -> None:
        network = self.network
        try:
            msg = network.deliver(uid, self._step)
        except KeyError:
            raise SchedulerError(f"scheduler chose unknown message uid {uid}")
        step = self._step = self._step + 1
        if not self._timing_passive:
            self.timing.on_deliver(msg, step)
        if msg.batch in self._mediator_batches:
            self._delivered_mediator_batches.add(msg.batch)
        pid, sender, payload = msg.recipient, msg.sender, msg.payload
        if self._trace_on:
            self.trace.add(
                TraceEvent(
                    step=step,
                    kind="deliver",
                    pid=pid,
                    sender=sender,
                    recipient=pid,
                    uid=uid,
                    payload=payload if self.trace.record_payloads else None,
                )
            )
        if pid in self.halted:
            return
        if self._faults is not None:
            self._faults.log_delivery(pid, sender, payload)
        ctx = self._context(pid, network.new_batch())
        process = self.processes[pid]
        if pid not in self.started:
            self.started.add(pid)
            if self._trace_on:
                self.trace.add(TraceEvent(step=step, kind="start", pid=pid))
            process.on_start(ctx)
        if sender == ENVIRONMENT_PID and payload == START_SIGNAL:
            return
        if pid in self.halted:
            return
        process.on_message(ctx, sender, payload)
