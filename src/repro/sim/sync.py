"""Synchronous round-based simulation (the paper's baseline setting).

The synchronous results R1/R2 that the paper improves on live in a
lock-step model: in every round all players act simultaneously, and every
message sent in round r is delivered at the start of round r+1. This module
provides that model so the repository can measure the *cost of asynchrony*
(the extra k+t in the bounds) as an ablation.

Since the timing-model refactor there is **no independent synchronous
delivery loop**: :class:`SyncRuntime` is a thin adapter over the one
simulation kernel (:class:`~repro.sim.runtime.Runtime`) running under the
:class:`~repro.sim.timing.LockStep` timing model. Round-based
:class:`SyncProcess` objects are wrapped in a message-driven adapter that
buffers each round's deliveries and fires ``on_round`` at the kernel's
round-boundary tick. Deliveries, halting, message accounting, and the
double-output rule are therefore *the same code* in both worlds — the only
difference between the synchronous and asynchronous settings is the timing
model, which is the paper's point.

A broadcast channel — which the synchronous literature assumes as a
primitive — is modelled by :meth:`SyncContext.broadcast`: the runtime
delivers the same payload to every player (equivocation is impossible by
construction, matching the model assumption; the asynchronous layers have
to *earn* this with Bracha RBC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.process import Context, Process
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler
from repro.sim.timing import LockStep


class SyncContext:
    """Capability object for one process in one synchronous round.

    Wraps the kernel :class:`~repro.sim.process.Context` of the current
    activation, adding the round number and the synchronous model's free
    broadcast channel.
    """

    __slots__ = ("_ctx", "_pids", "pid", "round")

    def __init__(self, ctx: Context, pids: list[int], round_no: int) -> None:
        self._ctx = ctx
        self._pids = pids
        self.pid = ctx.pid
        self.round = round_no

    @property
    def rng(self):
        return self._ctx.rng

    def send(self, recipient: int, payload: Any) -> None:
        self._ctx.send(recipient, payload)

    def broadcast(self, payload: Any) -> None:
        """Send the same payload to every player (broadcast channel)."""
        for pid in self._pids:
            self._ctx.send(pid, payload)

    def output(self, action: Any) -> None:
        self._ctx.output(action)

    def halt(self) -> None:
        self._ctx.halt()

    def has_output(self) -> bool:
        return self._ctx.has_output()


class SyncProcess:
    """A player in the synchronous model.

    ``on_round(ctx, inbox)`` is called once per round with the messages
    delivered this round as (sender, payload) pairs, in sender order.
    """

    def on_round(self, ctx: SyncContext, inbox: list[tuple[int, Any]]) -> None:
        raise NotImplementedError

    def on_deadlock(self, pid: int) -> Optional[Any]:
        return None


class _RoundAdapter(Process):
    """Message-driven kernel process hosting one round-based SyncProcess.

    Buffers the round's deliveries; the LockStep tick flushes them into
    ``on_round``. Round 0 fires from the start signal with an empty inbox,
    exactly like the legacy synchronous loop.
    """

    __slots__ = ("wrapped", "_pids", "_inbox")

    def __init__(self, wrapped: SyncProcess, pids: list[int]) -> None:
        self.wrapped = wrapped
        self._pids = pids
        self._inbox: list[tuple[int, Any]] = []

    def on_start(self, ctx: Context) -> None:
        self.wrapped.on_round(SyncContext(ctx, self._pids, 0), [])

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        self._inbox.append((sender, payload))

    def on_tick(self, ctx: Context, round_no: int) -> None:
        inbox = sorted(self._inbox, key=lambda m: m[0])
        self._inbox = []
        self.wrapped.on_round(SyncContext(ctx, self._pids, round_no), inbox)

    def on_deadlock(self, pid: int) -> Optional[Any]:
        return self.wrapped.on_deadlock(pid)


@dataclass
class SyncRunResult:
    outputs: dict[int, Any]
    halted: set[int]
    rounds: int
    messages_sent: int
    wills: dict[int, Any] = field(default_factory=dict)


class SyncRuntime:
    """Lock-step executor: rounds until quiescence or the round limit.

    A thin adapter: builds the one simulation kernel with the
    :class:`~repro.sim.timing.LockStep` timing model (and a FIFO scheduler,
    whose within-round order is invisible to round-based processes) and
    repackages the kernel's :class:`~repro.sim.runtime.RunResult` into the
    legacy :class:`SyncRunResult` shape.
    """

    def __init__(
        self,
        processes: dict[int, SyncProcess],
        seed: int = 0,
        max_rounds: int = 10_000,
    ) -> None:
        if not processes:
            raise SimulationError("need at least one process")
        self.processes = dict(processes)
        self.pids = sorted(processes)
        self.seed = seed
        self.max_rounds = max_rounds

    def run(self) -> SyncRunResult:
        timing = LockStep(max_rounds=self.max_rounds)
        wrapped = {
            pid: _RoundAdapter(proc, self.pids)
            for pid, proc in self.processes.items()
        }
        kernel = Runtime(
            wrapped,
            FifoScheduler(),
            seed=self.seed,
            timing=timing,
            # The legacy synchronous loop drew per-pid randomness from the
            # "sync" RngTree namespace; keep seeded runs bit-identical.
            rng_namespace="sync",
        )
        result = kernel.run()
        return SyncRunResult(
            outputs=result.outputs,
            halted=result.halted,
            rounds=timing.rounds_completed(),
            messages_sent=result.messages_sent - result.env_messages,
            wills=result.wills,
        )
