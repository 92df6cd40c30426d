"""Process abstraction: message-driven state machines.

A :class:`Process` reacts to a start signal and then to delivered messages.
During an activation it may send messages, record an *output* (its move in
the underlying game), and halt. All side effects go through the
:class:`Context` handed to the callbacks, which keeps the runtime in control
of ordering, randomness, and accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Context:
    """Capability object passed to process callbacks for one activation."""

    __slots__ = ("_runtime", "pid", "step", "_batch")

    def __init__(self, runtime, pid: int, step: int, batch: int) -> None:
        self._runtime = runtime
        self.pid = pid
        self.step = step
        self._batch = batch

    @property
    def rng(self):
        """This pid's random stream, seeded on its first read.

        Most processes never draw, so no stream is built for them; the
        streams are independent, so when one is first read changes none
        of its draws.
        """
        return self._runtime.rng_for(self.pid)

    # -- actions -----------------------------------------------------------

    def send(self, recipient: int, payload: Any) -> None:
        """Send a message over the private channel to ``recipient``."""
        self._runtime._send_from(self.pid, recipient, payload, self._batch)

    def broadcast(self, recipients, payload: Any) -> None:
        """Send the same payload to each of ``recipients`` (one batch)."""
        for recipient in recipients:
            self.send(recipient, payload)

    def output(self, action: Any) -> None:
        """Record this player's move in the underlying game (at most once)."""
        self._runtime._record_output(self.pid, action)

    def halt(self) -> None:
        """Stop participating; undelivered messages to us are discarded."""
        self._runtime._record_halt(self.pid)

    def has_output(self) -> bool:
        return self.pid in self._runtime.outputs

    def log(self, event: str, **data: Any) -> None:
        if self._runtime._trace_on:
            self._runtime.trace.note(self.pid, event, data)


class Process:
    """Base class for simulated processes.

    Subclasses override :meth:`on_start` and :meth:`on_message`; the runtime
    guarantees ``on_start`` is called exactly once, before any message
    delivery to this process.
    """

    def on_start(self, ctx: Context) -> None:  # pragma: no cover - default
        """Called when the process first learns the game has started."""

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        """Called once per delivered message."""
        raise NotImplementedError

    def on_tick(self, ctx: Context, round_no: int) -> None:
        """Called at virtual-time boundaries of round-based timing models.

        Under :class:`~repro.sim.timing.LockStep` every live process
        observes each round boundary. Message-driven protocols can ignore
        ticks (this default is a no-op); round-based processes (the
        ``SyncProcess`` adapter) use them to drive per-round callbacks.
        """

    def on_deadlock(self, pid: int) -> Optional[Any]:
        """AH-approach *will*: the move to make if the run deadlocks.

        Returning ``None`` means the process leaves no instruction (the
        game-level default move, if any, then applies). Called only for
        processes that did not output during the run. Must be a pure
        function of the process's final local state.
        """
        return None

    def release(self) -> None:
        """Drop the run state that points back at this process.

        Called after the run by the code that built the process, so that
        a finished cell holds no reference cycle and reference counting
        frees it. The kernel never calls it: code that runs a kernel
        directly may read a process's state afterwards. Must be safe to
        call more than once.
        """


class FuncProcess(Process):
    """Adapter turning plain callables into a :class:`Process`.

    Handy in tests: ``FuncProcess(on_message=lambda ctx, s, p: ...)``.
    """

    def __init__(
        self,
        on_start: Optional[Callable[[Context], None]] = None,
        on_message: Optional[Callable[[Context, int, Any], None]] = None,
        on_deadlock: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self._on_start = on_start
        self._on_message = on_message
        self._on_deadlock = on_deadlock

    def on_start(self, ctx: Context) -> None:
        if self._on_start is not None:
            self._on_start(ctx)

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        if self._on_message is None:
            raise SimulationError(f"process {ctx.pid} cannot handle messages")
        self._on_message(ctx, sender, payload)

    def on_deadlock(self, pid: int):
        if self._on_deadlock is None:
            return None
        return self._on_deadlock(pid)
