"""Timing models: when an in-transit message *may* be delivered.

The kernel (:class:`~repro.sim.runtime.Runtime`) separates two orthogonal
questions that the paper's model bundles into "the environment":

* **Timing** — which in-transit messages are *eligible* for delivery right
  now (this module);
* **Scheduling** — which eligible message the adversarial environment
  actually picks (:mod:`repro.sim.scheduler`).

A :class:`TimingModel` owns the first question. Three models ship:

* :class:`Asynchronous` — every in-transit message is always eligible; the
  scheduler has full power. This is the paper's Section 2 network and the
  kernel's default.
* :class:`LockStep` — the synchronous baseline (R1/R2 setting): messages
  sent in round *r* become eligible only in round *r + 1*, and at every
  round boundary each live process observes a *tick*
  (:meth:`~repro.sim.process.Process.on_tick`). ``SyncRuntime`` is a thin
  adapter over the kernel with this model. A message a fault plan holds
  (:meth:`TimingModel.on_withdraw`) leaves its round at once and is
  eligible in the round after its release
  (:meth:`TimingModel.on_reinstate`), so a partition or crash-restart
  loses nothing in transit.
* :class:`BoundedDelay` — partial synchrony: after an optional global
  stabilization time (GST, in delivery steps), every message must be
  delivered within ``d`` steps of being sent. When messages become overdue
  the eligible set shrinks to exactly the overdue ones, forcing the
  scheduler's hand; ``d → ∞`` recovers :class:`Asynchronous`, ``d = 1`` is
  nearly FIFO.

Whatever the model, :meth:`TimingModel.eligible` returns a
:class:`~repro.sim.network.TransitView`: the whole in-transit pool, or the
view of a :class:`~repro.sim.network.Network` of the model's own that holds
exactly the eligible messages (the lock-step round, the bounded-delay
overdue class), so a scheduler has one kind of pool to answer from.

Timing models are addressable by JSON-safe names (``"async"``,
``"lockstep"``, ``"bounded-16"``, ``"bounded-16@200"``) via
:func:`timing_from_name`, which is what lets
:class:`~repro.experiments.spec.ScenarioSpec` grids, the CLI
(``repro run --timing ...``), and tests sweep timing the way they
already sweep schedulers.

To add a new model: subclass :class:`TimingModel` (implement
:meth:`~TimingModel.eligible` to return a ``TransitView``, and
:meth:`~TimingModel.advance` if the model has a notion of time passing
while no message is deliverable), then :func:`register_timing` a name for
it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError, StepLimitExceeded
from repro.sim.network import Message, Network, TransitView

ENVIRONMENT_PID = -1
"""Synthetic sender id for environment-injected signals (start signals)."""


class TimingModel:
    """Decides which in-transit messages are currently deliverable."""

    name = "timing"

    def reset(self, runtime) -> None:
        """Prepare for a fresh run (called by the kernel before the loop)."""

    def on_send(self, msg: Message, step: int) -> None:
        """Observe a send (stamp readiness / deadlines as needed)."""

    def on_deliver(self, msg: Message, step: int) -> None:
        """Observe a delivery (retire bookkeeping for ``msg.uid``)."""

    def on_withdraw(self, msg: Message) -> None:
        """Observe a fault plan taking ``msg`` out of transit to hold it
        (a partition cut, a crashed-but-restartable recipient)."""

    def on_reinstate(self, msg: Message) -> None:
        """Observe a held message put back in transit (heal, restart)."""

    def eligible(self, network: Network, step: int) -> TransitView:
        """The pool the scheduler may choose from at this step."""
        raise NotImplementedError

    def advance(self, runtime) -> bool:
        """No eligible message but work may remain: advance virtual time.

        Return True if time advanced (the kernel re-computes eligibility),
        False if the model is out of time (the kernel treats the run as
        quiesced). Models with no virtual clock never need this.
        """
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Asynchronous(TimingModel):
    """The paper's asynchronous network: everything in transit is fair game."""

    name = "async"

    def eligible(self, network: Network, step: int) -> TransitView:
        return network.view()


class LockStep(TimingModel):
    """Synchronous rounds: sent in round r, deliverable in round r + 1.

    Within a round the scheduler still orders deliveries, but it can only
    choose among that round's messages — so no process can get ahead of the
    round structure, which is exactly the broadcast-friendly synchronous
    model of the paper's R1/R2 baselines. At each round boundary every
    live process receives :meth:`~repro.sim.process.Process.on_tick`;
    message-driven protocol processes ignore ticks (the default is a
    no-op), while the round-based :class:`~repro.sim.sync.SyncProcess`
    adapter uses them to fire ``on_round``.

    Environment-injected messages (start signals) are eligible immediately,
    in round 0, before any ticks.

    The round's still-deliverable messages form a pool of their own (a
    :class:`~repro.sim.network.Network` that only ever receives messages
    through ``reinstate``), kept current as messages are delivered or
    dropped, so :meth:`eligible` hands out its view without rebuilding it.

    A message a fault plan holds (a partition cut, a crashed-but-
    restartable recipient) leaves the round pool and the next round at
    once, and becomes eligible in the round after its release: a heal or
    restart puts it in the next round, like a message sent at that
    moment.
    """

    name = "lockstep"

    def __init__(self, max_rounds: int = 10_000) -> None:
        if max_rounds < 1:
            raise SimulationError("max_rounds must be >= 1")
        self.max_rounds = max_rounds
        self.round = 0
        self._future: dict[int, Message] = {}
        """The next round's messages by uid."""
        self._pool = Network()
        self._dropped_seen = 0
        self._ticked = True  # round 0 activations happen via start signals

    def reset(self, runtime) -> None:
        self.round = 0
        self._future = {}
        self._pool = Network()
        self._dropped_seen = 0
        self._ticked = True

    def rounds_completed(self) -> int:
        """Number of executed rounds (matches the legacy SyncRuntime count)."""
        return self.round + 1

    def on_send(self, msg: Message, step: int) -> None:
        if msg.sender == ENVIRONMENT_PID:
            self._pool.reinstate([msg])
        else:
            self._future[msg.uid] = msg

    def on_deliver(self, msg: Message, step: int) -> None:
        # A forced delivery (batch atomicity) may take a message that is
        # not in this round's pool.
        if msg.uid in self._pool:
            self._pool.drop(msg.uid)

    def on_withdraw(self, msg: Message) -> None:
        self._future.pop(msg.uid, None)
        if msg.uid in self._pool:
            self._pool.drop(msg.uid)

    def on_reinstate(self, msg: Message) -> None:
        self._future[msg.uid] = msg

    def eligible(self, network: Network, step: int) -> TransitView:
        pool = self._pool
        if network.total_dropped != self._dropped_seen:
            # Dropped messages (halted recipients, relaxed drops) leave
            # stale uids behind; prune only when a drop actually happened.
            self._dropped_seen = network.total_dropped
            stale = [uid for uid in pool.records if uid not in network]
            for uid in stale:
                pool.drop(uid)
        return pool.view()

    def advance(self, runtime) -> bool:
        if not self._ticked:
            # The round's deliveries have drained: fire the round boundary.
            self._ticked = True
            runtime.tick_processes(self.round)
            return True
        if self._future:
            network = runtime.network
            arrived = [m for m in self._future.values() if m.uid in network]
            self._future = {}
            if not arrived:
                # Every message of the next round was discarded (recipients
                # halted): no live process has mail, so the round structure
                # ends here — matching the legacy synchronous loop, which
                # never executed a mail-less round.
                return False
            if self.round + 1 >= self.max_rounds:
                if runtime.raise_on_step_limit:
                    raise StepLimitExceeded(
                        f"no quiescence after {self.max_rounds} "
                        f"synchronous rounds"
                    )
                return False
            self.round += 1
            # advance() runs only once the round's pool has drained.
            self._pool.reinstate(arrived)
            self._ticked = False
            return True
        return False


class BoundedDelay(TimingModel):
    """Partial synchrony: delivery within ``d`` steps, after GST.

    Every message must be delivered within ``d`` kernel steps (deliveries)
    of ``max(send_step, gst)``. While no message is overdue the scheduler
    has full asynchronous freedom; once messages pass their deadline the
    eligible set collapses to the *earliest-deadline class* of the overdue
    ones, so overdue traffic drains in deadline order (one delivery per
    step serializes simultaneous deadlines — the unavoidable slack of a
    discrete-event clock). Smaller ``d`` means a weaker adversary
    (``d = 1`` forces near-FIFO delivery); growing ``d`` monotonically
    enlarges the set of schedules the environment can realise, degrading
    towards full asynchrony.
    """

    name = "bounded"

    def __init__(self, d: int, gst: int = 0) -> None:
        if d < 1:
            raise SimulationError("BoundedDelay needs d >= 1")
        if gst < 0:
            raise SimulationError("BoundedDelay needs gst >= 0")
        self.d = d
        self.gst = gst
        self.name = f"bounded-{d}" if not gst else f"bounded-{d}@{gst}"
        self._deadlines: list[tuple[int, int]] = []  # (deadline, uid) heap
        # uid -> (deadline, message); heap pops keep this deadline-ordered.
        self._overdue: dict[int, tuple[int, Message]] = {}

    def reset(self, runtime) -> None:
        self._deadlines = []
        self._overdue = {}

    def on_send(self, msg: Message, step: int) -> None:
        deadline = max(msg.send_step, self.gst) + self.d
        heapq.heappush(self._deadlines, (deadline, msg.uid))

    def on_deliver(self, msg: Message, step: int) -> None:
        self._overdue.pop(msg.uid, None)

    def eligible(self, network: Network, step: int) -> TransitView:
        heap = self._deadlines
        overdue = self._overdue
        while heap and heap[0][0] <= step:
            deadline, uid = heapq.heappop(heap)
            msg = network.get(uid)
            if msg is not None:
                overdue[uid] = (deadline, msg)
        if overdue:
            # Dropped messages (halted recipients) leave stale uids behind.
            dead = [uid for uid in overdue if uid not in network]
            for uid in dead:
                del overdue[uid]
        if overdue:
            # Only the earliest-deadline class is deliverable: overdue
            # traffic drains in deadline order, which is what makes the
            # bound a real constraint instead of a large free-for-all pool.
            values = iter(overdue.values())
            first_deadline, first_msg = next(values)
            due = [first_msg]
            for deadline, msg in values:
                if deadline != first_deadline:
                    break
                due.append(msg)
            pool = Network()
            pool.reinstate(due)
            return pool.view()
        return network.view()


# -- the timing registry ------------------------------------------------------

TimingBuilder = Callable[[], TimingModel]

TIMING_BUILDERS: dict[str, TimingBuilder] = {
    "async": Asynchronous,
    "asynchronous": Asynchronous,
    "lockstep": LockStep,
    "sync": LockStep,
}


def register_timing(name: str, builder: TimingBuilder) -> None:
    """Register a zero-arg timing-model builder under ``name``."""
    if name in TIMING_BUILDERS:
        raise SimulationError(f"timing model {name!r} is already registered")
    TIMING_BUILDERS[name] = builder


def timing_names() -> list[str]:
    """Registered fixed names (parameterised ``bounded-...`` not included)."""
    return sorted(TIMING_BUILDERS)


def timing_from_name(name: str) -> TimingModel:
    """Build a timing model from a JSON-safe name.

    Fixed names come from the registry (``async``, ``lockstep``, aliases
    and user registrations); ``bounded-<d>`` and ``bounded-<d>@<gst>``
    parse their parameters from the name so scenario grids can sweep the
    delay bound without a side channel.
    """
    builder = TIMING_BUILDERS.get(name)
    if builder is not None:
        return builder()
    if name.startswith("bounded-"):
        params = name[len("bounded-"):]
        gst = 0
        if "@" in params:
            params, gst_text = params.split("@", 1)
            try:
                gst = int(gst_text)
            except ValueError:
                raise SimulationError(
                    f"bad GST in timing name {name!r} (want bounded-<d>@<gst>)"
                ) from None
        try:
            d = int(params)
        except ValueError:
            raise SimulationError(
                f"bad delay bound in timing name {name!r} (want bounded-<d>)"
            ) from None
        return BoundedDelay(d, gst=gst)
    raise SimulationError(
        f"unknown timing model {name!r}; known: "
        f"{', '.join(timing_names())}, bounded-<d>[@<gst>]"
    )
