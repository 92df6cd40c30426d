"""Environment strategies (schedulers).

A scheduler is the paper's *environment*: at each step it chooses which
in-transit message to deliver next. Non-relaxed schedulers must eventually
deliver everything; the concrete schedulers here all satisfy that contract
by construction (``tests/test_schedulers.py`` additionally enforces it
empirically on a randomized workload). :class:`RelaxedScheduler` implements
the Section 5 relaxed environment that may drop messages — subject to the
all-or-none rule for batches emitted by the mediator in a single step.

Schedulers only ever see message *metadata* (sender / recipient / ordering),
never payloads: channels are private. ``choose`` is always handed a
:class:`~repro.sim.network.TransitView` — an indexed, allocation-free facade
over a pool: the whole in-transit pool, or a pool of just the messages a
timing model or a drop plan lets through — and every scheduler here
answers from its O(1) bucket queries. The covert-channel construction of Section 6.1
(communicating with the environment through message *counts*) remains
expressible, and ``repro.analysis.deviations`` exercises it.

:class:`LatencyScheduler` is the environment of ``runtime="net"`` runs: a
seeded :class:`~repro.net.latency.LatencyModel` gives every message an
in-flight delay, and the earliest virtual arrival is delivered next.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, Optional

from repro.errors import SchedulerError
from repro.net.latency import LatencyModel, latency_from_name
from repro.sim.network import Message, Network, TransitView


class Scheduler(ABC):
    """Strategy deciding the delivery order of in-transit messages."""

    name = "scheduler"

    post = None
    """Optional ``post(uid, sender, recipient)`` hook. A scheduler that
    orders messages by when they entered the pool defines it, and the
    kernel then calls it for each message as it enters: a send that
    survives its fault fate and each duplicate copy, each start signal,
    and each held message a heal or restart puts back."""

    def reset(self, seed: int) -> None:
        """Prepare for a fresh run (re-seed any internal randomness)."""

    @abstractmethod
    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        """Return the uid of the message to deliver next.

        ``None`` is only legal for relaxed schedulers and means "stop
        delivering" (everything still in transit is dropped).
        """

    def is_relaxed(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class FifoScheduler(Scheduler):
    """Deliver messages in global send order. The most synchronous-like."""

    name = "fifo"

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        return in_transit.min_uid()


class RandomScheduler(Scheduler):
    """Deliver a uniformly random in-transit message each step."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self, seed: int) -> None:
        self._rng = random.Random((self._seed, seed).__hash__())

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        uids = in_transit.uids()
        if not uids:
            return None
        # The pool's uids are ascending, and randrange(m) consumes the rng
        # exactly like choice()'s _randbelow(m): this is the uid
        # choice(sorted(uids)) draws.
        return uids[self._rng.randrange(len(uids))]


class EagerScheduler(Scheduler):
    """Drain all messages to one recipient before moving to the next.

    Produces highly bursty activations — a useful stress pattern for
    protocols that implicitly assume interleaving.
    """

    name = "eager"

    def __init__(self) -> None:
        self._current: Optional[int] = None

    def reset(self, seed: int) -> None:
        self._current = None

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        if not in_transit:
            return None
        uid = (
            in_transit.oldest_to(self._current)
            if self._current is not None
            else None
        )
        if uid is None:
            self._current = min(in_transit.recipients())
            uid = in_transit.oldest_to(self._current)
        return uid


class LaggardScheduler(Scheduler):
    """Starve a target set of processes as long as legally possible.

    Messages to (or from) the lagging set are delivered only when nothing
    else is in transit, so eventual delivery still holds. This is the
    canonical adversarial-but-fair environment: it maximises the asynchrony
    experienced by the victims.
    """

    name = "laggard"

    def __init__(self, lagging: Iterable[int], lag_senders: bool = False) -> None:
        self.lagging = frozenset(lagging)
        self.lag_senders = lag_senders
        self.name = f"laggard{sorted(self.lagging)}"

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        if not in_transit:
            return None
        best: Optional[int] = None
        for recipient in in_transit.recipients():
            if recipient in self.lagging:
                continue
            if self.lag_senders:
                uid = next(
                    (
                        v.uid
                        for v in in_transit.to_recipient(recipient)
                        if v.sender not in self.lagging
                    ),
                    None,
                )
            else:
                uid = in_transit.oldest_to(recipient)
            if uid is not None and (best is None or uid < best):
                best = uid
        return best if best is not None else in_transit.min_uid()


class BatchRandomScheduler(Scheduler):
    """Random scheduler that prefers finishing a started batch.

    Once it delivers one message of a batch it keeps delivering that batch's
    remaining messages before picking randomly again. Approximates "fair but
    bursty" networks.
    """

    name = "batch-random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._active_batch: Optional[int] = None

    def reset(self, seed: int) -> None:
        self._rng = random.Random((self._seed, seed).__hash__())
        self._active_batch = None

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        uids = in_transit.uids()
        if not uids:
            return None
        if self._active_batch is not None:
            uid = in_transit.oldest_in_batch(self._active_batch)
            if uid is not None:
                return uid
        # The same draw as RandomScheduler's: the uid choice(sorted(uids))
        # picks.
        uid = uids[self._rng.randrange(len(uids))]
        self._active_batch = in_transit.batch_of(uid)
        return uid


class RushingScheduler(Scheduler):
    """Prioritise messages from a favoured set of senders.

    The classic "rushing adversary" pattern: the favoured players' traffic
    always arrives first, letting them react to everyone else's messages
    before their own round-mates are heard. Eventual delivery holds —
    non-favoured traffic flows whenever the favoured set is quiet.
    """

    name = "rushing"

    def __init__(self, favoured: Iterable[int]) -> None:
        self.favoured = frozenset(favoured)
        self.name = f"rushing{sorted(self.favoured)}"

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        if not in_transit:
            return None
        best: Optional[int] = None
        for sender in in_transit.senders():
            if sender in self.favoured:
                uid = in_transit.oldest_from(sender)
                if uid is not None and (best is None or uid < best):
                    best = uid
        return best if best is not None else in_transit.min_uid()


class LatencyScheduler(Scheduler):
    """Deliver in order of virtual arrival time under a latency model.

    Each message draws its in-flight delay from the model's per-edge
    stream when the kernel posts it, at the current virtual time (the
    arrival time of the latest delivery), and lands on the run's
    :class:`~repro.net.router.MemoryTransport` heap keyed ``(arrival, post
    order)``. ``choose`` pops the earliest entry whose uid is still in
    transit, so zero latency replays global send order — the fifo
    schedule. The heap is lazy: entries of dropped or withdrawn messages
    are discarded when they surface, and a message withdrawn in flight
    (its recipient crashed) and reinstated before its old entry surfaces
    is delivered by that old entry; the fresh draw it got on release is
    then the stale one.
    """

    def __init__(self, latency: LatencyModel | str) -> None:
        if isinstance(latency, str):
            latency = latency_from_name(latency)
        self.latency = latency
        self.name = f"latency({latency.name})"
        self._wire = None

    def reset(self, seed: int) -> None:
        from repro.net.router import MemoryTransport

        self.latency.reset(seed)
        self._wire = MemoryTransport()

    def post(self, uid: int, sender: int, recipient: int) -> None:
        wire = self._wire
        wire.post(uid, self.latency.delay(sender, recipient, wire.now))

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        return self._wire.pop(in_transit.has_uid)


class RelaxedScheduler(Scheduler):
    """Section 5 relaxed environment: may stop delivering at some point.

    Wraps a base scheduler; after ``deliveries_before_stop`` deliveries it
    stops (returns ``None``), which the runtime interprets as dropping every
    remaining message — the deadlock situation of Lemma 6.10. The runtime
    additionally enforces the all-or-none rule for mediator batches: if any
    message of a mediator-emitted batch has been delivered, the remaining
    messages of that batch are force-delivered before stopping.
    """

    name = "relaxed"

    def __init__(self, base: Scheduler, deliveries_before_stop: int) -> None:
        self.base = base
        self.deliveries_before_stop = deliveries_before_stop
        self._delivered = 0
        self.name = f"relaxed({base.name}@{deliveries_before_stop})"

    def reset(self, seed: int) -> None:
        self.base.reset(seed)
        self._delivered = 0

    def is_relaxed(self) -> bool:
        return True

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        if self._delivered >= self.deliveries_before_stop:
            return None
        uid = self.base.choose(in_transit, step)
        if uid is not None:
            self._delivered += 1
        return uid


class DropPlanRelaxedScheduler(Scheduler):
    """Relaxed scheduler that drops exactly a planned set of messages.

    ``should_drop(view)`` marks messages never to be delivered; the base
    scheduler chooses from a pool of the rest. The runtime's batch
    all-or-none enforcement still applies to mediator batches, so a plan
    that splits a mediator batch is corrected at runtime (and flagged in
    the trace).
    """

    name = "relaxed-plan"

    def __init__(self, base: Scheduler, should_drop) -> None:
        self.base = base
        self.should_drop = should_drop
        self.name = f"relaxed-plan({base.name})"

    def reset(self, seed: int) -> None:
        self.base.reset(seed)

    def is_relaxed(self) -> bool:
        return True

    def choose(self, in_transit: TransitView, step: int) -> Optional[int]:
        deliverable = Network()
        deliverable.reinstate(
            Message(m.uid, m.sender, m.recipient, None, m.send_step, m.batch)
            for m in in_transit
            if not self.should_drop(m)
        )
        if not deliverable:
            return None
        return self.base.choose(deliverable.view(), step)


def scheduler_zoo(seed: int = 0, parties: Optional[Iterable[int]] = None) -> list[Scheduler]:
    """A representative set of non-relaxed environments for experiments.

    The implementation-checking harness quantifies over environments; this
    zoo is the finite stand-in for "all schedulers" used in empirical
    checks.
    """
    zoo: list[Scheduler] = [
        FifoScheduler(),
        RandomScheduler(seed),
        RandomScheduler(seed + 1),
        RandomScheduler(seed + 2),
        EagerScheduler(),
        BatchRandomScheduler(seed),
    ]
    if parties is not None:
        party_list = sorted(parties)
        if party_list:
            zoo.append(LaggardScheduler([party_list[0]]))
            zoo.append(LaggardScheduler(party_list[: max(1, len(party_list) // 4)]))
            zoo.append(
                LaggardScheduler([party_list[-1]], lag_senders=True)
            )
            zoo.append(RushingScheduler([party_list[-1]]))
    return zoo
