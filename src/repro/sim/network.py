"""Messages and the indexed in-transit message pool.

Channels are secure and private point-to-point links: the scheduler observes
*that* a message exists (sender, recipient, send order) but never its
payload — mirroring the paper's assumption that the environment cannot read
messages (Section 6.1). Scheduler code therefore only ever sees
:class:`MessageView` objects — either inside a plain sequence (tests build
those by hand) or through a :class:`TransitView`, the zero-copy facade the
kernel hands to schedulers.

The pool is *indexed*: besides the master uid → message map, the network
keeps the in-transit uids in an ascending list (so "the k-th oldest
message" — a random scheduler's draw — is one index) and maintains
per-recipient, per-sender, and per-batch buckets. Each bucket is an
insertion-ordered dict kept in ascending uid order, so "the oldest message
to recipient r" is ``next(iter(bucket))`` — O(1) — instead of a scan over a
freshly materialized list. Schedulers use these through
:class:`TransitView`; the old list-building accessors remain for tests and
cold paths.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Union

START_SIGNAL = "__START__"
"""Payload of the synthetic game-start signal every process receives first."""


@dataclass(slots=True)
class Message:
    """A point-to-point message inside the simulated network."""

    uid: int
    sender: int
    recipient: int
    payload: Any
    send_step: int
    batch: int
    """Batch id: messages emitted by one activation of one process share it.

    Relaxed schedulers must drop or deliver mediator batches atomically
    (Section 5), which is the hook this field exists for.
    """

    def view(self) -> "MessageView":
        return MessageView(
            uid=self.uid,
            sender=self.sender,
            recipient=self.recipient,
            send_step=self.send_step,
            batch=self.batch,
        )


@dataclass(frozen=True, slots=True)
class MessageView:
    """What a scheduler is allowed to see about an in-transit message."""

    uid: int
    sender: int
    recipient: int
    send_step: int
    batch: int


class TransitView:
    """Read-only, allocation-free scheduler's view of the in-transit pool.

    Behaves as a ``Sequence[MessageView]`` (``len``/iteration/indexing) so
    legacy scheduler code keeps working, and exposes indexed queries —
    :meth:`has_uid`, :meth:`min_uid`, :meth:`nth_uid`, :meth:`oldest_to`,
    :meth:`oldest_from`, :meth:`oldest_in_batch`, :meth:`self_senders` —
    that answer in O(1) from the network's sorted uid list and buckets.
    Schedulers should prefer the indexed queries; payloads are never
    reachable through this object.

    The view holds the pool's containers, not the :class:`Network`, so
    the network and its view form no reference cycle and a finished run's
    pool is freed by reference counting. The network never rebinds those
    containers, which keeps the view current.
    """

    __slots__ = ("_in_transit", "_uids", "_by_recipient", "_by_sender",
                 "_by_batch", "_self_counts")

    def __init__(self, net: "Network") -> None:
        self._in_transit = net._in_transit
        self._uids = net._uids
        self._by_recipient = net._by_recipient
        self._by_sender = net._by_sender
        self._by_batch = net._by_batch
        self._self_counts = net._self_counts

    # -- Sequence[MessageView] compatibility --------------------------------

    def __len__(self) -> int:
        return len(self._in_transit)

    def __bool__(self) -> bool:
        return bool(self._in_transit)

    def __iter__(self) -> Iterator[MessageView]:
        in_transit = self._in_transit
        messages = [in_transit[uid] for uid in self._uids]
        return (m.view() for m in messages)

    def __getitem__(self, index):
        in_transit = self._in_transit
        if isinstance(index, slice):
            return [in_transit[uid].view() for uid in self._uids[index]]
        return in_transit[self._uids[index]].view()

    # -- indexed queries -----------------------------------------------------

    def uids(self) -> list[int]:
        """All in-transit uids, ascending (send order). Do not mutate."""
        return self._uids

    def has_uid(self, uid: int) -> bool:
        """Is message ``uid`` still in transit?"""
        return uid in self._in_transit

    def min_uid(self) -> Optional[int]:
        """Oldest in-transit uid, or None when the pool is empty."""
        uids = self._uids
        return uids[0] if uids else None

    def nth_uid(self, index: int) -> int:
        """The ``index``-th oldest in-transit uid (0 is the oldest)."""
        return self._uids[index]

    def recipients(self):
        """Recipients with at least one in-transit message."""
        return self._by_recipient.keys()

    def senders(self):
        """Senders with at least one in-transit message."""
        return self._by_sender.keys()

    def oldest_to(self, recipient: int) -> Optional[int]:
        bucket = self._by_recipient.get(recipient)
        return next(iter(bucket)) if bucket else None

    def oldest_from(self, sender: int) -> Optional[int]:
        bucket = self._by_sender.get(sender)
        return next(iter(bucket)) if bucket else None

    def oldest_in_batch(self, batch: int) -> Optional[int]:
        bucket = self._by_batch.get(batch)
        return next(iter(bucket)) if bucket else None

    def batch_of(self, uid: int) -> int:
        return self._in_transit[uid].batch

    def to_recipient(self, recipient: int) -> Iterator[MessageView]:
        bucket = self._by_recipient.get(recipient)
        return (m.view() for m in bucket.values()) if bucket else iter(())

    def from_sender(self, sender: int) -> Iterator[MessageView]:
        bucket = self._by_sender.get(sender)
        return (m.view() for m in bucket.values()) if bucket else iter(())

    def self_senders(self):
        """Pids with a ``pid → pid`` message in transit (read-only view).

        Self-messages are the covert-channel signal relaxed colluding
        environments watch for (Section 6.1). The pool counts them on
        send/remove, so the set is almost always empty and a watch over
        a coalition is one ``isdisjoint`` per step.
        """
        return self._self_counts.keys()


TransitPool = Union[TransitView, "Iterable[MessageView]"]
"""What a scheduler's ``choose`` may receive: the kernel passes a
:class:`TransitView`; tests and wrapping schedulers may pass plain
sequences of :class:`MessageView`."""


class Network:
    """The indexed pool of in-transit messages."""

    def __init__(self) -> None:
        self._next_uid = 0
        self._next_batch = 0
        self._in_transit: dict[int, Message] = {}
        self._uids: list[int] = []
        """In-transit uids, ascending: appended on send (uids only grow),
        bisected out on removal, insorted on reinstatement."""
        self._by_recipient: dict[int, dict[int, Message]] = {}
        self._by_sender: dict[int, dict[int, Message]] = {}
        self._by_batch: dict[int, dict[int, Message]] = {}
        self._self_counts: dict[int, int] = {}
        self._view = TransitView(self)
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0

    # -- sending -----------------------------------------------------------

    def new_batch(self) -> int:
        self._next_batch += 1
        return self._next_batch

    def send(
        self, sender: int, recipient: int, payload: Any, step: int, batch: int
    ) -> Message:
        uid = self._next_uid
        msg = Message(uid, sender, recipient, payload, step, batch)
        self._next_uid = uid + 1
        self._in_transit[uid] = msg
        self._uids.append(uid)
        by_r = self._by_recipient
        if recipient in by_r:
            by_r[recipient][uid] = msg
        else:
            by_r[recipient] = {uid: msg}
        by_s = self._by_sender
        if sender in by_s:
            by_s[sender][uid] = msg
        else:
            by_s[sender] = {uid: msg}
        by_b = self._by_batch
        if batch in by_b:
            by_b[batch][uid] = msg
        else:
            by_b[batch] = {uid: msg}
        if sender == recipient:
            self._self_counts[sender] = self._self_counts.get(sender, 0) + 1
        self.total_sent += 1
        return msg

    # -- delivery ----------------------------------------------------------

    def _remove(self, uid: int) -> Message:
        msg = self._in_transit.pop(uid)
        uids = self._uids
        del uids[bisect_left(uids, uid)]
        bucket = self._by_recipient[msg.recipient]
        del bucket[uid]
        if not bucket:
            del self._by_recipient[msg.recipient]
        bucket = self._by_sender[msg.sender]
        del bucket[uid]
        if not bucket:
            del self._by_sender[msg.sender]
        bucket = self._by_batch[msg.batch]
        del bucket[uid]
        if not bucket:
            del self._by_batch[msg.batch]
        if msg.sender == msg.recipient:
            remaining = self._self_counts[msg.sender] - 1
            if remaining:
                self._self_counts[msg.sender] = remaining
            else:
                del self._self_counts[msg.sender]
        return msg

    def deliver(self, uid: int) -> Message:
        msg = self._remove(uid)
        self.total_delivered += 1
        return msg

    def drop(self, uid: int) -> Message:
        msg = self._remove(uid)
        self.total_dropped += 1
        return msg

    def discard_to(self, recipients: set[int]) -> int:
        """Silently discard messages addressed to halted processes."""
        uids = [
            uid
            for recipient in sorted(recipients)
            if recipient in self._by_recipient
            for uid in self._by_recipient[recipient]
        ]
        for uid in uids:
            self.drop(uid)
        return len(uids)

    # -- fault injection ----------------------------------------------------

    def withdraw(self, uid: int) -> Message:
        """Pull a message out of the pool without counting it delivered
        or dropped — the fault injector holds it for later reinstatement
        (partition cut, crashed-but-restartable recipient)."""
        return self._remove(uid)

    def withdraw_to(self, recipient: int) -> list[Message]:
        """Withdraw every in-transit message addressed to ``recipient``."""
        bucket = self._by_recipient.get(recipient)
        if not bucket:
            return []
        return [self._remove(uid) for uid in list(bucket)]

    def reinstate(self, messages: Iterable[Message]) -> None:
        """Put previously withdrawn messages back into the pool.

        Reinstated uids are older than anything sent since they were
        withdrawn, so they are insorted into the uid list and every touched
        bucket is re-sorted to restore the ascending-uid order that
        :meth:`TransitView.min_uid`, :meth:`TransitView.nth_uid` and the
        oldest-first queries rely on.
        """
        msgs = sorted(messages, key=lambda m: m.uid)
        if not msgs:
            return
        for msg in msgs:
            self._in_transit[msg.uid] = msg
            insort(self._uids, msg.uid)
            self._by_recipient.setdefault(msg.recipient, {})[msg.uid] = msg
            self._by_sender.setdefault(msg.sender, {})[msg.uid] = msg
            self._by_batch.setdefault(msg.batch, {})[msg.uid] = msg
            if msg.sender == msg.recipient:
                count = self._self_counts.get(msg.sender, 0)
                self._self_counts[msg.sender] = count + 1
        for msg in msgs:
            by_r = self._by_recipient[msg.recipient]
            self._by_recipient[msg.recipient] = dict(sorted(by_r.items()))
            by_s = self._by_sender[msg.sender]
            self._by_sender[msg.sender] = dict(sorted(by_s.items()))
            by_b = self._by_batch[msg.batch]
            self._by_batch[msg.batch] = dict(sorted(by_b.items()))

    # -- inspection --------------------------------------------------------

    def view(self) -> TransitView:
        """The scheduler-facing facade (a singleton; state lives here)."""
        return self._view

    def get(self, uid: int) -> Optional[Message]:
        return self._in_transit.get(uid)

    def in_transit(self) -> list[Message]:
        """In-transit messages, oldest first."""
        in_transit = self._in_transit
        return [in_transit[uid] for uid in self._uids]

    def in_transit_views(self) -> list[MessageView]:
        return [m.view() for m in self.in_transit()]

    def __len__(self) -> int:
        return len(self._in_transit)
