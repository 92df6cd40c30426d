"""Messages and the in-transit message pool.

Channels are secure and private point-to-point links: the scheduler observes
*that* a message exists (sender, recipient, send order) but never its
payload — mirroring the paper's assumption that the environment cannot read
messages (Section 6.1). Scheduler code therefore only ever sees a
:class:`TransitView`, the zero-copy facade over a pool, and the
:class:`MessageView` objects it yields. Every pool a scheduler is handed is
one: the whole in-transit pool, or a small :class:`Network` a timing model
or a filtering scheduler fills with the messages it lets through.

The pool keeps each in-transit message as a plain record tuple
``(uid, sender, recipient, payload, send_step, batch)`` — the field order
of :class:`Message` — in a uid → record map, plus the in-transit uids in an
ascending list (so "the k-th oldest message", a random scheduler's draw, is
one index). :class:`Message` objects are built from records only for
callers off the per-message path: timing-model hooks, the fault
injector's held messages and inspection.

Per-recipient, per-sender and per-batch buckets and the self-send counts
form one :class:`PoolIndex`. The fifo, random and latency schedulers never
read it, so the pool builds it the first time a scheduler query asks for
it, and maintains it from then on. Only scheduler queries build it: a halt
(:meth:`Network.discard_to`) or a crash (:meth:`Network.withdraw_to`)
reads it if it is live and otherwise scans the in-transit uids once,
which costs less than keeping an index current on every later send and
delivery. Each bucket is an insertion-ordered dict kept in ascending uid
order, so "the oldest message to recipient r" is ``next(iter(bucket))``
— O(1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

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

    def record(self) -> tuple:
        """The pool's record of this message."""
        return (self.uid, self.sender, self.recipient, self.payload,
                self.send_step, self.batch)


@dataclass(frozen=True, slots=True)
class MessageView:
    """What a scheduler is allowed to see about an in-transit message."""

    uid: int
    sender: int
    recipient: int
    send_step: int
    batch: int


def _view_of(record: tuple) -> MessageView:
    uid, sender, recipient, _, send_step, batch = record
    return MessageView(uid, sender, recipient, send_step, batch)


class PoolIndex:
    """Buckets of in-transit records by recipient, sender and batch, and
    self-send counts.

    Not live until :meth:`ready` first builds it; from then on the
    :class:`Network` keeps it current on every send and removal.
    """

    __slots__ = ("live", "by_recipient", "by_sender", "by_batch",
                 "self_counts", "_records", "_uids")

    def __init__(self, records: dict, uids: list) -> None:
        self.live = False
        self.by_recipient: dict[int, dict[int, tuple]] = {}
        self.by_sender: dict[int, dict[int, tuple]] = {}
        self.by_batch: dict[int, dict[int, tuple]] = {}
        self.self_counts: dict[int, int] = {}
        self._records = records
        self._uids = uids

    def ready(self) -> "PoolIndex":
        """This index, built first if it is not live yet."""
        if not self.live:
            self.live = True
            records = self._records
            for uid in self._uids:
                self.add(records[uid])
        return self

    def add(self, record: tuple) -> None:
        """Index ``record``; callers add in ascending uid order or
        :meth:`resort` afterwards."""
        uid, sender, recipient, _, _, batch = record
        bucket = self.by_recipient.get(recipient)
        if bucket is None:
            self.by_recipient[recipient] = {uid: record}
        else:
            bucket[uid] = record
        bucket = self.by_sender.get(sender)
        if bucket is None:
            self.by_sender[sender] = {uid: record}
        else:
            bucket[uid] = record
        bucket = self.by_batch.get(batch)
        if bucket is None:
            self.by_batch[batch] = {uid: record}
        else:
            bucket[uid] = record
        if sender == recipient:
            self.self_counts[sender] = self.self_counts.get(sender, 0) + 1

    def discard(self, record: tuple) -> None:
        uid, sender, recipient, _, _, batch = record
        bucket = self.by_recipient[recipient]
        del bucket[uid]
        if not bucket:
            del self.by_recipient[recipient]
        bucket = self.by_sender[sender]
        del bucket[uid]
        if not bucket:
            del self.by_sender[sender]
        bucket = self.by_batch[batch]
        del bucket[uid]
        if not bucket:
            del self.by_batch[batch]
        if sender == recipient:
            remaining = self.self_counts[sender] - 1
            if remaining:
                self.self_counts[sender] = remaining
            else:
                del self.self_counts[sender]

    def resort(self, records: Iterable[tuple]) -> None:
        """Restore ascending uid order in every bucket ``records`` touch."""
        for _, sender, recipient, _, _, batch in records:
            for buckets, key in ((self.by_recipient, recipient),
                                 (self.by_sender, sender),
                                 (self.by_batch, batch)):
                buckets[key] = dict(sorted(buckets[key].items()))


class TransitView:
    """Read-only, allocation-free scheduler's view of the in-transit pool.

    ``len``, truthiness and iteration (:class:`MessageView` objects,
    oldest first) cover a plain scan; the indexed queries —
    ``has_uid``, :meth:`min_uid`, :meth:`nth_uid`, :meth:`oldest_to`,
    :meth:`oldest_from`, :meth:`oldest_in_batch`, :meth:`self_senders` —
    answer in O(1) from the network's sorted uid list and its
    :class:`PoolIndex`, which the first query that needs it builds.
    ``has_uid(uid)`` (is message ``uid`` still in transit?) is the record
    map's own ``__contains__``, so the latency heap's per-pop test is one
    C call. Payloads are never reachable through this object.

    The view holds the pool's record map, uid list and index, not the
    :class:`Network`, so the network and its view form no reference
    cycle and a finished run's pool is freed by reference counting. The
    network never rebinds those containers, which keeps the view current.
    """

    __slots__ = ("_records", "_uids", "_index", "has_uid")

    def __init__(self, records: dict, uids: list, index: PoolIndex) -> None:
        self._records = records
        self._uids = uids
        self._index = index
        self.has_uid = records.__contains__

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __iter__(self) -> Iterator[MessageView]:
        records = self._records
        snapshot = [records[uid] for uid in self._uids]
        return map(_view_of, snapshot)

    # -- indexed queries -----------------------------------------------------

    def uids(self) -> list[int]:
        """All in-transit uids, ascending (send order). Do not mutate."""
        return self._uids

    def min_uid(self) -> Optional[int]:
        """Oldest in-transit uid, or None when the pool is empty."""
        uids = self._uids
        return uids[0] if uids else None

    def nth_uid(self, index: int) -> int:
        """The ``index``-th oldest in-transit uid (0 is the oldest)."""
        return self._uids[index]

    def batch_of(self, uid: int) -> int:
        return self._records[uid][5]

    def recipients(self):
        """Recipients with at least one in-transit message."""
        return self._index.ready().by_recipient.keys()

    def senders(self):
        """Senders with at least one in-transit message."""
        return self._index.ready().by_sender.keys()

    def oldest_to(self, recipient: int) -> Optional[int]:
        bucket = self._index.ready().by_recipient.get(recipient)
        return next(iter(bucket)) if bucket else None

    def oldest_from(self, sender: int) -> Optional[int]:
        bucket = self._index.ready().by_sender.get(sender)
        return next(iter(bucket)) if bucket else None

    def oldest_in_batch(self, batch: int) -> Optional[int]:
        bucket = self._index.ready().by_batch.get(batch)
        return next(iter(bucket)) if bucket else None

    def to_recipient(self, recipient: int) -> Iterator[MessageView]:
        bucket = self._index.ready().by_recipient.get(recipient)
        return map(_view_of, bucket.values()) if bucket else iter(())

    def from_sender(self, sender: int) -> Iterator[MessageView]:
        bucket = self._index.ready().by_sender.get(sender)
        return map(_view_of, bucket.values()) if bucket else iter(())

    def self_senders(self):
        """Pids with a ``pid → pid`` message in transit (read-only view).

        Self-messages are the covert-channel signal relaxed colluding
        environments watch for (Section 6.1). The index counts them on
        send/remove, so the set is almost always empty and a watch over
        a coalition is one ``isdisjoint`` per step.
        """
        return self._index.ready().self_counts.keys()


class Network:
    """The pool of in-transit messages."""

    def __init__(self) -> None:
        self._next_uid = 0
        self.records: dict[int, tuple] = {}
        """In-transit records by uid. Read-only outside this class."""
        self._uids: list[int] = []
        """In-transit uids, ascending: appended on send (uids only grow),
        bisected out on removal, insorted on reinstatement."""
        self._index = PoolIndex(self.records, self._uids)
        self._view = TransitView(self.records, self._uids, self._index)
        self.total_delivered = 0
        self.total_dropped = 0

    @property
    def total_sent(self) -> int:
        # Only sends draw uids.
        return self._next_uid

    # -- sending -----------------------------------------------------------

    def send(
        self, sender: int, recipient: int, payload: Any, step: int, batch: int
    ) -> int:
        """Put a message in transit; returns its uid."""
        uid = self._next_uid
        self._next_uid = uid + 1
        record = (uid, sender, recipient, payload, step, batch)
        self.records[uid] = record
        self._uids.append(uid)
        if self._index.live:
            self._index.add(record)
        return uid

    # -- removal -----------------------------------------------------------

    def _pop(self, uid: int) -> tuple:
        record = self.records.pop(uid)
        uids = self._uids
        del uids[bisect_left(uids, uid)]
        if self._index.live:
            self._index.discard(record)
        return record

    def deliver(self, uid: int) -> tuple:
        """Take message ``uid`` out of transit as delivered; returns its
        record. Raises ``KeyError`` if ``uid`` is not in transit."""
        # _pop inlined: this runs once per delivered message.
        record = self.records.pop(uid)
        uids = self._uids
        del uids[bisect_left(uids, uid)]
        if self._index.live:
            self._index.discard(record)
        self.total_delivered += 1
        return record

    def drop(self, uid: int) -> None:
        self._pop(uid)
        self.total_dropped += 1

    def discard_to(self, recipients: set[int]) -> int:
        """Silently discard messages addressed to halted processes."""
        uids = self._uids_to(recipients)
        for uid in uids:
            self.drop(uid)
        return len(uids)

    def _uids_to(self, recipients: set[int]) -> list[int]:
        """In-transit uids addressed to ``recipients``, ascending per
        recipient: from the index if a scheduler has built it, else one
        scan — a halt or crash alone never builds the index."""
        index = self._index
        if index.live:
            by_recipient = index.by_recipient
            return [
                uid
                for recipient in sorted(recipients)
                if recipient in by_recipient
                for uid in by_recipient[recipient]
            ]
        records = self.records
        return [uid for uid in self._uids if records[uid][2] in recipients]

    # -- fault injection ----------------------------------------------------

    def withdraw(self, uid: int) -> Message:
        """Pull a message out of the pool without counting it delivered
        or dropped — the fault injector holds it for later reinstatement
        (partition cut, crashed-but-restartable recipient)."""
        return Message(*self._pop(uid))

    def withdraw_to(self, recipient: int) -> list[Message]:
        """Withdraw every in-transit message addressed to ``recipient``,
        oldest first."""
        return [self.withdraw(uid) for uid in self._uids_to({recipient})]

    def reinstate(self, messages: Iterable[Message]) -> None:
        """Put previously withdrawn messages back into the pool.

        Reinstated uids are older than anything sent since they were
        withdrawn, so they are insorted into the uid list and, when the
        index is live, every touched bucket is re-sorted to restore the
        ascending-uid order that :meth:`TransitView.min_uid`,
        :meth:`TransitView.nth_uid` and the oldest-first queries rely on.
        """
        records = sorted(m.record() for m in messages)
        if not records:
            return
        index = self._index
        for record in records:
            uid = record[0]
            self.records[uid] = record
            insort(self._uids, uid)
            if index.live:
                index.add(record)
        if index.live:
            index.resort(records)

    # -- inspection --------------------------------------------------------

    def view(self) -> TransitView:
        """The scheduler-facing facade (a singleton; state lives here)."""
        return self._view

    def __contains__(self, uid: int) -> bool:
        return uid in self.records

    def get(self, uid: int) -> Optional[Message]:
        record = self.records.get(uid)
        return None if record is None else Message(*record)

    def in_transit(self) -> list[Message]:
        """In-transit messages, oldest first."""
        records = self.records
        return [Message(*records[uid]) for uid in self._uids]

    def __len__(self) -> int:
        return len(self.records)
