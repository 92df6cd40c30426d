"""The substrate-neutral fault-injection state machine.

Both runtimes — the simulated kernel (:class:`repro.sim.runtime.Runtime`,
which also runs ``runtime="net"`` under a latency scheduler) and the TCP
substrate (:class:`repro.net.runtime.NetRuntime`) — drive one
:class:`FaultInjector` per run through the same hook points:

* **per-step events** — :meth:`due_events` hands back crash/restart/heal
  events whose delivery-step threshold has arrived; the runtime applies
  them (halt the process, restore a snapshot and replay its inbox,
  release held messages);
* **per-send fate** — :meth:`fate` decides what happens to each protocol
  message as it is sent: delivered (possibly in duplicate), dropped, or
  held behind a partition cut / a crashed-but-restartable recipient;
* **per-delivery log** — :meth:`log_delivery` records what a
  crash-restart target receives, so its restart can replay it;
* **quiesce advance** — when nothing is deliverable, :meth:`pop_recovery`
  pulls the earliest pending *recovery* (restart or heal) forward so the
  fault schedule can never outlive the traffic: a partitioned or
  crash-restart run always quiesces. Crash events never fire early — a
  crash scheduled beyond the run's natural length simply does not
  happen.

A plan acts on few messages, so the kernel calls each hook only while
it can act, and the injector keeps the state that says when:

* events: the kernel compares the step with :attr:`next_step` and calls
  :meth:`due_events` only on a step where an event is due;
* fate: while :attr:`passive` is true — no recipient is down, every
  partition has healed and the plan neither drops nor duplicates —
  :meth:`fate` could only answer "deliver once", so the kernel does not
  call it. A drop or dup plan is never passive: each of its sends draws
  from a seeded stream. Reset, crash, restart and heal keep the flag
  current;
* log: only a restart target whose restart has not fired yet has an
  :attr:`inbox_log`, and the kernel observes deliveries for the log only
  while one is open. :meth:`restore` hands the log over and drops it: a
  plan crashes a pid at most once, so nothing is replayed twice.

The TCP runtime calls :meth:`due_events` every step and :meth:`fate`
on every send; both answer the same there.

All state here is rebuilt by :meth:`reset` from ``(plan, seed)``, so a
run under faults stays a pure function of ``(spec, seed)`` and repeat
runs are byte-identical. Held items are opaque to the injector; both
runtimes store withdrawn :class:`~repro.sim.network.Message` objects.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.plan import FaultPlan

NEVER = sys.maxsize
""":attr:`FaultInjector.next_step` while no event is pending."""


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault transition (``kind``: crash | restart | heal)."""

    step: int
    seq: int
    kind: str
    pid: Optional[int] = None
    index: Optional[int] = None

    @property
    def is_recovery(self) -> bool:
        return self.kind in ("restart", "heal")


class FaultInjector:
    """Per-run fault bookkeeping shared by both substrates."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.replaying = False
        self.passive = False
        """True while :meth:`fate` can only answer ``("deliver", 1)``."""
        self.next_step = NEVER
        """The step of the earliest pending event."""
        self.down: set[int] = set()
        self.inbox_log: dict[int, list] = {}
        """Delivered ``(sender, payload)`` pairs per restart target whose
        restart has not fired yet."""
        self._snapshots: dict[int, Any] = {}
        self._held: dict[tuple, list] = {}
        self._healed: set[int] = set()
        self._events: list[FaultEvent] = []

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed: int, processes: dict) -> None:
        """Re-root streams, snapshot restart targets, build the schedule."""
        self.plan.reset(seed)
        self.plan.validate_pids(processes.keys())
        self.replaying = False
        self.down = set()
        self.inbox_log = {}
        self._snapshots = {}
        self._held = {}
        self._healed = set()
        events = []
        seq = 0
        for pid in sorted(self.plan.crashes):
            crash = self.plan.crashes[pid]
            events.append(FaultEvent(crash.step, seq, "crash", pid=pid))
            seq += 1
            if crash.restart is not None:
                events.append(
                    FaultEvent(crash.restart, seq, "restart", pid=pid)
                )
                seq += 1
                # Pristine copy taken before the run starts: the restart
                # installs it and replays the logged inbox into it.
                self._snapshots[pid] = copy.deepcopy(processes[pid])
                self.inbox_log[pid] = []
        for index, part in enumerate(self.plan.partitions):
            events.append(FaultEvent(part.heal, seq, "heal", index=index))
            seq += 1
        self._events = sorted(events, key=lambda e: (e.step, e.seq))
        self._reschedule()
        self._refresh_passive()

    def _reschedule(self) -> None:
        self.next_step = self._events[0].step if self._events else NEVER

    def _refresh_passive(self) -> None:
        plan = self.plan
        self.passive = not (
            self.down
            or len(self._healed) < len(plan.partitions)
            or plan.drops
            or plan.dups
        )

    # -- the schedule --------------------------------------------------------

    def due_events(self, step: int) -> list[FaultEvent]:
        """Pop every event whose step threshold has arrived."""
        if step < self.next_step:
            return []
        events = self._events
        due = []
        while events and events[0].step <= step:
            due.append(events.pop(0))
        self._reschedule()
        return due

    def pop_recovery(self) -> Optional[FaultEvent]:
        """Pop the earliest pending restart/heal (quiesce pull-forward)."""
        for i, event in enumerate(self._events):
            if event.is_recovery:
                event = self._events.pop(i)
                self._reschedule()
                return event
        return None

    # -- per-send decisions --------------------------------------------------

    def fate(self, sender: int, recipient: int, step: int) -> tuple:
        """``("hold", key)`` | ``("drop", None)`` | ``("deliver", copies)``.

        Held messages are exempt from drop/dup draws (they never reached
        the wire), which keeps the seeded streams aligned with the
        deterministic hold schedule.
        """
        if recipient in self.down:
            return ("hold", ("restart", recipient))
        for index, part in enumerate(self.plan.partitions):
            if (
                index not in self._healed
                and part.start <= step < part.heal
                and part.crosses(sender, recipient)
            ):
                return ("hold", ("heal", index))
        for drop in self.plan.drops:
            if drop.decide(sender, recipient):
                return ("drop", None)
        copies = 1
        for dup in self.plan.dups:
            if dup.decide(sender, recipient):
                copies += 1
        return ("deliver", copies)

    def corrupts(self, sender: int, recipient: int) -> bool:
        """Seeded wire-corruption decision (TCP transport only)."""
        return any(
            action.decide(sender, recipient)
            for action in self.plan.corruptions
        )

    # -- held messages -------------------------------------------------------

    def hold(self, key: tuple, item: Any) -> None:
        self._held.setdefault(key, []).append(item)

    def release(self, key: tuple) -> list:
        return self._held.pop(key, [])

    def mark_healed(self, index: int) -> None:
        self._healed.add(index)
        self._refresh_passive()

    # -- crash-restart bookkeeping ------------------------------------------

    def is_restart_target(self, pid: int) -> bool:
        return pid in self._snapshots

    def go_down(self, pid: int) -> None:
        self.down.add(pid)
        self._refresh_passive()

    def restore(self, pid: int) -> Optional[tuple]:
        """``(pristine process copy, inbox to replay)`` for a restart, or
        None if the crash never fired. Either way the pid's inbox log is
        dropped: a plan crashes a pid at most once."""
        inbox = self.inbox_log.pop(pid, [])
        if pid not in self.down:
            return None
        self.down.discard(pid)
        self._refresh_passive()
        return copy.deepcopy(self._snapshots[pid]), inbox

    def log_delivery(self, pid: int, sender: int, payload: Any) -> None:
        log = self.inbox_log.get(pid)
        if log is not None and not self.replaying:
            # Deep-copied so a recipient that mutates a delivered payload
            # cannot retroactively change what a replay feeds back in.
            log.append((sender, copy.deepcopy(payload)))


def injector_for(faults: Any) -> Optional[FaultInjector]:
    """Normalize a runtime's ``faults`` argument to an injector (or None).

    Accepts a plan name (``"crash@p2s40+drop-0.1"``), a :class:`FaultPlan`,
    an existing :class:`FaultInjector`, or ``None``/``"none"``. Empty plans
    normalize to ``None`` so the fault-free fast path stays hook-free.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return None if faults.plan.is_none else faults
    if isinstance(faults, str):
        from repro.faults.plan import fault_from_name

        faults = fault_from_name(faults)
    return None if faults.is_none else FaultInjector(faults)
