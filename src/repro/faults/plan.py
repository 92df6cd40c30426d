"""The declarative, seeded FaultPlan DSL.

A *fault plan* names what the real world is allowed to do to a run:
crash a process at a step, drop or duplicate messages with a seeded
probability, partition a set of processes from the rest for a window of
steps, kill and later restart a process (replaying its inbox from the
message log), or corrupt frames on the TCP wire. Plans are named the way
timing and latency models are — short, round-trippable strings that ride
through ScenarioSpec/RunRecord JSON, CSV rows, and store fingerprints as
the ``faults`` axis:

* ``none`` — the identity plan (the default everywhere);
* ``crash@p2s40`` — crash pid 2 at delivery step 40;
* ``crash-restart@p3s20r60`` — crash pid 3 at step 20, restart it at
  step 60 with its logged inbox replayed (outbound sends suppressed
  during replay: they already happened);
* ``drop-0.1`` — drop each protocol message with probability 0.1;
* ``dup-0.05`` — duplicate each protocol message with probability 0.05;
* ``partition@{1,2}t30h90`` — from step 30 until step 90, messages
  crossing the cut between {1, 2} and everyone else are held and
  released at heal;
* ``corrupt-tcp-0.01`` — flip a byte in 1% of TCP frames (the receiver's
  CRC check discards them; a no-op on the kernel, ``sim`` and ``net``);
* compound plans join actions with ``+``: ``drop-0.1+crash@p2s40``.

Every probabilistic decision draws from a per-edge ``RngTree`` stream
rooted at the *run seed* and namespaced by the action kind — so the same
``(seed, plan)`` produces the same fault schedule on repeat runs, and
composing actions never perturbs each other's streams. Step thresholds
(crash/restart/partition windows) count *deliveries*, the substrate-
neutral clock both runtimes share; an event whose step never arrives
simply does not fire.

Like latency models, plans are registered by name: exact names in
``FAULT_BUILDERS``, parameterized forms via regexes in
:func:`fault_from_name`. Third-party actions register with
:func:`register_fault`.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from repro.errors import FaultError
from repro.utils.rng import RngTree


def _fmt(value: float) -> str:
    """Round-trippable numeric formatting for model names."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _probability(raw: str, form: str) -> float:
    p = float(raw)
    if not 0.0 <= p <= 1.0:
        raise FaultError(f"{form} probability must be in [0, 1], got {p}")
    return p


class FaultAction:
    """One named fault; a plan is a ``+``-joined sequence of these.

    Subclasses set ``kind`` and ``name`` and draw any randomness from
    per-edge streams handed out by :meth:`edge_rng`, which memoizes
    ``tree.child("fault", kind, "edge", sender, recipient)`` — one
    independent stream per (action kind, directed edge), consumed in
    send order.
    """

    kind = "none"

    def __init__(self) -> None:
        self.name = self.kind
        self._tree: Optional[RngTree] = None
        self._edge_rngs: dict = {}

    def reset(self, tree: RngTree) -> None:
        """Re-root this action's streams for a new run."""
        self._tree = tree
        self._edge_rngs = {}

    def edge_rng(self, sender: int, recipient: int):
        key = (sender, recipient)
        rng = self._edge_rngs.get(key)
        if rng is None:
            if self._tree is None:
                raise FaultError(
                    f"fault action {self.name!r} used before reset()"
                )
            rng = self._tree.child("fault", self.kind, "edge",
                                   sender, recipient).rng
            self._edge_rngs[key] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class CrashFault(FaultAction):
    """Kill ``pid`` at delivery step ``step``; optionally restart later.

    Without ``restart`` the crash is permanent — the process halts, its
    pending inbound messages are discarded, and
    :func:`~repro.mediator.games.resolve_actions` hands it the game's
    default move, exactly like the fail-stop deviations. With ``restart``
    the process is replaced by a pristine copy at step ``restart`` and its
    logged inbox (start signal included) is replayed with outbound sends
    suppressed — the crash-recovery model with a stable message log.
    """

    kind = "crash"

    def __init__(self, pid: int, step: int,
                 restart: Optional[int] = None) -> None:
        super().__init__()
        if pid < 0:
            raise FaultError(f"crash pid must be >= 0, got {pid}")
        if step < 0:
            raise FaultError(f"crash step must be >= 0, got {step}")
        if restart is not None and restart <= step:
            raise FaultError(
                f"restart step {restart} must come after crash step {step}"
            )
        self.pid = pid
        self.step = step
        self.restart = restart
        if restart is None:
            self.name = f"crash@p{pid}s{step}"
        else:
            self.kind = "crash-restart"
            self.name = f"crash-restart@p{pid}s{step}r{restart}"


class SeededFault(FaultAction):
    """Act on each protocol message with probability ``p``, drawn from
    the message's per-edge stream."""

    def __init__(self, p: float) -> None:
        super().__init__()
        self.p = float(p)
        self.name = f"{self.kind}-{_fmt(self.p)}"

    def decide(self, sender: int, recipient: int) -> bool:
        # edge_rng inlined for a stream it has already made: this runs
        # once per protocol message.
        rng = self._edge_rngs.get((sender, recipient))
        if rng is None:
            rng = self.edge_rng(sender, recipient)
        return rng.random() < self.p


class DropFault(SeededFault):
    """Drop each protocol message with probability ``p`` (per-edge seeded)."""

    kind = "drop"


class DupFault(SeededFault):
    """Duplicate each protocol message with probability ``p``."""

    kind = "dup"


class PartitionFault(FaultAction):
    """Hold messages crossing the cut between ``group`` and the rest.

    Active while ``start <= step < heal``; held messages are reinstated
    at the heal step (or immediately when traffic drains first — the
    fault schedule cannot outlive the run, so a partitioned run always
    quiesces).
    """

    kind = "partition"

    def __init__(self, group, start: int, heal: int) -> None:
        super().__init__()
        pids = tuple(sorted(set(int(p) for p in group)))
        if not pids:
            raise FaultError("partition group must name at least one pid")
        if any(p < 0 for p in pids):
            raise FaultError(f"partition pids must be >= 0, got {pids}")
        if start < 0 or heal <= start:
            raise FaultError(
                f"partition window must satisfy 0 <= start < heal, "
                f"got start={start} heal={heal}"
            )
        self.group = frozenset(pids)
        self.start = start
        self.heal = heal
        self.name = (
            f"partition@{{{','.join(str(p) for p in pids)}}}"
            f"t{start}h{heal}"
        )

    def crosses(self, sender: int, recipient: int) -> bool:
        return (sender in self.group) != (recipient in self.group)


class CorruptTcpFault(SeededFault):
    """Flip a byte in a fraction ``p`` of TCP frames (CRC discards them).

    Only the TCP transport has a wire to corrupt; on the kernel (``sim``
    and ``net`` runs) this action is the identity.
    """

    kind = "corrupt-tcp"


class FaultPlan:
    """An ordered bundle of :class:`FaultAction`\\ s with one canonical name.

    The empty plan is ``none``. Plans are immutable after construction;
    :meth:`reset` re-roots every action's seeded streams for a new run.
    """

    def __init__(self, actions=()) -> None:
        self.actions = tuple(actions)
        crashed = {}
        for action in self.actions:
            if isinstance(action, CrashFault):
                if action.pid in crashed:
                    raise FaultError(
                        f"plan crashes pid {action.pid} twice "
                        f"({crashed[action.pid].name} and {action.name})"
                    )
                crashed[action.pid] = action
        self.crashes = crashed
        self.drops = tuple(
            a for a in self.actions if isinstance(a, DropFault)
        )
        self.dups = tuple(a for a in self.actions if isinstance(a, DupFault))
        self.partitions = tuple(
            a for a in self.actions if isinstance(a, PartitionFault)
        )
        self.corruptions = tuple(
            a for a in self.actions if isinstance(a, CorruptTcpFault)
        )

    @property
    def name(self) -> str:
        if not self.actions:
            return "none"
        return "+".join(action.name for action in self.actions)

    @property
    def is_none(self) -> bool:
        return not self.actions

    def reset(self, seed: int) -> None:
        tree = RngTree(seed)
        for action in self.actions:
            action.reset(tree)

    def validate_pids(self, pids) -> None:
        """Raise when the plan targets a pid the run does not have."""
        known = set(pids)
        for action in self.actions:
            targets: tuple = ()
            if isinstance(action, CrashFault):
                targets = (action.pid,)
            elif isinstance(action, PartitionFault):
                targets = tuple(action.group)
            unknown = sorted(set(targets) - known)
            if unknown:
                raise FaultError(
                    f"fault {action.name!r} targets unknown pid(s) "
                    f"{unknown}; this run has pids {sorted(known)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.name}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


FAULT_BUILDERS: dict[str, Callable[[], FaultPlan]] = {
    "none": FaultPlan,
}
"""Exact plan names. Parameterized forms are parsed in
:func:`fault_from_name`; third parties add names via
:func:`register_fault`."""


def register_fault(name: str, builder: Callable[[], FaultPlan]) -> None:
    """Register an exact fault-plan name (duplicates raise)."""
    if name in FAULT_BUILDERS:
        raise FaultError(f"fault plan {name!r} is already registered")
    FAULT_BUILDERS[name] = builder


def fault_names() -> list[str]:
    return sorted(FAULT_BUILDERS)


_CRASH_RE = re.compile(r"^crash@p(\d+)s(\d+)$")
_CRASH_RESTART_RE = re.compile(r"^crash-restart@p(\d+)s(\d+)r(\d+)$")
_DROP_RE = re.compile(r"^drop-(\d+(?:\.\d+)?)$")
_DUP_RE = re.compile(r"^dup-(\d+(?:\.\d+)?)$")
_PARTITION_RE = re.compile(r"^partition@\{(\d+(?:,\d+)*)\}t(\d+)h(\d+)$")
_CORRUPT_RE = re.compile(r"^corrupt-tcp-(\d+(?:\.\d+)?)$")

_KNOWN_FORMS = (
    "crash@p<pid>s<step>", "crash-restart@p<pid>s<step>r<step>",
    "drop-<p>", "dup-<p>", "partition@{<pids>}t<start>h<heal>",
    "corrupt-tcp-<p>", "'+'-joined combinations",
)


def _action_from_name(part: str) -> FaultAction:
    match = _CRASH_RE.match(part)
    if match:
        return CrashFault(int(match.group(1)), int(match.group(2)))
    match = _CRASH_RESTART_RE.match(part)
    if match:
        return CrashFault(
            int(match.group(1)), int(match.group(2)),
            restart=int(match.group(3)),
        )
    match = _DROP_RE.match(part)
    if match:
        return DropFault(_probability(match.group(1), "drop"))
    match = _DUP_RE.match(part)
    if match:
        return DupFault(_probability(match.group(1), "dup"))
    match = _PARTITION_RE.match(part)
    if match:
        pids = [int(p) for p in match.group(1).split(",")]
        return PartitionFault(pids, int(match.group(2)), int(match.group(3)))
    match = _CORRUPT_RE.match(part)
    if match:
        return CorruptTcpFault(_probability(match.group(1), "corrupt-tcp"))
    raise FaultError(
        f"unknown fault {part!r}: known plans are "
        f"{', '.join(fault_names())}; parameterized forms are "
        f"{', '.join(_KNOWN_FORMS)}"
    )


def fault_from_name(name: str) -> FaultPlan:
    """Parse a plan name (``registry | action['+'action...]``)."""
    if name in FAULT_BUILDERS:
        return FAULT_BUILDERS[name]()
    parts = [part for part in name.split("+") if part]
    if not parts:
        raise FaultError(
            f"unknown fault plan {name!r}: known plans are "
            f"{', '.join(fault_names())}"
        )
    actions = []
    for part in parts:
        if part == "none":
            continue
        actions.append(_action_from_name(part))
    return FaultPlan(actions)
