"""The compositional deviation search space.

A *candidate deviation* assigns one parameterized :class:`DeviationAtom` to
every member of a coalition. Atoms are the deviation primitives the repo
already ships in :mod:`repro.analysis.deviations` — crashing, stalling
after a grid of activation limits, lying in openings, selective silence
toward target subsets, misreporting a forged type, covert signalling to
the environment — plus the joint leak-pooling family (two members pool the
mediator's per-player leaks and conditionally engineer a deadlock, the
shape of the paper's Section 6.4 attack, with the profitable conditioning
left for the search to find).

Candidates are pure data: they serialize to a ``audit:{…}`` *deviation
name* that the experiment layer resolves back into per-player factories,
which is what lets an :class:`~repro.experiments.runner.ExperimentRunner`
evaluate a whole batch of candidates as one ordinary scenario grid — in
parallel, with the same determinism guarantees as any other sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterator, Optional, Sequence

from repro.audit.coalitions import Coalition
from repro.errors import ExperimentError

AUDIT_DEVIATION_PREFIX = "audit:"

ATOM_MODES: dict[str, frozenset[str]] = {
    "crash": frozenset({"cheaptalk", "mediator"}),
    "stall": frozenset({"cheaptalk", "mediator"}),
    "lie": frozenset({"cheaptalk"}),
    "silence": frozenset({"cheaptalk"}),
    "misreport": frozenset({"cheaptalk", "mediator"}),
    "covert": frozenset({"cheaptalk", "mediator"}),
    "leak-pool": frozenset({"mediator"}),
}
"""Atom kinds and the run modes in which each can be instantiated."""

DEFAULT_STALL_LIMITS = (2, 8, 24)


def atom_kinds() -> tuple[str, ...]:
    return tuple(sorted(ATOM_MODES))


@dataclass(frozen=True)
class DeviationAtom:
    """One parameterized deviation primitive assigned to one player."""

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ATOM_MODES:
            raise ExperimentError(
                f"unknown deviation atom {self.kind!r}; known atoms: "
                f"{', '.join(atom_kinds())}"
            )
        object.__setattr__(
            self,
            "params",
            tuple(sorted((str(k), _freeze(v)) for k, v in self.params)),
        )

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def label(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={_compact(v)}" for k, v in self.params)
        return f"{self.kind}({inner})"


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _compact(value: Any) -> str:
    if isinstance(value, tuple):
        return "[" + " ".join(_compact(v) for v in value) + "]"
    return str(value)


def _thaw(value: Any) -> Any:
    """JSON-safe form of a frozen param value."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class CandidateDeviation:
    """A coalition plus one atom per member — one point of the search space."""

    rational: tuple[int, ...] = ()
    malicious: tuple[int, ...] = ()
    atoms: tuple[tuple[int, DeviationAtom], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", tuple(sorted(self.rational)))
        object.__setattr__(self, "malicious", tuple(sorted(self.malicious)))
        object.__setattr__(
            self, "atoms", tuple(sorted(self.atoms, key=lambda pa: pa[0]))
        )
        members = set(self.rational) | set(self.malicious)
        assigned = [pid for pid, _ in self.atoms]
        if len(set(assigned)) != len(assigned):
            raise ExperimentError("candidate assigns several atoms to one pid")
        if set(assigned) - members:
            raise ExperimentError(
                "candidate assigns atoms to players outside the coalition"
            )

    @property
    def coalition(self) -> Coalition:
        return Coalition(self.rational, self.malicious)

    @property
    def name(self) -> str:
        """The ``audit:{…}`` deviation name carried by scenario specs."""
        payload = {
            "r": list(self.rational),
            "m": list(self.malicious),
            "atoms": [
                [pid, {"kind": atom.kind,
                       "params": {k: _thaw(v) for k, v in atom.params}}]
                for pid, atom in self.atoms
            ],
        }
        return AUDIT_DEVIATION_PREFIX + json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )

    def describe(self) -> str:
        if not self.atoms:
            return "honest"
        assignment = " ".join(
            f"{pid}:{atom.label()}" for pid, atom in self.atoms
        )
        return f"{self.coalition.describe()} {assignment}".strip()

    # -- factory materialization --------------------------------------------

    def build(self, game_spec, mode: str) -> dict:
        """Resolve into ``{pid: factory}`` for a ``mode`` run."""
        return {
            pid: _build_atom(atom, game_spec, mode, pid)
            for pid, atom in self.atoms
        }


def candidate_from_name(name: str) -> CandidateDeviation:
    """Parse an ``audit:{…}`` deviation name back into a candidate."""
    if not name.startswith(AUDIT_DEVIATION_PREFIX):
        raise ExperimentError(
            f"not an audit deviation name: {name!r} (expected the "
            f"{AUDIT_DEVIATION_PREFIX!r} prefix)"
        )
    try:
        payload = json.loads(name[len(AUDIT_DEVIATION_PREFIX):])
        atoms = tuple(
            (int(pid), DeviationAtom(
                kind=entry["kind"],
                params=tuple(entry.get("params", {}).items()),
            ))
            for pid, entry in payload["atoms"]
        )
        return CandidateDeviation(
            rational=tuple(payload.get("r", ())),
            malicious=tuple(payload.get("m", ())),
            atoms=atoms,
        )
    except ExperimentError:
        raise
    except Exception as exc:  # malformed JSON / wrong shape
        raise ExperimentError(
            f"malformed audit deviation name {name!r}: {exc}"
        ) from None


HONEST_CANDIDATE = CandidateDeviation()
"""The empty deviation: every player honest; the audit gain baseline."""


# ---------------------------------------------------------------------------
# Atom materialization
# ---------------------------------------------------------------------------

def _require_mode(atom: DeviationAtom, mode: str) -> None:
    if mode not in ATOM_MODES[atom.kind]:
        raise ExperimentError(
            f"deviation atom {atom.kind!r} is not available in {mode!r} "
            f"runs (supports: {', '.join(sorted(ATOM_MODES[atom.kind]))})"
        )


def _build_atom(atom: DeviationAtom, game_spec, mode: str, pid: int):
    from repro.analysis import deviations as dev

    _require_mode(atom, mode)
    kind = atom.kind
    if kind == "crash":
        return dev.ct_crash() if mode == "cheaptalk" else dev.crash()
    if kind == "stall":
        limit = int(atom.param("limit", DEFAULT_STALL_LIMITS[0]))
        if mode == "cheaptalk":
            return dev.ct_stall_after(game_spec, limit)
        return dev.stall_after_messages(game_spec, limit)
    if kind == "lie":
        return dev.ct_lying_shares(game_spec)
    if kind == "silence":
        victims = tuple(int(v) for v in atom.param("victims", ()))
        return dev.ct_selective_silence(game_spec, victims)
    if kind == "misreport":
        fake = atom.param("fake")
        if mode == "cheaptalk":
            return dev.ct_misreport(game_spec, fake)
        return dev.misreport(game_spec, fake)
    if kind == "covert":
        return _covert_factory(game_spec, mode)
    if kind == "leak-pool":
        partner = int(atom.param("partner", -1))
        stall_when = int(atom.param("when", 0))
        return _leak_pool_factory(game_spec, partner, stall_when)
    raise ExperimentError(f"unknown deviation atom {kind!r}")  # pragma: no cover


def _covert_factory(game_spec, mode: str):
    """Covert signalling (Section 6.1): honest play + countable self-messages."""
    from repro.analysis.deviations import CovertSignaller

    if mode == "mediator":
        from repro.mediator.protocol import HonestMediatorPlayer

        def factory(pid, own_type):
            return CovertSignaller(
                HonestMediatorPlayer(game_spec, pid, own_type),
                encode=lambda payload: 1,
            )

        return factory

    from repro.cheaptalk.game import CheapTalkPlayer

    def factory(pid, own_type, config):
        return CovertSignaller(
            CheapTalkPlayer(game_spec, pid, own_type, config),
            encode=lambda payload: 1,
        )

    return factory


def _leak_pool_factory(game_spec, partner: int, stall_when: int):
    from repro.analysis.section64 import LeakAttacker

    def factory(pid, own_type):
        return LeakAttacker(
            game_spec, pid, own_type, partner=partner, stall_when=stall_when
        )

    return factory


# ---------------------------------------------------------------------------
# The search space
# ---------------------------------------------------------------------------

class StrategySpace:
    """All candidate deviations over a set of coalitions.

    The space is the union, over each coalition, of (a) the *joint*
    templates that need coordinated members (leak-pooling pairs) and
    (b) the pointwise product of each member's atom menu. It supports lazy
    enumeration, O(1)-ish indexed access (mixed-radix decomposition over
    the menus, which is what makes seeded random sampling deterministic and
    cheap), and local mutation for hill-climbing.
    """

    def __init__(
        self,
        game_spec,
        mode: str,
        coalitions: Sequence[Coalition],
        atoms: Sequence[str] = (),
        stall_limits: Sequence[int] = DEFAULT_STALL_LIMITS,
    ) -> None:
        if mode not in ("cheaptalk", "mediator"):
            raise ExperimentError(
                f"strategy spaces exist for 'cheaptalk' and 'mediator' runs, "
                f"not {mode!r}"
            )
        for kind in atoms:
            if kind not in ATOM_MODES:
                raise ExperimentError(
                    f"unknown deviation atom {kind!r}; known atoms: "
                    f"{', '.join(atom_kinds())}"
                )
        self.game_spec = game_spec
        self.mode = mode
        self.coalitions = tuple(coalitions)
        self.kinds = tuple(
            kind for kind in (atoms or atom_kinds())
            if mode in ATOM_MODES[kind]
        )
        self.stall_limits = tuple(int(v) for v in stall_limits)
        self._blocks = [self._block(c) for c in self.coalitions]

    # -- per-coalition geometry ---------------------------------------------

    def menu(self, pid: int, coalition: Coalition) -> tuple[DeviationAtom, ...]:
        """The pointwise atom menu for one coalition member."""
        n = self.game_spec.game.n
        out: list[DeviationAtom] = []
        for kind in self.kinds:
            if kind == "crash":
                out.append(DeviationAtom("crash"))
            elif kind == "stall":
                out.extend(
                    DeviationAtom("stall", (("limit", limit),))
                    for limit in self.stall_limits
                )
            elif kind == "lie":
                out.append(DeviationAtom("lie"))
            elif kind == "silence":
                outsiders = coalition.outsiders(n)
                options = []
                if outsiders:
                    options.append((outsiders[0],))
                    if len(outsiders) > 1:
                        options.append(tuple(outsiders))
                out.extend(
                    DeviationAtom("silence", (("victims", victims),))
                    for victims in options
                )
            elif kind == "misreport":
                values = self.game_spec.game.type_space.player_types(pid)
                if len(values) > 1:
                    out.extend(
                        DeviationAtom("misreport", (("fake", value),))
                        for value in values
                    )
            elif kind == "covert":
                out.append(DeviationAtom("covert"))
            # "leak-pool" is joint-only: see _joint_candidates.
        return tuple(out)

    def _joint_candidates(
        self, coalition: Coalition
    ) -> tuple[CandidateDeviation, ...]:
        if (
            "leak-pool" not in self.kinds
            or self.mode != "mediator"
            or coalition.size != 2
        ):
            return ()
        i, j = coalition.members
        out = []
        for when in (0, 1):
            out.append(CandidateDeviation(
                rational=coalition.rational,
                malicious=coalition.malicious,
                atoms=(
                    (i, DeviationAtom(
                        "leak-pool", (("partner", j), ("when", when)))),
                    (j, DeviationAtom(
                        "leak-pool", (("partner", i), ("when", when)))),
                ),
            ))
        return tuple(out)

    def _block(self, coalition: Coalition):
        joints = self._joint_candidates(coalition)
        menus = tuple(self.menu(pid, coalition) for pid in coalition.members)
        pointwise = 1
        for menu in menus:
            pointwise *= len(menu)
        return (coalition, joints, menus, len(joints) + pointwise)

    # -- enumeration / indexing ---------------------------------------------

    def size(self) -> int:
        return sum(block[3] for block in self._blocks)

    def nth(self, index: int) -> CandidateDeviation:
        """The index-th candidate in enumeration order (deterministic)."""
        if index < 0:
            raise ExperimentError("candidate index must be >= 0")
        requested = index
        for coalition, joints, menus, block_size in self._blocks:
            if index >= block_size:
                index -= block_size
                continue
            if index < len(joints):
                return joints[index]
            index -= len(joints)
            picks = []
            for menu in reversed(menus):
                picks.append(menu[index % len(menu)])
                index //= len(menu)
            picks.reverse()
            return CandidateDeviation(
                rational=coalition.rational,
                malicious=coalition.malicious,
                atoms=tuple(zip(coalition.members, picks)),
            )
        raise ExperimentError(
            f"candidate index {requested} out of range for a space of "
            f"{self.size()} candidates"
        )

    def candidates(self) -> Iterator[CandidateDeviation]:
        for coalition, joints, menus, _ in self._blocks:
            yield from joints
            for picks in product(*menus):
                yield CandidateDeviation(
                    rational=coalition.rational,
                    malicious=coalition.malicious,
                    atoms=tuple(zip(coalition.members, picks)),
                )

    def sample(self, rng) -> Optional[CandidateDeviation]:
        total = self.size()
        if total == 0:
            return None
        return self.nth(rng.randrange(total))

    # -- local search moves --------------------------------------------------

    def neighbors(
        self, candidate: CandidateDeviation, rng, limit: int = 8
    ) -> list[CandidateDeviation]:
        """Single-mutation neighbors of ``candidate`` (for hill climbing)."""
        block = None
        for entry in self._blocks:
            if entry[0] == candidate.coalition:
                block = entry
                break
        if block is None:
            return []
        coalition, joints, menus, _ = block
        out: dict[str, CandidateDeviation] = {}
        for joint in joints:
            if joint.name != candidate.name:
                out[joint.name] = joint
        is_joint = any(atom.kind == "leak-pool" for _, atom in candidate.atoms)
        if is_joint:
            # Escape hatch out of the joint family: uniform pointwise
            # assignments over the first member's menu.
            for atom in menus[0] if menus else ():
                try:
                    neighbor = CandidateDeviation(
                        rational=coalition.rational,
                        malicious=coalition.malicious,
                        atoms=tuple(
                            (pid, atom) for pid in coalition.members
                        ),
                    )
                except ExperimentError:  # pragma: no cover
                    continue
                out[neighbor.name] = neighbor
        if not is_joint:
            current = dict(candidate.atoms)
            for slot, pid in enumerate(coalition.members):
                for atom in menus[slot]:
                    if atom == current.get(pid):
                        continue
                    atoms = tuple(
                        (p, atom if p == pid else a)
                        for p, a in candidate.atoms
                    )
                    neighbor = CandidateDeviation(
                        rational=coalition.rational,
                        malicious=coalition.malicious,
                        atoms=atoms,
                    )
                    out[neighbor.name] = neighbor
        ordered = [out[name] for name in sorted(out)]
        if len(ordered) > limit:
            ordered = rng.sample(ordered, limit)
            ordered.sort(key=lambda c: c.name)
        return ordered
