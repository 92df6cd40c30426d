"""Canonical-form mediator and player processes (paper, Section 2).

Canonical form: the honest player sends an initial message to the mediator
and afterwards *only* responds to mediator messages that do not include
STOP; upon a STOP message it makes its move in the underlying game and
halts. The mediator sends each player at most ``r`` messages, the last of
which includes STOP. All STOP messages are sent in one step (one batch), so
a relaxed scheduler must deliver all or none of them — the premise of the
deadlock characterisation in Lemma 6.10.

Message shapes:

* player → mediator: ``("report", round, type_value)``
* mediator → player: ``("round", round, info)`` then ``("stop", action)``

``info`` is ``None`` for honest mediators; the Section 6.4 *leaky* mediator
puts ``a + b·i`` there (see :mod:`repro.mediator.minimal`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import MediatorError
from repro.games.library import GameSpec
from repro.sim.process import Context, Process

MEDIATOR_ROUNDS_DEFAULT = 1


def mediator_pid(n: int) -> int:
    """The mediator's process id in an n-player mediator game."""
    return n


class HonestMediatorPlayer(Process):
    """The canonical honest player strategy in the mediator game."""

    def __init__(
        self,
        spec: GameSpec,
        pid: int,
        own_type: Any,
        will: Optional[Callable[[int, Any], Any]] = None,
    ) -> None:
        self.spec = spec
        self.pid = pid
        self.own_type = own_type
        self.will = will
        self._mediator = mediator_pid(spec.game.n)

    def on_start(self, ctx: Context) -> None:
        ctx.send(self._mediator, ("report", 0, self.own_type))

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        if sender != self._mediator or not isinstance(payload, tuple):
            return  # honest players ignore non-mediator chatter
        kind = payload[0]
        if kind == "round":
            ctx.send(self._mediator, ("report", payload[1], self.own_type))
        elif kind == "stop":
            action = payload[1]
            if not ctx.has_output():
                ctx.output(action)
            ctx.halt()

    def on_deadlock(self, pid: int) -> Optional[Any]:
        """AH approach: the move left with the executor (the *will*)."""
        if self.will is None:
            return None
        return self.will(self.pid, self.own_type)


class FnMediator(Process):
    """Canonical-form mediator computing ``spec.mediator_fn`` on reports.

    Waits for round-0 reports from a quorum of ``n - k - t`` players, walks
    them through ``rounds - 1`` further report rounds (validating that each
    player repeats the same type), then sends every player its recommended
    action in a single STOP batch. Missing or invalid reporters are replaced
    by the spec's default type (their own report is ignored — the paper's
    mediator likewise extends the received profile arbitrarily).
    """

    def __init__(
        self,
        spec: GameSpec,
        k: int,
        t: int,
        rounds: int = MEDIATOR_ROUNDS_DEFAULT,
        default_type: Optional[Callable[[int], Any]] = None,
    ) -> None:
        if rounds < 1:
            raise MediatorError("mediator needs at least one round")
        self.spec = spec
        self.n = spec.game.n
        self.quorum = self.n - k - t
        if self.quorum < 1:
            raise MediatorError(f"quorum n-k-t = {self.quorum} must be >= 1")
        self.rounds = rounds
        self.default_type = default_type or (
            lambda pid: spec.game.type_space.profiles()[0][pid]
        )
        self.reports: dict[int, dict[int, Any]] = {}
        self.current_round = 0
        self.stopped = False
        self._round_state: Any = None
        # Incremental completeness index over ``reports`` (which is
        # first-one-wins and append-only, so these never need rollback):
        # per-player round → value, how many rounds are present contiguously
        # from 0, and the final per-(pid, r) validity verdicts.
        self._player_rounds: dict[int, dict[int, Any]] = {}
        self._contiguous: dict[int, int] = {}
        self._complete_verdicts: dict[tuple[int, int], bool] = {}

    # -- helpers -----------------------------------------------------------

    def _judge_complete(self, pid: int, r: int) -> bool:
        """Validity of ``pid``'s (fully present) reports for rounds 0..r."""
        mine = self._player_rounds[pid]
        values = [mine[rr] for rr in range(r + 1)]
        if len({repr(v) for v in values}) != 1:
            return False  # inconsistent across rounds: invalid
        if values[0] not in self.spec.game.type_space.player_types(pid):
            return False  # not a type this player could have
        return True

    def _complete_through(self, r: int) -> list[int]:
        """Players with valid, consistent reports for rounds 0..r.

        Hot path (called on every report): players missing a round are
        skipped in O(1) via the contiguity index, and each decidable
        (pid, r) verdict is computed exactly once — reports never change,
        so verdicts are final.
        """
        out = []
        contiguous = self._contiguous
        verdicts = self._complete_verdicts
        for pid in range(self.n):
            if contiguous.get(pid, 0) <= r:
                continue  # some round 0..r still missing
            verdict = verdicts.get((pid, r))
            if verdict is None:
                verdict = self._judge_complete(pid, r)
                verdicts[(pid, r)] = verdict
            if verdict:
                out.append(pid)
        return out

    def _advance(self, ctx: Context) -> None:
        if self.stopped:
            return
        while True:
            complete = self._complete_through(self.current_round)
            if len(complete) < self.quorum:
                return
            if self.current_round < self.rounds - 1:
                self.current_round += 1
                next_round = self.current_round
                for pid in range(self.n):
                    info = self.round_info(ctx, next_round, pid)
                    ctx.send(pid, ("round", next_round, info))
                return
            self._finalize(ctx, complete)
            return

    def _finalize(self, ctx: Context, complete: list[int]) -> None:
        self.stopped = True
        profile = tuple(
            self.reports[0][pid] if pid in complete else self.default_type(pid)
            for pid in range(self.n)
        )
        actions = self.compute_actions(ctx, profile)
        for pid in range(self.n):
            ctx.send(pid, ("stop", actions[pid]))
        ctx.halt()

    def compute_actions(self, ctx: Context, profile: tuple) -> tuple:
        """Hook: the recommendation profile (override for leaky variants)."""
        return tuple(self.spec.mediator_fn(profile, ctx.rng))

    def round_info(self, ctx: Context, round_no: int, pid: int) -> Any:
        """Hook: the ``info`` slot of ``pid``'s round message (``None``
        here; the Section 6.4 leaky mediator overrides it)."""
        return None

    # -- Process interface ---------------------------------------------------

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        if self.stopped:
            return
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != "report"
            or not (0 <= sender < self.n)
        ):
            return  # malformed: ignore
        _, r, value = payload
        if not isinstance(r, int) or not (0 <= r < self.rounds):
            return
        bucket = self.reports.setdefault(r, {})
        if sender in bucket:
            return  # duplicate round report: first one wins
        bucket[sender] = value
        mine = self._player_rounds.setdefault(sender, {})
        mine[r] = value
        contiguous = self._contiguous.get(sender, 0)
        while contiguous in mine:
            contiguous += 1
        self._contiguous[sender] = contiguous
        self._advance(ctx)
