"""The Section 6.4 leaky mediator and the minimally-informative transform.

The paper's counterexample mediator for the {0,1,⊥} game draws bits a, b
and sends player i the value ``a + b·i (mod 2)`` before the STOP message
carrying b. The message is useless to any single player (a masks b), but a
coalition {i, j} with i − j odd recovers b — and when b = 0 prefers the
1.1-payoff punishment outcome to the 1.0 equilibrium outcome, so it can
profitably force a deadlock. The *minimally informative* transform f of
Section 6.4 strips the mediator down to round counters plus the final
action, which removes the attack (Lemma 6.8).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import MediatorError
from repro.games.library import GameSpec
from repro.mediator.games import MediatorGame
from repro.mediator.protocol import FnMediator


class LeakySection64Mediator(FnMediator):
    """The paper's leaky mediator: leaks ``a + b·i`` in round 1.

    Canonical form is preserved (two rounds, STOP batch at the end); the
    leak travels in the round-1 ``info`` slot, which honest players ignore
    but deviating coalitions exploit.
    """

    def __init__(self, spec: GameSpec, k: int, t: int) -> None:
        super().__init__(spec, k, t, rounds=2)
        self.a: Optional[int] = None
        self.b: Optional[int] = None

    def round_info_value(self, ctx, pid: int) -> int:
        if self.b is None:
            self.a = ctx.rng.randrange(2)
            self.b = ctx.rng.randrange(2)
        return (self.a + self.b * pid) % 2

    def _advance(self, ctx) -> None:  # inject leak into round messages
        self.round_info = lambda _m, r, pid, _ctx=ctx: self.round_info_value(
            _ctx, pid
        )
        super()._advance(ctx)

    def compute_actions(self, ctx, profile: tuple) -> tuple:
        if self.b is None:  # quorum met before any round message (rounds=2: no)
            self.a = ctx.rng.randrange(2)
            self.b = ctx.rng.randrange(2)
        return tuple(self.b for _ in range(self.n))


class MinimalMediator(FnMediator):
    """f(σ_d): sends only round counters and the final recommendation.

    With ``rounds=1`` this is the weak-implementation variant of the
    Section 6.4 construction (one message in, one STOP out — O(n) messages
    total). Larger ``rounds`` reproduces the full-implementation variant's
    extra round-trips, whose only purpose is to let the mediator's
    simulated-scheduler choice range over all scheduler equivalence classes;
    the paper's bound R = (4rn)^{4rn} is astronomically large, so the class
    selection is parameterised here (PAPER.md, "Modelling substitutions")
    and the *behavioral* construction — rounds of content-free messages,
    quorum of n-k-t, simulate-and-STOP — is reproduced faithfully.
    """


def minimally_informative(
    game: MediatorGame, rounds: Optional[int] = None
) -> MediatorGame:
    """Apply the Section 6.4 transform f to a mediator game.

    Returns a new :class:`MediatorGame` whose mediator sends no information
    beyond round counters and the recommended action. Lemma 6.8:
    (k,t)-robustness of the original profile carries over.
    """
    r = rounds if rounds is not None else game.rounds
    if r < 1:
        raise MediatorError("rounds must be >= 1")
    return MediatorGame(
        game.spec,
        game.k,
        game.t,
        approach=game.approach,
        rounds=r,
        will=game.will,
        mediator_factory=lambda: MinimalMediator(
            game.spec, game.k, game.t, rounds=r
        ),
    )
