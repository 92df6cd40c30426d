"""Even–Goldreich–Lempel-style baseline: ε-mediation with O(1/ε) messages.

The paper (Section 1) contrasts its punishment-based protocols — a bounded
number of messages, independent of ε — with Even, Goldreich and Lempel's
randomized-exchange technique, whose expected message count is O(1/ε).

The construction reproduced here is the classic *hidden decisive round*
exchange for two players sampling a correlated-equilibrium cell:

* a decisive round r* is drawn geometrically with parameter ε (from dealt
  setup randomness — the same substitution as the MPC engines' offline
  material);
* in each round the parties exchange fresh random contributions; the cell
  is determined by the contributions of round r*, but neither party learns
  that a given round was decisive until the following round;
* a party that aborts early can bias the outcome only if it aborts exactly
  at the decisive round, which happens with probability ≤ ε.

Expected messages: each round costs 2 messages and E[r*] = 1/ε, so the
expected total is ≈ 2/ε + O(1) — the O(1/ε) behaviour that
``tests/test_baselines.py`` checks, against the ε-independent message
count of the punishment-based compilers.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import ProtocolError
from repro.games.library import GameSpec
from repro.sim import Runtime, Scheduler, FifoScheduler
from repro.sim.process import Context, Process
from repro.utils.rng import derive_seed


class EglParty(Process):
    """One of the two parties in the EGL-style exchange.

    Both parties know the cell list and the (dealt) decisive round r*; the
    *outcome* of round r* combines both parties' round-r* contributions, so
    neither controls it alone. Termination: after round r* completes, both
    parties decode their component of the sampled cell and halt.
    """

    def __init__(
        self,
        pid: int,
        other: int,
        cells: Sequence[tuple],
        decisive_round: int,
        component: int,
    ) -> None:
        self.pid = pid
        self.other = other
        self.cells = list(cells)
        self.decisive_round = decisive_round
        self.component = component
        self.round = 0
        self.my_contributions: dict[int, int] = {}
        self.their_contributions: dict[int, int] = {}

    def _contribute(self, ctx: Context) -> None:
        value = ctx.rng.randrange(len(self.cells))
        self.my_contributions[self.round] = value
        ctx.send(self.other, ("egl", self.round, value))

    def on_start(self, ctx: Context) -> None:
        self._contribute(ctx)

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        if sender != self.other or not isinstance(payload, tuple):
            return
        _, r, value = payload
        self.their_contributions[r] = value
        # Channels are asynchronous: a later round's contribution may arrive
        # first, so drain every round that is now unblocked.
        while self.round in self.their_contributions:
            if self.round == self.decisive_round:
                total = (
                    self.my_contributions[self.round]
                    + self.their_contributions[self.round]
                ) % len(self.cells)
                cell = self.cells[total]
                ctx.output(cell[self.component])
                ctx.halt()
                return
            self.round += 1
            self._contribute(ctx)


def run_egl(
    spec: GameSpec,
    epsilon: float,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
) -> tuple[tuple, int]:
    """One EGL exchange for a 2-player correlated equilibrium.

    Returns (action profile, messages sent). ``spec.mediator_dist`` must be
    uniform over its cells (chicken qualifies).
    """
    if spec.game.n != 2:
        raise ProtocolError("EGL baseline is a 2-party protocol")
    if not (0 < epsilon <= 1):
        raise ProtocolError(f"epsilon must be in (0,1], got {epsilon}")
    dist = spec.mediator_dist(spec.game.type_space.profiles()[0])
    cells = sorted(dist)
    probs = [dist[c] for c in cells]
    if max(probs) - min(probs) > 1e-9:
        raise ProtocolError("EGL baseline needs a uniform correlated cell")

    import random

    setup_rng = random.Random(derive_seed(seed, "egl-decisive"))
    decisive = 0
    while setup_rng.random() >= epsilon:
        decisive += 1

    procs = {
        0: EglParty(0, 1, cells, decisive, component=0),
        1: EglParty(1, 0, cells, decisive, component=1),
    }
    runtime = Runtime(procs, scheduler or FifoScheduler(), seed=seed)
    result = runtime.run()
    actions = (result.outputs.get(0), result.outputs.get(1))
    return actions, result.trace.message_count()


def expected_messages(
    spec: GameSpec, epsilon: float, trials: int = 50, seed: int = 0
) -> float:
    """Monte-Carlo estimate of the expected message count at ε."""
    total = 0
    for trial in range(trials):
        _, messages = run_egl(spec, epsilon, seed=seed + trial)
        total += messages
    return total / trials
