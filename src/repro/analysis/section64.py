"""The Section 6.4 attack: leaky mediator + colluding coalition + scheduler.

The paper's counterexample: the mediator for the {0,1,⊥} game leaks
``a + b·i (mod 2)`` to player i before recommending b. A rational coalition
{i, j} with i − j odd pools its leaks, recovers b, and — exactly when b = 0,
where the all-⊥ punishment payoff 1.1 beats the equilibrium payoff 1.0 —
arranges a deadlock so that every honest player's will executes the
punishment. The deadlock is arranged with a *colluding relaxed environment*
(Propositions 6.1/6.2 established that deviators can coordinate with the
environment; Section 6.1 shows how: covert signalling through observable
self-messages). Against the *minimally informative* transform of the same
mediator the attack collapses: b is unknown before the STOP batch, so the
coalition cannot condition, and an unconditional deadlock yields 1.1 < 1.5.

Components:

* :func:`leak_attack` — the coalition's deviation (a mediator-game process
  factory);
* :class:`ColludingScheduler` — a relaxed environment that delivers
  normally until it observes a coalition member's self-message, then stops
  delivering everything (dropping the STOP batch);
* :func:`run_attack` — convenience driver returning per-run payoffs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.games.library import BOT, GameSpec
from repro.mediator.games import MediatorGame
from repro.mediator.protocol import mediator_pid
from repro.sim.network import TransitView
from repro.sim.process import Context, Process
from repro.sim.scheduler import FifoScheduler, Scheduler

SIGNAL = "__deadlock_please__"


class LeakAttacker(Process):
    """One member of the Section 6.4 coalition.

    Participates in the protocol honestly, but shares its round-1 leak with
    its partner. Once both leaks are known and ``b = leak_i + leak_j mod 2``
    (valid when i − j is odd) equals ``stall_when`` (the paper's attack
    conditions on b = 0, the default), it signals the colluding environment
    with a self-message and stops cooperating; its own move (made directly,
    or via its will on deadlock) is ⊥. ``stall_when`` is a parameter so the
    audit strategy space can search over the conditioning — the profitable
    direction is something the search must discover, not an input.
    """

    def __init__(
        self,
        spec: GameSpec,
        pid: int,
        own_type,
        partner: int,
        stall_when: int = 0,
    ) -> None:
        self.spec = spec
        self.pid = pid
        self.own_type = own_type
        self.partner = partner
        self.stall_when = stall_when
        self._mediator = mediator_pid(spec.game.n)
        self.my_leak: Optional[int] = None
        self.partner_leak: Optional[int] = None
        self.b: Optional[int] = None
        self.stalled = False

    def on_start(self, ctx: Context) -> None:
        ctx.send(self._mediator, ("report", 0, self.own_type))

    def _consider(self, ctx: Context) -> None:
        if self.b is not None or self.my_leak is None or self.partner_leak is None:
            return
        self.b = (self.my_leak + self.partner_leak) % 2
        if self.b == self.stall_when:
            # With stall_when=0: punishment (1.1) beats following (1.0), so
            # force a deadlock. Conditioning on b=1 instead would trade the
            # 2.0 outcome for 1.1 — strictly worse, and the audit search
            # confirms it empirically.
            self.stalled = True
            ctx.send(ctx.pid, SIGNAL)

    def on_message(self, ctx: Context, sender: int, payload) -> None:
        if self.stalled:
            return
        if sender == self.partner and isinstance(payload, tuple) \
                and payload[0] == "leak":
            self.partner_leak = payload[1]
            self._consider(ctx)
            return
        if sender != self._mediator or not isinstance(payload, tuple):
            return
        kind = payload[0]
        if kind == "round":
            info = payload[2]
            if isinstance(info, int):
                self.my_leak = info
                ctx.send(self.partner, ("leak", info))
                self._consider(ctx)
            if not self.stalled:
                ctx.send(self._mediator, ("report", payload[1], self.own_type))
        elif kind == "stop":
            if not ctx.has_output():
                ctx.output(payload[1])
            ctx.halt()

    def on_deadlock(self, pid: int):
        return BOT  # join the punishment it engineered


def leak_attack(spec: GameSpec, coalition: Sequence[int]):
    """Deviation factories for the coalition (must have odd pid difference)."""
    a, b = sorted(coalition)
    if (b - a) % 2 != 1:
        raise ValueError("Section 6.4 attack needs i - j odd")

    def factory_a(pid, own_type):
        return LeakAttacker(spec, pid, own_type, partner=b)

    def factory_b(pid, own_type):
        return LeakAttacker(spec, pid, own_type, partner=a)

    return {a: factory_a, b: factory_b}


class ColludingScheduler(Scheduler):
    """Relaxed environment colluding with the coalition (Section 6.1/6.2).

    Delivers in FIFO order until a coalition member's self-message appears
    in transit; from then on it stops delivering, dropping everything still
    in flight — in particular the mediator's STOP batch. (Batch atomicity is
    not violated: no STOP message is delivered at all.)
    """

    name = "colluding"

    def __init__(self, coalition: Sequence[int]) -> None:
        self.coalition = frozenset(coalition)
        self._base = FifoScheduler()
        self._tripped = False

    def reset(self, seed: int) -> None:
        self._tripped = False

    def is_relaxed(self) -> bool:
        return True

    def choose(self, in_transit: TransitView, step: int):
        if not self._tripped:
            # The pool's self-message index is empty on almost every step,
            # so this is O(1).
            self._tripped = not self.coalition.isdisjoint(
                in_transit.self_senders()
            )
        if self._tripped:
            return None
        return self._base.choose(in_transit, step)


def run_attack(
    game: MediatorGame,
    coalition: Sequence[int],
    runs: int = 40,
    seed: int = 0,
) -> list[float]:
    """Run the attack repeatedly; return the coalition's per-run payoff."""
    payoffs = []
    types = game.spec.game.type_space.profiles()[0]
    deviations = leak_attack(game.spec, coalition)
    member = sorted(coalition)[0]
    for r in range(runs):
        run = game.run(
            types,
            ColludingScheduler(coalition),
            seed=seed + r,
            deviations=deviations,
        )
        payoffs.append(game.spec.game.utility(types, run.actions)[member])
    return payoffs
