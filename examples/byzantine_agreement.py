"""Byzantine agreement as a game (paper, introduction).

"A problem such as Byzantine agreement becomes trivial with a mediator:
agents send their initial input to the mediator, and the mediator sends
the majority value back." This example runs exactly that mediator, then
replaces it with the Theorem 4.1 cheap-talk protocol and shows that the
implementation (a) preserves the majority outcome, (b) survives crash
faults and wrong shares from up to t parties, and (c) is scheduler-proof.

Run:  python examples/byzantine_agreement.py
"""

from repro.analysis.deviations import ct_crash, ct_lying_shares
from repro.analysis.robustness import scheduler_proofness_spread
from repro.cheaptalk import compile_theorem41
from repro.games.library import byzantine_agreement_game
from repro.mediator import MediatorGame
from repro.sim import FifoScheduler, scheduler_zoo


def main() -> None:
    n, k, t = 9, 1, 1
    spec = byzantine_agreement_game(n)
    types = (1, 1, 1, 1, 1, 1, 0, 0, 0)  # majority input is 1

    mediator = MediatorGame(spec, k, t)
    med = mediator.run(types, FifoScheduler(), seed=0)
    print(f"Mediator game:   inputs={types} -> outputs={med.actions}")

    protocol = compile_theorem41(spec, k, t)
    ct = protocol.game.run(types, FifoScheduler(), seed=0)
    print(f"Cheap talk:      inputs={types} -> outputs={ct.actions}")

    # Crash faults: two parties (= k + t) fail from the start.
    crashed = protocol.game.run(
        types, FifoScheduler(), seed=1,
        deviations={7: ct_crash(), 8: ct_crash()},
    )
    print(f"With 2 crashes:  honest outputs={crashed.actions[:7]}")

    # A party distributing corrupted shares is error-corrected away.
    lied = protocol.game.run(
        types, FifoScheduler(), seed=2,
        deviations={8: ct_lying_shares(spec)},
    )
    print(f"With wrong shares from party 8: honest outputs={lied.actions[:8]}")

    # Scheduler-proofness (Corollary 6.3): payoffs do not depend on the
    # environment. Sampled at this one type profile: all 2^9 profiles
    # would take 8,192 runs.
    spread = scheduler_proofness_spread(
        protocol.game, scheduler_zoo(seed=5, parties=range(n))[:4],
        samples_per_scheduler=4, type_profiles=[types],
    )["spread"]
    print(f"Utility spread across schedulers: {spread:.3f}")


if __name__ == "__main__":
    main()
