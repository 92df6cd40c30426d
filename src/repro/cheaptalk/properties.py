"""Empirical checks of the Section 5 security properties.

The companion-paper properties — t-cotermination (Def 5.3), t-emulation
(Def 5.2), t-bisimulation (Def 5.1) — quantify over all adversaries and all
schedulers; the checkers here evaluate them over a supplied *finite* family
of adversaries and environments, which is how the tests exercise
Theorems 5.4/5.5 (E7, ``TestSection5Properties`` in
``tests/test_cheaptalk.py``). A reported violation is a real
counterexample; a pass certifies the property over the tested family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.cheaptalk.game import CheapTalkGame
from repro.games.outcomes import (
    empirical_map,
    outcome_map_distance,
    sampling_tolerance,
)
from repro.mediator.games import MediatorGame
from repro.sim import Scheduler


@dataclass
class PropertyReport:
    name: str
    holds: bool
    worst: float = 0.0
    details: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def check_cotermination(
    game: CheapTalkGame,
    schedulers: Sequence[Scheduler],
    adversaries: Sequence[Optional[Mapping[int, Callable]]],
    trials: int = 5,
    seed: int = 0,
) -> PropertyReport:
    """t-cotermination: all honest players move, or none do, in every run."""
    report = PropertyReport(name="t-cotermination", holds=True)
    types = game.spec.game.type_space.profiles()[0]
    for a_idx, deviations in enumerate(adversaries):
        corrupted = set(deviations or {})
        honest = [p for p in range(game.n) if p not in corrupted]
        for s_idx, scheduler in enumerate(schedulers):
            for trial in range(trials):
                run = game.run(
                    types,
                    scheduler,
                    seed=seed + 31 * a_idx + 7 * s_idx + trial,
                    deviations=deviations,
                )
                moved = [p for p in honest if p in run.result.outputs]
                if moved and len(moved) != len(honest):
                    report.holds = False
                    report.details.append(
                        f"adversary #{a_idx}, scheduler {scheduler.name}, "
                        f"trial {trial}: only {moved} of {honest} moved"
                    )
    return report


def check_emulation(
    ct_game: CheapTalkGame,
    mediator_game: MediatorGame,
    schedulers: Sequence[Scheduler],
    adversary_pairs: Sequence[tuple],
    epsilon: float,
    samples_per_scheduler: int = 16,
    seed: int = 0,
) -> PropertyReport:
    """(ε,t)-emulation over a family of (cheap-talk, mediator) adversary pairs.

    ``adversary_pairs`` contains tuples ``(ct_deviations, med_deviations)``
    — the mediator-game adversary that is claimed to reproduce the cheap-
    talk adversary's outcome distribution (H(τ') in Def 5.2). For each pair
    the outcome maps must be within ε (plus sampling tolerance).
    """
    report = PropertyReport(name=f"({epsilon},t)-emulation", holds=True)
    tolerance = sampling_tolerance(samples_per_scheduler * len(schedulers))
    for idx, (ct_dev, med_dev) in enumerate(adversary_pairs):
        ct_samples = ct_game.sample_outcomes(
            schedulers, samples_per_scheduler, deviations=ct_dev, seed=seed
        )
        med_samples = mediator_game.sample_outcomes(
            schedulers, samples_per_scheduler, deviations=med_dev, seed=seed + 1
        )
        distance = outcome_map_distance(
            empirical_map(ct_samples), empirical_map(med_samples)
        )
        report.worst = max(report.worst, distance)
        if distance > epsilon + tolerance:
            report.holds = False
            report.details.append(
                f"pair #{idx}: outcome distance {distance:.4f} > "
                f"ε {epsilon} + tolerance {tolerance:.4f}"
            )
    return report


def check_bisimulation(
    ct_game: CheapTalkGame,
    mediator_game: MediatorGame,
    schedulers: Sequence[Scheduler],
    adversary_pairs: Sequence[tuple],
    epsilon: float,
    samples_per_scheduler: int = 16,
    seed: int = 0,
) -> PropertyReport:
    """(ε,t)-bisimulation: emulation in both directions over the family.

    Each (ct, med) pair must match in outcome distribution, so every
    cheap-talk adversary is matched by its mediator-game partner and every
    mediator-game adversary by its cheap-talk partner. Outcome-map
    distance is symmetric, so both directions are one emulation check per
    pair; the second leg re-samples the same pairs at ``seed + 97``, and
    both samplings must pass.
    """
    forward = check_emulation(
        ct_game, mediator_game, schedulers, adversary_pairs, epsilon,
        samples_per_scheduler, seed,
    )
    backward = check_emulation(
        ct_game, mediator_game, schedulers, adversary_pairs, epsilon,
        samples_per_scheduler, seed + 97,
    )
    report = PropertyReport(
        name=f"({epsilon},t)-bisimulation",
        holds=forward.holds and backward.holds,
        worst=max(forward.worst, backward.worst),
        details=forward.details + backward.details,
    )
    return report

