"""Implementation and ε-implementation checking (paper, Section 2).

``σ_CT`` implements ``σ + σ_d`` when the two games induce the same *set* of
type→Δ(action) maps over all environments. Empirically we compare the maps
induced by a finite environment family, pooled (for the "sets are equal"
reading over the family) and per-environment (a stricter diagnostic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.games.outcomes import (
    empirical_map,
    outcome_map_distance,
    sampling_tolerance,
)
from repro.sim import Scheduler


@dataclass
class ImplementationReport:
    epsilon: float
    distance: float
    tolerance: float
    holds: bool
    per_scheduler: list = field(default_factory=list)
    """``(scheduler name, distance)`` per environment, in the order given."""

    def __bool__(self) -> bool:
        return self.holds


def implementation_distance(
    game_a,
    game_b,
    schedulers: Sequence[Scheduler],
    samples_per_scheduler: int = 16,
    type_profiles: Optional[Sequence[tuple]] = None,
    seed: int = 0,
) -> float:
    """Pooled empirical distance between the two games' outcome maps."""
    samples_a = game_a.sample_outcomes(
        schedulers, samples_per_scheduler, type_profiles=type_profiles,
        seed=seed,
    )
    samples_b = game_b.sample_outcomes(
        schedulers, samples_per_scheduler, type_profiles=type_profiles,
        seed=seed + 1,
    )
    return outcome_map_distance(empirical_map(samples_a), empirical_map(samples_b))


def check_implementation(
    cheap_talk_game,
    mediator_game,
    epsilon: float = 0.0,
    schedulers: Optional[Sequence[Scheduler]] = None,
    samples_per_scheduler: int = 24,
    type_profiles: Optional[Sequence[tuple]] = None,
    seed: int = 0,
) -> ImplementationReport:
    """Empirical (ε-)implementation check.

    ``epsilon = 0`` checks plain implementation (distance within sampling
    tolerance); ``epsilon > 0`` allows the extra ε. Per-scheduler distances
    are also recorded, one per environment given (names may repeat):
    under a (k,t)-robust profile they should coincide (scheduler-proofness
    makes every environment induce the same map).
    """
    from repro.sim import scheduler_zoo

    if schedulers is None:
        schedulers = scheduler_zoo(
            seed=seed, parties=range(cheap_talk_game.spec.game.n)
        )
    pooled = implementation_distance(
        cheap_talk_game, mediator_game, schedulers,
        samples_per_scheduler, type_profiles, seed,
    )
    per_scheduler = [
        (scheduler.name, implementation_distance(
            cheap_talk_game, mediator_game, [scheduler],
            samples_per_scheduler, type_profiles, seed,
        ))
        for scheduler in schedulers
    ]
    tolerance = sampling_tolerance(samples_per_scheduler * len(schedulers))
    holds = pooled <= epsilon + tolerance
    return ImplementationReport(
        epsilon=epsilon,
        distance=pooled,
        tolerance=tolerance,
        holds=holds,
        per_scheduler=per_scheduler,
    )
