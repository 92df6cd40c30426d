"""Empirical (Monte-Carlo) robustness checking for extension games.

The exact checkers in :mod:`repro.games.solution` and
:mod:`repro.mediator.ideal` handle the underlying and ideal mediator games;
the *message-level* extension games (concrete mediator protocol, cheap
talk) are checked here by running them. The harness compares the average
utility of coalition members under each catalogued deviation against their
honest-play utility: the profile is empirically (k,t)-robust over the
catalogue if no deviation raises every deviating member's payoff by more
than the sampling tolerance, and empirically t-immune if no deviation
lowers any outsider's payoff by more than the tolerance.

A finding here is a genuine counterexample strategy (up to sampling noise);
passing certifies robustness *over the catalogue*, the standard empirical
complement to the exact ideal-game certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.games.outcomes import empirical_utilities
from repro.sim import Scheduler


@dataclass
class DeviationTrial:
    """One catalogued adversary: who deviates and how."""

    name: str
    deviations: Mapping[int, Callable]
    rational: tuple[int, ...] = ()
    """Members whose *gain* is the robustness question (the coalition K)."""

    malicious: tuple[int, ...] = ()
    """Members exempt from the gain test but bound by t-immunity (set T)."""


@dataclass
class EmpiricalRobustnessReport:
    game_name: str
    holds: bool = True
    tolerance: float = 0.0
    findings: list[str] = field(default_factory=list)
    measurements: dict[str, dict] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def average_utilities(
    game,
    schedulers: Sequence[Scheduler],
    samples_per_scheduler: int = 8,
    deviations: Optional[Mapping[int, Callable]] = None,
    seed: int = 0,
    type_profiles: Optional[Sequence[tuple]] = None,
) -> tuple[float, ...]:
    """Mean utility vector over runs of an extension game.

    ``game`` is anything with ``spec`` and ``sample_outcomes`` — both
    :class:`~repro.mediator.games.MediatorGame` and
    :class:`~repro.cheaptalk.game.CheapTalkGame` qualify.
    """
    samples = game.sample_outcomes(
        schedulers,
        samples_per_scheduler=samples_per_scheduler,
        deviations=deviations,
        seed=seed,
        type_profiles=type_profiles,
    )
    return empirical_utilities(game.spec.game, samples)


def check_empirical_robustness(
    game,
    trials: Sequence[DeviationTrial],
    schedulers: Sequence[Scheduler],
    samples_per_scheduler: int = 8,
    tolerance: float = 0.15,
    seed: int = 0,
) -> EmpiricalRobustnessReport:
    """Test the honest profile against a catalogue of deviations.

    For each trial: rational members must not all gain more than
    ``tolerance``; honest outsiders must not lose more than ``tolerance``.
    """
    report = EmpiricalRobustnessReport(
        game_name=game.spec.name, tolerance=tolerance
    )
    baseline = average_utilities(
        game, schedulers, samples_per_scheduler, seed=seed
    )
    report.measurements["baseline"] = {"utilities": baseline}
    n = game.spec.game.n
    for trial in trials:
        deviated = average_utilities(
            game, schedulers, samples_per_scheduler,
            deviations=trial.deviations, seed=seed + 1,
        )
        deviating = set(trial.deviations)
        gains = {i: deviated[i] - baseline[i] for i in trial.rational}
        harms = {
            i: baseline[i] - deviated[i]
            for i in range(n)
            if i not in deviating
        }
        report.measurements[trial.name] = {
            "utilities": deviated,
            "gains": gains,
            "harms": harms,
        }
        if trial.rational and all(
            g > tolerance for g in gains.values()
        ):
            report.holds = False
            report.findings.append(
                f"{trial.name}: coalition {trial.rational} gains {gains}"
            )
        harmed = {i: h for i, h in harms.items() if h > tolerance}
        if harmed:
            report.holds = False
            report.findings.append(
                f"{trial.name}: outsiders harmed {harmed}"
            )
    return report


def scheduler_proofness_spread(
    game,
    schedulers: Sequence[Scheduler],
    samples_per_scheduler: int = 16,
    deviations: Optional[Mapping[int, Callable]] = None,
    seed: int = 0,
    type_profiles: Optional[Sequence[tuple]] = None,
) -> dict:
    """Corollary 6.3: per-player utility spread across environments.

    Returns {"per_scheduler": [(name, utilities), ...], "spread": max_i
    spread_i}, with one entry per environment given, in order (several
    environments may share a name). A (k,t)-robust profile must have
    spread ~ sampling noise; a profile whose payoff the environment can
    influence will show a real gap. ``type_profiles`` limits the sample
    to those profiles (default: every profile of the game's type space).
    """
    per_scheduler = [
        (scheduler.name, average_utilities(
            game, [scheduler], samples_per_scheduler,
            deviations=deviations, seed=seed, type_profiles=type_profiles,
        ))
        for scheduler in schedulers
    ]
    n = game.spec.game.n
    spread = 0.0
    for i in range(n):
        values = [u[i] for _, u in per_scheduler]
        spread = max(spread, max(values) - min(values))
    return {"per_scheduler": per_scheduler, "spread": spread}
