"""Exact solution-concept checking for the *ideal* mediator game.

In the abstract (ideal) mediator game, an honest player reports its type
truthfully and obeys the mediator's recommendation; a deviating coalition C
can (a) misreport its types and (b) play any function of its joint types
and joint recommendations. This is the communication-equilibrium view of
the mediator game, and it is what "(k,t)-robust equilibrium in Γ_d" means
for the canonical mediators in this library (the concrete message protocol
adds nothing: minimally informative mediators send only round counters and
recommendations).

The checkers here mirror :mod:`repro.games.solution` — same conditioning on
coalition types, same LP for mixed coalition deviations — but the deviation
space is (misreport, disobedience map) pairs. They require the spec to
provide an exact ``mediator_dist`` (reports -> distribution over
recommendation profiles).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from repro.errors import GameError
from repro.games.library import GameSpec
from repro.games.solution import SolutionReport, Violation, _coalitions, _max_min_gain

_TOL = 1e-9
_MAX_OPTIONS = 200_000


def _require_dist(spec: GameSpec):
    dist = getattr(spec, "mediator_dist", None)
    if dist is None:
        raise GameError(
            f"spec {spec.name!r} lacks mediator_dist; use Monte-Carlo checking"
        )
    return dist


class CoalitionBehavior:
    """A pure deviation for coalition ``members`` at one joint type x_C.

    ``reports`` is the joint misreport; ``action_map`` maps each possible
    joint recommendation rec_C to the joint action the coalition plays.
    """

    __slots__ = ("members", "reports", "action_map")

    def __init__(self, members: tuple, reports: tuple, action_map: dict) -> None:
        self.members = members
        self.reports = reports
        self.action_map = action_map

    def act(self, rec_c: tuple) -> tuple:
        return self.action_map.get(rec_c, rec_c)


def honest_payoffs(
    spec: GameSpec,
    cond_players: tuple,
    cond_types: tuple,
) -> dict[int, float]:
    """u_i(Γ_d, σ+σ_d, x_C) for all i under full honesty."""
    return _payoffs(spec, [], cond_players, cond_types)


def _payoffs(
    spec: GameSpec,
    behaviors: Sequence[CoalitionBehavior],
    cond_players: tuple,
    cond_types: tuple,
) -> dict[int, float]:
    dist = _require_dist(spec)
    game = spec.game
    member_of: dict[int, CoalitionBehavior] = {}
    for behavior in behaviors:
        for pid in behavior.members:
            member_of[pid] = behavior
    totals = {i: 0.0 for i in range(game.n)}
    support = (
        game.type_space.conditional(cond_players, cond_types)
        if cond_players
        else list(game.type_space.support)
    )
    for types, p_type in support:
        reports = list(types)
        for behavior in behaviors:
            for pid, rep in zip(behavior.members, behavior.reports):
                reports[pid] = rep
        for rec, p_rec in dist(tuple(reports)).items():
            actions = list(rec)
            for behavior in behaviors:
                rec_c = tuple(rec[pid] for pid in behavior.members)
                for pid, action in zip(behavior.members, behavior.act(rec_c)):
                    actions[pid] = action
            payoff = game.utility(tuple(types), tuple(actions))
            weight = p_type * p_rec
            for i in range(game.n):
                totals[i] += weight * payoff[i]
    return totals


def _recommendation_domain(
    spec: GameSpec, members: tuple, cond_players: tuple, cond_types: tuple,
    reports_c: tuple,
) -> list[tuple]:
    """All joint recommendations rec_C that can occur given C's misreport."""
    dist = _require_dist(spec)
    game = spec.game
    support = (
        game.type_space.conditional(cond_players, cond_types)
        if cond_players
        else list(game.type_space.support)
    )
    seen: list[tuple] = []
    for types, _p in support:
        reports = list(types)
        for pid, rep in zip(members, reports_c):
            reports[pid] = rep
        for rec in dist(tuple(reports)):
            rec_c = tuple(rec[pid] for pid in members)
            if rec_c not in seen:
                seen.append(rec_c)
    return seen


def enumerate_behaviors(
    spec: GameSpec,
    members: tuple,
    cond_players: tuple,
    cond_types: tuple,
    x_c: tuple,
) -> list[CoalitionBehavior]:
    """All pure (misreport, disobedience) deviations for C knowing x_C."""
    game = spec.game
    report_space = list(
        itertools.product(*(game.type_space.player_types(pid) for pid in members))
    )
    action_space = list(
        itertools.product(*(game.action_sets[pid] for pid in members))
    )
    out: list[CoalitionBehavior] = []
    for reports in report_space:
        domain = _recommendation_domain(
            spec, members, cond_players, cond_types, reports
        )
        n_maps = len(action_space) ** len(domain)
        if n_maps * len(report_space) > _MAX_OPTIONS:
            raise GameError(
                f"ideal deviation space too large ({n_maps} maps); "
                "use Monte-Carlo checking instead"
            )
        for choice in itertools.product(action_space, repeat=len(domain)):
            out.append(
                CoalitionBehavior(members, reports, dict(zip(domain, choice)))
            )
    return out


def check_ideal_t_immunity(
    spec: GameSpec, t: int, epsilon: float = 0.0
) -> SolutionReport:
    """t-immunity of truthful-obedient play in the ideal mediator game."""
    label = (f"{epsilon}-" if epsilon else "") + f"ideal-{t}-immunity"
    report = SolutionReport(concept=label, holds=True, margin=float("inf"))
    game = spec.game
    if t == 0:
        report.checks = 1
        return report
    for malicious in _coalitions(list(game.players()), t):
        for x_t in game.type_space.coalition_profiles(malicious):
            baseline = _payoffs(spec, [], malicious, x_t)
            for behavior in enumerate_behaviors(spec, malicious, malicious, x_t, x_t):
                payoffs = _payoffs(spec, [behavior], malicious, x_t)
                for i in game.players():
                    if i in malicious:
                        continue
                    report.checks += 1
                    drop = baseline[i] - payoffs[i]
                    threshold = epsilon if epsilon > 0 else _TOL
                    if drop >= threshold - (_TOL if epsilon > 0 else 0.0):
                        report.holds = False
                        report.violations.append(
                            Violation(
                                kind=label,
                                coalition=(),
                                malicious=malicious,
                                types=x_t,
                                detail=f"player {i} harmed by {drop:.6g}",
                                gain=drop,
                            )
                        )
                    else:
                        report.margin = min(report.margin, threshold - drop)
    return report


def check_ideal_k_resilience(
    spec: GameSpec,
    k: int,
    epsilon: float = 0.0,
    strong: bool = False,
    fixed_behavior: Optional[CoalitionBehavior] = None,
) -> SolutionReport:
    """k-resilience of truthful-obedient play in the ideal mediator game.

    ``fixed_behavior`` pins a malicious coalition T to a deviation while K
    is searched (used by the robustness checker).
    """
    import numpy as np

    label = ("strong " if strong else "") + (
        f"{epsilon}-" if epsilon else ""
    ) + f"ideal-{k}-resilience"
    report = SolutionReport(concept=label, holds=True, margin=float("inf"))
    game = spec.game
    blocked = fixed_behavior.members if fixed_behavior is not None else ()
    base_behaviors = [fixed_behavior] if fixed_behavior is not None else []
    eligible = [i for i in game.players() if i not in blocked]
    for coalition in _coalitions(eligible, k):
        for x_k in game.type_space.coalition_profiles(coalition):
            baseline_all = _payoffs(spec, base_behaviors, coalition, x_k)
            baseline = np.array([baseline_all[i] for i in coalition])
            behaviors = enumerate_behaviors(spec, coalition, coalition, x_k, x_k)
            matrix = np.zeros((len(behaviors), len(coalition)))
            for row, behavior in enumerate(behaviors):
                payoffs = _payoffs(
                    spec, base_behaviors + [behavior], coalition, x_k
                )
                for col, i in enumerate(coalition):
                    matrix[row, col] = payoffs[i]
            report.checks += 1
            if strong:
                gain = float((matrix - baseline[None, :]).max())
            else:
                gain = _max_min_gain(matrix, baseline)
            threshold = epsilon if epsilon > 0 else _TOL
            if gain >= threshold - (_TOL if epsilon > 0 else 0.0):
                report.holds = False
                report.violations.append(
                    Violation(
                        kind=label,
                        coalition=coalition,
                        malicious=blocked,
                        types=x_k,
                        detail=f"coalition gains {gain:.6g}",
                        gain=gain,
                    )
                )
            else:
                report.margin = min(report.margin, threshold - gain)
    return report


def check_ideal_mediator_robustness(
    spec: GameSpec,
    k: int,
    t: int,
    epsilon: float = 0.0,
    strong: bool = False,
) -> SolutionReport:
    """(ε-)(strong) (k,t)-robustness of the ideal mediator equilibrium.

    This is the hypothesis of Theorems 4.1/4.2/4.4/4.5: σ + σ_d is a
    (k,t)-robust equilibrium of the mediator game. Only complete-information
    specs (or typed specs with small coalition type spaces) are feasible
    exactly; larger games should use the Monte-Carlo checker in
    :mod:`repro.analysis.robustness`.
    """
    label = ("strong " if strong else "") + (
        f"{epsilon}-" if epsilon else ""
    ) + f"ideal-({k},{t})-robustness"
    report = SolutionReport(concept=label, holds=True, margin=float("inf"))
    immunity = check_ideal_t_immunity(spec, t, epsilon=epsilon)
    report.checks += immunity.checks
    if not immunity.holds:
        report.holds = False
        report.violations.extend(immunity.violations)
    if immunity.margin is not None:
        report.margin = min(report.margin, immunity.margin)

    game = spec.game
    malicious_sets = [()] + list(_coalitions(list(game.players()), t))
    for malicious in malicious_sets:
        if malicious:
            tau_options: list[Optional[CoalitionBehavior]] = []
            for x_t in game.type_space.coalition_profiles(malicious):
                # Complete-information restriction: one joint type cell.
                cells = game.type_space.coalition_profiles(malicious)
                if len(cells) > 1:
                    raise GameError(
                        "exact ideal robustness supports complete-information "
                        "specs only; use Monte-Carlo checking for typed games"
                    )
                tau_options = [
                    b
                    for b in enumerate_behaviors(
                        spec, malicious, malicious, x_t, x_t
                    )
                ]
        else:
            tau_options = [None]
        for tau in tau_options:
            sub = check_ideal_k_resilience(
                spec, k, epsilon=epsilon, strong=strong, fixed_behavior=tau
            )
            report.checks += sub.checks
            if not sub.holds:
                report.holds = False
                report.violations.extend(sub.violations)
            if sub.margin is not None:
                report.margin = min(report.margin, sub.margin)
    return report
