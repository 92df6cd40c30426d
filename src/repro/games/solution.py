"""Exact solution-concept checkers (Definitions 3.1–3.6).

All checkers work on the *underlying* normal-form Bayesian game, where
expected utilities are exact sums. (Asynchronous extension games are checked
empirically by :mod:`repro.analysis.robustness`, which reduces runs to
outcome samples and reuses the inequalities implemented here.)

Key observation used throughout: the coalition-aware utility
``u_i(Γ, σ, x_K)`` conditions on the coalition's joint type being ``x_K``,
so only the coalition's behaviour *at* ``x_K`` matters — a deviation is
checked pointwise per (coalition, x_K) as a distribution over the
coalition's joint action tuples.

For the "no member is better off" (weak) variants, coalition members may
correlate and mix, so a profitable deviation is a *distribution* over joint
actions dominating the baseline componentwise; we find one (or certify none
exists) with a small linear program. For the strong variants and for
t-immunity, pure joint actions suffice (the relevant objective is linear,
so its optimum is at a vertex).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.errors import GameError
from repro.games.bayesian import BayesianGame
from repro.games.outcomes import conditional_expected_utility
from repro.games.strategies import JointDeviation, PureStrategy, StrategyProfile

if TYPE_CHECKING:
    import numpy as np

_TOL = 1e-9


@dataclass
class Violation:
    """A concrete witness that a solution concept fails."""

    kind: str
    coalition: tuple[int, ...]
    malicious: tuple[int, ...]
    types: tuple
    detail: str
    gain: float


@dataclass
class SolutionReport:
    """Result of a solution-concept check."""

    concept: str
    holds: bool
    violations: list[Violation] = field(default_factory=list)
    checks: int = 0
    margin: Optional[float] = None
    """Smallest slack observed over all satisfied constraints (if tracked)."""

    def __bool__(self) -> bool:
        return self.holds


def _coalitions(players: Sequence[int], max_size: int, min_size: int = 1):
    players = list(players)
    for size in range(min_size, max_size + 1):
        yield from itertools.combinations(players, size)


def _coalition_payoff_matrix(
    game: BayesianGame,
    profile: StrategyProfile,
    coalition: tuple[int, ...],
    x_k: tuple,
) -> tuple[list[tuple], np.ndarray]:
    """Rows: joint coalition actions; columns: coalition members' utilities."""
    import numpy as np

    action_tuples = list(itertools.product(*(game.action_sets[i] for i in coalition)))
    matrix = np.zeros((len(action_tuples), len(coalition)))
    for row, actions in enumerate(action_tuples):
        deviation = JointDeviation(coalition, lambda _x, a=actions: {a: 1.0})
        for col, i in enumerate(coalition):
            matrix[row, col] = conditional_expected_utility(
                game, profile, i, coalition, x_k, deviations=[deviation]
            )
    return action_tuples, matrix


def _baseline(
    game: BayesianGame,
    profile: StrategyProfile,
    coalition: tuple[int, ...],
    x_k: tuple,
    members: Sequence[int],
) -> np.ndarray:
    import numpy as np

    return np.array(
        [
            conditional_expected_utility(game, profile, i, coalition, x_k)
            for i in members
        ]
    )


def _max_min_gain(matrix: np.ndarray, baseline: np.ndarray) -> float:
    """max over mixtures w of min_i (w·U − B)_i, via LP.

    This is the coalition's best guaranteed improvement: positive means some
    (possibly correlated, mixed) deviation makes *every* member better off.
    """
    import numpy as np
    from scipy.optimize import linprog

    n_rows, n_cols = matrix.shape
    # Variables: w_0..w_{r-1}, eps. Maximize eps.
    c = np.zeros(n_rows + 1)
    c[-1] = -1.0
    a_ub = np.zeros((n_cols, n_rows + 1))
    b_ub = np.zeros(n_cols)
    for col in range(n_cols):
        a_ub[col, :n_rows] = -matrix[:, col]
        a_ub[col, -1] = 1.0
        b_ub[col] = -baseline[col]
    a_eq = np.zeros((1, n_rows + 1))
    a_eq[0, :n_rows] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * n_rows + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:  # pragma: no cover - defensive
        raise GameError(f"deviation LP failed: {res.message}")
    return float(-res.fun)


def check_k_resilient(
    game: BayesianGame,
    profile: StrategyProfile,
    k: int,
    epsilon: float = 0.0,
    strong: bool = False,
    fixed_malicious: tuple[int, ...] = (),
) -> SolutionReport:
    """Check (ε-)(strong) k-resilience (Definitions 3.1 / 3.2).

    ``fixed_malicious`` excludes those players from coalition membership —
    used by the robustness checker, where K and T must be disjoint.

    Weak resilience fails iff some coalition mixture improves *all* members
    by ≥ ε (strictly, for ε = 0); strong resilience fails iff some pure joint
    action improves *any* member.
    """
    concept = ("strong " if strong else "") + (
        f"{epsilon}-" if epsilon else ""
    ) + f"{k}-resilience"
    report = SolutionReport(concept=concept, holds=True, margin=float("inf"))
    eligible = [i for i in game.players() if i not in fixed_malicious]
    for coalition in _coalitions(eligible, k):
        for x_k in game.type_space.coalition_profiles(coalition):
            report.checks += 1
            baseline = _baseline(game, profile, coalition, x_k, coalition)
            _, matrix = _coalition_payoff_matrix(game, profile, coalition, x_k)
            if strong:
                gain = float((matrix - baseline[None, :]).max())
            else:
                gain = _max_min_gain(matrix, baseline)
            threshold = epsilon if epsilon > 0 else _TOL
            if gain >= threshold - (_TOL if epsilon > 0 else 0.0):
                report.holds = False
                report.violations.append(
                    Violation(
                        kind=concept,
                        coalition=coalition,
                        malicious=(),
                        types=x_k,
                        detail=(
                            "coalition deviation improves "
                            + ("some member" if strong else "all members")
                            + f" by {gain:.6g}"
                        ),
                        gain=gain,
                    )
                )
            else:
                report.margin = min(report.margin, threshold - gain)
    return report


def check_nash(game: BayesianGame, profile: StrategyProfile,
               epsilon: float = 0.0) -> SolutionReport:
    """Bayesian Nash equilibrium = 1-resilience."""
    report = check_k_resilient(game, profile, 1, epsilon=epsilon)
    report.concept = "Nash" if not epsilon else f"{epsilon}-Nash"
    return report


def find_pure_nash(game: BayesianGame) -> list[tuple]:
    """Enumerate all pure-strategy Bayesian Nash equilibria of a small game.

    A pure strategy profile assigns each player a map from its types to
    actions; for complete-information games this is one action per player.
    Returns the equilibrium profiles as tuples of per-player
    {type: action} dicts (or plain actions when the player has one type).
    Exponential — intended for the library's toy games.
    """
    per_player_maps = []
    for i in game.players():
        own_types = game.type_space.player_types(i)
        maps = [
            dict(zip(own_types, combo))
            for combo in itertools.product(game.action_sets[i],
                                           repeat=len(own_types))
        ]
        per_player_maps.append(maps)
    equilibria = []
    for combo in itertools.product(*per_player_maps):
        profile = StrategyProfile(
            [PureStrategy(lambda ty, m=m: m[ty]) for m in combo]
        )
        if check_k_resilient(game, profile, 1).holds:
            simplified = tuple(
                next(iter(m.values())) if len(m) == 1 else dict(m)
                for m in combo
            )
            equilibria.append(simplified)
    return equilibria


def tighten_epsilon(
    game: BayesianGame, profile: StrategyProfile, k: int, epsilon: float
) -> float:
    """Proposition 6.6/6.7: improve an ε bound to some ε₀ < ε.

    For a finite game, an ε-k-resilient profile's worst coalition gain ε₁
    is attained (compactness) and strictly below ε; the propositions take
    ε₀ = (ε + ε₁)/2. We compute ε₁ exactly as the max over coalitions,
    conditionings and (mixed) deviations of the min-member gain, and return
    the propositions' midpoint. Raises if the profile is not actually
    ε-k-resilient.
    """
    worst = -float("inf")
    for coalition in _coalitions(list(game.players()), k):
        for x_k in game.type_space.coalition_profiles(coalition):
            baseline = _baseline(game, profile, coalition, x_k, coalition)
            _, matrix = _coalition_payoff_matrix(game, profile, coalition, x_k)
            worst = max(worst, _max_min_gain(matrix, baseline))
    if worst >= epsilon:
        raise GameError(
            f"profile is not {epsilon}-{k}-resilient (worst gain {worst:.6g})"
        )
    return (epsilon + max(worst, 0.0)) / 2.0


def check_t_immune(
    game: BayesianGame,
    profile: StrategyProfile,
    t: int,
    epsilon: float = 0.0,
) -> SolutionReport:
    """Check (ε-)t-immunity (Definitions 3.3 / 3.5).

    Fails iff players in some T (|T| ≤ t) can play so that some outsider's
    conditional utility drops below baseline (by ≥ ε for the ε variant —
    Def 3.5 requires u_i(dev) > u_i(σ) − ε, so a drop of exactly ε fails).
    """
    concept = (f"{epsilon}-" if epsilon else "") + f"{t}-immunity"
    report = SolutionReport(concept=concept, holds=True, margin=float("inf"))
    if t == 0:
        report.checks = 1
        return report
    for malicious in _coalitions(list(game.players()), t):
        outsiders = [i for i in game.players() if i not in malicious]
        for x_t in game.type_space.coalition_profiles(malicious):
            action_tuples = list(
                itertools.product(*(game.action_sets[i] for i in malicious))
            )
            for i in outsiders:
                report.checks += 1
                base = conditional_expected_utility(
                    game, profile, i, malicious, x_t
                )
                worst = min(
                    conditional_expected_utility(
                        game,
                        profile,
                        i,
                        malicious,
                        x_t,
                        deviations=[
                            JointDeviation(malicious, lambda _x, a=a: {a: 1.0})
                        ],
                    )
                    for a in action_tuples
                )
                drop = base - worst
                threshold = epsilon if epsilon > 0 else _TOL
                if drop >= threshold - (_TOL if epsilon > 0 else 0.0):
                    report.holds = False
                    report.violations.append(
                        Violation(
                            kind=concept,
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


def _pure_strategy_functions(game: BayesianGame, players: tuple[int, ...]):
    """All pure joint strategies for ``players``: maps x_T -> joint action.

    Needed for robustness: the fixed malicious strategy τ_T is a *function*
    of T's types (different x_T cells interact through the conditioning on
    x_K only).
    """
    type_profiles = game.type_space.coalition_profiles(players)
    action_tuples = list(itertools.product(*(game.action_sets[i] for i in players)))
    for assignment in itertools.product(action_tuples, repeat=len(type_profiles)):
        yield dict(zip(type_profiles, assignment))


def check_kt_robust(
    game: BayesianGame,
    profile: StrategyProfile,
    k: int,
    t: int,
    epsilon: float = 0.0,
    strong: bool = False,
) -> SolutionReport:
    """Check (ε-)(strong) (k,t)-robustness (Definitions 3.4 / 3.6).

    Per Def 3.4 this is t-immunity plus: for every T (|T| ≤ t) and every
    strategy τ_T for T, the profile (σ_-T, τ_T) is k-resilient among the
    remaining players in the game where T is pinned to τ_T.

    Malicious strategies are enumerated over *pure* joint functions of x_T
    (sound for finding violations; for certification on the game library
    this is exact because the relevant extremal deviations are pure — see
    PAPER.md, "Modelling substitutions").
    """
    import numpy as np

    concept = ("strong " if strong else "") + (
        f"{epsilon}-" if epsilon else ""
    ) + f"({k},{t})-robustness"
    report = SolutionReport(concept=concept, holds=True, margin=float("inf"))

    immunity = check_t_immune(game, profile, t, epsilon=epsilon)
    report.checks += immunity.checks
    if not immunity.holds:
        report.holds = False
        report.violations.extend(immunity.violations)
    if immunity.margin is not None:
        report.margin = min(report.margin, immunity.margin)

    malicious_sets = [()] + list(_coalitions(list(game.players()), t))
    for malicious in malicious_sets:
        eligible = [i for i in game.players() if i not in malicious]
        if not eligible:
            continue
        tau_choices = (
            [None] if not malicious else _pure_strategy_functions(game, malicious)
        )
        for tau in tau_choices:
            if tau is None:
                fixed_profile = profile
                deviation_for_tau: list[JointDeviation] = []
            else:
                deviation_for_tau = [
                    JointDeviation(
                        malicious, lambda x_t, m=tau: {m[tuple(x_t)]: 1.0}
                    )
                ]
                fixed_profile = profile
            for coalition in _coalitions(eligible, k):
                for x_k in game.type_space.coalition_profiles(coalition):
                    report.checks += 1
                    base = np.array(
                        [
                            conditional_expected_utility(
                                game, fixed_profile, i, coalition, x_k,
                                deviations=deviation_for_tau,
                            )
                            for i in coalition
                        ]
                    )
                    action_tuples = list(
                        itertools.product(
                            *(game.action_sets[i] for i in coalition)
                        )
                    )
                    matrix = np.zeros((len(action_tuples), len(coalition)))
                    for row, actions in enumerate(action_tuples):
                        devs = deviation_for_tau + [
                            JointDeviation(
                                coalition, lambda _x, a=actions: {a: 1.0}
                            )
                        ]
                        for col, i in enumerate(coalition):
                            matrix[row, col] = conditional_expected_utility(
                                game, fixed_profile, i, coalition, x_k,
                                deviations=devs,
                            )
                    if strong:
                        gain = float((matrix - base[None, :]).max())
                    else:
                        gain = _max_min_gain(matrix, base)
                    threshold = epsilon if epsilon > 0 else _TOL
                    if gain >= threshold - (_TOL if epsilon > 0 else 0.0):
                        report.holds = False
                        report.violations.append(
                            Violation(
                                kind=concept,
                                coalition=coalition,
                                malicious=malicious,
                                types=x_k,
                                detail=(
                                    f"with malicious {malicious} fixed, coalition "
                                    f"gains {gain:.6g}"
                                ),
                                gain=gain,
                            )
                        )
                    else:
                        report.margin = min(report.margin, threshold - gain)
    return report
