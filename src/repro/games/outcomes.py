"""Outcome maps, expected utilities, and the paper's distance notion.

An *outcome map* is the function T -> Δ(A) induced by a strategy profile
(plus, in extension games, an environment strategy). Implementation and
ε-implementation (Section 2) compare outcome maps: the distance between two
distributions is the L1 distance Σ|π(s) − π'(s)| and is lifted to outcome
maps by taking the max over type profiles.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.errors import GameError
from repro.games.bayesian import BayesianGame, TypeProfile
from repro.games.strategies import (
    JointDeviation,
    StrategyProfile,
    joint_action_distribution,
)

OutcomeMap = dict
"""type profile -> {action profile -> probability}"""


def outcome_map(
    game: BayesianGame,
    profile: StrategyProfile,
    deviations: Sequence[JointDeviation] = (),
) -> OutcomeMap:
    """The exact T -> Δ(A) map induced by ``profile`` (with deviations)."""
    result: OutcomeMap = {}
    for types in game.type_space.profiles():
        if deviations:
            result[types] = joint_action_distribution(profile, deviations, types)
        else:
            result[types] = profile.action_distribution(types)
    return result


def statistical_distance(pi: Mapping, pi_prime: Mapping) -> float:
    """The paper's dist(π, π') = Σ_s |π(s) − π'(s)| (L1, not halved)."""
    keys = sorted(set(pi) | set(pi_prime), key=repr)
    return sum(abs(pi.get(k, 0.0) - pi_prime.get(k, 0.0)) for k in keys)


def outcome_map_distance(a: OutcomeMap, b: OutcomeMap) -> float:
    """max over type profiles of the L1 distance between action dists."""
    keys = set(a) | set(b)
    worst = 0.0
    for key in keys:
        worst = max(worst, statistical_distance(a.get(key, {}), b.get(key, {})))
    return worst


def expected_utilities(
    game: BayesianGame,
    profile: StrategyProfile,
    deviations: Sequence[JointDeviation] = (),
) -> tuple[float, ...]:
    """Ex-ante expected utility vector under the (possibly deviated) profile."""
    totals = [0.0] * game.n
    for types, type_prob in game.type_space.support:
        if deviations:
            action_dist = joint_action_distribution(profile, deviations, types)
        else:
            action_dist = profile.action_distribution(types)
        for actions, action_prob in action_dist.items():
            payoff = game.utility(types, actions)
            weight = type_prob * action_prob
            for i in range(game.n):
                totals[i] += weight * payoff[i]
    return tuple(totals)


def conditional_expected_utility(
    game: BayesianGame,
    profile: StrategyProfile,
    player: int,
    coalition: Sequence[int],
    x_k: tuple,
    deviations: Sequence[JointDeviation] = (),
) -> float:
    """u_i(Γ, σ, x_K): expected utility conditioned on coalition types.

    This is the quantity all the paper's solution concepts compare
    (Definitions 3.1–3.6 all quantify over x_K and condition on T(x_K)).
    """
    total = 0.0
    for types, cond_prob in game.type_space.conditional(coalition, x_k):
        if deviations:
            action_dist = joint_action_distribution(profile, deviations, types)
        else:
            action_dist = profile.action_distribution(types)
        for actions, action_prob in action_dist.items():
            total += cond_prob * action_prob * game.utility_of(player, types, actions)
    return total


def empirical_map(
    samples: Mapping[TypeProfile, Sequence[tuple]],
) -> OutcomeMap:
    """Estimate an outcome map from sampled action profiles per type profile.

    ``samples`` is ``{types: [action profiles]}``, the shape an extension
    game's ``sample_outcomes`` returns: the asynchronous layers get their
    outcome distributions from simulation runs rather than closed-form
    products.
    """
    result: OutcomeMap = {}
    for types, action_list in samples.items():
        if not action_list:
            raise GameError(f"no samples for type profile {types!r}")
        dist: dict[tuple, float] = {}
        weight = 1.0 / len(action_list)
        for actions in action_list:
            key = tuple(actions)
            dist[key] = dist.get(key, 0.0) + weight
        result[tuple(types)] = dist
    return result


def sampling_tolerance(samples: int) -> float:
    """L1 sampling-noise allowance when comparing two empirical outcome maps.

    Two empirical distributions of m samples each over a small outcome
    space differ by O(sqrt(k/m)) in L1; we allow 3 standard errors over a
    nominal k=4 outcome support.
    """
    return 3.0 * (4.0 / max(samples, 1)) ** 0.5


def empirical_utilities(
    game: BayesianGame,
    samples: Mapping[TypeProfile, Sequence[tuple]],
    type_weights: Optional[Mapping[TypeProfile, float]] = None,
) -> tuple[float, ...]:
    """Expected utility vector from sampled outcomes.

    ``type_weights`` defaults to the game's type distribution restricted to
    the sampled profiles (renormalised).
    """
    if type_weights is None:
        weights = {
            types: game.type_space.probability(types) for types in samples
        }
    else:
        weights = dict(type_weights)
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise GameError("sampled type profiles have zero total probability")
    totals = [0.0] * game.n
    for types, action_list in samples.items():
        w = weights.get(types, 0.0) / total_weight
        if w == 0 or not action_list:
            continue
        per = w / len(action_list)
        for actions in action_list:
            payoff = game.utility(tuple(types), tuple(actions))
            for i in range(game.n):
                totals[i] += per * payoff[i]
    return tuple(totals)
