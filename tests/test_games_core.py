"""Tests for Bayesian games, strategies, and outcome maps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GameError, StrategyError
from repro.games import (
    BayesianGame,
    ConstantStrategy,
    MixedStrategy,
    PureStrategy,
    StrategyProfile,
    TypeSpace,
    UniformStrategy,
    expected_utilities,
    conditional_expected_utility,
    outcome_map,
    outcome_map_distance,
    statistical_distance,
)
from repro.games.outcomes import empirical_map, empirical_utilities
from repro.games.strategies import JointDeviation, joint_action_distribution


def pd_game():
    """Classic prisoner's dilemma (complete information)."""
    payoffs = {
        ("C", "C"): (3.0, 3.0),
        ("C", "D"): (0.0, 4.0),
        ("D", "C"): (4.0, 0.0),
        ("D", "D"): (1.0, 1.0),
    }
    return BayesianGame(
        n=2,
        action_sets=[["C", "D"], ["C", "D"]],
        type_space=TypeSpace.single([0, 0]),
        utility=lambda t, a: payoffs[tuple(a)],
        name="pd",
    )


class TestTypeSpace:
    def test_single(self):
        ts = TypeSpace.single([1, 2, 3])
        assert ts.n == 3
        assert ts.profiles() == [(1, 2, 3)]
        assert ts.probability((1, 2, 3)) == 1.0

    def test_uniform(self):
        ts = TypeSpace.uniform([(0, 0), (1, 1)])
        assert ts.probability((0, 0)) == pytest.approx(0.5)

    def test_independent_uniform(self):
        ts = TypeSpace.independent_uniform([[0, 1], [0, 1]])
        assert len(ts.profiles()) == 4
        assert ts.player_types(0) == [0, 1]

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(GameError):
            TypeSpace.from_dict(1, {(0,): 0.5})

    def test_wrong_arity_rejected(self):
        with pytest.raises(GameError):
            TypeSpace(2, (((0,), 1.0),))

    def test_conditional(self):
        ts = TypeSpace.independent_uniform([[0, 1], [0, 1]])
        cond = ts.conditional([0], (1,))
        assert sum(p for _, p in cond) == pytest.approx(1.0)
        assert all(profile[0] == 1 for profile, _ in cond)

    def test_conditional_zero_probability_rejected(self):
        ts = TypeSpace.single([0, 0])
        with pytest.raises(GameError):
            ts.conditional([0], (5,))

    def test_coalition_profiles(self):
        ts = TypeSpace.independent_uniform([[0, 1], [0, 1], [0]])
        assert set(ts.coalition_profiles([0, 2])) == {(0, 0), (1, 0)}


class TestBayesianGame:
    def test_utility_caching_and_shape(self):
        game = pd_game()
        assert game.utility((0, 0), ("C", "C")) == (3.0, 3.0)
        assert game.utility_of(1, (0, 0), ("C", "D")) == 4.0

    def test_wrong_utility_arity_rejected(self):
        game = BayesianGame(
            2,
            [["a"], ["a"]],
            TypeSpace.single([0, 0]),
            lambda t, a: (1.0,),
        )
        with pytest.raises(GameError):
            game.utility((0, 0), ("a", "a"))

    def test_empty_action_set_rejected(self):
        with pytest.raises(GameError):
            BayesianGame(1, [[]], TypeSpace.single([0]), lambda t, a: (0.0,))

    def test_action_set_count_must_match_n(self):
        with pytest.raises(GameError):
            BayesianGame(2, [["a"]], TypeSpace.single([0, 0]), lambda t, a: (0, 0))

    def test_utility_bound(self):
        assert pd_game().utility_bound() == 4.0

    def test_validate_action_profile(self):
        game = pd_game()
        game.validate_action_profile(("C", "D"))
        with pytest.raises(GameError):
            game.validate_action_profile(("C", "X"))

    def test_with_utility_variant(self):
        game = pd_game()
        variant = game.with_utility(lambda t, a: (0.0, 0.0))
        assert variant.utility((0, 0), ("C", "C")) == (0.0, 0.0)
        assert game.utility((0, 0), ("C", "C")) == (3.0, 3.0)

    def test_action_profiles(self):
        assert len(pd_game().action_profiles()) == 4


class TestStrategies:
    def test_constant_strategy(self):
        s = ConstantStrategy("D")
        assert s.distribution(0) == {"D": 1.0}
        assert s.action(123) == "D"

    def test_pure_strategy_from_map(self):
        s = PureStrategy.constant_map({0: "C", 1: "D"})
        assert s.action(0) == "C"
        assert s.action(1) == "D"

    def test_mixed_strategy_must_normalise(self):
        s = MixedStrategy(lambda t: {"a": 0.7})
        with pytest.raises(StrategyError):
            s.distribution(0)

    def test_uniform_strategy(self):
        s = UniformStrategy(["x", "y"])
        assert s.distribution(0) == {"x": 0.5, "y": 0.5}

    def test_sampling_deterministic(self):
        s = UniformStrategy([0, 1, 2, 3])
        a = s.sample(0, random.Random(1))
        b = s.sample(0, random.Random(1))
        assert a == b

    def test_profile_replace(self):
        profile = StrategyProfile([ConstantStrategy("C")] * 2)
        new = profile.replace({1: ConstantStrategy("D")})
        assert new[1].fixed_action == "D"
        assert profile[1].fixed_action == "C"

    def test_action_distribution_product(self):
        profile = StrategyProfile(
            [UniformStrategy(["C", "D"]), ConstantStrategy("C")]
        )
        dist = profile.action_distribution((0, 0))
        assert dist == {("C", "C"): 0.5, ("D", "C"): 0.5}

    def test_joint_deviation_correlated(self):
        profile = StrategyProfile([ConstantStrategy("C")] * 3)
        deviation = JointDeviation(
            (0, 2), lambda x: {("D", "D"): 0.5, ("C", "C"): 0.5}
        )
        dist = joint_action_distribution(profile, [deviation], (0, 0, 0))
        assert dist == {
            ("D", "C", "D"): 0.5,
            ("C", "C", "C"): 0.5,
        }

    def test_overlapping_deviations_rejected(self):
        profile = StrategyProfile([ConstantStrategy("C")] * 2)
        d1 = JointDeviation((0,), lambda x: {("D",): 1.0})
        d2 = JointDeviation((0, 1), lambda x: {("D", "D"): 1.0})
        with pytest.raises(StrategyError):
            joint_action_distribution(profile, [d1, d2], (0, 0))


class TestOutcomes:
    def test_expected_utilities_pd(self):
        game = pd_game()
        both_defect = StrategyProfile([ConstantStrategy("D")] * 2)
        assert expected_utilities(game, both_defect) == (1.0, 1.0)

    def test_expected_utilities_mixed(self):
        game = pd_game()
        profile = StrategyProfile(
            [UniformStrategy(["C", "D"]), ConstantStrategy("C")]
        )
        # 0.5*(3,3) + 0.5*(4,0)
        assert expected_utilities(game, profile) == (3.5, 1.5)

    def test_conditional_expected_utility_type_dependent(self):
        # Player 0's utility equals its own type; player 1 indifferent.
        game = BayesianGame(
            2,
            [["a"], ["a"]],
            TypeSpace.independent_uniform([[0, 1], [0]]),
            lambda t, a: (float(t[0]), 0.0),
        )
        profile = StrategyProfile([ConstantStrategy("a")] * 2)
        assert conditional_expected_utility(game, profile, 0, [0], (1,)) == 1.0
        assert conditional_expected_utility(game, profile, 0, [0], (0,)) == 0.0
        # Unconditioned on player 0's type (conditioning on player 1 only):
        assert conditional_expected_utility(game, profile, 0, [1], (0,)) == 0.5

    def test_outcome_map(self):
        game = pd_game()
        profile = StrategyProfile([ConstantStrategy("C")] * 2)
        m = outcome_map(game, profile)
        assert m == {(0, 0): {("C", "C"): 1.0}}

    def test_statistical_distance(self):
        a = {"x": 0.5, "y": 0.5}
        b = {"x": 1.0}
        assert statistical_distance(a, b) == pytest.approx(1.0)
        assert statistical_distance(a, a) == 0.0

    def test_outcome_map_distance(self):
        m1 = {(0,): {"x": 1.0}}
        m2 = {(0,): {"y": 1.0}}
        assert outcome_map_distance(m1, m2) == pytest.approx(2.0)

    @given(
        st.dictionaries(st.sampled_from("abcd"), st.floats(0, 1), max_size=4),
        st.dictionaries(st.sampled_from("abcd"), st.floats(0, 1), max_size=4),
    )
    @settings(max_examples=50)
    def test_distance_symmetry_nonnegativity(self, a, b):
        assert statistical_distance(a, b) == statistical_distance(b, a)
        assert statistical_distance(a, b) >= 0
        assert statistical_distance(a, a) == 0

    def test_empirical_outcome_map(self):
        game = pd_game()
        samples = {(0, 0): [("C", "C"), ("C", "C"), ("D", "D"), ("D", "D")]}
        m = empirical_map(samples)
        assert m[(0, 0)][("C", "C")] == pytest.approx(0.5)

    def test_empirical_outcome_map_empty_rejected(self):
        with pytest.raises(GameError):
            empirical_map({(0, 0): []})

    def test_empirical_utilities(self):
        game = pd_game()
        samples = {(0, 0): [("C", "C"), ("D", "D")]}
        u = empirical_utilities(game, samples)
        assert u == (2.0, 2.0)
