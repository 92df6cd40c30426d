"""Tests for the mediator layer: protocol, games, canonical form, ideal checks."""

import pytest

from repro.errors import GameError
from repro.games.library import (
    BOT,
    byzantine_agreement_game,
    chicken_game,
    consensus_game,
    free_rider_game,
    section64_game,
)
from repro.mediator import (
    FnMediator,
    LeakySection64Mediator,
    MediatorGame,
    MinimalMediator,
    check_canonical_form,
    check_ideal_mediator_robustness,
    minimally_informative,
)
from repro.mediator.games import MediatorRun
from repro.mediator.ideal import (
    check_ideal_k_resilience,
    check_ideal_t_immunity,
    honest_payoffs,
)
from repro.sim import (
    FifoScheduler,
    RandomScheduler,
    RelaxedScheduler,
    scheduler_zoo,
)

from tests.helpers import CrashProcess


class TestHonestMediatorRuns:
    def test_consensus_all_coordinate(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        for scheduler in scheduler_zoo(seed=3, parties=range(4)):
            run = game.run((0,) * 4, scheduler, seed=5)
            assert len(set(run.actions)) == 1
            assert run.actions[0] in (0, 1)

    def test_byzantine_agreement_majority_recommendation(self):
        spec = byzantine_agreement_game(5)
        game = MediatorGame(spec, k=0, t=0)
        run = game.run((1, 1, 1, 0, 0), FifoScheduler(), seed=2)
        assert run.actions == (1,) * 5

    def test_crashed_players_replaced_by_default_type(self):
        spec = byzantine_agreement_game(5)
        game = MediatorGame(spec, k=0, t=1)
        run = game.run(
            (1, 1, 0, 0, 0),
            FifoScheduler(),
            deviations={0: lambda pid, ty: CrashProcess()},
        )
        # Mediator hears 4 reports (quorum n-k-t = 4) and defaults player 0
        # to type 0: majority of (0,1,0,0,0) is 0; crashed player outputs
        # nothing and the default move (own type = 1) applies to player 0.
        assert run.actions[1:] == (0,) * 4

    def test_multi_round_mediator(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0, rounds=3)
        run = game.run((0,) * 4, FifoScheduler(), seed=1)
        assert len(set(run.actions)) == 1
        # 3 report rounds: n*(1 initial + 2 responses) + n round msgs*2 + n stops
        assert run.message_count() >= 4 * 3 + 4 * 2 + 4

    def test_canonical_form_holds(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0, rounds=2)
        run = game.run((0,) * 4, FifoScheduler(), seed=0, record_payloads=True)
        report = check_canonical_form(run.result, 4, game.mediator, max_rounds=2)
        assert report.ok, report.problems

    def test_unknown_approach_rejected(self):
        with pytest.raises(GameError):
            MediatorGame(consensus_game(4), k=1, t=0, approach="???")


class TestDeadlockSemantics:
    def make_relaxed(self, deliveries):
        return RelaxedScheduler(FifoScheduler(), deliveries_before_stop=deliveries)

    def test_stop_batch_all_or_none(self):
        """Under any relaxed scheduler, either all honest players move or
        none do (Lemma 6.10's characterisation of mediator-game deadlock)."""
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        for deliveries in range(0, 20):
            run = game.run((0,) * 4, self.make_relaxed(deliveries), seed=1)
            moved = sum(1 for pid in range(4) if pid in run.result.outputs)
            assert moved in (0, 4)

    def test_default_move_approach_fills_profile(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0, approach="default")
        run = game.run((0,) * 4, self.make_relaxed(2), seed=1)
        assert run.actions == (0, 0, 0, 0)  # spec default move is 0

    def test_ah_approach_executes_wills(self):
        spec = section64_game(4, k=1)
        game = MediatorGame(
            spec, k=1, t=0, approach="ah", will=lambda pid, ty: BOT
        )
        run = game.run((0,) * 4, self.make_relaxed(2), seed=1)
        assert run.actions == (BOT,) * 4  # punishment from the wills

    def test_ah_approach_without_will_falls_back_to_default(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0, approach="ah")
        run = game.run((0,) * 4, self.make_relaxed(2), seed=1)
        assert run.actions == (0, 0, 0, 0)


class TestLeakyMediator:
    def test_leaky_mediator_still_coordinates_honest_players(self):
        spec = section64_game(4, k=1)
        game = MediatorGame(
            spec, k=1, t=0,
            mediator_factory=lambda: LeakySection64Mediator(spec, 1, 0),
        )
        run = game.run((0,) * 4, FifoScheduler(), seed=3)
        assert len(set(run.actions)) == 1
        assert run.actions[0] in (0, 1)

    def test_leak_values_are_consistent_with_b(self):
        """Collect the leaked a + b·i values and check they decode b."""
        spec = section64_game(4, k=1)
        leaks = {}

        class Recorder(LeakySection64Mediator):
            def round_info_value(self, ctx, pid):
                value = super().round_info_value(ctx, pid)
                leaks[pid] = value
                return value

        game = MediatorGame(
            spec, k=1, t=0, mediator_factory=lambda: Recorder(spec, 1, 0)
        )
        run = game.run((0,) * 4, FifoScheduler(), seed=9)
        b = run.actions[0]
        # leak(i) xor leak(j) == b * (i - j) mod 2: adjacent leaks decode b.
        assert (leaks[1] - leaks[0]) % 2 == b % 2

    def test_minimally_informative_strips_leak(self):
        spec = section64_game(4, k=1)
        leaky = MediatorGame(
            spec, k=1, t=0,
            mediator_factory=lambda: LeakySection64Mediator(spec, 1, 0),
        )
        minimal = minimally_informative(leaky, rounds=1)
        run = minimal.run((0,) * 4, FifoScheduler(), seed=3, record_payloads=True)
        round_infos = [
            e.payload[2]
            for e in run.result.trace.sends()
            if e.sender == minimal.mediator
            and isinstance(e.payload, tuple)
            and e.payload[0] == "round"
        ]
        assert all(info is None for info in round_infos)
        assert len(set(run.actions)) == 1

    def test_weak_implementation_message_count_is_linear(self):
        spec = consensus_game(6)
        game = MediatorGame(
            spec, k=1, t=0, rounds=1,
            mediator_factory=lambda: MinimalMediator(spec, 1, 0, rounds=1),
        )
        run = game.run((0,) * 6, FifoScheduler(), seed=0)
        # One report per player + one STOP per player = 2n messages.
        assert run.message_count() == 12


class TestOutcomeSampling:
    def test_sample_outcomes_shape(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        samples = game.sample_outcomes(
            scheduler_zoo(seed=0, parties=range(4)), samples_per_scheduler=3
        )
        rows = samples[(0, 0, 0, 0)]
        assert len(rows) == 3 * len(scheduler_zoo(seed=0, parties=range(4)))
        assert all(len(set(r)) == 1 for r in rows)

    def test_sample_seeds_keep_each_games_stride(self):
        """Both games sample through one method, each with its own seed
        stride between environments."""
        from repro.cheaptalk import CheapTalkGame

        for game, stride in (
            (MediatorGame(consensus_game(4), 1, 0), 7919),
            (CheapTalkGame(consensus_game(5), 1, 0), 104729),
        ):
            seeds = []
            game.run = lambda types, scheduler, seed, deviations: (
                seeds.append(seed) or MediatorRun((), None, types)
            )
            game.sample_outcomes([FifoScheduler()] * 2, 2, seed=5)
            assert seeds == [5, 6, 5 + stride, 6 + stride]

    def test_coin_distribution_roughly_uniform(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        samples = game.sample_outcomes(
            [FifoScheduler()], samples_per_scheduler=200
        )
        ones = sum(1 for r in samples[(0, 0, 0, 0)] if r[0] == 1)
        assert 60 < ones < 140


class TestIdealCheckers:
    def test_honest_payoffs_consensus(self):
        spec = consensus_game(4)
        payoffs = honest_payoffs(spec, (), ())
        assert payoffs == {i: pytest.approx(1.0) for i in range(4)}

    def test_chicken_is_correlated_equilibrium(self):
        spec = chicken_game()
        assert check_ideal_k_resilience(spec, 1).holds

    def test_chicken_expected_payoff(self):
        payoffs = honest_payoffs(chicken_game(), (), ())
        assert payoffs[0] == pytest.approx(5.0)
        assert payoffs[1] == pytest.approx(5.0)

    def test_consensus_ideal_robustness(self):
        spec = consensus_game(5)
        assert check_ideal_mediator_robustness(spec, k=1, t=1).holds

    def test_section64_resilient_at_k1_not_k2(self):
        spec = section64_game(4, k=1)
        assert check_ideal_k_resilience(spec, 1).holds
        report = check_ideal_k_resilience(spec, 2)
        # Two players defecting to BOT when told "0" prefer 1.1 to 1.0.
        assert not report.holds
        assert any(len(v.coalition) == 2 for v in report.violations)

    def test_byzantine_agreement_t_immunity(self):
        spec = byzantine_agreement_game(5)
        assert check_ideal_t_immunity(spec, 1).holds

    def test_free_rider_nash(self):
        spec = free_rider_game(4, sharers_needed=2)
        assert check_ideal_k_resilience(spec, 1).holds

    def test_free_rider_nash_fails_when_not_pivotal(self):
        """With 3 sharers required but benefit below cost, duty is shirked."""
        spec = free_rider_game(4, sharers_needed=2, benefit=0.9, cost=1.0)
        report = check_ideal_k_resilience(spec, 1)
        assert not report.holds

    def test_missing_dist_rejected(self):
        spec = consensus_game(4)
        spec.mediator_dist = None
        with pytest.raises(GameError):
            check_ideal_k_resilience(spec, 1)
