"""Tests for the analysis layer: deviations, robustness, implementation, E5."""

from statistics import mean

import pytest

from repro.analysis import (
    DeviationTrial,
    check_empirical_robustness,
    check_implementation,
    implementation_distance,
    scheduler_proofness_spread,
)
from repro.analysis.deviations import (
    crash,
    ct_crash,
    ct_misreport,
    ct_selective_silence,
    disobedient,
    misreport,
    stall_after_messages,
)
from repro.analysis.section64 import ColludingScheduler, leak_attack, run_attack
from repro.cheaptalk import compile_theorem41
from repro.experiments import ExperimentRunner, get_scenario
from repro.experiments.cache import _build_mediator
from repro.experiments.deviations import deviation_profile
from repro.games.library import (
    BOT,
    byzantine_agreement_game,
    consensus_game,
    section64_game,
)
from repro.games.registry import make_game
from repro.mediator import (
    LeakySection64Mediator,
    MediatorGame,
    minimally_informative,
)
from repro.sim import FifoScheduler, RandomScheduler, scheduler_zoo


class TestMediatorDeviations:
    def test_misreport_changes_majority(self):
        spec = byzantine_agreement_game(5)
        game = MediatorGame(spec, k=1, t=0)
        types = (1, 1, 1, 0, 0)
        honest = game.run(types, FifoScheduler(), seed=0)
        assert honest.actions == (1,) * 5
        lied = game.run(
            types, FifoScheduler(), seed=0,
            deviations={0: misreport(spec, 0)},
        )
        # Reported profile is (0,1,1,0,0): majority flips to 0.
        assert lied.actions[1:] == (0,) * 4

    def test_disobedient_plays_remapped_action(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        run = game.run(
            (0,) * 4, FifoScheduler(), seed=0,
            deviations={2: disobedient(spec, lambda a: 1 - a)},
        )
        assert run.actions[2] == 1 - run.actions[0]

    def test_stall_after_messages(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0, rounds=3)
        run = game.run(
            (0,) * 4, FifoScheduler(), seed=0,
            deviations={1: stall_after_messages(spec, limit=1)},
        )
        # The staller reports round 0 then stops; the mediator's quorum is
        # n-k-t = 3, so the rest still finish.
        assert all(run.actions[i] in (0, 1) for i in (0, 2, 3))

    def test_crash_factory(self):
        spec = consensus_game(4)
        game = MediatorGame(spec, k=1, t=0)
        run = game.run(
            (0,) * 4, FifoScheduler(), seed=0, deviations={3: crash()}
        )
        assert len(set(run.actions[:3])) == 1
        assert run.actions[3] == 0  # default move


class TestPerEnvironmentResults:
    """Environments that share a name are each reported and counted."""

    def test_spread_counts_every_environment(self):
        game = MediatorGame(consensus_game(3), 1, 0)
        result = scheduler_proofness_spread(
            game, [RandomScheduler(1), RandomScheduler(2)],
            samples_per_scheduler=2,
        )
        assert len(result["per_scheduler"]) == 2
        assert [name for name, _ in result["per_scheduler"]] == [
            "random", "random"
        ]

    def test_spread_samples_only_the_given_type_profiles(self, monkeypatch):
        game = MediatorGame(byzantine_agreement_game(3), 1, 0)
        sample = game.sample_outcomes
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["type_profiles"])
            return sample(*args, **kwargs)

        monkeypatch.setattr(game, "sample_outcomes", recording)
        result = scheduler_proofness_spread(
            game, [FifoScheduler(), RandomScheduler(1)],
            samples_per_scheduler=2, type_profiles=[(0, 1, 1)],
        )
        assert seen == [[(0, 1, 1)], [(0, 1, 1)]]
        assert len(result["per_scheduler"]) == 2

    def test_implementation_reports_every_environment(self):
        game = MediatorGame(consensus_game(3), 1, 0)
        report = check_implementation(
            game, game, schedulers=[RandomScheduler(1), RandomScheduler(2)],
            samples_per_scheduler=2,
        )
        assert len(report.per_scheduler) == 2
        assert [name for name, _ in report.per_scheduler] == [
            "random", "random"
        ]


@pytest.mark.slow
class TestEmpiricalRobustness:
    def test_consensus_cheap_talk_catalogue_passes(self):
        spec = consensus_game(9)
        proto = compile_theorem41(spec, 1, 1)
        trials = [
            DeviationTrial(
                name="crash-one", deviations={8: ct_crash()}, malicious=(8,)
            ),
            DeviationTrial(
                name="misreport",
                deviations={8: ct_misreport(spec, 0)},
                rational=(8,),
            ),
        ]
        report = check_empirical_robustness(
            proto.game, trials, [FifoScheduler(), RandomScheduler(2)],
            samples_per_scheduler=4,
        )
        assert report.holds, report.findings

    def test_selective_silence_harms_nobody(self):
        """Silence toward one victim: the rest of the network routes around
        it (the victim still reconstructs from n-1 contributions)."""
        spec = consensus_game(9)
        proto = compile_theorem41(spec, 1, 1)
        run = proto.game.run(
            (0,) * 9, FifoScheduler(), seed=3,
            deviations={8: ct_selective_silence(spec, victims=[0])},
        )
        assert len(set(run.actions[:8])) == 1

    def test_scheduler_proofness_spread_small(self):
        spec = consensus_game(9)
        proto = compile_theorem41(spec, 1, 1)
        for envs, bound in ((3, 0.45), (4, 0.5)):
            result = scheduler_proofness_spread(
                proto.game,
                scheduler_zoo(seed=1, parties=range(9))[:envs],
                samples_per_scheduler=6,
            )
            # The coin is fair under every environment; spread is sampling
            # noise.
            assert result["spread"] < bound, envs
        # Control: on consensus_game(9) every player is paid 1.0 whatever
        # the coin picks, so the spread above is 0 however it is computed.
        # Against the Sec 6.4 leaky mediator the colluding environment
        # does move the leak-attack coalition's payoff.
        scenario = get_scenario("sec64-leak-attack")
        game_spec = make_game(scenario.game, scenario.n)
        control = scheduler_proofness_spread(
            _build_mediator(scenario, game_spec),
            [FifoScheduler(), ColludingScheduler((0, 1))],
            samples_per_scheduler=10,
            deviations=deviation_profile(
                "leak-attack", game_spec, scenario.k, scenario.t, "mediator"
            ),
        )
        assert control["spread"] > 0, control["per_scheduler"]


@pytest.mark.slow
class TestImplementationChecking:
    def test_cheap_talk_implements_mediator(self):
        spec = consensus_game(9)
        proto = compile_theorem41(spec, 1, 1)
        med = MediatorGame(spec, 1, 1)
        report = check_implementation(
            proto.game, med,
            schedulers=[FifoScheduler(), RandomScheduler(4)],
            samples_per_scheduler=12,
        )
        assert report.holds, (report.distance, report.tolerance)

    def test_distance_detects_wrong_mediator(self):
        """A mediator recommending a biased coin is far from the fair one."""
        spec_fair = consensus_game(5)
        spec_biased = consensus_game(5)
        spec_biased.mediator_fn = lambda reports, rng: (1,) * 5
        fair = MediatorGame(spec_fair, 1, 0)
        biased = MediatorGame(spec_biased, 1, 0)
        distance = implementation_distance(
            fair, biased, [FifoScheduler()], samples_per_scheduler=40
        )
        assert distance > 0.5


class TestSection64Attack:
    def make_leaky(self, n=7, k=2):
        spec = section64_game(n, k=k)
        return MediatorGame(
            spec, k, 0, approach="ah",
            will=lambda pid, ty: BOT,
            mediator_factory=lambda: LeakySection64Mediator(spec, k, 0),
        )

    def test_attack_needs_odd_difference(self):
        spec = section64_game(7, k=2)
        with pytest.raises(ValueError):
            leak_attack(spec, (0, 2))

    def test_attack_converts_low_coin_runs_into_punishment(self):
        game = self.make_leaky()
        payoffs = run_attack(game, (0, 1), runs=30)
        assert set(payoffs) == {1.1, 2.0}  # 1.0 outcomes eliminated
        # Pointwise domination of honest play => strictly profitable.
        assert sum(payoffs) / len(payoffs) > 1.5

    def test_attack_fails_against_minimal_mediator(self):
        game = minimally_informative(self.make_leaky(), rounds=2)
        payoffs = run_attack(game, (0, 1), runs=30)
        assert 1.1 not in payoffs
        assert set(payoffs) <= {1.0, 2.0}

    def test_colluding_scheduler_trips_only_on_signal(self):
        sched = ColludingScheduler((0, 1))
        sched.reset(0)
        from repro.sim.network import Message, Network

        def transit(uid, sender, recipient, batch):
            net = Network()
            net.reinstate([Message(uid, sender, recipient, None, 0, batch)])
            return net.view()

        normal = transit(uid=1, sender=2, recipient=3, batch=1)
        assert sched.choose(normal, 0) == 1
        signal = transit(uid=2, sender=0, recipient=0, batch=2)
        assert sched.choose(signal, 1) is None
        assert sched.choose(normal, 2) is None  # stays tripped

    def test_colluding_scheduler_trips_at_the_same_step_on_both_views(self):
        """The pool's self-sender index trips the scheduler at the step a
        scan over the pool's MessageViews does, and not on a non-member's
        self-message or a member's message to someone else."""
        from repro.sim.network import Network

        coalition = {0, 1}
        sched = ColludingScheduler(coalition)
        sched.reset(0)
        net = Network()
        sends = [[(2, 3)], [(2, 2)], [(0, 1)], [(3, 3), (1, 1)], [(2, 3)]]
        picks = []
        tripped = False
        for step, batch in enumerate(sends):
            for sender, recipient in batch:
                net.send(sender, recipient, "x", step, step)
            pick = sched.choose(net.view(), step)
            # The scan: stop for good at a member's self-message, else
            # deliver the oldest message.
            views = list(net.view())
            tripped = tripped or any(
                m.sender == m.recipient and m.sender in coalition
                for m in views
            )
            assert (None if tripped else min(m.uid for m in views)) == pick
            picks.append(pick)
            if pick is not None:
                net.deliver(pick)
        assert picks == [0, 1, 2, None, None]

    def test_registered_attack_and_defense_outcomes(self):
        runner = ExperimentRunner()

        def coalition_payoffs(name):
            spec = get_scenario(name).replace(seed_count=40)
            # Player 0 is a coalition member in both scenarios.
            return {r.payoffs[0] for r in runner.run(spec).records}

        assert coalition_payoffs("sec64-leak-attack") == {1.1, 2.0}
        assert 1.1 not in coalition_payoffs("sec64-minimal-defense")

    def test_colluding_environment_gains_a_robust_profile_nothing(self):
        """E12: against the Thm 4.1 profile, the colluding environment
        leaves the mean payoff where a benign one does."""
        spec = consensus_game(9)
        game = compile_theorem41(spec, 1, 1).game
        types = (0,) * 9
        benign, colluding = [], []
        for seed in range(8):
            run = game.run(types, FifoScheduler(), seed=seed)
            benign.append(spec.game.utility(types, run.actions)[0])
            run = game.run(types, ColludingScheduler(()), seed=seed)
            colluding.append(spec.game.utility(types, run.actions)[0])
        assert abs(mean(benign) - mean(colluding)) < 0.35

    def test_honest_play_unaffected_by_leak(self):
        """Without deviators, the leaky mediator still implements the coin."""
        game = self.make_leaky()
        outcomes = set()
        for seed in range(10):
            run = game.run((0,) * 7, FifoScheduler(), seed=seed)
            assert len(set(run.actions)) == 1
            outcomes.add(run.actions[0])
        assert outcomes == {0, 1}
