"""Tests for the cheap-talk compilers, properties, and circuits."""

import json
import random
from pathlib import Path

import pytest

from repro.cheaptalk import (
    CheapTalkGame,
    check_bisimulation,
    check_cotermination,
    check_emulation,
    compile_theorem41,
    compile_theorem42,
    compile_theorem44,
    compile_theorem45,
    mediator_circuit_for,
)
from repro.cheaptalk.circuits import output_label
from repro.circuits import Circuit
from repro.errors import CompilationError, MediatorError
from repro.experiments import ExperimentRunner, get_scenario
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import (
    BOT,
    byzantine_agreement_game,
    chicken_game,
    consensus_game,
    free_rider_game,
    section64_game,
    shamir_secret_game,
)
from repro.games.registry import make_game
from repro.mediator import MediatorGame
from repro.sim import FifoScheduler, RandomScheduler, scheduler_zoo

from tests.helpers import CrashProcess

F = GF(DEFAULT_PRIME)
EXAMPLE_GAME = Path(__file__).parent.parent / "examples" / "custom_game.json"


class TestMediatorCircuits:
    @pytest.mark.parametrize(
        "spec_maker",
        [
            lambda: consensus_game(5),
            lambda: section64_game(4, 1),
            lambda: byzantine_agreement_game(5),
            chicken_game,
            free_rider_game,
            shamir_secret_game,
        ],
        ids=["consensus", "section64", "byz", "chicken", "free-rider", "shamir"],
    )
    def test_circuit_agrees_with_mediator_dist(self, spec_maker):
        """Clear evaluation of the circuit matches the ideal distribution."""
        spec = spec_maker()
        circuit = mediator_circuit_for(spec, F)
        n = spec.game.n
        input_players = circuit.input_players()
        for t_idx, types in enumerate(spec.game.type_space.profiles()[:3]):
            dist = spec.mediator_dist(types)
            seen = {}
            trials = 120 if len(dist) > 1 else 8
            for i in range(trials):
                inputs = {
                    p: spec.encode_type(types[p]) for p in input_players
                }
                out = circuit.evaluate(inputs, random.Random(1000 * t_idx + i))
                actions = tuple(
                    spec.decode_action(int(out[output_label(p)]))
                    for p in range(n)
                )
                seen[actions] = seen.get(actions, 0) + 1
            assert set(seen) == set(dist), (types, seen, dist)
            for actions, count in seen.items():
                assert abs(count / trials - dist[actions]) < 0.2

    def test_unknown_spec_rejected(self):
        spec = consensus_game(4)
        spec.name = "mystery-game"
        with pytest.raises(MediatorError):
            mediator_circuit_for(spec, F)

    @pytest.mark.parametrize(
        "name, mismatch",
        [("consensus-lookalike(n=7)", None),
         ("byz-agreement-lookalike(n=7)", "mediator_dist"),
         ("free-rider-lookalike(n=7)", "rotate-duty"),
         ("shamir-secret-lookalike(n=7)", "shamir-decode")],
    )
    def test_file_game_named_like_a_library_game(
        self, tmp_path, name, mismatch
    ):
        """A builder picked by name prefix must match the game's own rule.

        The game is the common-coin example widened to 7 players: the coin
        circuit implements it, the majority circuit does not, and the
        free-rider and Shamir builders refuse its rule before reading
        parameters from it.
        """
        definition = json.loads(EXAMPLE_GAME.read_text())
        definition.update(
            name=name,
            n=7,
            actions=[definition["actions"][0]] * 7,
            types={"kind": "single", "profile": [0] * 7},
        )
        path = tmp_path / "game.json"
        path.write_text(json.dumps(definition))
        spec = make_game(f"file:{path}", 7)
        if mismatch is None:
            assert mediator_circuit_for(spec, F).randbit_count == 1
        else:
            with pytest.raises(MediatorError, match=mismatch):
                mediator_circuit_for(spec, F)


class TestCompilerBounds:
    def test_theorem41_bound(self):
        with pytest.raises(CompilationError):
            compile_theorem41(consensus_game(8), 1, 1)  # needs n > 8
        assert compile_theorem41(consensus_game(9), 1, 1)

    def test_theorem42_bound(self):
        with pytest.raises(CompilationError):
            compile_theorem42(consensus_game(6), 1, 1, epsilon=0.1)
        assert compile_theorem42(consensus_game(7), 1, 1, epsilon=0.1)

    def test_theorem44_bound_and_punishment(self):
        spec = section64_game(4, k=1)
        with pytest.raises(CompilationError):
            compile_theorem44(section64_game(7, k=2), 2, 1)  # needs n > 10
        with pytest.raises(CompilationError):
            # punishment strength k=1 < k+t=2
            compile_theorem44(section64_game(8, k=1), 1, 1)
        assert compile_theorem44(spec, 1, 0)

    def test_theorem45_bound_and_punishment(self):
        with pytest.raises(CompilationError):
            compile_theorem45(section64_game(4, k=1), 1, 1, epsilon=0.1)
        spec = section64_game(7, k=2)  # punishment strength 2 >= 2k+2t = 2
        assert compile_theorem45(spec, 1, 0, epsilon=0.1)

    def test_epsilon_controls_field_choice(self):
        loose = compile_theorem42(consensus_game(7), 1, 1, epsilon=0.5)
        tight = compile_theorem42(consensus_game(7), 1, 1, epsilon=1e-6)
        assert loose.game.field.p < tight.game.field.p
        assert loose.epsilon_achieved <= 0.5
        assert tight.epsilon_achieved <= 1e-6

    def test_describe(self):
        proto = compile_theorem41(consensus_game(9), 1, 1)
        text = proto.describe()
        assert "Theorem 4.1" in text and "n > 4k+4t" in text


@pytest.mark.slow
class TestTheorem41Runs:
    def test_consensus_coordinates_across_schedulers(self):
        proto = compile_theorem41(consensus_game(9), 1, 1)
        for scheduler in scheduler_zoo(seed=2, parties=range(9))[:4]:
            run = proto.game.run((0,) * 9, scheduler, seed=3)
            assert len(set(run.actions)) == 1
            assert run.actions[0] in (0, 1)

    def test_byzantine_agreement_types_flow_through(self):
        proto = compile_theorem41(byzantine_agreement_game(9), 1, 1)
        types = (1, 1, 1, 1, 1, 1, 0, 0, 0)
        run = proto.game.run(types, FifoScheduler(), seed=1)
        assert run.actions == (1,) * 9

    def test_tolerates_crashes_up_to_budget(self):
        from repro.analysis.deviations import ct_crash

        proto = compile_theorem41(consensus_game(9), 1, 1)
        deviations = {7: ct_crash(), 8: ct_crash()}
        run = proto.game.run(
            (0,) * 9, FifoScheduler(), seed=2, deviations=deviations
        )
        honest_actions = run.actions[:7]
        assert len(set(honest_actions)) == 1

    def test_lying_shares_corrected(self):
        from repro.analysis.deviations import ct_lying_shares

        spec = consensus_game(9)
        proto = compile_theorem41(spec, 1, 1)
        run = proto.game.run(
            (0,) * 9, FifoScheduler(), seed=4,
            deviations={8: ct_lying_shares(spec)},
        )
        assert len(set(run.actions[:8])) == 1

    def test_outcome_distribution_matches_mediator_coin(self):
        proto = compile_theorem41(consensus_game(9), 1, 1)
        ones = 0
        for seed in range(24):
            run = proto.game.run((0,) * 9, FifoScheduler(), seed=seed)
            ones += run.actions[0]
        assert 4 <= ones <= 20  # fair-ish coin

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_registered_grid_agrees_at_every_size(self, n):
        spec = get_scenario("thm41-honest").replace(
            n=n, schedulers=("fifo",), seed_count=1
        )
        (record,) = ExperimentRunner().run(spec).records
        assert record.agreed, record

    def test_registered_crash_liar_cell_keeps_honest_agreement(self):
        spec = get_scenario("thm41-crash-liar").replace(
            schedulers=("fifo",), deviations=("crash+liar",), seed_count=1
        )
        (record,) = ExperimentRunner().run(spec).records
        # The deviators are the last two players.
        assert len(set(record.actions[:7])) == 1


class TestTheorem42Runs:
    def test_consensus_at_tighter_bound(self):
        proto = compile_theorem42(consensus_game(7), 1, 1, epsilon=0.01)
        for seed in range(4):
            run = proto.game.run((0,) * 7, RandomScheduler(seed), seed=seed)
            assert len(set(run.actions)) == 1

    def test_small_field_still_correct_honest(self):
        proto = compile_theorem42(
            consensus_game(7), 1, 1, epsilon=1.0, field=GF(101)
        )
        run = proto.game.run((0,) * 7, FifoScheduler(), seed=0)
        assert len(set(run.actions)) == 1

    def test_mac_rejection_with_liar(self):
        from repro.analysis.deviations import ct_lying_shares

        spec = consensus_game(7)
        proto = compile_theorem42(spec, 1, 1, epsilon=0.01)
        run = proto.game.run(
            (0,) * 7, FifoScheduler(), seed=5,
            deviations={6: ct_lying_shares(spec)},
        )
        assert len(set(run.actions[:6])) == 1

    @pytest.mark.parametrize("epsilon", [0.5, 0.05, 1e-3, 1e-9])
    def test_every_requested_epsilon_coordinates(self, epsilon):
        proto = compile_theorem42(consensus_game(7), 1, 1, epsilon=epsilon)
        run = proto.game.run((0,) * 7, FifoScheduler(), seed=1)
        assert len(set(run.actions)) == 1

    def test_registered_grid_honest_and_mac_rejected_liar(self):
        spec = get_scenario("thm42-epsilon").replace(
            schedulers=("fifo",), seed_count=1
        )
        records = ExperimentRunner().run(spec).records
        honest = [r for r in records if r.deviation == "honest"]
        liar = [r for r in records if r.deviation == "lying-last"]
        assert honest and all(r.agreed for r in honest)
        assert liar and all(
            len(set(r.actions[: spec.n - 1])) == 1 for r in liar
        )


class TestTheorem44Runs:
    def test_honest_run_reaches_equilibrium(self):
        proto = compile_theorem44(section64_game(4, k=1), 1, 0)
        run = proto.game.run((0,) * 4, FifoScheduler(), seed=0)
        assert len(set(run.actions)) == 1
        assert run.actions[0] in (0, 1)

    def test_single_staller_cannot_deadlock(self):
        """Substrate-strength note (PAPER.md, "Modelling substitutions"):
        with dealt offline material, a single staller at the Theorem 4.4
        bound cannot block the error-corrected openings — honest players
        still move."""
        from repro.analysis.deviations import ct_stall_after

        spec = section64_game(4, k=1)
        proto = compile_theorem44(spec, 1, 0)
        run = proto.game.run(
            (0,) * 4, FifoScheduler(), seed=1,
            deviations={3: ct_stall_after(spec, limit=2)},
        )
        assert len(set(run.actions[:3])) == 1
        assert run.actions[0] in (0, 1)

    def test_blocking_coalition_triggers_punishment_wills(self):
        """A coalition large enough to stall the protocol gets everyone's
        ⊥ will executed — and ends up below the 1.5 equilibrium payoff."""
        from repro.analysis.deviations import ct_stall_after

        spec = section64_game(4, k=1)
        proto = compile_theorem44(spec, 1, 0)
        run = proto.game.run(
            (0,) * 4, FifoScheduler(), seed=1,
            deviations={
                2: ct_stall_after(spec, limit=2),
                3: ct_stall_after(spec, limit=2),
            },
        )
        # Nobody reconstructs: every will (honest and staller) plays BOT.
        assert run.actions == (BOT,) * 4
        payoff = spec.game.utility(run.types, run.actions)[3]
        assert payoff == pytest.approx(1.1)  # below the 1.5 equilibrium

    def test_stalling_is_unprofitable_on_average(self):
        from repro.analysis.deviations import ct_stall_after

        spec = section64_game(4, k=1)
        proto = compile_theorem44(spec, 1, 0)
        stall = {
            2: ct_stall_after(spec, limit=2),
            3: ct_stall_after(spec, limit=2),
        }
        honest, stalled = [], []
        for seed in range(12):
            run_h = proto.game.run((0,) * 4, FifoScheduler(), seed=seed)
            honest.append(spec.game.utility(run_h.types, run_h.actions)[3])
            run_s = proto.game.run(
                (0,) * 4, FifoScheduler(), seed=seed, deviations=stall
            )
            assert run_s.actions == (BOT,) * 4
            stalled.append(spec.game.utility(run_s.types, run_s.actions)[3])
        assert sum(stalled) / len(stalled) < sum(honest) / len(honest)

    def test_cotermination_over_adversaries(self):
        from repro.analysis.deviations import ct_crash, ct_stall_after

        spec = section64_game(4, k=1)
        proto = compile_theorem44(spec, 1, 0)
        report = check_cotermination(
            proto.game,
            schedulers=[FifoScheduler(), RandomScheduler(1)],
            adversaries=[
                None,
                {3: ct_crash()},
                {3: ct_stall_after(spec, limit=3)},
                {3: ct_stall_after(spec, limit=8)},
            ],
            trials=3,
        )
        assert report.holds, report.details


class TestTheorem45Runs:
    def test_honest_run(self):
        proto = compile_theorem45(section64_game(7, k=2), 1, 0, epsilon=0.05)
        run = proto.game.run((0,) * 7, FifoScheduler(), seed=0)
        assert len(set(run.actions)) == 1

    def test_deadlock_punishment(self):
        from repro.analysis.deviations import ct_stall_after

        spec = section64_game(7, k=2)
        proto = compile_theorem45(spec, 1, 0, epsilon=0.05)
        run = proto.game.run(
            (0,) * 7, FifoScheduler(), seed=1,
            deviations={
                5: ct_stall_after(spec, limit=2),
                6: ct_stall_after(spec, limit=2),
            },
        )
        assert all(a == BOT for a in run.actions[:5])
        # The stallers end below the 1.5 equilibrium payoff.
        assert spec.game.utility(run.types, run.actions)[6] < 1.5


@pytest.mark.slow
class TestSection5Properties:
    """E7 (Theorems 5.4/5.5) for Thm 4.1 at n=9 over fifo and random(5):
    cotermination, and (0, t)-emulation and bisimulation of the mediator
    game for the honest pair and for a crash of p8."""

    @staticmethod
    def family():
        spec = consensus_game(9)
        game = compile_theorem41(spec, 1, 1).game
        return spec, game, [FifoScheduler(), RandomScheduler(5)]

    def test_cotermination(self):
        from repro.analysis.deviations import ct_crash, ct_stall_after

        spec, game, schedulers = self.family()
        report = check_cotermination(
            game,
            schedulers=schedulers,
            adversaries=[
                None,
                {8: ct_crash()},
                {7: ct_crash(), 8: ct_crash()},
                {8: ct_stall_after(spec, limit=5)},
            ],
            trials=2,
        )
        assert report.holds, report.details

    @pytest.mark.parametrize("check", [check_emulation, check_bisimulation])
    def test_mediator_game_matched_at_epsilon_zero(self, check):
        from repro.analysis.deviations import crash, ct_crash

        spec, game, schedulers = self.family()
        pairs = [(None, None), ({8: ct_crash()}, {8: crash()})]
        report = check(
            game, MediatorGame(spec, 1, 1), schedulers, pairs,
            epsilon=0.0, samples_per_scheduler=6,
        )
        assert report.holds, report.details


class TestMessageComplexity:
    """E9: Theorem 4.1's O(nNc) message count is linear in the number of
    multiplication gates c."""

    @staticmethod
    def chained_run(n, muls):
        """Run a coin followed by a chain of ``muls`` multiplications."""
        circuit = Circuit(F, f"chain({muls})")
        bit = acc = circuit.randbit()
        for _ in range(muls):
            acc = circuit.mul(acc, bit)
        for pid in range(n):
            circuit.output(acc, pid, f"act@{pid}")
        game = CheapTalkGame(consensus_game(n), 1, 1, circuit=circuit)
        return game.run((0,) * n, FifoScheduler(), seed=0)

    def test_each_multiplication_costs_a_near_constant_count(self):
        counts = []
        for muls in (1, 4, 8, 16):
            run = self.chained_run(9, muls)
            assert len(set(run.actions)) == 1
            counts.append((muls, run.message_count()))
        slopes = [
            (m2 - m1) / (c2 - c1)
            for (c1, m1), (c2, m2) in zip(counts, counts[1:])
        ]
        assert max(slopes) - min(slopes) <= 0.5 * max(slopes), counts

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_chained_circuit_coordinates_as_n_grows(self, n):
        run = self.chained_run(n, 2)
        assert len(set(run.actions)) == 1


class TestWillsAndDefaultInputs:
    def test_will_raising_type_error_surfaces_its_own_message(self):
        def will(pid, own_type, rng):
            raise TypeError("boom")

        game = CheapTalkGame(consensus_game(5), 1, 0, will=will)
        player = game.processes((0,) * 5, game.build_setup(0))[0]
        with pytest.raises(TypeError, match="boom"):
            player.on_deadlock(0)

    def test_first_type_profile_looked_up_once_per_game(self, monkeypatch):
        """Default MPC inputs depend on the spec only: building the game
        reads the type space once, and its runs read it no more."""
        from repro.cheaptalk.sync import SynchronousCheapTalk
        from repro.games.bayesian import TypeSpace

        spec = byzantine_agreement_game(9)  # 512 type profiles
        circuit = mediator_circuit_for(spec, F)
        types = (1,) * 9
        calls = []
        profiles = TypeSpace.profiles
        monkeypatch.setattr(
            TypeSpace, "profiles",
            lambda space: calls.append(space) or profiles(space),
        )
        game = CheapTalkGame(spec, 1, 1, circuit=circuit)
        game.processes(types, game.build_setup(0))
        game.processes(types, game.build_setup(1))
        assert len(calls) == 1
        r1 = SynchronousCheapTalk(spec, 1, 1, circuit=circuit)
        actions, _ = r1.run(types)
        assert len(calls) == 2
        assert actions == (1,) * 9


class TestDefaultMoveVsAH:
    def test_default_move_approach_on_41(self):
        proto = compile_theorem41(
            consensus_game(9), 1, 1, approach="default"
        )
        from repro.analysis.deviations import ct_crash

        # Even if k+t players crash, the engine completes (n > 4(k+t)) and
        # honest players move; the crashed players' default move applies.
        run = proto.game.run(
            (0,) * 9, FifoScheduler(), seed=0,
            deviations={7: ct_crash(), 8: ct_crash()},
        )
        assert run.actions[7] == 0 and run.actions[8] == 0  # default move

    def test_ah_approach_without_wills_matches_default(self):
        game = CheapTalkGame(consensus_game(9), 1, 1, approach="ah")
        run = game.run((0,) * 9, FifoScheduler(), seed=0)
        assert len(set(run.actions)) == 1
