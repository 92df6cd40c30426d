"""Tests for the declarative experiment API (repro.experiments)."""

import dataclasses
import json

import pytest

from repro.errors import ExperimentError, GameError
from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    RunRecord,
    ScenarioSpec,
    deviation_profile,
    expand_grid,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
    scheduler_from_name,
)
from repro.games.registry import GAME_REGISTRY, make_game, register_game
from repro.store.fingerprint import canonical_json


class TestGameRegistry:
    def test_make_game_builds_spec(self):
        spec = make_game("consensus", 5)
        assert spec.game.n == 5

    def test_unknown_game_raises_clean_error(self):
        with pytest.raises(GameError, match="unknown game 'nope'"):
            make_game("nope", 5)
        with pytest.raises(GameError, match="consensus"):
            make_game("nope", 5)  # error lists the known names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(GameError, match="already registered"):
            register_game("consensus", lambda n: None)

    def test_registry_covers_cli_names(self):
        for name in ("consensus", "byz-agreement", "section64", "chicken",
                     "free-rider", "shamir-secret", "volunteer",
                     "battle-of-sexes", "public-goods", "minority"):
            assert name in GAME_REGISTRY


class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = get_scenario("thm41-honest")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_all_registered(self):
        for spec in iter_scenarios():
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_lists_coerced_to_tuples(self):
        spec = ScenarioSpec(
            name="x", game="chicken", n=2, theorem="raw-game",
            schedulers=["fifo"], deviations=["honest"],
            action_profiles=[["D", "C"]],
        )
        assert spec.schedulers == ("fifo",)
        assert spec.action_profiles == (("D", "C"),)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ExperimentError, match="unknown theorem"):
            ScenarioSpec(name="x", game="consensus", n=9, theorem="9.9")

    def test_unknown_field_rejected(self):
        data = get_scenario("thm41-honest").to_dict()
        data["bogus"] = 1
        with pytest.raises(ExperimentError, match="bogus"):
            ScenarioSpec.from_dict(data)

    def test_raw_game_needs_profiles(self):
        with pytest.raises(ExperimentError, match="action_profiles"):
            ScenarioSpec(name="x", game="chicken", n=2, theorem="raw-game")

    def test_grid_size_matches_expansion(self):
        for spec in iter_scenarios():
            assert spec.grid_size() == len(expand_grid(spec))


class TestScenarioRegistry:
    def test_unknown_scenario_raises_clean_error(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_scenario(get_scenario("thm41-honest"))

    def test_canonical_scenarios_present(self):
        names = scenario_names()
        for expected in ("thm41-honest", "thm41-crash-liar", "thm42-epsilon",
                         "sec64-leak-attack", "r1-baseline",
                         "raw-chicken-matrix"):
            assert expected in names
        assert len(names) >= 10

    def test_all_scenario_games_construct(self):
        for spec in iter_scenarios():
            game_spec = make_game(spec.game, spec.n)
            assert game_spec.game.n >= 2


class TestGridAndLookups:
    def test_unknown_scheduler_raises(self):
        with pytest.raises(ExperimentError, match="unknown scheduler"):
            scheduler_from_name("warp", 9)

    def test_unknown_deviation_raises(self):
        spec = make_game("consensus", 9)
        with pytest.raises(ExperimentError, match="unknown deviation"):
            deviation_profile("sabotage", spec, 1, 1, "cheaptalk")

    def test_mode_mismatch_raises(self):
        spec = make_game("section64", 7)
        with pytest.raises(ExperimentError, match="not available"):
            deviation_profile("leak-attack", spec, 2, 0, "cheaptalk")

    def test_r1_rejects_deviations(self):
        spec = get_scenario("r1-baseline").replace(
            deviations=("crash-last",)
        )
        with pytest.raises(ExperimentError, match="honest"):
            expand_grid(spec)

    def test_r1_rejects_scheduler_grid(self):
        spec = get_scenario("r1-baseline").replace(
            schedulers=("fifo", "random")
        )
        with pytest.raises(ExperimentError, match="synchronous"):
            expand_grid(spec)

    def test_raw_game_rejects_grid_dimensions(self):
        spec = get_scenario("raw-chicken-matrix").replace(
            schedulers=("fifo", "random")
        )
        with pytest.raises(ExperimentError, match="do not apply"):
            expand_grid(spec)

    def test_unusable_timeout_warns_off_main_thread(self):
        import threading

        from repro.experiments import execute_task
        from repro.experiments.runner import RunTask

        spec = get_scenario("raw-chicken-matrix").replace(timeout_s=1.0)
        caught = []

        def worker():
            with pytest.warns(RuntimeWarning, match="SIGALRM"):
                record = execute_task(
                    spec, RunTask("none", "honest", 0, 0, profile_index=0)
                )
            caught.append(record)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert caught and caught[0].ok  # ran to completion, just untimed

    def test_bad_runner_processes(self):
        with pytest.raises(ExperimentError, match="processes"):
            ExperimentRunner(processes=0)


class TestRunnerSerial:
    def test_r1_scenario_end_to_end(self):
        result = run_scenario("r1-baseline")
        assert len(result.records) == 4
        assert result.agreement_rate() == 1.0
        assert result.message_stats()["mean"] > 0
        assert not result.failed()

    def test_result_json_round_trip(self):
        result = run_scenario("chicken-mediator")
        restored = ExperimentResult.from_json(result.to_json())
        assert restored == result
        assert restored.records == result.records
        # the JSON itself is plain data
        json.loads(result.to_json())

    def test_record_to_dict_serializes_like_asdict(self):
        """The shallow ``to_dict`` writes the same JSON, keys in the same
        order, as ``dataclasses.asdict`` for an ok record with a payload
        trace, an error record and a faulted record."""
        traced = run_scenario(
            get_scenario("chicken-mediator").replace(
                seed_count=1, record_payloads=True
            )
        ).records[0]
        error = run_scenario(
            get_scenario("thm41-honest").replace(
                n=7, schedulers=("fifo",), seed_count=1
            )
        ).records[0]
        faulted = run_scenario(
            get_scenario("faultcheck-sec64").replace(
                seed_count=1, record_payloads=True
            )
        ).records
        records = [traced, error, *faulted]
        assert traced.ok and traced.trace and error.error is not None
        assert {r.faults for r in faulted} > {"none"}
        for record in records:
            reference = dataclasses.asdict(record)
            assert list(record.to_dict()) == list(reference)
            assert canonical_json(record.to_dict()) == canonical_json(
                reference
            )

    def test_raw_game_matrix(self):
        result = run_scenario("raw-chicken-matrix")
        payoffs = {r.actions: r.payoffs for r in result.records}
        assert payoffs[("C", "C")] == (6.0, 6.0)
        assert payoffs[("D", "C")] == (7.0, 2.0)

    def test_mediator_aggregates(self):
        result = run_scenario("chicken-mediator")
        agg = result.aggregate()
        assert agg["runs"] == 12
        assert agg["errors"] == 0
        # correlated equilibrium: mean payoff 5.0 in expectation, every
        # recommended cell pays at least 2.0 to each player
        assert min(result.payoff_by_player()) >= 2.0

    def test_timeout_produces_record_not_crash(self):
        spec = get_scenario("thm41-honest").replace(
            schedulers=("fifo",), seed_count=1, timeout_s=0.01
        )
        result = run_scenario(spec)
        record = result.records[0]
        assert record.timed_out
        assert not record.ok
        assert result.aggregate()["timeouts"] == 1

    def test_run_error_captured_in_record(self):
        # n=7 violates Theorem 4.1's bound: the compiler refuses, and the
        # runner must capture that per-run instead of crashing the sweep.
        spec = get_scenario("thm41-honest").replace(
            n=7, schedulers=("fifo",), seed_count=1
        )
        record = run_scenario(spec).records[0]
        assert record.error is not None
        assert "4k+4t" in record.error


class TestRunnerParallel:
    def test_parallel_matches_serial(self):
        spec = get_scenario("chicken-mediator")
        serial = ExperimentRunner(parallel=False).run(spec)
        parallel = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert parallel.parallel
        assert parallel.records == serial.records

    def test_parallel_r1_matches_serial(self):
        spec = get_scenario("r1-baseline")
        serial = ExperimentRunner().run(spec)
        parallel = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert parallel.records == serial.records


@pytest.mark.slow
class TestRunnerCheapTalk:
    def test_thm41_parallel_matches_serial(self):
        spec = get_scenario("thm41-honest").replace(
            schedulers=("fifo", "random"), seed_count=1
        )
        serial = ExperimentRunner().run(spec)
        parallel = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert parallel.records == serial.records
        assert serial.agreement_rate() == 1.0
        restored = ExperimentResult.from_json(parallel.to_json())
        assert restored == serial
