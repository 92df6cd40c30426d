"""Tests for the declarative game layer: GameDef, families, fuzzing.

The golden tests pin every DSL-defined library game byte-identically —
payoffs, per-seed mediator draws, exact mediator distributions, encodings,
default moves — to the pre-DSL hand-written implementations, captured in
``tests/golden_games.json`` before the refactor.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.errors import ExperimentError, GameError
from repro.games import (
    BOT,
    GameDef,
    family_names,
    iter_families,
    make_family_def,
    parse_game_name,
    random_game_def,
)
from repro.games.registry import game_names, iter_games, make_game
from repro.mediator.rules import build_mediator, mediator_rule_names

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_games.json")


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _all_specs():
    """Every registered game, built at the golden fixture's n (or 9)."""
    golden = _golden()
    for name, maker in iter_games():
        n = golden.get(name, {}).get("n", 9)
        yield name, make_game(name, n)


# ---------------------------------------------------------------------------
# Golden equivalence with the pre-DSL implementations
# ---------------------------------------------------------------------------

class TestGoldenEquivalence:
    def test_every_registered_game_has_a_golden_entry(self):
        assert sorted(_golden()) == game_names()

    @pytest.mark.parametrize("name", sorted(_golden()))
    def test_payoffs_identical(self, name):
        data = _golden()[name]
        spec = make_game(name, data["n"])
        assert spec.game.n == data["game_n"]
        assert spec.game.name == data["game_name"]
        for types, actions, expected in data["cells"]:
            got = list(spec.game.utility(tuple(types), tuple(actions)))
            assert got == expected, (types, actions)

    @pytest.mark.parametrize("name", sorted(_golden()))
    def test_mediator_draws_and_dist_identical(self, name):
        data = _golden()[name]
        spec = make_game(name, data["n"])
        first = spec.game.type_space.profiles()[0]
        for seed, expected in data["mediator_draws"].items():
            got = list(spec.mediator_fn(first, random.Random(int(seed))))
            assert got == expected, seed
        dist = sorted(
            ([list(p), prob] for p, prob in spec.mediator_dist(first).items()),
            key=lambda kv: repr(kv[0]),
        )
        assert dist == data["mediator_dist"]

    @pytest.mark.parametrize("name", sorted(_golden()))
    def test_punishment_encodings_defaults_identical(self, name):
        data = _golden()[name]
        spec = make_game(name, data["n"])
        assert (spec.punishment is not None) == data["punishment"]
        assert spec.punishment_strength == data["punishment_strength"]
        enc = sorted([repr(k), v] for k, v in spec.type_encoding.items())
        assert enc == data["type_encoding"]
        dec = sorted([k, repr(v)] for k, v in spec.action_decoding.items())
        assert dec == data["action_decoding"]
        first = spec.game.type_space.profiles()[0]
        if data["default_moves"] is not None:
            got = [
                repr(spec.default_moves(i, first[i]))
                for i in range(spec.game.n)
            ]
            assert got == data["default_moves"]


# ---------------------------------------------------------------------------
# Property tests: determinism and lossless round-trips (satellite)
# ---------------------------------------------------------------------------

class TestDefinitionProperties:
    def test_every_registered_game_is_defined_as_data(self):
        for name, spec in _all_specs():
            assert spec.definition is not None, name
            assert isinstance(spec.definition, GameDef), name

    def test_mediator_fn_deterministic_under_fixed_seed(self):
        # Includes the ⊥-action section64 game and a family/random sample.
        extra = [
            make_game("consensus@n5", 0),
            make_game("sec64@n7k2", 0),
            make_game("random@n4s123", 0),
            make_game("random@n3s7a3m2", 0),
        ]
        specs = [spec for _, spec in _all_specs()] + extra
        for spec in specs:
            for types in spec.game.type_space.profiles()[:3]:
                for seed in range(4):
                    a = spec.mediator_fn(types, random.Random(seed))
                    b = spec.mediator_fn(types, random.Random(seed))
                    assert a == b, (spec.name, types, seed)

    def test_mediator_fn_draws_lie_in_dist_support(self):
        for name, spec in _all_specs():
            types = spec.game.type_space.profiles()[0]
            support = set(spec.mediator_dist(types))
            for seed in range(8):
                draw = spec.mediator_fn(types, random.Random(seed))
                assert draw in support, (name, draw)

    def test_to_json_round_trips_losslessly_for_all_registered_games(self):
        for name, spec in _all_specs():
            definition = spec.definition
            restored = GameDef.from_json(definition.to_json())
            assert restored == definition, name
            # And the restored definition compiles to the same game.
            respec = restored.compile()
            types = spec.game.type_space.profiles()[0]
            for actions in spec.game.action_profiles()[:16]:
                assert respec.game.utility(types, actions) == \
                    spec.game.utility(types, actions), name

    def test_bot_action_survives_round_trip(self):
        definition = make_game("section64", 7).definition
        restored = GameDef.from_json(definition.to_json())
        assert restored.actions[0][2] == BOT
        spec = restored.compile()
        assert spec.decode_action(2) == BOT
        assert spec.default_moves(0, 0) == BOT

    def test_random_game_def_is_deterministic_and_json_stable(self):
        a = random_game_def(n=4, seed=123)
        b = random_game_def(n=4, seed=123)
        assert a == b
        assert a.to_json() == b.to_json()
        assert random_game_def(n=4, seed=124) != a


# ---------------------------------------------------------------------------
# The GameDef sub-languages
# ---------------------------------------------------------------------------

class TestDsl:
    def _minimal(self, **overrides):
        base = dict(
            name="t",
            n=2,
            actions=((0, 1), (0, 1)),
            types={"kind": "single", "profile": (0, 0)},
            payoff={"kind": "expr", "expr": "1.0 if me == 1 else 0.0"},
            mediator={"rule": "fixed", "params": {"profile": (1, 1)}},
        )
        base.update(overrides)
        return GameDef(**base)

    def test_expression_rejects_attribute_access(self):
        with pytest.raises(GameError, match="forbidden syntax"):
            self._minimal(
                payoff={"kind": "expr", "expr": "().__class__"}
            ).compile()

    def test_expression_rejects_unknown_names_at_eval(self):
        spec = self._minimal(
            payoff={"kind": "expr", "expr": "open_files"}
        ).compile()
        with pytest.raises(GameError, match="payoff expression failed"):
            spec.game.utility((0, 0), (0, 0))

    def test_expression_where_and_params(self):
        spec = self._minimal(
            payoff={
                "kind": "expr",
                "params": {"base": 2.0},
                "where": {"both": "count(1) == n"},
                "expr": "base if both else 0.0",
            }
        ).compile()
        assert spec.game.utility((0, 0), (1, 1)) == (2.0, 2.0)
        assert spec.game.utility((0, 0), (1, 0)) == (0.0, 0.0)

    def test_where_entries_resolve_regardless_of_order(self):
        # JSON serialization sorts keys, so a where-entry whose dependency
        # sorts after it must still resolve after a round trip.
        definition = self._minimal(
            payoff={
                "kind": "expr",
                "where": {"z": "count(1)", "a": "z + 1.0"},
                "expr": "a if me == 1 else 0.0",
            }
        )
        for d in (definition, GameDef.from_json(definition.to_json())):
            assert d.compile().game.utility((0, 0), (1, 1)) == (3.0, 3.0)

    def test_cyclic_or_unknown_where_entries_are_a_game_error(self):
        spec = self._minimal(
            payoff={
                "kind": "expr",
                "where": {"a": "b", "b": "a"},
                "expr": "a",
            }
        ).compile()
        with pytest.raises(GameError, match="never resolve"):
            spec.game.utility((0, 0), (1, 1))

    def test_payoff_table_missing_cell_is_a_game_error(self):
        spec = self._minimal(
            payoff={"kind": "table", "cells": (((0, 0), (0, 0), (1.0, 1.0)),)}
        ).compile()
        assert spec.game.utility((0, 0), (0, 0)) == (1.0, 1.0)
        with pytest.raises(GameError, match="no cell"):
            spec.game.utility((0, 0), (1, 1))

    def test_unknown_mediator_rule_lists_known_rules(self):
        with pytest.raises(GameError) as err:
            self._minimal(mediator={"rule": "nope"}).compile()
        for rule in mediator_rule_names():
            assert rule in str(err.value)

    def test_table_rule_by_reports(self):
        fn, dist = build_mediator(
            {
                "rule": "table",
                "params": {
                    "by_reports": (
                        ((0, 0), (((0, 0), 1.0),)),
                        ((1, 1), (((1, 1), 1.0),)),
                    ),
                },
            },
            2,
        )
        assert fn((0, 0), random.Random(0)) == (0, 0)
        assert dist((1, 1)) == {(1, 1): 1.0}
        with pytest.raises(GameError, match="no row"):
            fn((0, 1), random.Random(0))

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(GameError, match="unknown GameDef fields"):
            GameDef.from_dict({**self._minimal().to_dict(), "bogus": 1})
        with pytest.raises(GameError, match="missing fields"):
            GameDef.from_dict({"name": "x"})


# ---------------------------------------------------------------------------
# Families and make_game resolution (satellite: GameError style)
# ---------------------------------------------------------------------------

class TestFamilies:
    def test_params_in_the_name_win_over_n(self):
        assert make_game("consensus@n5", 9).game.n == 5
        assert make_game("ba@n7t2", 0).punishment_strength == 2
        assert make_game("sec64@n7k2", 0).punishment_strength == 2

    def test_plain_family_name_uses_n_argument(self):
        assert make_game("volunteer", 7).game.n == 7

    def test_parse_game_name(self):
        assert parse_game_name("random@n4s123") == (
            "random", {"n": 4, "s": 123, "a": 2, "m": 1}
        )
        with pytest.raises(GameError, match="unknown parameter"):
            parse_game_name("consensus@x5")
        with pytest.raises(GameError, match="bad game parameters"):
            parse_game_name("consensus@")
        with pytest.raises(GameError, match="unknown game family"):
            parse_game_name("nope@n4")

    def test_every_family_builds_at_defaults(self):
        for name, params in iter_families():
            definition = make_family_def(name)
            assert isinstance(definition, GameDef), name
            assert definition.compile().game.n >= 1, name
            assert params == dict(params)

    def test_make_game_unknown_name_is_a_game_error_with_names(self):
        # Satellite fix: the error must carry registry names AND families,
        # matching the scheduler_from_name / timing_from_name style.
        with pytest.raises(GameError) as err:
            make_game("nope", 5)
        message = str(err.value)
        for known in game_names():
            assert known in message
        for family in family_names():
            assert family in message
        assert "file:" in message

    def test_file_games(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(make_game("consensus", 5).definition.to_json())
        spec = make_game(f"file:{path}", 0)
        assert spec.game.n == 5
        with pytest.raises(GameError, match="cannot read game file"):
            make_game("file:/missing/game.json", 0)
        path.write_text("{not json")
        with pytest.raises(GameError, match="bad GameDef JSON"):
            make_game(f"file:{path}", 0)


# ---------------------------------------------------------------------------
# The games axis through the experiment layer
# ---------------------------------------------------------------------------

class TestGamesAxis:
    def _spec(self, **overrides):
        from repro.experiments import ScenarioSpec

        base = dict(
            name="axis-test",
            game="consensus",
            n=9,
            theorem="mediator",
            k=1,
            t=0,
            games=("consensus@n3", "consensus@n5"),
            schedulers=("fifo",),
            deviations=("honest",),
            seed_count=2,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_grid_crosses_games_and_records_carry_them(self):
        from repro.experiments import ExperimentRunner
        from repro.experiments.runner import expand_grid

        spec = self._spec()
        tasks = expand_grid(spec)
        assert len(tasks) == spec.grid_size() == 4
        assert [t.game for t in tasks] == [
            "consensus@n3", "consensus@n3", "consensus@n5", "consensus@n5",
        ]
        result = ExperimentRunner().run(spec)
        assert {r.game for r in result.records} == set(spec.games)
        by_game = {r.game: len(r.payoffs) for r in result.records}
        assert by_game == {"consensus@n3": 3, "consensus@n5": 5}

    def test_parallel_equals_serial_with_games_axis(self):
        from repro.experiments import ExperimentRunner

        spec = self._spec()
        serial = ExperimentRunner().run(spec)
        par = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert serial.records == par.records

    def test_spec_round_trips_with_games(self):
        from repro.experiments import ScenarioSpec

        spec = self._spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_bad_axis_entries_rejected(self):
        with pytest.raises(ExperimentError, match="unknown parameter"):
            self._spec(games=("consensus@z9",))
        with pytest.raises(ExperimentError, match="games axis"):
            self._spec(theorem="raw-game", games=("consensus@n3",),
                       action_profiles=((0, 0, 0),))

    def test_summary_rows_group_by_game_in_spec_order(self):
        from repro.experiments import ExperimentResult, ExperimentRunner

        result = ExperimentRunner().run(self._spec())
        rows = result.summary_rows()
        assert [row[0] for row in rows] == ["consensus@n3", "consensus@n5"]
        assert len(rows[0]) == len(ExperimentResult.SUMMARY_HEADERS)

    def test_consensus_scaling_coordinates_at_every_size(self):
        from repro.experiments import ExperimentRunner, get_scenario

        for n in (3, 5, 7, 9):
            spec = make_game(f"consensus@n{n}", 0)
            assert spec.game.n == n and spec.definition is not None
        result = ExperimentRunner().run(get_scenario("consensus-scaling"))
        assert all(record.ok for record in result.records)
        assert [row[-1] for row in result.summary_rows()] == ["1.000"] * 4

    def test_consensus_n7_through_runner(self):
        # Acceptance: consensus@n7 runs end-to-end, parallel == serial.
        from repro.experiments import ExperimentRunner

        spec = self._spec(games=(), game="consensus@n7", theorem="4.1", t=0)
        serial = ExperimentRunner().run(spec)
        assert all(r.ok for r in serial.records)
        assert all(len(r.payoffs) == 7 for r in serial.records)
        par = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert serial.records == par.records


# ---------------------------------------------------------------------------
# Generated-game fuzzing (the audit engine on games nobody hand-wrote)
# ---------------------------------------------------------------------------

class TestFuzz:
    def test_random_game_through_runner_parallel_equals_serial(self):
        # Acceptance: random@n4s123 runs end-to-end, parallel == serial.
        from repro.experiments import ExperimentRunner, ScenarioSpec

        spec = ScenarioSpec(
            name="fuzz-run", game="random@n4s123", n=4, theorem="mediator",
            k=1, t=0, schedulers=("fifo",), deviations=("honest",),
            seed_count=3,
        )
        serial = ExperimentRunner().run(spec)
        assert all(r.ok for r in serial.records)
        par = ExperimentRunner(parallel=True, processes=2).run(spec)
        assert serial.records == par.records

    def test_audit_game_override(self):
        from repro.audit import AuditEngine, get_audit

        spec = get_audit("mediator-fuzz-audit").replace(
            game="random@n4s123", seed_count=1
        )
        engine = AuditEngine(spec)
        assert engine.n == 4
        assert engine.game_spec.name == "random(n=4,a=2,m=1,s=123)"
        score = engine.honest_score()
        assert score.scored and score.gain == 0.0

    def test_games_axis_scenario_refuses_audit_without_override(self):
        from repro.audit import AuditEngine, AuditSpec

        with pytest.raises(ExperimentError, match="games axis"):
            AuditEngine(AuditSpec(name="x", scenario="consensus-scaling"))
        engine = AuditEngine(AuditSpec(
            name="x", scenario="consensus-scaling", game="consensus@n3",
            seed_count=1,
        ))
        assert engine.n == 3

    def test_run_fuzz_deterministic_and_parallel_equals_serial(self):
        # Acceptance: random games through `repro audit fuzz`, parallel ==
        # serial (FrontierCell equality excludes wall-clock fields).
        from repro.audit import fuzz_summary, run_fuzz

        kwargs = dict(count=2, seed=123, budget=6, seed_count=2)
        serial = run_fuzz(**kwargs)
        again = run_fuzz(**kwargs)
        par = run_fuzz(**kwargs, parallel=True, processes=2)
        assert [r.cells for r in serial] == [r.cells for r in again]
        assert [r.cells for r in serial] == [r.cells for r in par]
        assert [r.spec.game for r in serial] == [
            "random@n4s123a2", "random@n4s124a2",
        ]
        summary = fuzz_summary(serial)
        assert summary["games"] == 2
        assert summary["evaluations"] > 0

    def test_fuzz_results_round_trip_through_json(self):
        from repro.audit import AuditResult, run_fuzz

        result = run_fuzz(count=1, seed=5, budget=4, seed_count=1)[0]
        assert AuditResult.from_json(result.to_json()) == result

    def test_fuzz_explicit_games(self):
        from repro.audit import run_fuzz

        results = run_fuzz(games=["random@n3s9a2"], budget=4, seed_count=1)
        assert len(results) == 1
        assert results[0].spec.game == "random@n3s9a2"


# ---------------------------------------------------------------------------
# CLI (satellite: games list/show --json, audit fuzz)
# ---------------------------------------------------------------------------

class TestCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        main(list(argv))
        return capsys.readouterr().out

    def test_games_list_json(self, capsys):
        data = json.loads(self._run(capsys, "games", "list", "--json"))
        games = {entry["name"]: entry for entry in data["games"]}
        assert set(games) == set(game_names())
        consensus = games["consensus"]
        assert consensus["players"] == 9
        assert consensus["type_space_sizes"] == [1] * 9
        assert consensus["has_punishment"] is True
        assert consensus["mediator_rule"] == "common-coin"
        families = {entry["family"] for entry in data["families"]}
        assert families == set(family_names())

    def test_games_bare_and_list_text(self, capsys):
        out = self._run(capsys, "games")
        assert "consensus" in out and "families" in out
        out = self._run(capsys, "games", "list")
        assert "consensus" in out

    def test_games_show_json_carries_definition(self, capsys):
        data = json.loads(
            self._run(capsys, "games", "show", "random@n4s123", "--json")
        )
        assert data["players"] == 4
        definition = GameDef.from_dict(data["definition"])
        assert definition == make_game("random@n4s123", 0).definition

    def test_games_show_unknown_exits_with_names(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["games", "show", "nope"])
        assert "known games" in str(err.value)

    def test_audit_fuzz_json(self, capsys):
        from repro.audit import AuditResult

        out = self._run(
            capsys, "audit", "fuzz", "--count", "2", "--budget", "4",
            "--seeds", "1", "--json",
        )
        entries = json.loads(out)
        assert len(entries) == 2
        results = [AuditResult.from_dict(e) for e in entries]
        assert results[0].spec.scenario == "mediator-fuzz"

    def test_audit_fuzz_table(self, capsys):
        out = self._run(
            capsys, "audit", "fuzz", "--count", "1", "--budget", "4",
            "--seeds", "1",
        )
        assert "fuzzed 1 generated game(s)" in out

    def test_run_game_override(self, capsys):
        out = self._run(
            capsys, "run", "mediator-honest", "--game", "consensus@n5",
            "--seeds", "1",
        )
        assert "consensus@n5" in out
