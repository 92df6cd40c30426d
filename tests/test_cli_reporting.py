"""Tests for the CLI and text reporting."""

import pytest

from repro.analysis.reporting import (
    format_outcome_samples,
    format_solution_report,
    format_table,
)
from repro.cli import GAMES, build_parser, main
from repro.games import ConstantStrategy, StrategyProfile, check_nash
from repro.games.library import consensus_game


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert "333" in lines[3]

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert len(text.splitlines()) == 2


class TestFormatReports:
    def test_solution_report_holds(self):
        game = consensus_game(4).game
        profile = StrategyProfile([ConstantStrategy(0)] * 4)
        text = format_solution_report(check_nash(game, profile))
        assert "HOLDS" in text

    def test_solution_report_violations_listed(self):
        from repro.games import BayesianGame, TypeSpace

        payoffs = {
            ("C", "C"): (3.0, 3.0),
            ("C", "D"): (0.0, 4.0),
            ("D", "C"): (4.0, 0.0),
            ("D", "D"): (1.0, 1.0),
        }
        game = BayesianGame(
            2, [["C", "D"]] * 2, TypeSpace.single([0, 0]),
            lambda t, a: payoffs[tuple(a)],
        )
        profile = StrategyProfile([ConstantStrategy("C")] * 2)
        text = format_solution_report(check_nash(game, profile))
        assert "VIOLATED" in text
        assert "coalition" in text

    def test_format_outcome_samples(self):
        samples = {(0,): [(1,), (1,), (0,)]}
        text = format_outcome_samples(samples)
        assert "0.667" in text


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["check", "--game", "consensus", "-n", "9"])
        assert args.command == "check"

    def test_games_command(self, capsys):
        main(["games", "-n", "9"])
        out = capsys.readouterr().out
        assert "consensus" in out
        assert "section64" in out

    def test_check_command(self, capsys):
        main(["check", "--game", "consensus", "-n", "5", "-k", "1", "-t", "1"])
        out = capsys.readouterr().out
        assert "HOLDS" in out

    def test_unknown_game_exits(self):
        with pytest.raises(SystemExit):
            main(["check", "--game", "nope"])

    def test_top_level_seed_is_rejected(self):
        # `run` has its own --seed (seed_start); a top-level one would be
        # silently overridden by it.
        with pytest.raises(SystemExit):
            main(["--seed", "5", "run", "chicken-mediator"])

    def test_scenarios_json(self, capsys):
        import json

        main(["scenarios", "--json"])
        specs = json.loads(capsys.readouterr().out)
        assert isinstance(specs, list) and specs
        names = {spec["name"] for spec in specs}
        assert "thm41-honest" in names
        assert all("timings" in spec for spec in specs)

    def test_sweep_csv(self, tmp_path, capsys):
        import csv

        out = tmp_path / "cells.csv"
        main(["sweep", "raw-chicken-matrix", "--csv", str(out)])
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # one row per action profile cell
        assert rows[0]["scenario"] == "raw-chicken-matrix"
        assert {"timing", "scheduler", "deviation", "mean_payoff"} <= set(
            rows[0]
        )

    def test_run_timing_override(self, capsys):
        main([
            "run", "chicken-mediator", "--seeds", "1", "--timing", "lockstep",
        ])
        out = capsys.readouterr().out
        assert "lockstep" in out

    def test_bad_timing_override_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "chicken-mediator", "--timing", "warp"])

    def test_record_payloads_flag(self, capsys):
        main([
            "run", "chicken-mediator", "--seeds", "1",
            "--record-payloads", "--json",
        ])
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["record_payloads"] is True
        assert data["records"][0]["trace"], "expected captured trace events"

    def test_all_game_makers_construct(self):
        for name, maker in GAMES.items():
            spec = maker(9)
            assert spec.game.n >= 2, name
