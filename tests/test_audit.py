"""Tests for the robustness-audit engine (repro.audit)."""

import json

import pytest

from repro.audit import (
    AuditEngine,
    AuditResult,
    AuditSpec,
    CandidateDeviation,
    Coalition,
    DeviationAtom,
    StrategySpace,
    audit_names,
    candidate_from_name,
    enumerate_coalitions,
    get_audit,
    iter_audits,
    register_audit,
    run_audit,
    run_frontier,
)
from repro.errors import ExperimentError
from repro.experiments import (
    MODE_FOR_THEOREM,
    ExperimentRunner,
    deviation_profile,
    deviations_for_mode,
    iter_scenarios,
)
from repro.games.registry import make_game


class TestCoalitions:
    def test_disjoint_and_bounded(self):
        for coalition in enumerate_coalitions(7, 2, 1, symmetry=False):
            assert not set(coalition.rational) & set(coalition.malicious)
            assert 1 <= len(coalition.rational) <= 2
            assert len(coalition.malicious) <= 1

    def test_full_enumeration_count(self):
        # n=4, k=1, t=1, no symmetry: 4 singles + 4*3 pairs = 16 splits.
        assert len(enumerate_coalitions(4, 1, 1, symmetry=False)) == 16

    def test_symmetry_keeps_parity_classes(self):
        # All types equal: representatives split only by (type, parity), so
        # the odd-difference pair (needed by Section 6.4) must survive.
        reps = enumerate_coalitions(7, 2, 0)
        pairs = [c.rational for c in reps if len(c.rational) == 2]
        parities = {tuple(sorted(p % 2 for p in pair)) for pair in pairs}
        assert parities == {(0, 0), (0, 1), (1, 1)}

    def test_symmetry_respects_types(self):
        reps_uniform = enumerate_coalitions(6, 1, 0, types=(0,) * 6)
        reps_typed = enumerate_coalitions(6, 1, 0, types=(0, 1, 0, 1, 0, 1))
        assert len(reps_typed) == len(reps_uniform)  # parity == type here
        reps_richer = enumerate_coalitions(6, 1, 0, types=(0, 0, 1, 1, 2, 2))
        assert len(reps_richer) > len(reps_uniform)

    def test_overlapping_members_rejected(self):
        with pytest.raises(ExperimentError, match="both"):
            Coalition(rational=(1,), malicious=(1,))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ExperimentError, match="exceed"):
            enumerate_coalitions(3, 2, 2)
        with pytest.raises(ExperimentError, match=">= 0"):
            enumerate_coalitions(5, -1, 0)


class TestStrategySpace:
    def setup_method(self):
        self.spec = make_game("section64", 7)

    def _space(self, mode="mediator", k=2, t=0, **kwargs):
        coalitions = enumerate_coalitions(7, k, t)
        return StrategySpace(self.spec, mode, coalitions, **kwargs)

    def test_size_matches_enumeration(self):
        space = self._space()
        assert space.size() == len(list(space.candidates()))

    def test_nth_agrees_with_enumeration(self):
        space = self._space()
        listed = list(space.candidates())
        for index in (0, 1, len(listed) // 2, len(listed) - 1):
            assert space.nth(index) == listed[index]

    def test_candidate_name_round_trip(self):
        for candidate in self._space().candidates():
            assert candidate_from_name(candidate.name) == candidate

    def test_leak_pool_is_mediator_joint_only(self):
        med = [
            c for c in self._space().candidates()
            if any(a.kind == "leak-pool" for _, a in c.atoms)
        ]
        assert med  # pairs exist at k=2
        assert all(len(c.atoms) == 2 for c in med)
        ct_space = StrategySpace(
            make_game("consensus", 9), "cheaptalk",
            enumerate_coalitions(9, 2, 0),
        )
        assert not any(
            a.kind == "leak-pool" for c in ct_space.candidates()
            for _, a in c.atoms
        )

    def test_atom_filter_and_grids(self):
        space = self._space(atoms=("stall",), stall_limits=(3, 5))
        kinds = {a.kind for c in space.candidates() for _, a in c.atoms}
        assert kinds == {"stall"}
        limits = {a.param("limit") for c in space.candidates()
                  for _, a in c.atoms}
        assert limits == {3, 5}

    def test_unknown_atom_rejected(self):
        with pytest.raises(ExperimentError, match="unknown deviation atom"):
            self._space(atoms=("sabotage",))
        with pytest.raises(ExperimentError, match="unknown deviation atom"):
            DeviationAtom("sabotage")

    def test_neighbors_stay_in_space(self):
        import random

        space = self._space()
        names = {c.name for c in space.candidates()}
        rng = random.Random(0)
        start = space.nth(5)
        neighbors = space.neighbors(start, rng)
        assert neighbors
        assert all(n.name in names for n in neighbors)
        assert all(n.name != start.name for n in neighbors)

    def test_candidate_validation(self):
        with pytest.raises(ExperimentError, match="outside"):
            CandidateDeviation(
                rational=(0,), atoms=((3, DeviationAtom("crash")),)
            )
        with pytest.raises(ExperimentError, match="several"):
            CandidateDeviation(
                rational=(0, 1),
                atoms=((0, DeviationAtom("crash")),
                       (0, DeviationAtom("covert"))),
            )


class TestAuditDeviationNames:
    def test_profile_resolution_both_modes(self):
        candidate = CandidateDeviation(
            rational=(0,), atoms=((0, DeviationAtom("crash")),)
        )
        for game, mode in (("section64", "mediator"), ("consensus", "cheaptalk")):
            profile = deviation_profile(
                candidate.name, make_game(game, 7), 1, 0, mode
            )
            assert set(profile) == {0}

    def test_malformed_name_rejected(self):
        with pytest.raises(ExperimentError, match="malformed"):
            deviation_profile(
                "audit:{broken", make_game("section64", 7), 1, 0, "mediator"
            )

    def test_mode_guard(self):
        candidate = CandidateDeviation(
            rational=(0,), atoms=((0, DeviationAtom("lie")),)
        )
        with pytest.raises(ExperimentError, match="not available"):
            deviation_profile(
                candidate.name, make_game("section64", 7), 1, 0, "mediator"
            )

    def test_every_factory_builds_through_its_modes_game(self):
        """Each game calls deviation factories in its own shape — Γ_d as
        ``(pid, own_type)``, Γ_CT as ``(pid, own_type, config)`` — so every
        registered profile and every atom kind must build its players
        through the game of each mode it declares."""
        from repro.audit.strategy_space import ATOM_MODES
        from repro.cheaptalk import CheapTalkGame
        from repro.experiments import deviation_modes, deviation_names
        from repro.mediator import MediatorGame
        from repro.sim.process import Process

        spec = make_game("byz-agreement", 9)  # two types: misreport applies
        games = {
            "mediator": MediatorGame(spec, 1, 1),
            "cheaptalk": CheapTalkGame(spec, 1, 1),
        }
        types = spec.game.type_space.profiles()[0]

        def build(mode, name):
            profile = deviation_profile(name, spec, 1, 1, mode)
            game = games[mode]
            if mode == "mediator":
                procs = game.processes(types, profile)
            else:
                procs = game.processes(types, game.build_setup(0), profile)
            assert all(isinstance(procs[pid], Process) for pid in profile)

        for name in deviation_names():
            for mode in deviation_modes(name):
                if mode == "none":  # r1 and raw-game runs take no deviations
                    assert deviation_profile(name, spec, 1, 1, mode) == {}
                else:
                    build(mode, name)
        coalitions = [Coalition(rational=(0, 1))]
        for kind, modes in ATOM_MODES.items():
            for mode in sorted(modes):
                space = StrategySpace(spec, mode, coalitions, atoms=(kind,))
                assert space.size(), (kind, mode)
                for candidate in space.candidates():
                    build(mode, candidate.name)

    def test_registered_profiles_still_resolve(self):
        spec = make_game("consensus", 9)
        profile = deviation_profile("crash+liar", spec, 1, 1, "cheaptalk")
        assert len(profile) == 2
        for factory in profile.values():
            assert factory(8, 0, {"mpc_input": 0}) is not None


class TestAuditSpec:
    def test_json_round_trip_all_registered(self):
        for spec in iter_audits():
            assert AuditSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        data = get_audit("sec64-leak").to_dict()
        data["bogus"] = 1
        with pytest.raises(ExperimentError, match="bogus"):
            AuditSpec.from_dict(data)

    def test_validation(self):
        with pytest.raises(ExperimentError, match="method"):
            AuditSpec(name="x", scenario="thm41-honest", method="psychic")
        with pytest.raises(ExperimentError, match="budget"):
            AuditSpec(name="x", scenario="thm41-honest", budget=0)
        with pytest.raises(ExperimentError, match="atom"):
            AuditSpec(name="x", scenario="thm41-honest", atoms=("warp",))

    def test_registry_duplicates_and_lookup(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_audit(get_audit("sec64-leak"))
        with pytest.raises(ExperimentError, match="unknown audit"):
            get_audit("nope")
        for expected in ("thm41-audit", "thm42-audit", "thm44-audit",
                         "thm45-audit", "sec64-leak", "sec64-minimal-audit"):
            assert expected in audit_names()

    def test_non_auditable_scenario_rejected(self):
        spec = AuditSpec(name="x", scenario="r1-baseline")
        with pytest.raises(ExperimentError, match="cannot be audited"):
            AuditEngine(spec)


def _quick(audit_name, **overrides):
    defaults = dict(seed_count=2)
    defaults.update(overrides)
    return get_audit(audit_name).replace(**defaults)


class TestHonestBaselineInvariant:
    def test_gain_exactly_zero_fast_scenarios(self):
        # Every auditable mediator-mode registered scenario: the empty
        # deviation must report gain exactly 0 against its own baseline.
        checked = 0
        for scenario in iter_scenarios():
            if MODE_FOR_THEOREM[scenario.theorem] != "mediator":
                continue
            # Games-axis scenarios are probed one game override at a time
            # (the engine refuses the ambiguous axis itself).
            for game in scenario.games or (None,):
                spec = AuditSpec(
                    name=f"probe-{scenario.name}",
                    scenario=scenario.name,
                    game=game,
                    seed_count=1,
                )
                score = AuditEngine(spec).honest_score()
                assert score.scored, scenario.name
                assert score.gain == 0.0, scenario.name
                assert score.outsider_harm == 0.0, scenario.name
                checked += 1
        assert checked >= 5

    @pytest.mark.slow
    def test_gain_exactly_zero_every_scenario(self):
        for scenario in iter_scenarios():
            if MODE_FOR_THEOREM[scenario.theorem] == "none":
                continue
            for game in scenario.games or (None,):
                spec = AuditSpec(
                    name=f"probe-{scenario.name}",
                    scenario=scenario.name,
                    game=game,
                    seed_count=1,
                    schedulers=(scenario.schedulers[0],),
                    timings=(scenario.timings[0],),
                )
                score = AuditEngine(spec).honest_score()
                assert score.scored, scenario.name
                assert score.gain == 0.0, scenario.name


class TestSearch:
    def test_sec64_attack_rediscovered(self):
        # The acceptance property: exhaustive search over the generic atom
        # space (no profile named anywhere in the audit spec) finds the
        # Section 6.4 covert-channel attack — the odd-parity leak-pooling
        # pair conditioned on b=0 — with strictly positive coalition gain,
        # at 6 seeds and at the registered 10.
        for seeds in (6, 10):
            result = run_audit(_quick("sec64-leak", seed_count=seeds))
            cell = result.cells[0]
            assert cell.ok
            assert cell.evaluated == cell.space_size  # exhaustive
            assert cell.max_gain > 0
            assert not cell.robust
            best = cell.best
            atoms = dict(candidate_from_name(best.candidate).atoms)
            assert {a.kind for a in atoms.values()} == {"leak-pool"}
            assert all(a.param("when") == 0 for a in atoms.values())
            i, j = sorted(atoms)
            assert (j - i) % 2 == 1  # the odd-difference coalition

    def test_sec64_minimal_defense_is_robust(self):
        for seeds in (6, 10):
            result = run_audit(_quick("sec64-minimal-audit", seed_count=seeds))
            cell = result.cells[0]
            assert cell.ok
            assert cell.max_gain <= cell.epsilon + cell.tolerance
            assert cell.robust

    def test_parallel_matches_serial_best(self):
        spec = _quick("sec64-leak", seed_count=4, budget=32, method="greedy")
        serial = AuditEngine(spec, runner=ExperimentRunner()).run_cell()
        parallel = AuditEngine(
            spec, runner=ExperimentRunner(parallel=True, processes=2)
        ).run_cell()
        assert serial == parallel  # elapsed_s excluded from equality
        assert serial.best == parallel.best

    def test_fixed_seed_reproduces_best(self):
        spec = _quick("sec64-leak", seed_count=4, budget=24, method="random")
        first = AuditEngine(spec).run_cell()
        second = AuditEngine(spec).run_cell()
        assert first == second

    def test_search_methods_cover_space_guards(self):
        spec = _quick("mediator-audit", budget=6, method="random")
        cell = AuditEngine(spec).run_cell()
        assert cell.evaluated <= 6
        cell = AuditEngine(spec.replace(method="greedy")).run_cell()
        assert cell.evaluated <= 6

    def test_out_of_bounds_cell_reports_error(self):
        # Thm 4.1 at (k=2, t=2) violates n > 4k+4t for n=9: the cell must
        # carry the failure instead of crashing the sweep.
        engine = AuditEngine(_quick("thm41-audit", seed_count=1))
        cell = engine.run_cell(2, 2)
        assert not cell.ok
        assert "baseline failed" in cell.error
        assert cell.robust  # vacuous, but flagged via error


class TestFrontierAndResult:
    def test_mediator_frontier_round_trip(self):
        result = run_frontier(_quick("mediator-audit", budget=8))
        assert {(c.k, c.t) for c in result.cells} == {(1, 0), (1, 1)}
        assert result.robust()
        restored = AuditResult.from_json(result.to_json())
        assert restored == result
        json.loads(result.to_json())  # plain data

    def test_frontier_csv_rows_align(self):
        result = run_frontier(_quick("mediator-audit", budget=4))
        rows = result.csv_rows()
        assert len(rows) == len(result.cells)
        assert all(len(row) == len(AuditResult.CSV_FIELDS) for row in rows)

    def test_aggregate_and_summary(self):
        result = run_audit(_quick("mediator-audit", budget=4))
        agg = result.aggregate()
        assert agg["cells"] == 1
        assert agg["evaluations"] <= 4
        rows = result.summary_rows()
        assert len(rows) == 1
        assert len(rows[0]) == len(AuditResult.SUMMARY_HEADERS)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ExperimentError, match="at least one"):
            run_frontier(_quick("mediator-audit"), ks=(), ts=(0,))

    @pytest.mark.slow
    def test_thm41_frontier_within_paper_bounds(self):
        # Thm 4.1 holds with ε = 0 for n > 4k + 4t: across every (k, t)
        # cell inside the bound, the searched max gain stays ≤ ε + tol.
        result = run_frontier(_quick("thm41-audit", budget=12))
        assert {(c.k, c.t) for c in result.cells} == {(1, 0), (1, 1)}
        for cell in result.cells:
            assert cell.ok
            assert cell.max_gain <= cell.epsilon + cell.tolerance
            assert cell.robust
        assert AuditResult.from_json(result.to_json()) == result


class TestCli:
    def test_audit_run_json(self, capsys):
        from repro.cli import main

        # Seeds 0-5 include a b=0 draw, which the attack converts to 1.1.
        main(["audit", "run", "sec64-leak", "--seeds", "6", "--json"])
        out = capsys.readouterr().out
        result = AuditResult.from_json(out)
        assert result.spec.name == "sec64-leak"
        assert result.cells[0].max_gain > 0

    def test_audit_frontier_csv(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "frontier.csv"
        main(["audit", "frontier", "mediator-audit", "--budget", "4",
              "--csv", str(path)])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(AuditResult.CSV_FIELDS)
        assert "NOT ROBUST" not in capsys.readouterr().out

    def test_audit_list(self, capsys):
        from repro.cli import main

        main(["audit", "list"])
        out = capsys.readouterr().out
        assert "sec64-leak" in out

    def test_unknown_audit_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown audit"):
            main(["audit", "run", "nope"])

    def test_scenarios_json_exposes_modes(self, capsys):
        from repro.cli import main
        from repro.experiments import ScenarioSpec

        main(["scenarios", "--json"])
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        leaky = by_name["sec64-leaky-honest"]
        assert leaky["mode"] == "mediator"
        assert leaky["supported_deviations"] == deviations_for_mode("mediator")
        assert "honest" in leaky["supported_deviations"]
        # The augmented entries still parse back into specs.
        for entry in entries:
            assert ScenarioSpec.from_dict(entry).name == entry["name"]
