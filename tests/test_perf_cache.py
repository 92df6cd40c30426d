"""Compile-once/run-many correctness: the contracts behind the speed.

The artifact cache, persistent pool, and chunked dispatch are only
admissible because they are *invisible* in the records: warm-cache ==
cold-cache, parallel == serial, shared-runner audits == per-call audits.
This module pins exactly those equalities, plus the cache keying rules
(games axis, ``file:`` stamps, mediator variants) that keep distinct
artifacts from colliding.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ArtifactCache,
    CellKey,
    ExperimentResult,
    ExperimentRunner,
    expand_grid,
    get_scenario,
    prepare_cell,
)
from repro.errors import ExperimentError


class TestArtifactCache:
    def test_lru_bound_and_stats(self):
        cache = ArtifactCache(maxsize=2)
        assert cache.get(("a",), lambda: 1) == 1
        assert cache.get(("a",), lambda: 2) == 1  # hit keeps first value
        cache.get(("b",), lambda: 2)
        cache.get(("c",), lambda: 3)  # evicts ("a",), the LRU entry
        assert len(cache) == 2
        assert cache.get(("a",), lambda: 9) == 9  # rebuilt after eviction
        assert cache.hits == 1 and cache.misses == 4

    def test_disabled_cache_never_stores(self):
        cache = ArtifactCache(maxsize=0)
        assert cache.get(("a",), lambda: 1) == 1
        assert cache.get(("a",), lambda: 2) == 2  # nothing was stored
        assert len(cache) == 0 and cache.misses == 2

    def test_lru_recency_on_hit(self):
        cache = ArtifactCache(maxsize=2)
        cache.get(("a",), lambda: 1)
        cache.get(("b",), lambda: 2)
        cache.get(("a",), lambda: 0)  # refresh ("a",)
        cache.get(("c",), lambda: 3)  # must evict ("b",), not ("a",)
        assert cache.get(("a",), lambda: 9) == 1

    def test_bad_cache_size_rejected(self):
        with pytest.raises(ExperimentError, match="cache_size"):
            ExperimentRunner(cache_size=-1)


class TestCellKey:
    def test_slow_axes_shared_fast_axes_ignored(self):
        spec = get_scenario("chicken-mediator").replace(seed_count=3)
        tasks = expand_grid(spec)
        keys = {CellKey.for_task(spec, task) for task in tasks}
        # seeds/schedulers are fast axes: one deviation => one key each.
        assert len(keys) == len(spec.deviations)

    def test_mediator_variants_do_not_collide(self):
        leaky = get_scenario("sec64-leaky-honest")
        minimal = get_scenario("sec64-minimal-honest")
        key_l = CellKey.for_task(leaky, expand_grid(leaky)[0])
        key_m = CellKey.for_task(minimal, expand_grid(minimal)[0])
        assert key_l.protocol_key() != key_m.protocol_key()

    @staticmethod
    def _write_tiny_game(path, action):
        data = {
            "name": "tiny-fixed",
            "n": 2,
            "actions": [["a", "b"], ["a", "b"]],
            "types": {"kind": "single", "profile": [0, 0]},
            "payoff": {"kind": "expr", "expr": "1.0"},
            "mediator": {"rule": "fixed", "params": {"profile": [action, action]}},
            "default_move": {"kind": "constant", "action": "a"},
        }
        text = json.dumps(data)
        if action == "b":
            text += " "  # force a distinct (mtime_ns, size) stamp
        path.write_text(text)

    def test_file_game_stamp_in_key(self, tmp_path):
        path = tmp_path / "game.json"
        self._write_tiny_game(path, "a")
        spec = get_scenario("mediator-honest").replace(
            game=f"file:{path}", seed_count=1, schedulers=("fifo",), k=1, t=0
        )
        task = expand_grid(spec)[0]
        stamp1 = CellKey.for_task(spec, task).file_stamp
        assert stamp1 is not None
        registry_key = CellKey.for_task(
            get_scenario("chicken-mediator"),
            expand_grid(get_scenario("chicken-mediator"))[0],
        )
        assert registry_key.file_stamp is None
        self._write_tiny_game(path, "b")
        stamp2 = CellKey.for_task(spec, task).file_stamp
        assert stamp1 != stamp2

    def test_file_game_edit_invalidates_warm_runner(self, tmp_path):
        path = tmp_path / "game.json"
        spec = get_scenario("mediator-honest").replace(
            game=f"file:{path}", seed_count=2, schedulers=("fifo",), k=1, t=0
        )
        runner = ExperimentRunner()
        self._write_tiny_game(path, "a")
        first = runner.run(spec)
        self._write_tiny_game(path, "b")
        second = runner.run(spec)  # same warm runner, edited file
        assert not first.failed() and not second.failed()
        assert {r.actions for r in first.records} == {("a", "a")}
        assert {r.actions for r in second.records} == {("b", "b")}


class TestWarmColdIdentity:
    SCENARIOS = (
        ("chicken-mediator", {"seed_count": 3}),
        ("sec64-leaky-honest", {"seed_count": 3}),
        ("sec64-minimal-honest", {"seed_count": 3}),
        ("r1-baseline", {}),
        ("raw-chicken-matrix", {}),
        ("mediator-honest", {"seed_count": 2}),
    )

    def test_warm_equals_cold_for_canonical_scenarios(self):
        cold_runner = ExperimentRunner(cache_size=0)
        warm_runner = ExperimentRunner()
        for name, overrides in self.SCENARIOS:
            spec = get_scenario(name).replace(**overrides) if overrides \
                else get_scenario(name)
            cold = cold_runner.run(spec)
            first = warm_runner.run(spec)
            second = warm_runner.run(spec)  # every prepare now cache-hits
            assert first.records == cold.records, name
            assert second.records == cold.records, name
            assert second.stats["cache"]["misses"] == 0, name

    @pytest.mark.slow
    def test_warm_equals_cold_cheaptalk(self):
        spec = get_scenario("thm41-honest").replace(
            schedulers=("fifo", "random"), seed_count=2
        )
        cold = ExperimentRunner(cache_size=0).run(spec)
        warm_runner = ExperimentRunner()
        warm_runner.run(spec)
        warm = warm_runner.run(spec)
        assert warm.records == cold.records
        assert warm.stats["cache"]["misses"] == 0
        assert warm.stats["cache"]["hits"] > 0

    def test_games_axis_keying(self):
        # One grid spanning several games through one warm runner: each
        # family instance must resolve to its own cached artifacts.
        spec = get_scenario("consensus-scaling")
        runner = ExperimentRunner()
        warm1 = runner.run(spec)
        warm2 = runner.run(spec)
        cold = ExperimentRunner(cache_size=0).run(spec)
        assert warm1.records == cold.records
        assert warm2.records == cold.records
        sizes = {r.game for r in cold.records}
        assert len(sizes) > 1  # really multiple games in one grid


class TestPreparedCell:
    def test_prepare_without_cache_matches_cached(self):
        spec = get_scenario("chicken-mediator")
        task = expand_grid(spec)[0]
        cache = ArtifactCache()
        bare = prepare_cell(spec, task)
        cached = prepare_cell(spec, task, cache)
        again = prepare_cell(spec, task, cache)
        assert bare.key == cached.key == again.key
        assert cached.game is again.game  # the artifact itself is shared
        assert cache.hits > 0


class TestPersistentPool:
    def test_pool_reused_across_runs(self):
        spec = get_scenario("chicken-mediator").replace(seed_count=2)
        serial = ExperimentRunner().run(spec)
        with ExperimentRunner(parallel=True, processes=2) as runner:
            first = runner.run(spec)
            second = runner.run(spec)
        assert first.records == serial.records
        assert second.records == serial.records
        assert first.stats["pool"] == {
            "used": True, "processes": 2, "reused": False,
        }
        assert second.stats["pool"]["reused"] is True

    def test_close_is_idempotent_and_recoverable(self):
        spec = get_scenario("r1-baseline")
        runner = ExperimentRunner(parallel=True, processes=2)
        first = runner.run(spec)
        runner.close()
        runner.close()
        second = runner.run(spec)  # lazily recreates the pool
        runner.close()
        assert first.records == second.records


class TestStats:
    def test_serial_stats_shape(self):
        spec = get_scenario("chicken-mediator").replace(seed_count=2)
        result = ExperimentRunner().run(spec)
        assert result.stats["pool"]["used"] is False
        cache = result.stats["cache"]
        assert cache["misses"] > 0  # first run on a fresh runner

    def test_stats_round_trip_and_equality_exclusion(self):
        spec = get_scenario("raw-chicken-matrix")
        result = ExperimentRunner().run(spec)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored == result
        assert restored.stats == result.stats
        # stats are bookkeeping: a result with different stats is equal.
        assert ExperimentResult(
            spec=result.spec, records=result.records, stats={}
        ) == result


class TestAuditSharedRunner:
    def test_run_audit_shared_equals_owned(self):
        from repro.audit import get_audit, run_audit

        spec = get_audit("sec64-leak").replace(seed_count=3, budget=8)
        owned = run_audit(spec)
        with ExperimentRunner() as shared:
            first = run_audit(spec, runner=shared)
            second = run_audit(spec, runner=shared)  # warm caches
        assert first.cells == owned.cells
        assert second.cells == owned.cells

    def test_run_frontier_shared_equals_owned(self):
        from repro.audit import get_audit, run_frontier

        spec = get_audit("sec64-minimal-audit").replace(seed_count=2, budget=6)
        owned = run_frontier(spec)
        with ExperimentRunner() as shared:
            again = run_frontier(spec, runner=shared)
        assert again.cells == owned.cells

    def test_run_fuzz_shared_equals_owned(self):
        from repro.audit import run_fuzz

        kwargs = dict(count=2, budget=6, seed_count=2)
        owned = run_fuzz(**kwargs)
        with ExperimentRunner() as shared:
            again = run_fuzz(runner=shared, **kwargs)
        assert [r.cells for r in again] == [r.cells for r in owned]

    def test_runner_plus_construction_args_rejected(self):
        from repro.audit import get_audit, run_audit

        spec = get_audit("sec64-leak")
        with ExperimentRunner() as shared:
            with pytest.raises(ExperimentError, match="not both"):
                run_audit(spec, parallel=True, runner=shared)
            with pytest.raises(ExperimentError, match="not both"):
                run_audit(spec, timeout_s=5.0, runner=shared)


def _profile_row(out: str, phase: str) -> list[str]:
    """The ``--profile`` table cells after ``phase``: [time, share]."""
    for line in out.splitlines():
        if line.startswith(phase):
            return line[len(phase):].split()
    raise AssertionError(f"no {phase!r} row in:\n{out}")


class TestProfileCLI:
    def test_run_profile_flag(self, capsys):
        from repro.cli import main

        main(["run", "raw-chicken-matrix", "--profile"])
        out = capsys.readouterr().out
        assert "profile — raw-chicken-matrix" in out
        assert "artifact cache:" in out

    def test_parallel_profile_sums_merged_worker_spans(self, capsys):
        from repro.cli import main
        from repro.obs import current_tracer

        main(["run", "chicken-mediator", "--seeds", "2", "--profile",
              "--parallel", "--processes", "2"])
        out = capsys.readouterr().out
        _, share = _profile_row(out, "run (simulation)")
        assert int(share.rstrip("%")) > 0  # the workers' run spans came back
        assert "pool: fresh (2 process(es))" in out
        assert current_tracer() is None

    def test_profile_on_whole_result_store_hit(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "chicken-mediator", "--seeds", "1", "--profile",
                "--store", str(tmp_path / "store.sqlite")]
        main(argv)
        first = capsys.readouterr().out
        assert "run (simulation)" in first
        main(argv)
        second = capsys.readouterr().out
        assert "answered from the store; nothing simulated" in second
        assert "run (simulation)" not in second
        assert "artifact cache:" not in second

    def test_profile_and_trace_out_share_one_tracer(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        main(["run", "chicken-mediator", "--seeds", "2", "--profile",
              "--trace-out", str(path)])
        out = capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        run_s = 0.0
        for event in events:
            if event["ph"] == "X" and event["name"] == "run":
                run_s += event["dur"] / 1e6
        assert run_s > 0
        seconds, _ = _profile_row(out, "run (simulation)")
        assert seconds == f"{run_s:.3f}s"
