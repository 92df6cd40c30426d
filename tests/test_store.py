"""Tests for the durable result store (``repro.store``).

The invariants under test are the ones the runner, ``run_audit`` and
the CLI's ``--store`` dedup build on: identical cells are answered from
the store and never re-simulated; stored documents come back
byte-identical; rows are immutable once written (first writer wins); a
process killed mid-grid keeps every cell it finished; and two processes
writing disjoint cells into one WAL database produce one consistent
merged view.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import pathlib
import time

import pytest

from repro.errors import StoreError
from repro.experiments import ExperimentRunner, get_scenario
from repro.experiments.runner import expand_grid
from repro.store import ResultStore, open_store, resolve_store_path
from repro.store.core import ENV_STORE, SCHEMA_VERSION
from repro.store.fingerprint import (
    audit_fingerprint,
    run_fingerprint,
    spec_fingerprint,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CHEAP = "raw-chicken-matrix"  # 4-cell grid, no simulation: fast
OTHER = "chicken-mediator"


def small(name: str, seeds: int = 1):
    return get_scenario(name).replace(seed_count=seeds)


# -- path resolution ----------------------------------------------------------

class TestPathResolution:
    def test_explicit_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_STORE, "/env/store.sqlite")
        assert resolve_store_path("/cli/s.sqlite", "/d.sqlite") == "/cli/s.sqlite"
        assert resolve_store_path(None, "/d.sqlite") == "/env/store.sqlite"
        monkeypatch.delenv(ENV_STORE)
        assert resolve_store_path(None, "/d.sqlite") == "/d.sqlite"
        assert resolve_store_path(None, None) is None

    def test_open_store_returns_none_without_a_path(self, monkeypatch):
        monkeypatch.delenv(ENV_STORE, raising=False)
        assert open_store(None, default=None) is None

    def test_open_store_opens_the_resolved_path(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with open_store(str(path)) as store:
            assert store.path == str(path)
        assert path.exists()


# -- schema and immutability --------------------------------------------------

class TestSchema:
    def test_schema_version_mismatch_is_an_error(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with ResultStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            store._conn.commit()
        with pytest.raises(StoreError, match="schema version"):
            ResultStore(path)

    def test_records_are_immutable_once_written(self, tmp_path):
        spec = small(CHEAP)
        with ExperimentRunner() as runner:
            result = runner.run(spec)
        first, second = result.records[0], result.records[1]
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            assert store.put_records([("fp", first)]) == 1
            # Same key, different record: the write is a silent no-op.
            assert store.put_records([("fp", second)]) == 0
            assert store.fetch_records(["fp"])["fp"] == first

    def test_result_documents_are_immutable(self, tmp_path):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            assert store.put_result("fp", "scenario", "a", "one", 1)
            assert not store.put_result("fp", "scenario", "a", "two", 1)
            assert store.fetch_result("fp") == "one"


# -- record round trip and dedup ----------------------------------------------

class TestRecordDedup:
    def test_runner_store_round_trip_and_reuse(self, tmp_path):
        spec = small(OTHER)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            with ExperimentRunner() as runner:
                cold = runner.run(spec, store=store)
                assert cold.stats["store"] == {
                    "hits": 0,
                    "misses": len(cold.records),
                    "stored": len(cold.records),
                }
                warm = runner.run(spec, store=store)
            assert warm.stats["store"]["hits"] == len(cold.records)
            assert warm.stats["store"]["misses"] == 0
            assert warm.stats["store"]["stored"] == 0
        # The dedup'd grid is the simulated grid, record for record
        # (RunRecord equality excludes wall-clock duration).
        with ExperimentRunner() as runner:
            reference = runner.run(spec)
        assert warm.records == reference.records

    def test_partial_overlap_simulates_only_the_missing_cells(self, tmp_path):
        one_seed = small(OTHER, seeds=1)
        two_seeds = small(OTHER, seeds=2)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            with ExperimentRunner() as runner:
                runner.run(one_seed, store=store)
                grown = runner.run(two_seeds, store=store)
        grid_one = len(expand_grid(one_seed))
        grid_two = len(expand_grid(two_seeds))
        assert grown.stats["store"]["hits"] == grid_one
        assert grown.stats["store"]["misses"] == grid_two - grid_one
        with ExperimentRunner() as runner:
            assert grown.records == runner.run(two_seeds).records

    def test_query_records_filters(self, tmp_path):
        spec = small(OTHER)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            with ExperimentRunner() as runner:
                result = runner.run(spec, store=store)
            assert len(store.query_records()) == len(result.records)
            assert store.query_records(scenario="nope") == []
            fifo = store.query_records(scenario=spec.name, scheduler="fifo")
            assert fifo and all(r.scheduler == "fifo" for r in fifo)
            assert len(store.query_records(limit=2)) == 2
            summary = store.summary()
            assert summary["runs"] == len(result.records)
            assert summary["by_scenario"] == {spec.name: len(result.records)}


# -- fingerprints -------------------------------------------------------------

class TestFingerprints:
    def test_run_fingerprints_distinguish_every_cell(self):
        spec = small(OTHER, seeds=2)
        tasks = expand_grid(spec)
        fps = {run_fingerprint(spec, task) for task in tasks}
        assert len(fps) == len(tasks)

    def test_spec_fingerprint_is_sensitive_to_the_spec(self):
        base = small(OTHER)
        assert spec_fingerprint(base) == spec_fingerprint(small(OTHER))
        assert spec_fingerprint(base) != spec_fingerprint(
            base.replace(seed_count=3)
        )
        assert spec_fingerprint(base) != spec_fingerprint(small(CHEAP))

    def test_run_fingerprints_are_sensitive_to_runtime_and_latency(self):
        """--store dedup must never conflate sim and net cells (inv. 9)."""
        spec = small(OTHER)
        task = expand_grid(spec)[0]
        sim_fp = run_fingerprint(spec, task)
        net_spec = spec.replace(runtime="net", latency="lognormal@m5s2")
        net_task = expand_grid(net_spec)[0]
        net_fp = run_fingerprint(net_spec, net_task)
        assert sim_fp != net_fp
        other_latency = net_spec.replace(latency="fixed-3")
        assert run_fingerprint(
            other_latency, expand_grid(other_latency)[0]
        ) not in (sim_fp, net_fp)
        tcp_spec = net_spec.replace(runtime="net-tcp")
        assert run_fingerprint(
            tcp_spec, expand_grid(tcp_spec)[0]
        ) not in (sim_fp, net_fp)

    def test_cell_keys_are_sensitive_to_runtime_and_latency(self):
        from repro.experiments.cache import CellKey

        spec = small(OTHER)
        task = expand_grid(spec)[0]
        net_spec = spec.replace(runtime="net", latency="fixed-2")
        net_task = expand_grid(net_spec)[0]
        sim_key = CellKey.for_task(spec, task)
        net_key = CellKey.for_task(net_spec, net_task)
        assert sim_key != net_key
        # But prepared artifacts are substrate-blind: the cache sub-keys
        # share compilations across runtimes.
        assert sim_key.protocol_key() == net_key.protocol_key()
        assert sim_key.game_key() == net_key.game_key()

    def test_audit_fingerprint_separates_kinds(self):
        from repro.audit.registry import AuditSpec

        spec = AuditSpec(name="x", scenario=OTHER)
        one = audit_fingerprint(spec, (1,), (0,), "audit")
        assert one == audit_fingerprint(spec, (1,), (0,), "audit")
        assert one != audit_fingerprint(spec, (1,), (0,), "frontier")
        assert one != audit_fingerprint(spec, (2,), (0,), "audit")


# -- result-level get_or_run --------------------------------------------------

class TestGetOrRun:
    def test_hit_is_byte_identical_and_simulates_nothing(self, tmp_path):
        spec = small(OTHER)
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            cold = store.get_or_run(spec)
            assert not cold.hit
            assert len(cold.result.records) == len(expand_grid(spec))
            # No runner argument: a hit must not need one, because it
            # does zero simulation work.
            warm = store.get_or_run(spec)
            assert warm.hit
            assert warm.text == cold.text
            assert warm.fingerprint == cold.fingerprint
            assert warm.result == cold.result
            assert store.counters()["result_hits"] == 1
        # The stored document round-trips losslessly.
        assert warm.result.to_json(indent=2) == warm.text

    def test_accepts_registry_names(self, tmp_path):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            outcome = store.get_or_run(CHEAP)
            assert outcome.result.spec.name == CHEAP
            assert store.get_or_run(CHEAP).hit

    def test_cli_run_with_store_is_byte_stable(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "s.sqlite")
        outputs = []
        for _ in range(2):
            main(["run", OTHER, "--json", "--store", path])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        main(["store", "summary", "--json", "--store", path])
        summary = json.loads(capsys.readouterr().out)
        assert (summary["results"], summary["runs"]) == (1, 12)


# -- audit documents ----------------------------------------------------------

class TestAuditDedup:
    def test_audit_hit_is_the_stored_document(self, tmp_path):
        from repro.audit.frontier import run_audit, run_frontier
        from repro.audit.registry import AuditSpec

        spec = AuditSpec(
            name="tiny-audit", scenario=OTHER, budget=2, seed_count=1, top=1
        )
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            first = run_audit(spec, store=store)
            assert store.counters()["result_hits"] == 0
            again = run_audit(spec, store=store)
            assert again == first
            assert store.counters()["result_hits"] == 1
            stored = store.fetch_result(audit_fingerprint(spec, kind="audit"))
            assert stored == first.to_json(indent=2)
            # A frontier over the same spec is a separate document.
            run_frontier(spec, store=store)
            assert store.summary()["by_kind"] == {"audit": 1, "frontier": 1}


# -- concurrent writers -------------------------------------------------------

_WRITER = """
import sys
from repro.experiments import ExperimentRunner, get_scenario
from repro.store import ResultStore

path, name = sys.argv[1], sys.argv[2]
spec = get_scenario(name).replace(seed_count=1)
with ResultStore(path) as store:
    outcome = store.get_or_run(spec)
print(outcome.fingerprint)
"""


class TestConcurrentWriters:
    def test_two_processes_merge_into_one_consistent_view(self, tmp_path):
        """Two processes write disjoint cells into one WAL store."""
        path = str(tmp_path / "shared.sqlite")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, path, name],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in (CHEAP, OTHER)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(out.strip())
        assert outs[0] != outs[1]
        cheap_grid = len(expand_grid(small(CHEAP)))
        other_grid = len(expand_grid(small(OTHER)))
        with ResultStore(path) as store:
            summary = store.summary()
            assert summary["runs"] == cheap_grid + other_grid
            assert summary["by_scenario"] == {
                CHEAP: cheap_grid,
                OTHER: other_grid,
            }
            assert summary["results"] == 2
            # Both documents are hits now — and the merged store answers
            # each with the exact bytes its writer stored.
            for name in (CHEAP, OTHER):
                outcome = store.get_or_run(small(name))
                assert outcome.hit


def _open_fresh_stores(directory, rounds, barrier, failures):
    """Open round ``i``'s fresh store as soon as every opener is ready."""
    failed = []
    for index in range(rounds):
        barrier.wait(timeout=60)
        try:
            ResultStore(os.path.join(directory, f"round-{index}.sqlite")).close()
        except Exception as exc:  # noqa: BLE001 — reported by the test
            failed.append(f"round {index}: {type(exc).__name__}: {exc}")
    failures.put(failed)


class TestConcurrentOpen:
    OPENERS = 4
    ROUNDS = 100

    def test_openers_released_together_all_open_one_fresh_store(
        self, tmp_path
    ):
        """Every round, four processes leave a barrier together and open
        the same fresh path: each open must wait for the lock, not fail
        with "database is locked"."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(self.OPENERS)
        failures = ctx.Queue()
        openers = [
            ctx.Process(
                target=_open_fresh_stores,
                args=(str(tmp_path), self.ROUNDS, barrier, failures),
            )
            for _ in range(self.OPENERS)
        ]
        for opener in openers:
            opener.start()
        failed = [line for _ in openers for line in failures.get(timeout=120)]
        for opener in openers:
            opener.join(timeout=60)
            assert not opener.is_alive() and opener.exitcode == 0
        assert failed == []


# -- a writer killed mid-grid -------------------------------------------------

_GRID_WRITER = """
import sys
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.store import ResultStore

path, spec = sys.argv[1], ScenarioSpec.from_json(sys.argv[2])
with ResultStore(path) as store:
    ExperimentRunner(store=store).run(spec)
"""


class TestKilledWriter:
    def test_sigkilled_grid_keeps_its_finished_cells(self, tmp_path):
        """Each fresh record is flushed as its cell completes, so a
        process SIGKILLed mid-grid loses only in-flight cells and a rerun
        simulates exactly the rest."""
        # Forty cheap-talk cells: long enough to be killed part-way.
        spec = get_scenario("thm41-honest").replace(
            schedulers=("fifo",), seed_count=40
        )
        total = len(expand_grid(spec))
        path = str(tmp_path / "killed.sqlite")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        with ResultStore(path) as store:
            child = subprocess.Popen(
                [sys.executable, "-c", _GRID_WRITER, path, spec.to_json()],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                deadline = time.monotonic() + 60.0
                while store.summary()["runs"] < 2:
                    assert child.poll() is None, child.stderr.read()
                    assert time.monotonic() < deadline, "child never wrote"
                    time.sleep(0.02)
                assert child.poll() is None, "grid finished before the kill"
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=10.0)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait(timeout=10.0)
                child.stderr.close()
            assert child.returncode == -signal.SIGKILL
            kept = store.summary()["runs"]
            assert 2 <= kept < total
            with ExperimentRunner(store=store) as runner:
                rerun = runner.run(spec)
        assert rerun.stats["store"] == {
            "hits": kept,
            "misses": total - kept,
            "stored": total - kept,
        }
        with ExperimentRunner() as runner:
            assert rerun.records == runner.run(spec).records
