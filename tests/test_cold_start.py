"""Imports follow use (CONTRIBUTING invariant 12).

Every ``repro`` command, sweep, audit and benchmark worker is a short
process, so what it imports is part of its cost. numpy and SciPy
serve only the exact solution-concept checkers, asyncio only the TCP
runtime and ``multiprocessing`` only the parallel runner's pool, and
SHA-256 comes from CPython's built-in module, so no hot path needs
OpenSSL's ``_hashlib``. This test runs the hot paths in a fresh
interpreter and asserts none of the five was loaded, then calls an
exact checker, builds a pool and hashes through ``hashlib`` to show the
guard is not vacuous.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOT_PATHS = r"""
import os
import sys
import tempfile

import repro.cli
from repro.audit import get_audit, run_audit
from repro.experiments.registry import get_scenario
from repro.experiments.runner import ExperimentRunner
from repro.store import ResultStore

HEAVY = ("numpy", "scipy", "asyncio", "_hashlib", "multiprocessing")

runner = ExperimentRunner()
cells = [
    get_scenario("thm41-honest").replace(schedulers=("fifo",), seed_count=1),
    get_scenario("netcheck-thm41").replace(deviations=("honest",),
                                           seed_count=1),
    get_scenario("faultcheck-thm41").replace(
        faults=("crash-restart@p2s6r40",), seed_count=1),
]
for spec in cells:
    (record,) = runner.run(spec).records
    assert record.ok and record.runtime == spec.runtime, (spec.name, record)
assert cells[1].runtime == "net"

audit = run_audit(get_audit("sec64-leak").replace(seed_count=1), runner=runner)
assert audit.cells and audit.evaluations() > 0

with tempfile.TemporaryDirectory() as tmp:
    store = ResultStore(os.path.join(tmp, "store.sqlite"))
    spec = get_scenario("chicken-mediator").replace(seed_count=1)
    try:
        assert not store.get_or_run(spec, runner=runner).hit
        assert store.get_or_run(spec, runner=runner).hit
    finally:
        store.close()

loaded = [name for name in HEAVY if name in sys.modules]
assert not loaded, f"hot paths loaded {loaded}"

from repro.games import ConstantStrategy, StrategyProfile, check_nash
from repro.games.library import consensus_game

game = consensus_game(4).game
assert check_nash(game, StrategyProfile([ConstantStrategy(0)] * 4)).holds
assert "scipy" in sys.modules, "the exact checker ran without SciPy"

with ExperimentRunner(parallel=True, processes=2) as parallel:
    result = parallel.run(get_scenario("chicken-mediator").replace(
        seed_count=2))
assert result.stats["pool"]["used"] and all(r.ok for r in result.records)
assert "multiprocessing" in sys.modules, "the pool ran without multiprocessing"

import hashlib

hashlib.sha256(b"cold start")
assert "_hashlib" in sys.modules, "hashlib.sha256 ran without _hashlib"
print("cold start OK")
"""


def test_hot_paths_load_no_numpy_scipy_or_asyncio():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, "-c", HOT_PATHS], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout.strip().splitlines()[-1] == "cold start OK"
