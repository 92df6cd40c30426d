"""The unified quick-benchmark suite behind ``repro bench``.

Each registered bench exercises one hot path end to end and returns one
JSON-safe row; :func:`run_suite` aggregates the rows into a single
``bench_suite.json`` document so CI has one artifact to track instead of
scattered per-module pytest-benchmark files. The suite is self-validating:
benches that compare a *cold* path (fresh runner, artifact caching
disabled — the pre-cache behavior) against a *warm* path (persistent
runner, primed caches) assert record/score equality before reporting a
speedup, so a benchmark run doubles as a determinism check.

``compare_to_baseline`` implements the CI soft-warn: it never fails the
run, it only reports which benches regressed beyond the tolerance against
a committed baseline (``benchmarks/baseline_suite.json``).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Optional

from repro.errors import ExperimentError

SUITE_VERSION = 1

REGRESSION_TOLERANCE = 0.30
"""Soft-warn when cells/sec drops more than this fraction below baseline."""

OBS_OVERHEAD_TOLERANCE = 0.05
"""Soft-warn when telemetry costs more than this fraction of wall-clock."""

BENCH_REGISTRY: dict[str, Callable[[bool], dict]] = {}


def register_bench(name: str):
    """Decorator registering a ``(quick: bool) -> row`` bench."""

    def _register(fn: Callable[[bool], dict]) -> Callable[[bool], dict]:
        if name in BENCH_REGISTRY:
            raise ExperimentError(f"bench {name!r} is already registered")
        BENCH_REGISTRY[name] = fn
        return fn

    return _register


def bench_names() -> list[str]:
    return sorted(BENCH_REGISTRY)


def _row(name: str, cells: int, after_s: float,
         before_s: Optional[float] = None, **extra) -> dict:
    row = {
        "name": name,
        "cells": cells,
        "wall_s": round(after_s, 6),
        "cells_per_s": round(cells / after_s, 3) if after_s > 0 else 0.0,
    }
    if before_s is not None:
        row["before_s"] = round(before_s, 6)
        row["speedup"] = round(before_s / after_s, 3) if after_s > 0 else 0.0
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# Benches
# ---------------------------------------------------------------------------

def _timed(fn, rounds: int) -> float:
    """Min wall-clock of ``rounds`` calls (robust against scheduler noise)."""
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


@register_bench("thm41-sweep")
def _bench_thm41_sweep(quick: bool) -> dict:
    """Multi-seed Thm 4.1 sweep: cold per-cell prepare vs warm cache."""
    from repro.experiments import ExperimentRunner, get_scenario

    seeds = 4 if quick else 12
    spec = get_scenario("thm41-honest").replace(
        schedulers=("fifo", "random"), seed_count=seeds
    )
    cold = None

    def run_cold():
        nonlocal cold
        with ExperimentRunner(cache_size=0) as cold_runner:
            cold = cold_runner.run(spec)

    before_s = _timed(run_cold, 2)
    with ExperimentRunner() as runner:
        warm = runner.run(spec)  # primes the artifact cache
        after_s = _timed(lambda: runner.run(spec), 3)
        warm = runner.run(spec)
    assert warm.records == cold.records, "warm-cache records diverged"
    return _row(
        "thm41-sweep", len(warm.records), after_s, before_s,
        cache=warm.stats.get("cache", {}),
    )


@register_bench("audit-batch")
def _bench_audit_batch(quick: bool) -> dict:
    """The bench_audit batch evaluation: per-call engines vs a shared one.

    *Before* mirrors the pre-pool behavior — every evaluation builds a
    fresh engine over a fresh caching-disabled runner (full game/protocol/
    deviation re-preparation per batch). *After* shares one engine over one
    warm persistent runner, the way ``run_audit`` now drives batches.
    """
    from repro.audit import get_audit
    from repro.audit.search import AuditEngine
    from repro.experiments import ExperimentRunner

    spec = get_audit("sec64-leak").replace(
        seed_count=4, budget=16 if quick else 32
    )
    rounds = 3

    def candidates_for(engine):
        space = engine.strategy_space(engine.k, engine.t)
        return [
            c for i, c in enumerate(space.candidates()) if i < spec.budget
        ]

    before_scores = []

    def run_cold():
        before_scores.clear()
        with ExperimentRunner(cache_size=0) as runner:
            engine = AuditEngine(spec, runner=runner)
            before_scores.extend(engine.evaluate(candidates_for(engine)))

    before_s = _timed(run_cold, rounds)

    after_scores = []
    with ExperimentRunner() as runner:
        engine = AuditEngine(spec, runner=runner)
        candidates = candidates_for(engine)
        engine.evaluate(candidates)  # prime caches + baseline

        def run_warm():
            after_scores.clear()
            after_scores.extend(engine.evaluate(candidates))

        after_s = _timed(run_warm, rounds)

    assert after_scores == before_scores, "warm audit scores diverged"
    cells = sum(score.runs for score in after_scores)
    return _row(
        "audit-batch", cells, after_s, before_s,
        evaluations=len(after_scores),
    )


@register_bench("mediator-sweep")
def _bench_mediator_sweep(quick: bool) -> dict:
    """Mediator-game grid (Section 6.4 leaky variant): cold vs warm."""
    from repro.experiments import ExperimentRunner, get_scenario

    spec = get_scenario("sec64-leaky-honest").replace(
        seed_count=20 if quick else 60
    )
    cold = None

    def run_cold():
        nonlocal cold
        with ExperimentRunner(cache_size=0) as cold_runner:
            cold = cold_runner.run(spec)

    before_s = _timed(run_cold, 3)
    with ExperimentRunner() as runner:
        warm = runner.run(spec)
        after_s = _timed(lambda: runner.run(spec), 3)
    assert warm.records == cold.records, "warm-cache records diverged"
    return _row("mediator-sweep", len(warm.records), after_s, before_s)


@register_bench("games-construct")
def _bench_games_construct(quick: bool) -> dict:
    """Game-family construction throughput (DSL compile, no caching)."""
    from repro.games.registry import make_game

    names = ["consensus@n3", "consensus@n5", "consensus@n7", "ba@n7t2",
             "sec64@n7k2", "random@n4s123"]
    rounds = 5 if quick else 20
    t0 = time.perf_counter()
    for _ in range(rounds):
        for name in names:
            make_game(name, 0)
    wall_s = time.perf_counter() - t0
    return _row("games-construct", rounds * len(names), wall_s)


@register_bench("store-hit")
def _bench_store_hit(quick: bool) -> dict:
    """Result-store dedup: fresh simulation vs answering from the store.

    *Before* is the cold path — an empty store per round, so every round
    simulates the full grid and persists it. *After* is a pure result
    hit: the populated store answers ``get_or_run`` with the stored
    document and zero simulation work.
    """
    import os
    import shutil
    import tempfile

    from repro.experiments import ExperimentRunner, get_scenario
    from repro.store import ResultStore

    spec = get_scenario("chicken-mediator").replace(
        seed_count=4 if quick else 12
    )
    tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        cold = None
        round_no = [0]

        def run_cold():
            round_no[0] += 1
            nonlocal cold
            path = os.path.join(tmp, f"cold-{round_no[0]}.sqlite")
            with ResultStore(path) as fresh, ExperimentRunner() as runner:
                cold = fresh.get_or_run(spec, runner=runner)

        before_s = _timed(run_cold, 2)

        warm = None
        with ResultStore(os.path.join(tmp, "warm.sqlite")) as store:
            with ExperimentRunner(store=store) as runner:
                store.get_or_run(spec, runner=runner)  # populate

                def run_warm():
                    nonlocal warm
                    warm = store.get_or_run(spec, runner=runner)

                after_s = _timed(run_warm, 5)
            hits = store.counters()["result_hits"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert warm.hit, "populated store did not answer from the store"
    assert warm.result.records == cold.result.records, (
        "store-hit records diverged from a fresh simulation"
    )
    return _row(
        "store-hit", len(warm.result.records), after_s, before_s,
        result_hits=hits,
    )


@register_bench("audit-frontier")
def _bench_audit_frontier(quick: bool) -> dict:
    """(k, t) frontier sweep with one shared runner across cells."""
    from repro.audit import get_audit, run_frontier
    from repro.experiments import ExperimentRunner

    spec = get_audit("thm41-audit").replace(budget=4 if quick else 12)
    with ExperimentRunner() as runner:
        t0 = time.perf_counter()
        result = run_frontier(spec, runner=runner)
        wall_s = time.perf_counter() - t0
    return _row(
        "audit-frontier", result.evaluations(), wall_s,
        frontier_cells=len(result.cells),
    )


@register_bench("obs-overhead")
def _bench_obs_overhead(quick: bool) -> dict:
    """Telemetry cost: the same warm grid with metrics on vs ``REPRO_OBS=off``.

    *Before* runs with telemetry disabled (every metric mutation a no-op),
    *after* with the instrumented default — so ``speedup`` is the fraction
    of throughput telemetry leaves, and ``overhead_pct`` is what it takes.
    The record-equality assert doubles as the out-of-band proof: metrics
    on or off, the simulated records are identical.
    """
    from repro.experiments import ExperimentRunner, get_scenario
    from repro.obs.metrics import set_enabled

    spec = get_scenario("chicken-mediator").replace(
        seed_count=6 if quick else 24
    )
    rounds = 3
    with ExperimentRunner() as runner:
        on = runner.run(spec)  # warm the artifact caches first
        try:
            set_enabled(False)
            off = runner.run(spec)
            off_s = _timed(lambda: runner.run(spec), rounds)
        finally:
            set_enabled(None)  # back to the REPRO_OBS default
        on_s = _timed(lambda: runner.run(spec), rounds)
    assert on.records == off.records, "telemetry altered the run records"
    overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
    return _row(
        "obs-overhead", len(on.records), on_s, off_s,
        overhead_pct=round(overhead * 100, 2),
    )


@register_bench("net-sweep")
def _bench_net_sweep(quick: bool) -> dict:
    """Schedule cost: the fifo kernel vs ``runtime="net"`` latency order.

    *Before* is the fifo leg, *after* the same grid as ``runtime="net"``:
    the same kernel under a ``LatencyScheduler`` over seeded lognormal
    latency. ``speedup`` reads as the throughput a latency-ordered
    schedule keeps: heap upkeep and per-edge latency draws, plus the
    extra protocol traffic (ABA rounds) a less orderly schedule costs.
    The conformance assert doubles as invariant 9: both schedules give
    record-equivalent payoffs and outcomes.
    """
    from repro.experiments import ExperimentRunner, get_scenario
    from repro.net.conformance import conformance_diff

    seeds = 2 if quick else 6
    net_spec = get_scenario("netcheck-thm41").replace(
        deviations=("honest",), seed_count=seeds
    )
    sim_spec = net_spec.replace(runtime="sim", latency="zero")
    rounds = 2
    sim = net = None
    with ExperimentRunner() as runner:
        sim = runner.run(sim_spec)  # warm the artifact caches first
        before_s = _timed(lambda: runner.run(sim_spec), rounds)
        net = runner.run(net_spec)
        after_s = _timed(lambda: runner.run(net_spec), rounds)
    diffs = conformance_diff(sim.records, net.records)
    assert not diffs, f"net records diverged from the kernel: {diffs}"
    return _row(
        "net-sweep", len(net.records), after_s, before_s,
        latency=net_spec.latency,
    )


@register_bench("faults-overhead")
def _bench_faults_overhead(quick: bool) -> dict:
    """Fault-injection cost: the fault-free fast path vs an active plan.

    *Before* is the fault-free leg (``faults="none"`` normalizes to no
    injector at all — the hook-free fast path), *after* the same grid
    under ``drop-0.1+dup-0.05``, so ``speedup`` reads as the fraction of
    fault-free throughput that per-send fate draws leave. Both legs are
    run twice and asserted byte-identical first: chaos stays a pure
    function of ``(spec, seed)``.
    """
    from repro.experiments import ExperimentRunner, get_scenario

    seeds = 2 if quick else 8
    plan = "drop-0.1+dup-0.05"
    base_spec = get_scenario("faultcheck-thm41").replace(
        seed_count=seeds, faults=("none",)
    )
    fault_spec = base_spec.replace(faults=(plan,))
    rounds = 3
    with ExperimentRunner() as runner:
        base = runner.run(base_spec)  # warm the artifact caches
        assert base.records == runner.run(base_spec).records
        faulted = runner.run(fault_spec)
        assert faulted.records == runner.run(fault_spec).records
        before_s = _timed(lambda: runner.run(base_spec), rounds)
        after_s = _timed(lambda: runner.run(fault_spec), rounds)
    return _row(
        "faults-overhead", len(faulted.records), after_s, before_s,
        plan=plan,
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def run_suite(
    names: Optional[list[str]] = None,
    quick: bool = True,
) -> dict:
    """Run the (selected) benches; return the ``bench_suite.json`` document."""
    selected = names or bench_names()
    unknown = sorted(set(selected) - set(BENCH_REGISTRY))
    if unknown:
        raise ExperimentError(
            f"unknown bench(es): {', '.join(unknown)}; "
            f"known: {', '.join(bench_names())}"
        )
    rows = []
    t0 = time.perf_counter()
    for name in selected:
        rows.append(BENCH_REGISTRY[name](quick))
    total_s = time.perf_counter() - t0
    speedups = [row["speedup"] for row in rows if "speedup" in row]
    geomean = 1.0
    if speedups:
        product = 1.0
        for value in speedups:
            product *= max(value, 1e-9)
        geomean = product ** (1.0 / len(speedups))
    return {
        "suite": "repro-bench",
        "version": SUITE_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "benches": rows,
        "totals": {
            "wall_s": round(total_s, 3),
            "benches": len(rows),
            "speedup_geomean": round(geomean, 3),
        },
    }


def compare_to_baseline(
    suite: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Soft-warn regression check: cells/sec vs a committed baseline.

    Returns warning strings (empty: no regression). Missing benches on
    either side are skipped — adding or retiring a bench is not a
    regression. Throughput *above* baseline is silently fine.
    """
    base_rows = {
        row.get("name"): row for row in baseline.get("benches", [])
    }
    warnings = []
    for row in suite.get("benches", []):
        base = base_rows.get(row["name"])
        if base is None:
            continue
        base_rate = base.get("cells_per_s") or 0.0
        rate = row.get("cells_per_s") or 0.0
        if base_rate <= 0:
            continue
        if rate < base_rate * (1.0 - tolerance):
            warnings.append(
                f"{row['name']}: {rate:.1f} cells/s is "
                f"{(1 - rate / base_rate) * 100:.0f}% below the baseline "
                f"{base_rate:.1f} cells/s (tolerance {tolerance * 100:.0f}%)"
            )
    return warnings


def load_suite(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ExperimentError(
            f"cannot read bench suite {path!r}: {exc}"
        ) from None
