"""Grid expansion and the compile-once/run-many experiment runner.

:func:`expand_grid` turns a :class:`ScenarioSpec` into concrete
:class:`RunTask` cells. Cell execution is split into two phases:

* a *prepare phase* (:func:`repro.experiments.cache.prepare_cell`) — game
  construction, protocol/mediator compilation, deviation-profile
  resolution — keyed by a frozen
  :class:`~repro.experiments.cache.CellKey` and memoized in a bounded
  per-process :class:`~repro.experiments.cache.ArtifactCache`;
* a cheap *run phase* — one seeded simulation plus payoff computation.

A task still needs nothing but the picklable spec — workers rebuild (or
cache-hit) the same deterministic objects from the same names and seeds, so
parallel and serial sweeps, and warm- and cold-cache sweeps, produce
identical records.

:class:`ExperimentRunner` owns a *persistent* worker pool: it is created
lazily on the first parallel ``run()``, reused across ``run()`` calls (each
worker keeps its own warm artifact cache between grids), and torn down by
:meth:`ExperimentRunner.close` / the context-manager exit. Grids are
dispatched with chunked ``imap_unordered`` and re-ordered by task index,
so records stay byte-identical to serial whatever the completion order.

Per-run timeouts use ``SIGALRM`` (available in workers and in the serial
main thread on POSIX); a run that exceeds the budget yields a
``timed_out`` record instead of poisoning the sweep. Any other exception
is likewise captured into the record's ``error`` field.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.cache import (
    DEFAULT_CACHE_SIZE,
    ArtifactCache,
    prepare_cell,
)
from repro.experiments.results import ExperimentResult, RunRecord
from repro.experiments.schedulers import scheduler_from_name
from repro.experiments.spec import ScenarioSpec
from repro.obs.metrics import registry as obs_registry
from repro.obs.tracing import (
    Tracer,
    activate,
    current_tracer,
    deactivate,
    span as obs_span,
)
from repro.sim.timing import timing_from_name


@dataclass(frozen=True)
class RunTask:
    """One cell of a scenario grid."""

    scheduler: str
    deviation: str
    seed: int
    index: int
    profile_index: Optional[int] = None
    timing: str = "async"
    game: str = ""
    """The game-axis entry this cell runs (empty: the spec's ``game``)."""

    runtime: str = "sim"
    latency: str = "zero"
    """Which substrate executes the cell and, for net runtimes, under
    which latency model — copied from the spec so pool workers and store
    fingerprints see the axes without re-reading the spec."""

    faults: str = "none"
    """The fault plan injected into this cell, by
    :func:`repro.faults.plan.fault_from_name` name (``"none"`` fault-free)."""


def expand_grid(spec: ScenarioSpec) -> tuple[RunTask, ...]:
    """Expand a spec into its ordered run tasks (games axis outermost)."""
    if spec.theorem == "raw-game":
        if len(spec.schedulers) > 1 or tuple(spec.deviations) != ("honest",):
            raise ExperimentError(
                "raw-game scenarios evaluate the payoff matrix directly; "
                "schedulers and deviations do not apply (leave the defaults)"
            )
        if tuple(spec.timings) != ("async",):
            raise ExperimentError(
                "raw-game scenarios evaluate the payoff matrix directly; "
                "a timing grid does not apply (leave the default)"
            )
        return tuple(
            RunTask("none", "honest", spec.seed_start, i, profile_index=i,
                    timing="none", game=spec.game)
            for i in range(len(spec.action_profiles))
        )
    if spec.theorem == "r1":
        if tuple(spec.deviations) != ("honest",):
            raise ExperimentError(
                "r1 scenarios support only the 'honest' deviation profile"
            )
        if len(spec.schedulers) > 1:
            raise ExperimentError(
                "r1 runs are synchronous (lock-step rounds); a scheduler "
                "grid does not apply — leave the default single entry"
            )
        if tuple(spec.timings) != ("async",):
            raise ExperimentError(
                "r1 runs are synchronous by construction; a timing grid "
                "does not apply — leave the default single entry"
            )
        return tuple(
            RunTask("sync", "honest", seed, i * len(spec.seeds) + j,
                    timing="lockstep", game=game)
            for i, game in enumerate(spec.game_axis)
            for j, seed in enumerate(spec.seeds)
        )
    tasks = []
    index = 0
    for game in spec.game_axis:
        for timing in spec.timings:
            for scheduler in spec.schedulers:
                for deviation in spec.deviations:
                    for faults in spec.faults:
                        for seed in spec.seeds:
                            tasks.append(
                                RunTask(scheduler, deviation, seed, index,
                                        timing=timing, game=game,
                                        runtime=spec.runtime,
                                        latency=spec.latency,
                                        faults=faults)
                            )
                            index += 1
    return tuple(tasks)


# -- per-run timeout ---------------------------------------------------------

class _RunTimeout(Exception):
    pass


@contextmanager
def _time_limit(seconds: Optional[float]):
    requested = seconds is not None and seconds > 0
    usable = (
        requested
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        if requested:
            warnings.warn(
                "per-run timeout requested but SIGALRM is unavailable "
                "(non-POSIX platform or non-main thread); running without "
                "a time limit",
                RuntimeWarning,
                stacklevel=3,
            )
        yield
        return

    def _handler(signum, frame):
        raise _RunTimeout()

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- single-cell execution ---------------------------------------------------

def _json_safe(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def _serialize_trace(trace) -> tuple:
    """Flatten a Trace into JSON-safe per-event tuples for RunRecord."""
    return tuple(
        (e.step, e.kind, e.pid, e.sender, e.recipient, e.uid,
         _json_safe(e.payload))
        for e in trace.events
    )


def _execute(
    spec: ScenarioSpec,
    task: RunTask,
    start: float,
    cache: Optional[ArtifactCache] = None,
) -> RunRecord:
    """One grid cell: cached prepare phase, then the per-seed run phase.

    ``start`` is the cell's ``perf_counter`` start; the record's
    ``duration_s`` is measured from it when the record is built.
    """
    with obs_span("prepare"):
        prepared = prepare_cell(spec, task, cache)
    game_spec = prepared.game_spec
    types = prepared.types

    base = dict(
        scenario=spec.name,
        theorem=spec.theorem,
        game=prepared.key.game,
        timing=task.timing,
        scheduler=task.scheduler,
        deviation=task.deviation,
        seed=task.seed,
        runtime=task.runtime,
        latency=task.latency,
        faults=task.faults,
        types=types,
    )

    if spec.theorem == "raw-game":
        actions = spec.action_profiles[task.profile_index]
        with obs_span("payoff"):
            payoffs = tuple(
                float(u) for u in game_spec.game.utility(types, actions)
            )
        return RunRecord(
            actions=tuple(actions),
            payoffs=payoffs,
            agreed=len(set(actions)) == 1,
            duration_s=time.perf_counter() - start,
            **base,
        )

    if spec.theorem == "r1":
        with obs_span("run"):
            actions, result = prepared.game.run(types, seed=task.seed)
        with obs_span("payoff"):
            payoffs = tuple(
                float(u) for u in game_spec.game.utility(types, actions)
            )
        return RunRecord(
            actions=tuple(actions),
            payoffs=payoffs,
            agreed=len(set(actions)) == 1,
            messages_sent=result.messages_sent,
            messages_delivered=result.messages_sent,
            steps=result.rounds,
            duration_s=time.perf_counter() - start,
            **base,
        )

    # Size-aware schedulers follow the game actually being run, which a
    # games-axis entry (or a file:/family name) may size differently from
    # the spec's nominal ``n``. Scheduler and timing instances are cached
    # per (name, size): ``Runtime.run`` resets both with the run seed
    # before every run, which is their documented per-run contract.
    n = game_spec.game.n
    if cache is not None:
        scheduler = cache.get(
            ("scheduler", task.scheduler, n),
            lambda: scheduler_from_name(task.scheduler, n),
        )
        timing = cache.get(
            ("timing", task.timing), lambda: timing_from_name(task.timing)
        )
    else:
        scheduler = scheduler_from_name(task.scheduler, n)
        timing = timing_from_name(task.timing)
    run_kwargs = {}
    if spec.step_limit is not None:
        run_kwargs["step_limit"] = spec.step_limit

    # Trace events are only consumed when the spec captures payloads;
    # otherwise skip recording them — counters come from the network and
    # the records stay byte-identical.
    with obs_span("run"):
        run = prepared.game.run(
            types, scheduler, seed=task.seed,
            deviations=prepared.deviations or None,
            timing=timing, record_payloads=spec.record_payloads,
            record_trace=spec.record_payloads,
            runtime=task.runtime, latency=task.latency,
            faults=task.faults,
            **run_kwargs,
        )
    with obs_span("payoff"):
        payoffs = tuple(
            float(u) for u in game_spec.game.utility(types, run.actions)
        )
    result = run.result
    return RunRecord(
        actions=tuple(run.actions),
        payoffs=payoffs,
        agreed=len(set(run.actions)) == 1,
        messages_sent=result.messages_sent,
        messages_delivered=result.messages_delivered,
        messages_dropped=result.messages_dropped,
        steps=result.steps,
        deadlocked=result.deadlocked,
        trace=(
            _serialize_trace(result.trace) if spec.record_payloads else ()
        ),
        duration_s=time.perf_counter() - start,
        **base,
    )


def execute_task(
    spec: ScenarioSpec,
    task: RunTask,
    timeout_s: Optional[float] = None,
    cache: Optional[ArtifactCache] = None,
) -> RunRecord:
    """Run one grid cell, converting failures into error records."""
    limit = timeout_s if timeout_s is not None else spec.timeout_s
    start = time.perf_counter()
    try:
        with obs_span(
            "cell",
            scenario=spec.name,
            game=task.game or spec.game,
            timing=task.timing,
            scheduler=task.scheduler,
            deviation=task.deviation,
            seed=task.seed,
            runtime=task.runtime,
        ), _time_limit(limit):
            return _execute(spec, task, start, cache=cache)
    except _RunTimeout:
        return _error_record(
            spec, task, start, f"timed out after {limit}s", timed_out=True
        )
    except ExperimentError:
        raise  # spec-level problems should fail the sweep loudly
    except Exception as exc:  # noqa: BLE001 — capture per-run failures
        return _error_record(spec, task, start, f"{type(exc).__name__}: {exc}")


def _error_record(
    spec: ScenarioSpec,
    task: RunTask,
    start: float,
    error: str,
    timed_out: bool = False,
) -> RunRecord:
    return RunRecord(
        scenario=spec.name,
        theorem=spec.theorem,
        game=task.game or spec.game,
        timing=task.timing,
        scheduler=task.scheduler,
        deviation=task.deviation,
        seed=task.seed,
        runtime=task.runtime,
        latency=task.latency,
        faults=task.faults,
        error=error,
        timed_out=timed_out,
        duration_s=time.perf_counter() - start,
    )


# -- worker-side state -------------------------------------------------------

_WORKER_CACHE: Optional[ArtifactCache] = None
"""The per-worker artifact cache; persists across tasks *and* across
``run()`` calls because the pool itself persists."""

_WORKER_TRACER: Optional[Tracer] = None
"""Lazily created per-worker span buffer: the worker records cell spans
into its own tracer and drains them into the (picklable) result payload,
so the parent can merge them in task-index order — trace structure stays
deterministic no matter which worker finishes first."""


def _init_worker(cache_size: int) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = ArtifactCache(maxsize=cache_size)


def _worker_tracer() -> Tracer:
    global _WORKER_TRACER
    if _WORKER_TRACER is None:
        _WORKER_TRACER = Tracer()
    return _WORKER_TRACER


def _pool_worker(payload):
    spec, task, timeout_s, trace = payload
    cache = _WORKER_CACHE
    before = (cache.hits, cache.misses) if cache is not None else (0, 0)
    spans: tuple = ()
    if trace:
        tracer = _worker_tracer()
        activate(tracer)
    try:
        record = execute_task(spec, task, timeout_s=timeout_s, cache=cache)
    finally:
        if trace:
            deactivate()
    if trace:
        spans = tuple(tracer.drain())
    after = (cache.hits, cache.misses) if cache is not None else (0, 0)
    hits, misses = after[0] - before[0], after[1] - before[1]
    return task.index, record, hits, misses, spans


# -- the runner --------------------------------------------------------------

class ExperimentRunner:
    """Expand a scenario grid and run it, optionally over processes.

    ``parallel=True`` fans the grid out over a persistent
    ``multiprocessing`` pool (the runs are pure Python and
    seed-deterministic, so this is an embarrassingly parallel speedup);
    serial execution is both the fallback and the reference semantics —
    the two produce identical records for identical specs.

    The runner owns warm state worth reusing: a per-runner
    :class:`~repro.experiments.cache.ArtifactCache` for serial runs, and
    the worker pool (each worker carrying its own cache) for parallel
    ones. Use the runner as a context manager — or call :meth:`close` —
    when a parallel runner's lifetime matters; serial runners hold no
    external resources. ``cache_size=0`` disables artifact caching (the
    cold reference path).
    """

    def __init__(
        self,
        parallel: bool = False,
        processes: Optional[int] = None,
        timeout_s: Optional[float] = None,
        cache_size: Optional[int] = None,
        store=None,
    ) -> None:
        if processes is not None and processes < 1:
            raise ExperimentError("processes must be >= 1")
        if cache_size is None:
            cache_size = DEFAULT_CACHE_SIZE
        if cache_size < 0:
            raise ExperimentError("cache_size must be >= 0")
        self.parallel = parallel
        self.processes = processes
        self.timeout_s = timeout_s
        self.cache_size = cache_size
        self.store = store
        """Optional :class:`repro.store.ResultStore`: cells already in the
        store are answered from it instead of being simulated, and fresh
        ``ok`` records are written back *as each cell completes* — so a
        process killed mid-grid keeps every finished cell, and the retry
        only simulates the remainder. The store stays in this process —
        workers never see it."""
        self._cache = ArtifactCache(maxsize=cache_size)
        self._pool = None
        self._pool_size = 0
        self._pool_broken = False

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self, processes: int):
        """The persistent pool, recreated only when it needs to *grow*.

        A pool larger than the grid is harmless (idle workers), so a
        smaller request reuses the existing pool and keeps its warm
        caches; only a larger request pays the teardown + refork.
        """
        if self._pool is not None and self._pool_size < processes:
            self._teardown_pool()
        if self._pool is None:
            # Imported here, its only use: a serial run never loads it.
            import multiprocessing

            ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(
                processes,
                initializer=_init_worker,
                initargs=(self.cache_size,),
            )
            self._pool_size = processes
        return self._pool

    def _teardown_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pool_size = 0
        if pool is not None:
            pool.terminate()
            pool.join()

    def close(self) -> None:
        """Tear down the persistent worker pool (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC-timing dependent
        try:
            self._teardown_pool()
        except Exception:
            pass

    # -- running -------------------------------------------------------------

    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        store=None,
    ) -> ExperimentResult:
        """Run one scenario grid.

        With a store (the ``store`` argument, falling back to the
        runner's own), each cell is fingerprinted first: cells the store
        already holds are answered from it — placed at their grid index,
        never simulated — and only the missing subset is executed. Fresh
        ``ok`` records are written back as each cell completes (a killed
        process keeps its finished cells), and ``stats["store"]`` reports
        the hit/miss split. Hit or miss, the assembled records are
        identical to a storeless run of the same spec (wall-clock fields
        aside).

        Telemetry: each ``run()`` opens a ``scenario`` span on the active
        tracer (if any) and feeds the process-global metrics registry from
        the same numbers that land in ``stats`` — strictly out-of-band, so
        records are byte-identical with telemetry on or off.
        """
        if isinstance(scenario, str):
            from repro.experiments.registry import get_scenario

            spec = get_scenario(scenario)
        else:
            spec = scenario
        tasks = expand_grid(spec)
        with obs_span(
            "scenario", scenario=spec.name, cells=len(tasks)
        ) as scenario_span:
            trace_root = (
                scenario_span.span_id if scenario_span is not None else None
            )
            result = self._run_grid(
                spec, tasks, store, trace_root=trace_root
            )
        self._record_metrics(spec, result)
        return result

    def _run_grid(
        self,
        spec: ScenarioSpec,
        tasks: Sequence[RunTask],
        store=None,
        trace_root: Optional[int] = None,
    ) -> ExperimentResult:
        active_store = store if store is not None else self.store
        records: list[Optional[RunRecord]] = [None] * len(tasks)
        fingerprints: dict[int, str] = {}
        run_tasks: Sequence[RunTask] = tasks
        flushed = [0]
        on_record = None
        if active_store is not None:
            # Lazy import: repro.store imports this module at package
            # import time, so the reverse edge must not run at load.
            from repro.store.fingerprint import game_stamps, run_fingerprint

            stamps = game_stamps(spec)
            fingerprints = {
                task.index: run_fingerprint(spec, task, stamps)
                for task in tasks
            }
            stored = active_store.fetch_records(fingerprints.values())
            missing = []
            for task in tasks:
                hit = stored.get(fingerprints[task.index])
                if hit is not None:
                    records[task.index] = hit
                else:
                    missing.append(task)
            run_tasks = tuple(missing)

            def on_record(index: int, record: RunRecord) -> None:
                # Flush each fresh ok record the moment it exists: a
                # SIGKILL mid-grid then loses only the in-flight cells,
                # and a rerun on the same store dedups the rest.
                if record.ok:
                    flushed[0] += active_store.put_records(
                        [(fingerprints[index], record)]
                    )

        hit_count = len(tasks) - len(run_tasks)
        processes = self.processes
        if processes is None:
            processes = os.cpu_count() or 1
            if self.parallel:
                processes = max(2, processes)
        use_parallel = (
            self.parallel and len(run_tasks) > 1 and processes > 1
            and not self._pool_broken
        )
        pool_reused = use_parallel and self._pool is not None
        start = time.perf_counter()
        stats: dict = {}
        if use_parallel:
            try:
                records, stats = self._run_parallel(
                    spec, run_tasks, processes, records=records,
                    trace_root=trace_root, on_record=on_record,
                )
            except (OSError, PermissionError):
                # Sandboxes without working process pools: fall back for
                # good — retrying every run() would pay the failed-fork
                # cost each time.
                self._pool_broken = True
                self._teardown_pool()
                use_parallel = False
                pool_reused = False
        if not use_parallel:
            records, stats = self._run_serial(
                spec, run_tasks, records=records, on_record=on_record,
            )
        elapsed = time.perf_counter() - start
        if active_store is not None:
            stats["store"] = {
                "hits": hit_count,
                "misses": len(run_tasks),
                "stored": flushed[0],
            }
        stats["pool"] = {
            "used": use_parallel,
            "processes": self._pool_size if use_parallel else 1,
            "reused": pool_reused,
        }
        return ExperimentResult(
            spec=spec,
            records=tuple(records),
            elapsed_s=elapsed,
            parallel=use_parallel,
            stats=stats,
        )

    @staticmethod
    def _record_metrics(spec: ScenarioSpec, result: ExperimentResult) -> None:
        """Feed the global registry from the run's ``stats`` numbers.

        The registry is the cross-run view of the same telemetry that
        ``stats`` reports per result — callers of the PR 5 ``stats`` dict
        see exactly what they always did.
        """
        metrics = obs_registry()
        metrics.counter(
            "repro_runner_runs_total", "ExperimentRunner.run() calls"
        ).inc(scenario=spec.name)
        metrics.counter(
            "repro_runner_cells_total",
            "grid cells produced (store hits included)",
        ).inc(len(result.records), scenario=spec.name)
        metrics.histogram(
            "repro_runner_run_seconds", "wall-clock time per run() call"
        ).observe(result.elapsed_s)
        cache = result.stats.get("cache", {})
        metrics.counter(
            "repro_runner_cache_hits_total", "artifact-cache hits"
        ).inc(cache.get("hits", 0))
        metrics.counter(
            "repro_runner_cache_misses_total", "artifact-cache misses"
        ).inc(cache.get("misses", 0))
        pool = result.stats.get("pool", {})
        metrics.counter(
            "repro_runner_mode_total", "run() calls by execution mode"
        ).inc(mode="parallel" if pool.get("used") else "serial")

    def _run_serial(
        self,
        spec: ScenarioSpec,
        tasks: Sequence[RunTask],
        records: Optional[list] = None,
        on_record: Optional[Callable[[int, RunRecord], None]] = None,
    ) -> tuple[list[RunRecord], dict]:
        """Execute ``tasks``, placing each record at its grid index.

        ``records`` lets a store-aware ``run()`` hand in a grid-sized list
        pre-filled with store hits: the subset executed here still lands
        at ``task.index``. ``on_record`` fires once per freshly executed
        cell (the store's incremental flush hook).
        """
        if records is None:
            records = [None] * len(tasks)
        before = (self._cache.hits, self._cache.misses)
        for task in tasks:
            record = execute_task(
                spec, task, self.timeout_s, cache=self._cache
            )
            records[task.index] = record
            if on_record is not None:
                on_record(task.index, record)
        stats = {
            "cache": {
                "hits": self._cache.hits - before[0],
                "misses": self._cache.misses - before[1],
                "entries": len(self._cache),
            },
        }
        return records, stats

    def _run_parallel(
        self,
        spec: ScenarioSpec,
        tasks: Sequence[RunTask],
        processes: int,
        records: Optional[list] = None,
        trace_root: Optional[int] = None,
        on_record: Optional[Callable[[int, RunRecord], None]] = None,
    ) -> tuple[list[RunRecord], dict]:
        # Never fork more workers than the grid has cells (but at least 2
        # — a 1-worker "pool" is just slower serial).
        pool = self._ensure_pool(max(2, min(processes, len(tasks))))
        tracer = current_tracer()
        trace = tracer is not None
        payloads = [(spec, task, self.timeout_s, trace) for task in tasks]
        # Chunking amortizes IPC without starving workers at the tail;
        # order is restored from task indices afterwards, so records are
        # byte-identical to serial whatever the completion order.
        chunksize = max(1, min(16, len(tasks) // (processes * 4) or 1))
        if records is None:
            records = [None] * len(tasks)
        hits = misses = 0
        span_buffers: dict[int, tuple] = {}
        for index, record, cell_hits, cell_misses, cell_spans in (
            pool.imap_unordered(_pool_worker, payloads, chunksize=chunksize)
        ):
            records[index] = record
            if on_record is not None:
                on_record(index, record)
            hits += cell_hits
            misses += cell_misses
            if cell_spans:
                span_buffers[index] = cell_spans
        if trace:
            # Merge in task-index order, not completion order: span ids
            # are remapped on merge, so the assembled trace structure is
            # deterministic no matter which worker finished first.
            for index in sorted(span_buffers):
                tracer.merge(list(span_buffers[index]), root_id=trace_root)
        stats = {
            "cache": {"hits": hits, "misses": misses},
            "chunksize": chunksize,
        }
        return records, stats


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    parallel: bool = False,
    processes: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> ExperimentResult:
    """One-call convenience wrapper around :class:`ExperimentRunner`."""
    with ExperimentRunner(
        parallel=parallel, processes=processes, timeout_s=timeout_s
    ) as runner:
        return runner.run(scenario)
