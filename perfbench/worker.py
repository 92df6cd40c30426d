"""One workload in one fresh interpreter; prints one JSON line when done.

Started by ``run.py`` with ``PYTHONPATH=src`` and a fixed
``PYTHONHASHSEED``. Modes:

* ``setup``   — import ``repro``, build the workload, run its warm-up
  pass, report the set-up time and exit;
* ``measure`` — set up, then run timed passes closed loop for
  ``--seconds``, check every output, report end-to-end metrics;
* ``trace``   — set up, then alternate untraced and traced timed passes
  for ``--seconds`` (at least one pair), report per-layer metrics and
  write the trace file.

Set-up time runs from the moment the parent started this process
(``PERFBENCH_SPAWN``, a ``time.monotonic()`` reading) to the end of the
warm-up pass, so it covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from cells import CellLog
from checks import Checker, check_same_records


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _first_seed(entries) -> tuple:
    """The records a pass produced at each grid's first seed, in order."""
    return tuple(record for _, spec, task, record in entries
                 if task.seed == spec.seed_start)


class Passes:
    """Runs a workload's passes, logging each simulated cell and checking it."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.log = CellLog()

    def run(self, workload, label: str, expected=None):
        """``(wall seconds, Pass, cell entries)``; records checked against
        ``expected`` when given."""
        t0 = time.perf_counter()
        done = workload.run_pass(self.checker)
        wall = time.perf_counter() - t0
        entries = self.log.take()
        records = tuple(entry[3] for entry in entries)
        self.checker.cells(records)
        if expected is not None:
            check_same_records(self.checker, label, expected, records)
        return wall, done, entries


def _check_cold(checker: Checker, entries) -> None:
    """One seed per scenario: warm records equal a cold runner's."""
    from repro.experiments.runner import ExperimentRunner

    by_spec: dict = {}
    for _, spec, task, record in entries:
        if task.seed == spec.seed_start:
            by_spec.setdefault(spec, {})[task.index] = record
    with ExperimentRunner(cache_size=0) as cold:
        for spec, cells in by_spec.items():
            fresh = cold.run(spec.replace(seed_count=1)).records
            warm = [record for _, record in sorted(cells.items())]
            check_same_records(checker, f"cold runner {spec.name}", warm, fresh)


def measure(passes: Passes, timed, warmup_entries, seconds: float) -> dict:
    """Timed passes closed loop, the output checks, end-to-end metrics."""
    checker = passes.checker
    samples, cell_ms = [], []

    def timed_pass(label, expected):
        # Keep a summary per pass, so no records pile up in memory.
        wall, done, entries = passes.run(timed, label, expected)
        cell_ms.extend(entry[0] * 1000.0 for entry in entries)
        cells = len(entries) if done.cells is None else done.cells
        msgs = sum(entry[3].messages_delivered for entry in entries)
        samples.append((wall, done, cells, msgs))
        return entries

    entries = timed_pass("timed pass 1", None)
    expected = tuple(entry[3] for entry in entries)
    check_same_records(checker, "timed pass 1 at the warm-up seeds",
                       _first_seed(warmup_entries), _first_seed(entries))
    del entries
    # At least two timed passes, so one can be checked against the other;
    # after that, no pass starts that would end past ``seconds``.
    start = time.perf_counter() - samples[0][0]
    while (len(samples) < 2
           or time.perf_counter() - start + samples[-1][0] <= seconds):
        timed_pass(f"timed pass {len(samples) + 1}", expected)
    _check_cold(checker, warmup_entries)
    if hasattr(timed, "final_checks"):
        timed.final_checks(checker)

    def rate(count):
        return _median([count(*sample) / sample[0] for sample in samples])

    result = dict(
        cells_per_s=rate(lambda wall, done, cells, msgs: cells),
        msgs_per_s=rate(lambda wall, done, cells, msgs: msgs),
        cell_p50_ms=_median(cell_ms),
        cell_p90_ms=_p90(cell_ms),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        passes=len(samples),
        cell_samples=len(cell_ms),
        notes=samples[0][1].notes,
    )
    if samples[0][1].evaluations:
        result["evals_per_s"] = rate(
            lambda wall, done, cells, msgs: done.evaluations
        )
    hit_ms = [s * 1000.0 for _, done, _, _ in samples for s in done.hit_seconds]
    if hit_ms:
        result.update(hit_p50_ms=_median(hit_ms), hit_p90_ms=_p90(hit_ms),
                      hit_samples=len(hit_ms))
    return result


def trace(passes: Passes, timed, seconds: float, path: str,
          header: dict) -> dict:
    """Untraced/traced pass pairs, per-layer metrics, the trace file."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer(passes.checker)
    ratios, traced_s, evaluations, store_counters = [], 0.0, 0, {}
    expected = notes = None
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        plain_wall, plain, entries = passes.run(timed, "untraced pass",
                                                expected)
        expected = tuple(entry[3] for entry in entries)
        notes = plain.notes if notes is None else notes
        tracer.install()
        try:
            wall, done, _ = passes.run(timed, "traced vs untraced pass",
                                       expected)
        finally:
            tracer.uninstall()
        ratios.append(wall / plain_wall)
        traced_s += wall
        evaluations += done.evaluations
        for key, value in done.store_counters.items():
            store_counters[key] = store_counters.get(key, 0) + value
    metrics = layer_metrics(tracer, evaluations, store_counters, traced_s,
                            _median(ratios))
    tracer.write(path, header)
    return dict(
        layers={name: value for name, (value, _) in metrics.items()},
        not_applicable={name: why for name, (_, why) in metrics.items() if why},
        traced_cells=tracer.cells,
        trace_pairs=len(ratios),
        trace_file=path,
        notes=notes,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spawn = float(os.environ["PERFBENCH_SPAWN"])

    from repro.experiments.runner import ExperimentRunner
    from workloads import SEED_SCALE, WORKLOADS

    checker = Checker()
    runner = ExperimentRunner()
    build = WORKLOADS[args.workload]
    scale = SEED_SCALE[args.workload]
    warmup = build(args.seed, runner, args.out, lambda count: 1)
    timed = build(args.seed, runner, args.out, lambda count: count * scale)
    passes = Passes(checker)
    _, _, warmup_entries = passes.run(warmup, "warm-up")
    result: dict = {"setup_s": time.monotonic() - spawn}
    if args.mode == "measure":
        result.update(measure(passes, timed, warmup_entries, args.seconds))
    elif args.mode == "trace":
        path = os.path.join(args.out, f"trace-{args.workload}.bin")
        result.update(trace(passes, timed, args.seconds, path,
                            {"workload": args.workload, "seed": args.seed}))
    passes.log.close()
    result.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
