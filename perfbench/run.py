"""The repository benchmark: one command, four workloads, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload cheaptalk --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``BENCHMARK.json`` lists both sets with units.
Each workload runs in fresh interpreters (``perfbench/worker.py``) with a
fixed ``PYTHONHASHSEED``, one process at a time, no pool and no sockets.
Set-up time is the median of three fresh starts. The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Human-readable lines above it give sample counts, ``failed_frac``, the
workload-only metrics and the reason any per-layer metric does not apply.
Exits non-zero, printing no result, if the program or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("cheaptalk", "audit", "chaos", "store")
SETUP_STARTS = 3
WORKER_TIMEOUT_S = 150
HASH_SEED = "0"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _worker(workload: str, seed: int, seconds: float, mode: str,
            timeout_s: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode, "--out", OUT]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout_s)
    if done.returncode != 0:
        raise RuntimeError(
            f"{mode} worker exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail("no src/repro here; run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()

    def budget() -> float:
        return max(10.0, WORKER_TIMEOUT_S - (time.monotonic() - started))

    try:
        if args.trace:
            run = _worker(args.workload, args.seed, args.seconds, "trace",
                          budget())
            declared = _declared("per_layer")
            values = run["layers"]
        else:
            setups = [
                _worker(args.workload, args.seed, args.seconds, "setup",
                        budget())["setup_s"]
                for _ in range(SETUP_STARTS - 1)
            ]
            run = _worker(args.workload, args.seed, args.seconds, "measure",
                          budget())
            setups.append(run["setup_s"])
            run["setup_s"] = statistics.median(setups)
            declared = _declared("end_to_end")
            values = run
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        return _fail(str(exc))

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return _fail(f"no value for declared metric(s): {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, metric in metrics.items():
        why = run.get("not_applicable", {}).get(name)
        note = f"  (n/a: {why})" if why else ""
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{note}")
    for name in ("evals_per_s", "hit_p50_ms", "hit_p90_ms", "cell_samples",
                 "hit_samples", "passes", "trace_pairs", "traced_cells",
                 "trace_file"):
        if name in run:
            print(f"  {name:34s} {run[name]}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} cells and checks)")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")
    for note in run["notes"]:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
