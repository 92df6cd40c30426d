"""Conformance oracle: net runs must agree with the simulated kernel.

This reuses the record-diff methodology from the refactor-verification
workflow (CONTRIBUTING, "Verifying a refactor is behavior-preserving") as
a *runtime equivalence* check: same game, same seed, same protocol ⇒ same
payoffs and same quiesce taxonomy, whether the schedule came from the
spec's scheduler, from seeded latency draws, or from real sockets.

Two strengths of claim, matching the two net runtimes:

* seeded latency (``runtime="net"``, the kernel under a
  ``LatencyScheduler``): every run is deterministic, so repeat runs must
  be *fully* byte-identical, and against the spec's scheduler the
  order-independent projection below must match on every seed;
* TCP (``runtime="net-tcp"``): arrival order is real-world, so only the
  projection is comparable (the "relaxed timing fields" contract).

The projection deliberately drops the schedule-dependent fields — message
counters, step counts, traces, scheduler/timing/runtime/latency labels,
and wall-clock durations — and keeps exactly what the paper's theorems
speak about: who played what, what it paid, and how the run ended.
"""

from __future__ import annotations

CONFORMANCE_FIELDS = (
    "scenario",
    "theorem",
    "game",
    "deviation",
    "seed",
    "types",
    "actions",
    "payoffs",
    "agreed",
    "deadlocked",
    "error",
    "timed_out",
)
"""Order-independent RunRecord fields: outcome, not schedule."""

_PAIR_KEY = ("game", "deviation", "seed", "types")


def conformance_view(record) -> dict:
    """The order-independent projection of one RunRecord."""
    return {name: getattr(record, name) for name in CONFORMANCE_FIELDS}


def conformance_diff(sim_records, net_records) -> list[str]:
    """Human-readable mismatches between two record lists (empty == pass).

    Records are paired by ``(game, deviation, seed, types)`` after
    sorting, so the two legs may disagree on axis labels (scheduler vs.
    latency) but must cover the same cells.
    """

    def keyed(records):
        return sorted(
            records,
            key=lambda r: tuple(repr(getattr(r, k)) for k in _PAIR_KEY),
        )

    sim_sorted, net_sorted = keyed(sim_records), keyed(net_records)
    if len(sim_sorted) != len(net_sorted):
        return [
            f"record count mismatch: sim leg has {len(sim_sorted)}, "
            f"net leg has {len(net_sorted)}"
        ]
    diffs = []
    for sim_rec, net_rec in zip(sim_sorted, net_sorted):
        sim_view, net_view = (
            conformance_view(sim_rec), conformance_view(net_rec),
        )
        for name in CONFORMANCE_FIELDS:
            if sim_view[name] != net_view[name]:
                diffs.append(
                    f"{sim_rec.game}/{sim_rec.deviation}/seed={sim_rec.seed}: "
                    f"{name} sim={sim_view[name]!r} net={net_view[name]!r}"
                )
    return diffs


def check_conformance(spec, **runner_kwargs) -> dict:
    """Run a net spec and its simulated twin; report the projection diff.

    ``spec`` should carry ``runtime="net"`` (or ``"net-tcp"``); the sim
    leg is the same spec with ``runtime="sim", latency="zero"``. Returns
    ``{"ok", "diffs", "sim", "net"}`` with both ExperimentResults so
    callers can make stronger (byte-level) assertions when the transport
    is deterministic.
    """
    from repro.experiments.runner import ExperimentRunner

    with ExperimentRunner(**runner_kwargs) as runner:
        net_result = runner.run(spec)
        sim_result = runner.run(spec.replace(runtime="sim", latency="zero"))
    diffs = conformance_diff(sim_result.records, net_result.records)
    return {
        "ok": not diffs,
        "diffs": diffs,
        "sim": sim_result,
        "net": net_result,
    }
