"""Structured experiment results with aggregation and JSON round-trip.

A :class:`RunRecord` captures everything observable about one grid cell;
an :class:`ExperimentResult` bundles a spec with its records and offers the
aggregations every report in the repo used to hand-roll: agreement rate,
message/step statistics, payoff summaries, and per-(scheduler, deviation)
breakdown rows ready for ``format_table``.

Wall-clock fields (``duration_s``, ``elapsed_s``) are excluded from
equality so that a JSON round trip — and a parallel re-run on the same seed
grid — compares equal to the original.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Optional

from repro.errors import ExperimentError
from repro.experiments.spec import ScenarioSpec, _tuplize


@dataclass(frozen=True)
class RunRecord:
    """One completed (or failed) run of a scenario grid cell."""

    scenario: str
    theorem: str
    scheduler: str
    deviation: str
    seed: int
    timing: str = "async"
    game: str = ""
    """The resolved game name this cell ran (a games-axis entry, a
    ``family@params`` instance, or the spec's single ``game``)."""
    runtime: str = "sim"
    latency: str = "zero"
    """Which substrate produced this record (``sim``/``net``/``net-tcp``)
    and, for net runtimes, under which latency model — defaults keep
    pre-net stored documents parseable."""
    faults: str = "none"
    """The fault plan injected into this cell (``"none"`` fault-free) —
    the default keeps pre-faults stored documents parseable."""
    types: tuple = ()
    actions: tuple = ()
    payoffs: tuple = ()
    agreed: bool = False
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    steps: int = 0
    deadlocked: bool = False
    error: Optional[str] = None
    timed_out: bool = False
    trace: tuple = ()
    """JSON-safe per-event tuples, populated only for
    ``record_payloads`` scenarios: (step, kind, pid, sender, recipient,
    uid, payload)."""
    duration_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out

    def mean_payoff(self) -> float:
        return mean(self.payoffs) if self.payoffs else 0.0

    def to_dict(self) -> dict:
        # Shallow: every nested value is a tuple of JSON-safe scalars, so
        # this serializes exactly as ``dataclasses.asdict`` (which deep-
        # copies each leaf) would, at a fraction of the cost.
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        unknown = set(data).difference(_RECORD_FIELDS)
        if unknown:
            raise ExperimentError(
                f"unknown RunRecord fields: {', '.join(sorted(unknown))}"
            )
        coerced = {
            key: _tuplize(value)
            if key in ("types", "actions", "payoffs", "trace")
            else value
            for key, value in data.items()
        }
        return cls(**coerced)


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord))


def _stats(values: Iterable[float]) -> dict:
    values = list(values)
    if not values:
        return {"mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": float(mean(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }


@dataclass(frozen=True)
class ExperimentResult:
    """All records of one scenario grid, with aggregation helpers."""

    spec: ScenarioSpec
    records: tuple[RunRecord, ...]
    elapsed_s: float = field(default=0.0, compare=False)
    parallel: bool = field(default=False, compare=False)
    stats: dict = field(default_factory=dict, compare=False)
    """Execution bookkeeping from the runner (excluded from equality, like
    the wall-clock fields): artifact-cache hits/misses, the
    prepare/run/payoff phase timing breakdown, and pool usage/reuse."""

    # -- selections ----------------------------------------------------------

    def succeeded(self) -> list[RunRecord]:
        return [r for r in self.records if r.ok]

    def failed(self) -> list[RunRecord]:
        return [r for r in self.records if not r.ok]

    # -- aggregations --------------------------------------------------------

    def agreement_rate(self) -> float:
        ok = self.succeeded()
        if not ok:
            return 0.0
        return sum(1 for r in ok if r.agreed) / len(ok)

    def message_stats(self) -> dict:
        return _stats(r.messages_sent for r in self.succeeded())

    def step_stats(self) -> dict:
        return _stats(r.steps for r in self.succeeded())

    def payoff_stats(self) -> dict:
        return _stats(r.mean_payoff() for r in self.succeeded())

    def payoff_by_player(self) -> tuple[float, ...]:
        """Mean payoff per player position across successful runs."""
        ok = [r for r in self.succeeded() if r.payoffs]
        if not ok:
            return ()
        width = max(len(r.payoffs) for r in ok)
        return tuple(
            float(mean(r.payoffs[i] for r in ok if len(r.payoffs) > i))
            for i in range(width)
        )

    def aggregate(self) -> dict:
        """One dict summarizing the whole grid (what reports print)."""
        return {
            "scenario": self.spec.name,
            "runs": len(self.records),
            "errors": sum(1 for r in self.records if r.error and not r.timed_out),
            "timeouts": sum(1 for r in self.records if r.timed_out),
            "agreement_rate": self.agreement_rate(),
            "messages": self.message_stats(),
            "steps": self.step_stats(),
            "payoff": self.payoff_stats(),
        }

    def summary_rows(self) -> list[tuple]:
        """Per-(game, timing, scheduler, deviation) rows for a table.

        The game column groups in spec order (a ``games`` axis sweeps in
        the order the spec lists, e.g. ascending size), not
        alphabetically.
        """
        order = {name: i for i, name in enumerate(self.spec.game_axis)}
        groups: dict[tuple, list[RunRecord]] = {}
        for record in self.records:
            game = record.game or self.spec.game
            key = (
                (order.get(game, len(order)), game),
                record.timing,
                record.scheduler,
                record.deviation,
            )
            groups.setdefault(key, []).append(record)
        rows = []
        for ((_, game), timing, scheduler, deviation), members in sorted(
            groups.items()
        ):
            ok = [r for r in members if r.ok]
            agreement = (
                f"{sum(1 for r in ok if r.agreed) / len(ok):.2f}" if ok else "-"
            )
            msgs = f"{mean(r.messages_sent for r in ok):.0f}" if ok else "-"
            payoff = f"{mean(r.mean_payoff() for r in ok):.3f}" if ok else "-"
            rows.append(
                (
                    game,
                    timing,
                    scheduler,
                    deviation,
                    len(members),
                    len(members) - len(ok),
                    agreement,
                    msgs,
                    payoff,
                )
            )
        return rows

    SUMMARY_HEADERS = (
        "game",
        "timing",
        "scheduler",
        "deviation",
        "runs",
        "failed",
        "agreement",
        "messages",
        "mean payoff",
    )

    CSV_FIELDS = (
        "scenario",
        "theorem",
        "game",
        "n",
        "k",
        "t",
        "timing",
        "scheduler",
        "deviation",
        "seed",
        "runtime",
        "latency",
        "faults",
        "ok",
        "agreed",
        "deadlocked",
        "timed_out",
        "actions",
        "mean_payoff",
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "steps",
        "error",
        "duration_s",
    )

    def csv_rows(self) -> list[tuple]:
        """One plain-value row per grid cell, aligned with CSV_FIELDS.

        This is the flat per-cell view plotting pipelines consume
        (``repro sweep --csv``): spec identity columns are repeated on
        every row so concatenating several scenarios' rows stays
        self-describing.
        """
        spec = self.spec
        rows = []
        for r in self.records:
            rows.append(
                (
                    r.scenario,
                    r.theorem,
                    r.game or spec.game,
                    spec.n,
                    spec.k,
                    spec.t,
                    r.timing,
                    r.scheduler,
                    r.deviation,
                    r.seed,
                    r.runtime,
                    r.latency,
                    r.faults,
                    int(r.ok),
                    int(r.agreed),
                    int(r.deadlocked),
                    int(r.timed_out),
                    " ".join(str(a) for a in r.actions),
                    f"{r.mean_payoff():.6g}",
                    r.messages_sent,
                    r.messages_delivered,
                    r.messages_dropped,
                    r.steps,
                    r.error or "",
                    f"{r.duration_s:.6g}",
                )
            )
        return rows

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "records": [r.to_dict() for r in self.records],
            "elapsed_s": self.elapsed_s,
            "parallel": self.parallel,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        try:
            spec_data = data["spec"]
            record_data = data["records"]
        except (KeyError, TypeError):
            raise ExperimentError(
                "ExperimentResult JSON needs 'spec' and 'records'"
            ) from None
        return cls(
            spec=ScenarioSpec.from_dict(spec_data),
            records=tuple(RunRecord.from_dict(r) for r in record_data),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            parallel=bool(data.get("parallel", False)),
            stats=dict(data.get("stats") or {}),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))
