"""The durable, SQLite-backed experiment result store.

:class:`ResultStore` persists two granularities under content-hash keys
(:mod:`repro.store.fingerprint`):

* ``runs`` — one :class:`~repro.experiments.results.RunRecord` per grid
  cell, keyed by :func:`~repro.store.fingerprint.run_fingerprint`. The
  :class:`~repro.experiments.runner.ExperimentRunner` consults this table
  before simulating (``store=``): cells already present are answered from
  the store and **never re-simulated**; only the missing subset runs.
* ``results`` — whole :class:`ExperimentResult` / :class:`AuditResult`
  documents stored as **verbatim JSON text**, keyed by
  :func:`~repro.store.fingerprint.spec_fingerprint` /
  :func:`~repro.store.fingerprint.audit_fingerprint`. A repeat
  :meth:`get_or_run` of an identical spec returns the stored text
  byte-for-byte — the dedup guarantee ``repro run --store`` builds on.

Immutability is the core invariant: every write is ``INSERT OR IGNORE``,
so a fingerprint's row can never be overwritten — concurrent writers
race benignly (first writer wins, the loser's write is a no-op) and a
reader always sees either nothing or the canonical bytes. The database
runs in WAL mode so concurrent processes can read while one writes.

The store lives in the *submitting* process only. It is never shipped to
pool workers (a ``sqlite3`` connection is unpicklable, and the runner's
workers stay store-oblivious by design) — the runner partitions the grid
into hits and misses up front and touches the store only from the
coordinating process.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.errors import StoreError
from repro.experiments.results import ExperimentResult, RunRecord
from repro.obs.metrics import registry as obs_registry
from repro.obs.tracing import span as obs_span
from repro.store.fingerprint import canonical_json, spec_fingerprint

SCHEMA_VERSION = 1

LOCK_WAIT_S = 30.0
"""How long opening a store waits for a lock another connection holds."""

ENV_STORE = "REPRO_STORE"
"""Environment variable naming the store database path."""

DEFAULT_STORE_DIR = "~/.repro-store"
"""Default home of the store database for ``repro store`` inspection."""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    fingerprint TEXT PRIMARY KEY,
    scenario    TEXT NOT NULL,
    theorem     TEXT NOT NULL,
    game        TEXT NOT NULL,
    timing      TEXT NOT NULL,
    scheduler   TEXT NOT NULL,
    deviation   TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    record      TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_scenario ON runs (scenario, seed);
CREATE INDEX IF NOT EXISTS runs_game ON runs (game);
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    records     INTEGER NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_name ON results (kind, name);
"""


def default_store_path() -> str:
    """The database ``repro store`` inspects unless told otherwise."""
    return os.path.join(os.path.expanduser(DEFAULT_STORE_DIR), "store.sqlite")


def resolve_store_path(
    explicit: Optional[str] = None, default: Optional[str] = None
) -> Optional[str]:
    """Store path precedence: ``--store PATH`` > ``REPRO_STORE`` > default.

    ``default`` is ``None`` for one-shot CLI commands (no store unless
    asked) and :func:`default_store_path` for ``repro store`` inspection.
    Returns ``None`` when no store should be used.
    """
    if explicit:
        return explicit
    env = os.environ.get(ENV_STORE)
    if env:
        return env
    return default


def open_store(
    explicit: Optional[str] = None, default: Optional[str] = None
) -> Optional["ResultStore"]:
    """A :class:`ResultStore` per :func:`resolve_store_path`, or ``None``."""
    path = resolve_store_path(explicit, default)
    return ResultStore(path) if path else None


@dataclass(frozen=True)
class StoreOutcome:
    """What :meth:`ResultStore.get_or_run` hands back.

    ``text`` is the *canonical stored JSON* — on a hit the bytes already
    in the store, on a miss the bytes just written (or, if a concurrent
    writer won the race, the bytes *it* wrote — first writer wins, so
    every caller agrees on one canonical document per fingerprint).
    """

    result: ExperimentResult
    text: str
    hit: bool
    fingerprint: str


class ResultStore:
    """A WAL-mode SQLite store of runs and result documents.

    Use as a context manager (or call :meth:`close`); the connection is
    owned by the opening thread and must not cross a fork. Counters
    (``hits``/``misses`` for runs, ``result_hits``/``result_misses`` for
    documents) accumulate over the store's lifetime.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        try:
            self._conn = sqlite3.connect(self.path, timeout=LOCK_WAIT_S)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open store at {self.path}: {exc}") from exc
        self._prepare(time.monotonic() + LOCK_WAIT_S)
        self.hits = 0
        self.misses = 0
        self.result_hits = 0
        self.result_misses = 0

    def _prepare(self, deadline: float) -> None:
        """Switch to WAL mode and check the schema, waiting out a lock.

        Two connections preparing one fresh file at once can get
        "database is locked" from the journal-mode switch without SQLite
        calling the busy handler, so the connect timeout does not cover
        it. Every statement here is idempotent; on that error they are
        all tried again, with backoff, until ``deadline``.
        """
        delay = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                self._conn.executescript(_SCHEMA)
                self._check_schema_version()
                return
            except sqlite3.OperationalError as exc:
                if (
                    "database is locked" not in str(exc)
                    or time.monotonic() + delay > deadline
                ):
                    raise
            self._conn.rollback()
            time.sleep(delay)
            delay = min(2 * delay, 0.1)

    def _check_schema_version(self) -> None:
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None or int(row[0]) != SCHEMA_VERSION:
            found = row[0] if row else "missing"
            raise StoreError(
                f"store {self.path} has schema version {found}, "
                f"this build expects {SCHEMA_VERSION}"
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- run records ---------------------------------------------------------

    def fetch_records(
        self, fingerprints: Iterable[str]
    ) -> dict[str, RunRecord]:
        """The stored records among ``fingerprints`` (bumps hit/miss)."""
        t0 = time.perf_counter()
        wanted = list(dict.fromkeys(fingerprints))
        found: dict[str, RunRecord] = {}
        # SQLite caps bound parameters per statement; batch generously
        # below the historical 999 limit.
        for batch_start in range(0, len(wanted), 500):
            batch = wanted[batch_start:batch_start + 500]
            marks = ",".join("?" * len(batch))
            rows = self._conn.execute(
                f"SELECT fingerprint, record FROM runs "
                f"WHERE fingerprint IN ({marks})",
                batch,
            ).fetchall()
            for fingerprint, text in rows:
                found[fingerprint] = self._parse_record(fingerprint, text)
        self.hits += len(found)
        self.misses += len(wanted) - len(found)
        metrics = obs_registry()
        metrics.counter(
            "repro_store_run_hits_total", "per-cell records found in the store"
        ).inc(len(found))
        metrics.counter(
            "repro_store_run_misses_total",
            "per-cell records missing from the store",
        ).inc(len(wanted) - len(found))
        metrics.histogram(
            "repro_store_fetch_seconds", "store read latency"
        ).observe(time.perf_counter() - t0)
        return found

    @staticmethod
    def _parse_record(fingerprint: str, text: str) -> RunRecord:
        try:
            return RunRecord.from_dict(json.loads(text))
        except Exception as exc:
            raise StoreError(
                f"corrupt run record for fingerprint {fingerprint}: {exc}"
            ) from exc

    def put_records(
        self, items: Iterable[tuple[str, RunRecord]]
    ) -> int:
        """Persist records under their fingerprints; returns rows inserted.

        ``INSERT OR IGNORE``: a fingerprint already present keeps its
        original bytes — cells are immutable once written.
        """
        t0 = time.perf_counter()
        now = time.time()
        rows = [
            (
                fingerprint,
                record.scenario,
                record.theorem,
                record.game,
                record.timing,
                record.scheduler,
                record.deviation,
                record.seed,
                canonical_json(record.to_dict()),
                now,
            )
            for fingerprint, record in items
        ]
        if not rows:
            return 0
        before = self._conn.total_changes
        self._conn.executemany(
            "INSERT OR IGNORE INTO runs "
            "(fingerprint, scenario, theorem, game, timing, scheduler, "
            " deviation, seed, record, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()
        inserted = self._conn.total_changes - before
        metrics = obs_registry()
        metrics.counter(
            "repro_store_run_writes_total", "per-cell records inserted"
        ).inc(inserted)
        metrics.histogram(
            "repro_store_write_seconds", "store write latency"
        ).observe(time.perf_counter() - t0)
        return inserted

    def query_records(
        self,
        scenario: Optional[str] = None,
        game: Optional[str] = None,
        theorem: Optional[str] = None,
        timing: Optional[str] = None,
        scheduler: Optional[str] = None,
        deviation: Optional[str] = None,
        seed_min: Optional[int] = None,
        seed_max: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> list[RunRecord]:
        """Stored records matching every given filter, seed-then-key order."""
        clauses = []
        params: list = []
        for column, value in (
            ("scenario", scenario),
            ("game", game),
            ("theorem", theorem),
            ("timing", timing),
            ("scheduler", scheduler),
            ("deviation", deviation),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if seed_min is not None:
            clauses.append("seed >= ?")
            params.append(seed_min)
        if seed_max is not None:
            clauses.append("seed <= ?")
            params.append(seed_max)
        sql = "SELECT fingerprint, record FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seed, fingerprint"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            self._parse_record(fingerprint, text)
            for fingerprint, text in self._conn.execute(sql, params)
        ]

    # -- result documents ----------------------------------------------------

    def fetch_result(self, fingerprint: str) -> Optional[str]:
        """The verbatim stored JSON for a result fingerprint, or ``None``."""
        t0 = time.perf_counter()
        row = self._conn.execute(
            "SELECT payload FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        obs_registry().histogram(
            "repro_store_fetch_seconds", "store read latency"
        ).observe(time.perf_counter() - t0)
        return row[0] if row else None

    def put_result(
        self,
        fingerprint: str,
        kind: str,
        name: str,
        payload: str,
        records: int,
    ) -> bool:
        """Persist a result document; False when the key already existed."""
        t0 = time.perf_counter()
        before = self._conn.total_changes
        self._conn.execute(
            "INSERT OR IGNORE INTO results "
            "(fingerprint, kind, name, payload, records, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (fingerprint, kind, name, payload, records, time.time()),
        )
        self._conn.commit()
        inserted = self._conn.total_changes > before
        metrics = obs_registry()
        metrics.counter(
            "repro_store_result_writes_total", "result documents inserted"
        ).inc(1 if inserted else 0)
        metrics.histogram(
            "repro_store_write_seconds", "store write latency"
        ).observe(time.perf_counter() - t0)
        return inserted

    # -- get-or-run ----------------------------------------------------------

    def get_or_run(
        self,
        scenario,
        runner=None,
        parallel: bool = False,
        processes: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> StoreOutcome:
        """An identical scenario is answered from the store, never re-run.

        On a miss the grid runs through ``runner`` (or an owned
        :class:`ExperimentRunner` built from the keyword arguments) with
        this store threaded in — so even a miss reuses any individual
        cells other scenarios already simulated — and the result document
        is stored verbatim. On a hit, zero simulation work happens and
        the returned ``text`` is byte-identical to the first run's.
        """
        if isinstance(scenario, str):
            from repro.experiments.registry import get_scenario

            spec = get_scenario(scenario)
        else:
            spec = scenario
        fingerprint = spec_fingerprint(spec)
        with obs_span("store-lookup", scenario=spec.name):
            stored = self.fetch_result(fingerprint)
        metrics = obs_registry()
        if stored is not None:
            self.result_hits += 1
            metrics.counter(
                "repro_store_result_hits_total",
                "scenarios answered verbatim from the store",
            ).inc(scenario=spec.name)
            return StoreOutcome(
                result=ExperimentResult.from_json(stored),
                text=stored,
                hit=True,
                fingerprint=fingerprint,
            )
        self.result_misses += 1
        metrics.counter(
            "repro_store_result_misses_total",
            "scenarios that had to be simulated",
        ).inc(scenario=spec.name)
        if runner is not None:
            result = runner.run(spec, store=self)
        else:
            from repro.experiments.runner import ExperimentRunner

            with ExperimentRunner(
                parallel=parallel, processes=processes, timeout_s=timeout_s
            ) as owned:
                result = owned.run(spec, store=self)
        text = result.to_json(indent=2)
        self.put_result(
            fingerprint, "scenario", spec.name, text, len(result.records)
        )
        # A concurrent writer may have won the race; the stored bytes are
        # canonical either way.
        stored = self.fetch_result(fingerprint)
        return StoreOutcome(
            result=result,
            text=stored if stored is not None else text,
            hit=False,
            fingerprint=fingerprint,
        )

    # -- aggregate views -----------------------------------------------------

    def counters(self) -> dict:
        """Lifetime dedup counters, as a dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
        }

    def summary(self) -> dict:
        """Aggregate view of what the store holds."""
        runs = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        results = self._conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        by_scenario = dict(
            self._conn.execute(
                "SELECT scenario, COUNT(*) FROM runs "
                "GROUP BY scenario ORDER BY scenario"
            ).fetchall()
        )
        by_kind = dict(
            self._conn.execute(
                "SELECT kind, COUNT(*) FROM results "
                "GROUP BY kind ORDER BY kind"
            ).fetchall()
        )
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "runs": runs,
            "results": results,
            "by_scenario": by_scenario,
            "by_kind": by_kind,
        }
