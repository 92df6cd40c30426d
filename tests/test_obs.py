"""The telemetry layer: metrics, tracing, and the invariant
that all of it stays strictly out-of-band (CONTRIBUTING invariant 8).

The byte-identity meta-test is the load-bearing one: the same scenario
run fully instrumented (metrics on, tracer active) and with telemetry
disabled must produce byte-identical record dumps.
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import ObsError
from repro.obs.metrics import (
    MetricsRegistry,
    enabled,
    registry,
    set_enabled,
)
from repro.obs.tracing import (
    Tracer,
    activate,
    current_tracer,
    deactivate,
    span,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test sees a fresh global registry and no active tracer."""
    registry().reset()
    deactivate()
    set_enabled(None)
    yield
    registry().reset()
    deactivate()
    set_enabled(None)


# -- metrics ------------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", "hits")
        hits.inc()
        hits.inc(2, scenario="a")
        hits.inc(scenario="a")
        assert hits.value() == 1
        assert hits.value(scenario="a") == 3

    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("c_total").inc(-1)

    def test_gauge_sets_and_moves(self):
        reg = MetricsRegistry()
        depth = reg.gauge("depth")
        depth.set(4)
        depth.dec(1)
        depth.inc(2)
        assert depth.value() == 5

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        lat = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            lat.observe(value)
        assert lat.count() == 3
        assert lat.sum() == pytest.approx(5.55)
        sample = reg.snapshot()["metrics"]["lat_seconds"]["samples"][0]
        # Cumulative buckets: le=0.1 holds 1, le=1 holds 2, +Inf all 3
        # (integral bounds render without the trailing ".0").
        assert sample["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ObsError):
            reg.gauge("thing_total")

    def test_snapshot_is_deterministic_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc(scenario="z")
        reg.counter("b_total").inc(scenario="a")
        reg.counter("a_total").inc()
        first = reg.snapshot_json()
        assert list(reg.snapshot()["metrics"]) == ["a_total", "b_total"]
        labels = [
            s["labels"]
            for s in reg.snapshot()["metrics"]["b_total"]["samples"]
        ]
        assert labels == [{"scenario": "a"}, {"scenario": "z"}]
        assert reg.snapshot_json() == first

    def test_mark_delta_reports_changes_only(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(5)
        reg.gauge("level").set(7)
        mark = reg.mark()
        reg.counter("a_total").inc(2)
        reg.counter("new_total").inc()
        reg.gauge("level").set(3)
        delta = reg.delta_since(mark)
        assert delta["a_total"] == 2
        assert delta["new_total"] == 1
        assert delta["level"] == 3  # gauges report the current level

    def test_disabled_registry_mutations_are_noops(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        set_enabled(False)
        counter.inc(10)
        reg.gauge("g").set(5)
        reg.histogram("h_seconds").observe(1.0)
        set_enabled(None)
        assert counter.value() == 0
        assert reg.gauge("g").value() == 0
        assert reg.histogram("h_seconds").count() == 0

    def test_env_gate_turns_telemetry_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        assert not enabled()
        monkeypatch.setenv("REPRO_OBS", "on")
        assert enabled()
        # The programmatic override beats the environment.
        set_enabled(False)
        assert not enabled()


# -- tracing ------------------------------------------------------------------

class TestTracing:
    def test_nested_spans_record_parents(self):
        tracer = Tracer()
        with tracer.span("outer", scenario="s"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        outer = next(s for s in spans if s.name == "outer")
        inners = [s for s in spans if s.name == "inner"]
        assert outer.parent_id is None
        assert outer.attrs == {"scenario": "s"}
        assert [s.parent_id for s in inners] == [outer.span_id] * 2
        assert all(s.dur_us >= 1 for s in spans)

    def test_json_round_trip_is_lossless(self):
        tracer = Tracer()
        with tracer.span("a", k=1):
            with tracer.span("b"):
                pass
        restored = Tracer.from_json(tracer.to_json(indent=2))
        assert restored.to_dict() == tracer.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        data = tracer.to_dict()
        data["spans"][0]["surprise"] = 1
        with pytest.raises(ObsError):
            Tracer.from_dict(data)

    def test_chrome_trace_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        events = tracer.write_chrome_trace(str(path))
        assert events == 2
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert all(
            {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            for e in complete
        )
        assert any(e["name"] == "process_name" for e in meta)

    def test_merge_remaps_ids_and_reparents(self):
        parent = Tracer()
        with parent.span("scenario") as root:
            pass
        worker = Tracer()
        with worker.span("cell"):
            with worker.span("run"):
                pass
        parent.merge(worker.drain(), root_id=root.span_id)
        spans = {s.name: s for s in parent.spans()}
        assert spans["cell"].parent_id == spans["scenario"].span_id
        assert spans["run"].parent_id == spans["cell"].span_id
        ids = [s.span_id for s in parent.spans()]
        assert len(ids) == len(set(ids))

    def test_module_span_is_null_without_tracer(self):
        assert current_tracer() is None
        with span("anything", key=1):  # must not raise, must not record
            pass

    def test_module_span_records_into_active_tracer(self):
        tracer = activate(Tracer())
        try:
            with span("work", phase="x"):
                pass
        finally:
            deactivate()
        assert [s.name for s in tracer.spans()] == ["work"]
        assert tracer.spans()[0].attrs == {"phase": "x"}


# -- instrumented runner ------------------------------------------------------

def _scenario(seed_count=2):
    from repro.experiments import get_scenario

    return get_scenario("chicken-mediator").replace(seed_count=seed_count)


def _structure(tracer):
    """Pid/tid/timing-free view of a trace: (name-path, attrs) per span."""
    by_id = {s.span_id: s for s in tracer.spans()}

    def path(s):
        names = []
        while s is not None:
            names.append(s.name)
            s = by_id.get(s.parent_id)
        return tuple(reversed(names))

    return sorted(
        (path(s), tuple(sorted(s.attrs.items())))
        for s in tracer.spans()
    )


class TestRunnerInstrumentation:
    def test_serial_run_emits_nested_spans_and_counters(self):
        from repro.experiments import ExperimentRunner

        mark = registry().mark()
        tracer = activate(Tracer())
        try:
            with ExperimentRunner() as runner:
                result = runner.run(_scenario())
        finally:
            deactivate()
        names = {s.name for s in tracer.spans()}
        assert {"scenario", "cell", "prepare", "run", "payoff"} <= names
        cells = [s for s in tracer.spans() if s.name == "cell"]
        scenario = next(s for s in tracer.spans() if s.name == "scenario")
        assert all(c.parent_id == scenario.span_id for c in cells)
        delta = registry().delta_since(mark)
        label = '{scenario="chicken-mediator"}'
        assert delta[f"repro_runner_runs_total{label}"] == 1
        assert delta[f"repro_runner_cells_total{label}"] == len(result.records)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_parallel_trace_merges_worker_spans(self):
        from repro.experiments import ExperimentRunner

        tracer = activate(Tracer())
        try:
            with ExperimentRunner(parallel=True, processes=2) as runner:
                runner.run(_scenario(seed_count=4))
        finally:
            deactivate()
        pids = {s.pid for s in tracer.spans()}
        assert len(pids) >= 2, "no worker spans were merged back"
        scenario = next(s for s in tracer.spans() if s.name == "scenario")
        cells = [s for s in tracer.spans() if s.name == "cell"]
        assert cells and all(
            c.parent_id == scenario.span_id for c in cells
        )
        assert os.getpid() == scenario.pid
        assert any(c.pid != os.getpid() for c in cells)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_parallel_trace_structure_is_deterministic(self):
        from repro.experiments import ExperimentRunner

        structures = []
        for _ in range(2):
            tracer = activate(Tracer())
            try:
                with ExperimentRunner(parallel=True, processes=2) as runner:
                    runner.run(_scenario(seed_count=4))
            finally:
                deactivate()
            structures.append(_structure(tracer))
        assert structures[0] == structures[1]


# -- the out-of-band invariant ------------------------------------------------

def _record_dump(result):
    rows = []
    for record in result.records:
        data = record.to_dict()
        data["duration_s"] = 0.0  # the only wall-clock field
        rows.append(data)
    return json.dumps(rows, sort_keys=True)


class TestOutOfBand:
    def test_instrumented_run_is_byte_identical_to_telemetry_off(self):
        from repro.experiments import ExperimentRunner

        spec = _scenario()
        tracer = activate(Tracer())
        try:
            with ExperimentRunner() as runner:
                instrumented = runner.run(spec)
        finally:
            deactivate()
        set_enabled(False)
        try:
            with ExperimentRunner() as runner:
                dark = runner.run(spec)
        finally:
            set_enabled(None)
        assert _record_dump(instrumented) == _record_dump(dark)


# -- audit + store instrumentation -------------------------------------------

class TestAuditStoreInstrumentation:
    def test_audit_run_bumps_batch_and_cell_counters(self):
        from repro.audit import get_audit, run_audit

        mark = registry().mark()
        spec = get_audit("mediator-audit").replace(budget=4, seed_count=2)
        run_audit(spec)
        delta = registry().delta_since(mark)
        label = '{audit="mediator-audit"}'
        assert delta[f"repro_audit_batches_total{label}"] >= 1
        assert delta[f"repro_audit_candidates_total{label}"] >= 1
        assert any(
            series.startswith("repro_audit_baseline_cache_total")
            for series in delta
        )

    def test_store_get_or_run_counts_hits_and_misses(self, tmp_path):
        from repro.experiments import ExperimentRunner
        from repro.store import ResultStore

        spec = _scenario()
        mark = registry().mark()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            with ExperimentRunner(store=store) as runner:
                store.get_or_run(spec, runner=runner)
                store.get_or_run(spec, runner=runner)
        delta = registry().delta_since(mark)
        label = '{scenario="chicken-mediator"}'
        assert delta[f"repro_store_result_misses_total{label}"] == 1
        assert delta[f"repro_store_result_hits_total{label}"] == 1
        assert delta["repro_store_result_writes_total"] == 1
        assert delta["repro_store_fetch_seconds_count"] >= 1


# -- the CLI surface ----------------------------------------------------------

class TestCli:
    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        main(["sweep", "chicken-mediator", "--trace-out", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert {"scenario", "cell"} <= names
        assert current_tracer() is None  # the CLI deactivated its tracer
