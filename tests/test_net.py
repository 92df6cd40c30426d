"""The network substrate: determinism, conformance, TCP smoke.

Invariant 9: a net run must be record-equivalent to the simulated-kernel
run of the same spec. ``runtime="net"`` — the kernel under a
``LatencyScheduler`` — is held to the strong form (byte-identical
repeats; zero latency reproduces the fifo schedule exactly, traces
included); TCP runs to the relaxed form (payoffs and outcome taxonomy
only).
"""

import gc
import warnings

import pytest

from repro.errors import ExperimentError, NetError, SimulationError, SpecError
from repro.experiments import ExperimentResult, ExperimentRunner, get_scenario
from repro.experiments.results import RunRecord
from repro.experiments.runner import expand_grid
from repro.experiments.spec import RUNTIMES, ScenarioSpec
from repro.net.conformance import (
    CONFORMANCE_FIELDS,
    check_conformance,
    conformance_diff,
    conformance_view,
)
from repro.net.latency import (
    LATENCY_BUILDERS,
    FixedLatency,
    GstLatency,
    LatencyModel,
    LogNormalLatency,
    latency_from_name,
    latency_names,
    register_latency,
)
from repro.net.runtime import NetRuntime
from repro.sim.network import Network
from repro.sim.process import FuncProcess, Process
from repro.sim.runtime import ENVIRONMENT_PID as ENV, Runtime
from repro.sim.scheduler import FifoScheduler, LatencyScheduler


# -- a tiny deterministic protocol for runtime-level tests --------------------

class Pinger(Process):
    """Ping every peer, pong every ping, output after all pongs."""

    def __init__(self, peers):
        self.peers = tuple(peers)
        self.pongs = 0

    def on_start(self, ctx):
        for peer in sorted(self.peers):
            ctx.send(peer, ("ping", ctx.pid))

    def on_message(self, ctx, sender, payload):
        kind, _origin = payload
        if kind == "ping":
            ctx.send(sender, ("pong", ctx.pid))
            return
        self.pongs += 1
        if self.pongs == len(self.peers):
            ctx.output(("done", ctx.pid, ctx.rng.randrange(1000)))
            ctx.halt()


def pingers(n):
    return {
        i: Pinger([j for j in range(n) if j != i]) for i in range(n)
    }


def trace_tuples(result):
    return [
        (e.step, e.kind, e.pid, e.sender, e.recipient, e.uid)
        for e in result.trace.events
    ]


# -- latency model naming -----------------------------------------------------

class TestLatencyNames:
    def test_zero_is_registered(self):
        model = latency_from_name("zero")
        assert isinstance(model, LatencyModel)
        assert model.name == "zero"
        assert "zero" in latency_names()

    @pytest.mark.parametrize("name,cls", [
        ("fixed-3", FixedLatency),
        ("fixed-2.5", FixedLatency),
        ("lognormal@m5s2", LogNormalLatency),
        ("lognormal@m0.5s1.25", LogNormalLatency),
        ("gst-8-1@50", GstLatency),
        ("gst-0.5-2@12.5", GstLatency),
    ])
    def test_parameterized_names_round_trip(self, name, cls):
        model = latency_from_name(name)
        assert isinstance(model, cls)
        assert model.name == name
        again = latency_from_name(model.name)
        assert type(again) is type(model)

    @pytest.mark.parametrize("bad", [
        "nope", "fixed-", "fixed--1", "lognormal@m5", "gst-1-2", "",
    ])
    def test_unknown_names_raise_with_vocabulary(self, bad):
        with pytest.raises(NetError, match="unknown latency model"):
            latency_from_name(bad)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(NetError, match="already registered"):
            register_latency("zero", LatencyModel)
        assert LATENCY_BUILDERS["zero"] is LatencyModel

    def test_bad_parameters_rejected(self):
        with pytest.raises(NetError):
            FixedLatency(-1)
        with pytest.raises(NetError):
            LogNormalLatency(0, 1)
        with pytest.raises(NetError):
            GstLatency(1, -2, 0)

    def test_draws_are_per_edge_and_seeded(self):
        one, two = latency_from_name("lognormal@m5s2"), latency_from_name(
            "lognormal@m5s2"
        )
        one.reset(11)
        two.reset(11)
        a = [one.delay(0, 1, 0.0) for _ in range(5)]
        b = [two.delay(0, 1, 0.0) for _ in range(5)]
        assert a == b
        two_edge = [two.delay(1, 0, 0.0) for _ in range(5)]
        assert two_edge != b
        two.reset(12)
        assert [two.delay(0, 1, 0.0) for _ in range(5)] != b

    def test_gst_phase_shift(self):
        model = GstLatency(8, 1, 50)
        model.reset(0)
        assert model.delay(0, 1, 60.0) == 1.0
        pre = model.delay(0, 1, 10.0)
        assert 0.0 <= pre <= 8.0


# -- net determinism: the kernel under LatencyScheduler ------------------------

class TestNetRuntimeDeterminism:
    def test_zero_latency_matches_fifo_kernel_byte_for_byte(self):
        sim = Runtime(pingers(4), FifoScheduler(), seed=3).run()
        net = Runtime(pingers(4), LatencyScheduler("zero"), seed=3).run()
        assert net.outputs == sim.outputs
        assert net.halted == sim.halted
        assert net.steps == sim.steps
        assert net.messages_sent == sim.messages_sent
        assert net.messages_delivered == sim.messages_delivered
        assert net.deadlocked == sim.deadlocked
        assert net.env_messages == sim.env_messages
        assert trace_tuples(net) == trace_tuples(sim)

    def test_seeded_latency_repeats_are_byte_identical(self):
        scheduler = LatencyScheduler("lognormal@m5s2")
        runs = [
            Runtime(pingers(4), scheduler, seed=9).run() for _ in range(2)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].steps == runs[1].steps
        assert trace_tuples(runs[0]) == trace_tuples(runs[1])

    def test_different_seeds_give_different_schedules(self):
        one = Runtime(
            pingers(4), LatencyScheduler("lognormal@m5s2"), seed=1
        ).run()
        two = Runtime(
            pingers(4), LatencyScheduler("lognormal@m5s2"), seed=2
        ).run()
        assert trace_tuples(one) != trace_tuples(two)

    def test_unknown_latency_rejected(self):
        with pytest.raises(NetError, match="unknown latency model"):
            LatencyScheduler("carrier-pigeon")

    def test_empty_process_set_rejected(self):
        with pytest.raises(SimulationError):
            NetRuntime({})

    def test_handler_exceptions_propagate(self):
        class Boom(Process):
            def on_start(self, ctx):
                ctx.send(ctx.pid, "fuse")

            def on_message(self, ctx, sender, payload):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            NetRuntime({0: Boom()}).run()

    def test_tcp_transport_matches_outputs(self):
        sim = Runtime(pingers(3), FifoScheduler(), seed=5).run()
        net = NetRuntime(pingers(3), latency="fixed-2", seed=5).run()
        assert net.outputs == sim.outputs
        assert net.halted == sim.halted
        assert net.messages_sent == sim.messages_sent


class Scripted(LatencyModel):
    """Per-edge scripted delays; logs ``(sender, recipient, now)`` per draw."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def reset(self, seed):
        super().reset(seed)
        self.queues = {edge: list(delays) for edge, delays in self.script.items()}
        self.draws = []

    def delay(self, sender, recipient, now):
        self.draws.append((sender, recipient, now))
        return self.queues[(sender, recipient)].pop(0)


class TestLatencyScheduler:
    def test_equal_arrivals_break_ties_by_post_order(self):
        network = Network()
        scheduler = LatencyScheduler("fixed-2")
        scheduler.reset(0)
        msgs = [network.send(0, r, "x", 0, 1) for r in (1, 2, 3)]
        for msg in reversed(msgs):
            scheduler.post(msg.uid, msg.sender, msg.recipient)
        uids = [msg.uid for msg in msgs]
        order = []
        while len(network):
            uid = scheduler.choose(network.view(), 0)
            network.deliver(uid)
            order.append(uid)
        assert order == list(reversed(uids))

    def test_held_messages_get_fresh_draws_at_release_in_uid_order(self):
        # 0's two start sends cross the cut and are held; the heal at step
        # 4 (virtual time 2) posts them in uid order with draws at t=2.
        model = Scripted({
            (ENV, 0): [1], (ENV, 1): [1], (ENV, 2): [1],
            (0, 1): [1], (0, 2): [1], (1, 2): [1], (2, 1): [1],
        })
        scheduler = LatencyScheduler(model)
        posted = []
        post = scheduler.post

        def recording_post(uid, sender, recipient):
            posted.append(uid)
            post(uid, sender, recipient)

        scheduler.post = recording_post
        procs = {
            0: FuncProcess(on_start=lambda ctx: (ctx.send(1, "a"),
                                                 ctx.send(2, "b")),
                           on_message=lambda ctx, s, p: None),
            1: FuncProcess(on_start=lambda ctx: ctx.send(2, "c"),
                           on_message=lambda ctx, s, p: None),
            2: FuncProcess(on_start=lambda ctx: ctx.send(1, "d"),
                           on_message=lambda ctx, s, p: None),
        }
        result = Runtime(
            procs, scheduler, seed=0, faults="partition@{0}t0h4"
        ).run()
        assert posted == [0, 1, 2, 5, 6, 3, 4]
        assert model.draws == [
            (ENV, 0, 0.0), (ENV, 1, 0.0), (ENV, 2, 0.0),
            (1, 2, 1.0), (2, 1, 1.0), (0, 1, 2.0), (0, 2, 2.0),
        ]
        assert result.messages_delivered == 7
        delivered = [e.uid for e in result.trace.events if e.kind == "deliver"]
        assert delivered == [0, 1, 2, 5, 6, 3, 4]

    @pytest.mark.parametrize("redraw,arrival", [(20, 11.0), (5, 7.0)])
    def test_reinstated_message_is_delivered_by_its_earlier_entry(
        self, redraw, arrival
    ):
        # "m" (0 -> 1) is posted at t=1 to arrive at t=11; 1 crashes at
        # step 3 with "m" in flight and restarts at step 4 (t=2), which
        # re-posts "m" with a fresh draw. "m" is delivered once, at the
        # earlier of its two heap entries: the old one at t=11 unless the
        # re-draw lands sooner. 1's ack is drawn at that arrival time.
        model = Scripted({
            (ENV, 0): [1], (ENV, 1): [1], (ENV, 2): [1],
            (0, 1): [10, redraw], (2, 0): [1], (1, 0): [1],
        })
        procs = {
            0: FuncProcess(on_start=lambda ctx: ctx.send(1, "m"),
                           on_message=lambda ctx, s, p: None),
            1: FuncProcess(on_message=lambda ctx, s, p: ctx.send(0, "ack")),
            2: FuncProcess(on_start=lambda ctx: ctx.send(0, "x"),
                           on_message=lambda ctx, s, p: None),
        }
        result = Runtime(
            procs, LatencyScheduler(model), seed=0,
            faults="crash-restart@p1s3r4",
        ).run()
        assert model.draws[-2:] == [(0, 1, 2.0), (1, 0, arrival)]
        assert result.messages_sent == 3 + 3
        assert result.messages_delivered == 3 + 3
        delivered = [
            (e.sender, e.recipient) for e in result.trace.events
            if e.kind == "deliver"
        ]
        assert delivered.count((0, 1)) == 1


# -- scenario-level conformance (the PR 5/6 record-diff oracle) ---------------

class TestNetConformance:
    def test_thm41_equivalence_net_vs_sim(self):
        spec = get_scenario("thm41-equivalence").replace(
            seed_start=7, runtime="net", latency="lognormal@m5s2"
        )
        report = check_conformance(spec)
        assert report["ok"], report["diffs"]
        net = report["net"].records
        assert all(r.ok for r in net)
        assert all(r.runtime == "net" for r in net)
        assert all(r.latency == "lognormal@m5s2" for r in net)
        sim = report["sim"].records
        assert all(r.runtime == "sim" and r.latency == "zero" for r in sim)

    def test_net_repeat_invocations_are_byte_identical(self):
        spec = get_scenario("thm41-equivalence").replace(
            seed_start=7, runtime="net", latency="lognormal@m5s2"
        )
        with ExperimentRunner() as runner:
            one = runner.run(spec)
            two = runner.run(spec)
        assert one.records == two.records  # duration_s excluded by compare
        doc = ExperimentResult.from_json(one.to_json())
        assert doc.records == one.records

    def test_netcheck_family_conforms(self):
        for name in ("netcheck-thm41", "netcheck-sec64"):
            report = check_conformance(get_scenario(name))
            assert report["ok"], (name, report["diffs"])

    def test_netcheck_tcp_smoke_payoff_parity(self):
        """n=5 over real localhost sockets: relaxed (projection) equality."""
        report = check_conformance(get_scenario("netcheck-tcp"))
        assert report["ok"], report["diffs"]
        record = report["net"].records[0]
        assert record.ok and record.payoffs == report["sim"].records[0].payoffs

    def test_tcp_cell_closes_every_socket(self):
        """A TCP cell closes and awaits every stream it opens, both ends
        of every edge: nothing is left for a finalizer to warn about."""
        spec = get_scenario("netcheck-tcp").replace(seed_count=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            result = ExperimentRunner().run(spec)
            gc.collect()
        assert [record.ok for record in result.records] == [True]
        unclosed = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert unclosed == []

    def test_conformance_view_projects_order_independent_fields(self):
        record = RunRecord(
            scenario="s", theorem="4.1", scheduler="fifo",
            deviation="honest", seed=0, payoffs=(1.0,), steps=42,
            messages_sent=7,
        )
        view = conformance_view(record)
        assert set(view) == set(CONFORMANCE_FIELDS)
        assert "steps" not in view and "messages_sent" not in view

    def test_conformance_diff_reports_mismatches(self):
        a = RunRecord(scenario="s", theorem="4.1", scheduler="fifo",
                      deviation="honest", seed=0, payoffs=(1.0,))
        b = RunRecord(scenario="s", theorem="4.1", scheduler="eager",
                      deviation="honest", seed=0, payoffs=(0.5,))
        diffs = conformance_diff([a], [b])
        assert diffs and "payoffs" in diffs[0]
        assert conformance_diff([a], [a]) == []
        assert "count mismatch" in conformance_diff([a], [a, b])[0]


# -- spec axes ----------------------------------------------------------------

class TestSpecRuntimeAxes:
    def test_runtimes_vocabulary(self):
        assert RUNTIMES == ("sim", "net", "net-tcp")

    def test_defaults_are_sim_zero(self):
        spec = get_scenario("thm41-honest")
        assert spec.runtime == "sim" and spec.latency == "zero"

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ExperimentError, match="unknown runtime"):
            ScenarioSpec(name="x", game="consensus", n=5, runtime="quantum")

    def test_unknown_latency_rejected(self):
        with pytest.raises(ExperimentError, match="unknown latency model"):
            ScenarioSpec(name="x", game="consensus", n=5,
                         runtime="net", latency="warp")

    def test_sim_runs_reject_latency_models(self):
        with pytest.raises(ExperimentError, match="timings axis"):
            ScenarioSpec(name="x", game="consensus", n=5, latency="fixed-1")

    def test_net_runs_reject_timing_grids(self):
        with pytest.raises(ExperimentError, match="timing models belong"):
            ScenarioSpec(name="x", game="consensus", n=5, runtime="net",
                         timings=("lockstep",))

    @pytest.mark.parametrize("theorem", ["r1", "raw-game"])
    def test_sync_theorems_reject_net_runtimes(self, theorem):
        with pytest.raises(ExperimentError, match="simulated kernel"):
            ScenarioSpec(name="x", game="chicken", n=2, theorem=theorem,
                         k=1, t=0, runtime="net",
                         action_profiles=(("D", "D"),))

    def test_expand_grid_threads_runtime_axes(self):
        spec = get_scenario("netcheck-thm41")
        tasks = expand_grid(spec)
        assert all(t.runtime == "net" for t in tasks)
        assert all(t.latency == "lognormal@m5s2" for t in tasks)
        sim_tasks = expand_grid(get_scenario("thm41-honest"))
        assert all(
            t.runtime == "sim" and t.latency == "zero" for t in sim_tasks
        )

    def test_netcheck_scenarios_registered(self):
        assert get_scenario("thm41-equivalence").runtime == "sim"
        assert get_scenario("netcheck-thm41").runtime == "net"
        assert get_scenario("netcheck-sec64").latency == "gst-8-1@50"
        assert get_scenario("netcheck-tcp").runtime == "net-tcp"
        assert get_scenario("netcheck-tcp").n == 5


# -- satellite: SpecError forward-compat --------------------------------------

class TestSpecErrorForwardCompat:
    def test_unknown_fields_raise_spec_error_listing_accepted(self):
        doc = get_scenario("thm41-honest").to_dict()
        doc["warp_factor"] = 9
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_dict(doc)
        message = str(err.value)
        assert "warp_factor" in message
        assert "accepted fields" in message
        # The listing names the real vocabulary, new axes included.
        assert "runtime" in message and "latency" in message

    def test_spec_error_is_an_experiment_error(self):
        assert issubclass(SpecError, ExperimentError)

    def test_derived_fields_still_dropped(self):
        doc = get_scenario("thm41-honest").to_dict()
        doc["mode"] = "bcg"
        doc["supported_deviations"] = ["honest"]
        spec = ScenarioSpec.from_dict(doc)
        assert spec == get_scenario("thm41-honest")

    def test_round_trip_with_runtime_axes(self):
        spec = get_scenario("netcheck-thm41")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_pre_net_documents_parse_with_defaults(self):
        doc = get_scenario("thm41-honest").to_dict()
        del doc["runtime"], doc["latency"]
        spec = ScenarioSpec.from_dict(doc)
        assert spec.runtime == "sim" and spec.latency == "zero"


# -- records ------------------------------------------------------------------

class TestRecordRuntimeFields:
    def test_pre_net_record_documents_parse_with_defaults(self):
        record = RunRecord(scenario="s", theorem="4.1", scheduler="fifo",
                           deviation="honest", seed=0)
        doc = record.to_dict()
        del doc["runtime"], doc["latency"]
        assert RunRecord.from_dict(doc).runtime == "sim"

    def test_csv_rows_carry_runtime_and_latency(self):
        fields = ExperimentResult.CSV_FIELDS
        assert "runtime" in fields and "latency" in fields
        spec = get_scenario("netcheck-sec64")
        with ExperimentRunner() as runner:
            result = runner.run(spec)
        rows = result.csv_rows()
        assert all(len(row) == len(fields) for row in rows)
        runtime_col = fields.index("runtime")
        assert {row[runtime_col] for row in rows} == {"net"}
