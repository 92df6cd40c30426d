"""Tests for the TimingModel API: LockStep, BoundedDelay, parity, registry."""

import pytest

from helpers import Chatty, recording_fifo
from repro.errors import ExperimentError, SimulationError, StepLimitExceeded
from repro.experiments import (
    ScenarioSpec,
    expand_grid,
    get_scenario,
    run_scenario,
)
from repro.sim import (
    Asynchronous,
    BoundedDelay,
    FifoScheduler,
    FuncProcess,
    LaggardScheduler,
    LockStep,
    Process,
    Runtime,
    register_timing,
    timing_from_name,
)


class TestTimingRegistry:
    def test_fixed_names(self):
        assert isinstance(timing_from_name("async"), Asynchronous)
        assert isinstance(timing_from_name("asynchronous"), Asynchronous)
        assert isinstance(timing_from_name("lockstep"), LockStep)
        assert isinstance(timing_from_name("sync"), LockStep)

    def test_bounded_parses_parameters(self):
        model = timing_from_name("bounded-8")
        assert isinstance(model, BoundedDelay)
        assert model.d == 8 and model.gst == 0
        model = timing_from_name("bounded-8@100")
        assert model.d == 8 and model.gst == 100

    def test_name_round_trips(self):
        for name in ("bounded-8", "bounded-8@100"):
            assert timing_from_name(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(SimulationError):
            timing_from_name("warp")
        with pytest.raises(SimulationError):
            timing_from_name("bounded-x")
        with pytest.raises(SimulationError):
            timing_from_name("bounded-4@y")

    def test_register_custom_model(self):
        register_timing("test-instant", Asynchronous)
        assert isinstance(timing_from_name("test-instant"), Asynchronous)
        with pytest.raises(SimulationError):
            register_timing("test-instant", Asynchronous)

    def test_bad_parameters_rejected(self):
        with pytest.raises(SimulationError):
            BoundedDelay(0)
        with pytest.raises(SimulationError):
            BoundedDelay(4, gst=-1)
        with pytest.raises(SimulationError):
            LockStep(max_rounds=0)


class Relay(Process):
    """Forward a token down the chain 0 -> 1 -> ... -> n-1."""

    def __init__(self, n):
        self.n = n

    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.send(1, "token")

    def on_message(self, ctx, sender, payload):
        nxt = ctx.pid + 1
        if nxt < self.n:
            ctx.send(nxt, payload)
        else:
            ctx.output("done")
        ctx.halt()


class TestLockStepKernel:
    def test_one_hop_per_round(self):
        n = 5
        timing = LockStep()
        procs = {pid: Relay(n) for pid in range(n)}
        result = Runtime(procs, FifoScheduler(), timing=timing).run()
        assert result.outputs == {n - 1: "done"}
        # The token needs one round per hop (n - 1 hops), plus round 0.
        assert timing.rounds_completed() >= n - 1

    def test_ticks_observed_by_live_processes(self):
        ticks = []

        class Ticker(Process):
            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, "a")

            def on_message(self, ctx, sender, payload):
                if payload == "a":
                    ctx.send(0, "b")

            def on_tick(self, ctx, round_no):
                ticks.append((ctx.pid, round_no))

        Runtime(
            {0: Ticker(), 1: Ticker()}, FifoScheduler(), timing=LockStep()
        ).run()
        # Two payload rounds happened; every live process saw every boundary.
        assert (0, 1) in ticks and (1, 1) in ticks
        assert (0, 2) in ticks and (1, 2) in ticks

    def test_max_rounds_raises(self):
        forever = FuncProcess(
            on_start=lambda ctx: ctx.send(0, "x"),
            on_message=lambda ctx, s, p: ctx.send(0, "x"),
        )
        with pytest.raises(StepLimitExceeded):
            Runtime(
                {0: forever}, FifoScheduler(), timing=LockStep(max_rounds=5)
            ).run()

    def test_soft_step_limit_returns_result(self):
        forever = FuncProcess(
            on_start=lambda ctx: ctx.send(0, "x"),
            on_message=lambda ctx, s, p: ctx.send(0, "x"),
        )
        result = Runtime(
            {0: forever}, FifoScheduler(), timing=LockStep(max_rounds=5),
            raise_on_step_limit=False,
        ).run()
        assert result.steps <= 6  # a round per step here; no exception

    def test_no_round_fires_when_all_mail_was_discarded(self):
        rounds_seen = []

        class Talker(Process):
            def on_start(self, ctx):
                ctx.send(1, "late")

            def on_message(self, ctx, sender, payload):  # pragma: no cover
                pass

            def on_tick(self, ctx, round_no):
                rounds_seen.append(round_no)

        quitter = FuncProcess(on_start=lambda ctx: ctx.halt())
        result = Runtime(
            {0: Talker(), 1: quitter}, FifoScheduler(), timing=LockStep()
        ).run()
        # Player 1 halted in round 0, so the only message of round 1 was
        # discarded: the legacy synchronous loop never executed a mail-less
        # round, and neither does the kernel.
        assert rounds_seen == []
        assert result.messages_dropped == 1

    def test_mail_to_a_recipient_halting_mid_round_is_never_offered(self):
        class Sender(Process):
            def on_start(self, ctx):
                for recipient, payload in ((1, "halt"), (1, "late"),
                                           (2, "hi")):
                    ctx.send(recipient, payload)

            def on_message(self, ctx, sender, payload):  # pragma: no cover
                pass

        procs = {
            0: Sender(),
            1: FuncProcess(on_message=lambda ctx, s, p: ctx.halt()),
            2: FuncProcess(on_message=lambda ctx, s, p: None),
        }
        scheduler = recording_fifo()
        result = Runtime(procs, scheduler, timing=LockStep()).run()
        # Round 0 delivers the start signals (uids 0-2). Round 1 holds
        # uids 3 and 4 to player 1 and 5 to player 2; delivering 3 halts
        # player 1, which discards 4 from the pool and from the round.
        assert scheduler.pools == [[0, 1, 2], [1, 2], [2], [3, 4, 5], [5]]
        assert result.messages_dropped == 1
        assert result.messages_delivered == 5

    def test_message_driven_processes_ignore_ticks(self):
        done = FuncProcess(
            on_start=lambda ctx: ctx.send(0, "x"),
            on_message=lambda ctx, s, p: (ctx.output("ok"), ctx.halt()),
        )
        result = Runtime({0: done}, FifoScheduler(), timing=LockStep()).run()
        assert result.outputs == {0: "ok"}


class TestLockStepUnderFaults:
    """A message a fault plan holds leaves the lock-step round at once
    and is eligible in the round after its release, so none is left in
    transit and the scheduler is never offered a withdrawn one."""

    def test_release_joins_the_next_round(self):
        def echo(ctx, sender, payload):
            if payload < 3:
                ctx.send(2, payload + 1)

        procs = {
            0: FuncProcess(on_start=lambda ctx: ctx.send(1, "x")),
            1: FuncProcess(on_message=lambda ctx, s, p: None),
            2: FuncProcess(on_start=lambda ctx: ctx.send(2, 1),
                           on_message=echo),
        }
        scheduler = recording_fifo()
        runtime = Runtime(procs, scheduler, timing=LockStep(),
                          faults="partition@{1}t0h5")
        result = runtime.run()
        # Uid 3 (0 -> 1, sent at step 1) crosses the cut and is held;
        # pid 2 echoes itself one message a round. The heal fires after
        # step 5, in round 3 (uid 5's), so uid 3 joins round 4 beside
        # uid 6, the message sent in round 3.
        assert scheduler.pools == [
            [0, 1, 2], [1, 2], [2], [4], [5], [3, 6], [6]
        ]
        assert result.messages_delivered == result.messages_sent == 7
        assert len(runtime.network) == 0

    @pytest.mark.parametrize(
        "plan", ["partition@{0,1}t10h60", "crash-restart@p2s6r40"]
    )
    def test_held_messages_are_delivered(self, plan):
        runtime = Runtime(
            {pid: Chatty(6) for pid in range(6)}, FifoScheduler(), seed=3,
            timing=LockStep(), faults=plan,
        )
        result = runtime.run()
        assert len(runtime.network) == 0
        assert result.messages_dropped == 0
        assert result.messages_delivered == result.messages_sent

    @pytest.mark.parametrize("scheduler", ["fifo", "random"])
    def test_crash_restart_cells_lose_nothing(self, scheduler):
        # Under random at seed 2 the crash withdraws pid 2's start signal
        # from the round pool before its delivery.
        spec = get_scenario("faultcheck-thm41").replace(
            faults=("crash-restart@p2s6r40",), timings=("lockstep",),
            schedulers=(scheduler,), seed_count=3,
        )
        for record in run_scenario(spec).records:
            assert record.ok, record.error
            assert record.messages_sent == (
                record.messages_delivered + record.messages_dropped
            ), record.seed


class Pinger(Process):
    """Everyone pings everyone; count pongs (from test_sim_runtime)."""

    def __init__(self, peers, expected):
        self.peers = peers
        self.expected = expected
        self.pongs = 0
        self.pings = 0

    def on_start(self, ctx):
        for peer in self.peers:
            if peer != ctx.pid:
                ctx.send(peer, ("ping", ctx.pid))

    def on_message(self, ctx, sender, payload):
        if payload[0] == "ping":
            ctx.send(sender, ("pong", ctx.pid))
            self.pings += 1
        else:
            self.pongs += 1
        if self.pongs == self.expected and self.pings == self.expected:
            if not ctx.has_output():
                ctx.output(self.pongs)
            ctx.halt()


def ping_world(n):
    peers = list(range(n))
    return {pid: Pinger(peers, n - 1) for pid in peers}


def max_latency(result):
    """Max (delivery step - send step) over protocol messages in the trace."""
    send_step = {
        e.uid: e.step for e in result.trace.sends()
    }
    return max(
        (e.step - send_step[e.uid])
        for e in result.trace.deliveries()
        if e.uid in send_step
    )


class TestBoundedDelay:
    def test_outputs_match_async_for_huge_bound(self):
        sched = LaggardScheduler([0])
        base = Runtime(ping_world(4), sched, seed=7).run()
        bounded = Runtime(
            ping_world(4), LaggardScheduler([0]), seed=7,
            timing=BoundedDelay(10**9),
        ).run()
        assert bounded.outputs == base.outputs
        assert max_latency(bounded) == max_latency(base)

    def test_huge_gst_defers_the_bound(self):
        base = Runtime(ping_world(4), LaggardScheduler([0]), seed=3).run()
        deferred = Runtime(
            ping_world(4), LaggardScheduler([0]), seed=3,
            timing=BoundedDelay(1, gst=10**9),
        ).run()
        assert max_latency(deferred) == max_latency(base)

    def test_degrades_monotonically_in_d(self):
        """The adversary's achievable starvation grows with the bound d."""
        latencies = []
        for d in (1, 4, 16, 64):
            result = Runtime(
                ping_world(5), LaggardScheduler([0]), seed=2,
                timing=BoundedDelay(d),
            ).run()
            assert result.outputs == {pid: 4 for pid in range(5)}
            latencies.append(max_latency(result))
        assert latencies == sorted(latencies)
        # A tight bound really does rein the laggard scheduler in.
        unbounded = Runtime(
            ping_world(5), LaggardScheduler([0]), seed=2
        ).run()
        assert latencies[0] < max_latency(unbounded)


class TestSyncAsyncParity:
    """Satellite: the canonical Thm 4.1 scenario across timing models."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_lockstep_matches_async_fifo_output_profile(self, seed):
        from repro.cheaptalk import compile_theorem41
        from repro.games.registry import make_game

        proto = compile_theorem41(make_game("consensus", 9), 1, 1)
        types = (0,) * 9
        async_run = proto.game.run(types, FifoScheduler(), seed=seed)
        lockstep_run = proto.game.run(
            types, FifoScheduler(), seed=seed, timing=LockStep()
        )
        assert async_run.actions == lockstep_run.actions
        assert len(set(lockstep_run.actions)) == 1

    def test_bounded_delay_profiles_match_async(self):
        from repro.cheaptalk import compile_theorem41
        from repro.games.registry import make_game

        proto = compile_theorem41(make_game("consensus", 9), 1, 1)
        types = (0,) * 9
        for seed in (0, 3):
            async_run = proto.game.run(types, FifoScheduler(), seed=seed)
            for d in (4, 8, 64):
                bounded = proto.game.run(
                    types, FifoScheduler(), seed=seed, timing=BoundedDelay(d)
                )
                assert bounded.actions == async_run.actions, (seed, d)


class TestScenarioTimings:
    def test_spec_round_trips_with_timings(self):
        spec = ScenarioSpec(
            name="tmp-timing",
            game="consensus",
            n=9,
            timings=("async", "lockstep", "bounded-8@10"),
            record_payloads=True,
            seed_count=2,
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.timings == ("async", "lockstep", "bounded-8@10")
        assert again.record_payloads is True

    def test_unknown_timing_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec(
                name="bad", game="consensus", n=9, timings=("warp",)
            )

    def test_grid_includes_timing_axis(self):
        spec = ScenarioSpec(
            name="tmp-grid",
            game="consensus",
            n=9,
            timings=("async", "lockstep"),
            schedulers=("fifo", "random"),
            seed_count=3,
        )
        tasks = expand_grid(spec)
        assert len(tasks) == spec.grid_size() == 2 * 2 * 3
        assert {t.timing for t in tasks} == {"async", "lockstep"}

    def test_r1_rejects_timing_grid(self):
        spec = ScenarioSpec(
            name="tmp-r1",
            game="consensus",
            n=7,
            theorem="r1",
            timings=("lockstep",),
        )
        with pytest.raises(ExperimentError):
            expand_grid(spec)

    def test_r1_records_lockstep_timing(self):
        spec = ScenarioSpec(
            name="tmp-r1-ok", game="consensus", n=7, theorem="r1"
        )
        tasks = expand_grid(spec)
        assert all(t.timing == "lockstep" for t in tasks)

    def test_record_payloads_captures_trace(self):
        from repro.experiments import ExperimentResult

        spec = ScenarioSpec(
            name="tmp-trace",
            game="chicken",
            n=2,
            theorem="mediator",
            k=1,
            t=0,
            record_payloads=True,
        )
        result = run_scenario(spec)
        record = result.records[0]
        assert record.ok, record
        kinds = {event[1] for event in record.trace}
        assert "send" in kinds and "deliver" in kinds
        assert any(event[6] is not None for event in record.trace
                   if event[1] == "deliver")
        again = ExperimentResult.from_json(result.to_json())
        assert again.records[0].trace == record.trace

    def test_timing_sweep_scenario_runs(self):
        from repro.experiments import get_scenario

        spec = get_scenario("thm41-timing-models").replace(
            schedulers=("fifo",), timings=("lockstep", "bounded-8"),
            seed_count=1,
        )
        result = run_scenario(spec)
        assert result.agreement_rate() == 1.0
        assert {r.timing for r in result.records} == {"lockstep", "bounded-8"}
