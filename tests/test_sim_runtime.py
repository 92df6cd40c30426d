"""Tests for the asynchronous simulation substrate."""

import pytest

from repro.errors import SchedulerError, SimulationError, StepLimitExceeded
from repro.sim import (
    Context,
    FifoScheduler,
    FuncProcess,
    LaggardScheduler,
    Process,
    RandomScheduler,
    EagerScheduler,
    BatchRandomScheduler,
    RelaxedScheduler,
    DropPlanRelaxedScheduler,
    Runtime,
    START_SIGNAL,
    message_pattern,
    scheduler_zoo,
)
from repro.utils.rng import RngTree


class Pinger(Process):
    """Sends 'ping' to everyone on start; outputs count of pongs received."""

    def __init__(self, peers, expected):
        self.peers = peers
        self.expected = expected
        self.pongs = 0
        self.pings = 0

    def on_start(self, ctx):
        for peer in self.peers:
            if peer != ctx.pid:
                ctx.send(peer, ("ping", ctx.pid))

    def _maybe_finish(self, ctx):
        # Only halt once we have answered every peer's ping, otherwise we
        # would starve slower players of their pongs.
        if self.pongs == self.expected and self.pings == self.expected:
            if not ctx.has_output():
                ctx.output(self.pongs)
            ctx.halt()

    def on_message(self, ctx, sender, payload):
        kind = payload[0]
        if kind == "ping":
            ctx.send(sender, ("pong", ctx.pid))
            self.pings += 1
        elif kind == "pong":
            self.pongs += 1
        self._maybe_finish(ctx)


def make_ping_world(n):
    peers = list(range(n))
    return {pid: Pinger(peers, n - 1) for pid in peers}


class TestBasicRuns:
    @pytest.mark.parametrize(
        "scheduler",
        [FifoScheduler(), RandomScheduler(1), EagerScheduler(), BatchRandomScheduler(2)],
    )
    def test_all_players_complete_ping_pong(self, scheduler):
        procs = make_ping_world(4)
        result = Runtime(procs, scheduler, seed=5).run()
        assert result.outputs == {pid: 3 for pid in range(4)}
        assert not result.deadlocked
        assert result.halted == set(range(4))

    def test_message_accounting(self):
        procs = make_ping_world(3)
        result = Runtime(procs, FifoScheduler(), seed=0).run()
        # 3 start signals + 6 pings + 6 pongs
        assert result.messages_sent == 3 + 6 + 6
        # pongs to already-halted players may be dropped, rest delivered
        assert result.messages_delivered + result.messages_dropped == result.messages_sent

    def test_deterministic_given_seed_and_scheduler(self):
        r1 = Runtime(make_ping_world(4), RandomScheduler(3), seed=9).run()
        r2 = Runtime(make_ping_world(4), RandomScheduler(3), seed=9).run()
        assert message_pattern(r1.trace) == message_pattern(r2.trace)
        assert r1.outputs == r2.outputs

    def test_different_schedulers_reach_same_outputs(self):
        outputs = []
        for sched in scheduler_zoo(seed=1, parties=range(4)):
            result = Runtime(make_ping_world(4), sched, seed=2).run()
            outputs.append(result.outputs)
        assert all(o == outputs[0] for o in outputs)

    def test_empty_process_set_rejected(self):
        with pytest.raises(SimulationError):
            Runtime({}, FifoScheduler())


class TestProcessSemantics:
    def test_on_start_called_before_messages(self):
        order = []

        class Recorder(Process):
            def on_start(self, ctx):
                order.append(("start", ctx.pid))

            def on_message(self, ctx, sender, payload):
                order.append(("msg", ctx.pid))
                ctx.halt()

        sender = FuncProcess(on_start=lambda ctx: ctx.send(1, "hello"))
        procs = {0: sender, 1: Recorder()}
        # Deliver the data message before player 1's start signal:
        class DataFirst(FifoScheduler):
            def choose(self, in_transit, step):
                data = [m for m in in_transit if m.sender == 0]
                if data:
                    return data[0].uid
                return super().choose(in_transit, step)

        Runtime(procs, DataFirst(), seed=0).run()
        assert order[0] == ("start", 1)

    def test_double_output_rejected(self):
        def bad(ctx, sender, payload):
            ctx.output(1)
            ctx.output(2)

        procs = {
            0: FuncProcess(on_start=lambda ctx: ctx.send(1, "x")),
            1: FuncProcess(on_message=bad),
        }
        with pytest.raises(SimulationError):
            Runtime(procs, FifoScheduler()).run()

    def test_send_to_unknown_process_rejected(self):
        procs = {0: FuncProcess(on_start=lambda ctx: ctx.send(7, "x"))}
        with pytest.raises(SimulationError):
            Runtime(procs, FifoScheduler()).run()

    def test_messages_to_halted_are_dropped(self):
        class Quitter(Process):
            def on_start(self, ctx):
                ctx.halt()

            def on_message(self, ctx, sender, payload):  # pragma: no cover
                raise AssertionError("halted process received message")

        class Talker(Process):
            def on_start(self, ctx):
                ctx.send(1, "late")

            def on_message(self, ctx, sender, payload):  # pragma: no cover
                pass

        result = Runtime({0: Talker(), 1: Quitter()}, FifoScheduler()).run()
        assert result.messages_dropped >= 1

    def test_self_messages_allowed(self):
        """The Section 6.1 covert-channel construction sends to self."""
        class SelfTalker(Process):
            def __init__(self):
                self.count = 0

            def on_start(self, ctx):
                ctx.send(ctx.pid, "tick")

            def on_message(self, ctx, sender, payload):
                self.count += 1
                if self.count < 3:
                    ctx.send(ctx.pid, "tick")
                else:
                    ctx.output(self.count)
                    ctx.halt()

        result = Runtime({0: SelfTalker()}, FifoScheduler()).run()
        assert result.outputs[0] == 3

    def test_rng_is_deterministic_per_pid(self):
        values = {}

        class Roller(Process):
            def on_start(self, ctx):
                values[ctx.pid] = ctx.rng.randrange(10**9)
                ctx.halt()

            def on_message(self, ctx, sender, payload):  # pragma: no cover
                pass

        Runtime({0: Roller(), 1: Roller()}, FifoScheduler(), seed=4).run()
        first = dict(values)
        values.clear()
        Runtime({0: Roller(), 1: Roller()}, FifoScheduler(), seed=4).run()
        assert values == first
        assert first[0] != first[1]  # streams differ across pids

        class LateRoller(Process):
            """First reads its stream on its second activation."""

            def on_start(self, ctx):
                ctx.send(ctx.pid, "later")

            def on_message(self, ctx, sender, payload):
                values[ctx.pid] = [ctx.rng.randrange(10**9) for _ in range(3)]
                ctx.halt()

        values.clear()
        Runtime({0: Roller(), 1: LateRoller()}, FifoScheduler(), seed=4).run()
        stream = RngTree(4).child("proc", 1).rng
        assert values[1] == [stream.randrange(10**9) for _ in range(3)]
        assert values[0] == first[0]

    def test_stream_is_seeded_on_first_draw_only(self):
        class Relay(Process):
            def __init__(self, draws):
                self.draws = draws

            def on_start(self, ctx):
                ctx.send(1 - ctx.pid, "hi")

            def on_message(self, ctx, sender, payload):
                ctx.output(ctx.rng.random() if self.draws else payload)
                ctx.halt()

        quiet = Runtime({0: Relay(False), 1: Relay(False)}, FifoScheduler())
        quiet.run()
        assert quiet._rngs == {}
        one = Runtime({0: Relay(False), 1: Relay(True)}, FifoScheduler())
        one.run()
        assert set(one._rngs) == {1}


class TestTermination:
    def test_step_limit_raises(self):
        class Forever(Process):
            def on_start(self, ctx):
                ctx.send(ctx.pid, "again")

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.pid, "again")

        with pytest.raises(StepLimitExceeded):
            Runtime({0: Forever()}, FifoScheduler(), step_limit=50).run()

    def test_step_limit_soft_mode(self):
        class Forever(Process):
            def on_start(self, ctx):
                ctx.send(ctx.pid, "again")

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.pid, "again")

        result = Runtime(
            {0: Forever()}, FifoScheduler(), step_limit=50, raise_on_step_limit=False
        ).run()
        assert result.steps <= 50

    def test_quiescence_with_live_process_is_deadlock(self):
        waiting = FuncProcess(on_message=lambda ctx, s, p: None)  # never halts
        result = Runtime({0: waiting}, FifoScheduler()).run()
        assert result.deadlocked
        assert result.live == {0}

    def test_wills_collected_on_deadlock(self):
        proc = FuncProcess(
            on_message=lambda ctx, s, p: None,
            on_deadlock=lambda pid: ("punish", pid),
        )
        result = Runtime({0: proc}, FifoScheduler()).run()
        assert result.wills == {0: ("punish", 0)}


class TestRelaxedSchedulers:
    def test_relaxed_scheduler_causes_deadlock(self):
        procs = make_ping_world(3)
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=4)
        result = Runtime(procs, sched, seed=0).run()
        assert result.deadlocked
        assert result.messages_dropped > 0

    def test_start_signals_always_delivered(self):
        seen_start = set()

        class Observer(Process):
            def on_start(self, ctx):
                seen_start.add(ctx.pid)

            def on_message(self, ctx, sender, payload):
                pass

        procs = {pid: Observer() for pid in range(3)}
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=0)
        Runtime(procs, sched, seed=0).run()
        assert seen_start == {0, 1, 2}

    def test_mediator_batch_all_or_none(self):
        """If one message of a mediator batch is delivered, all must be."""
        MEDIATOR = 99
        got = []

        class Med(Process):
            def on_start(self, ctx):
                for pid in range(3):
                    ctx.send(pid, ("STOP", pid))

            def on_message(self, ctx, sender, payload):
                pass

        class Player(Process):
            def on_message(self, ctx, sender, payload):
                got.append(ctx.pid)
                ctx.halt()

        procs = {pid: Player() for pid in range(3)}
        procs[MEDIATOR] = Med()
        # Stop right after the first *data* delivery: 4 start signals + 1.
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=5)
        Runtime(procs, sched, seed=0, mediator_pid=MEDIATOR).run()
        assert sorted(got) == [0, 1, 2]

    def test_drop_plan_scheduler(self):
        procs = make_ping_world(3)
        sched = DropPlanRelaxedScheduler(
            FifoScheduler(), should_drop=lambda m: m.recipient == 0 and m.sender != -1
        )
        result = Runtime(procs, sched, seed=0).run()
        # player 0 never gets pongs -> no output
        assert 0 not in result.outputs
        assert result.deadlocked

    def test_non_relaxed_scheduler_refusing_is_error(self):
        class Lazy(FifoScheduler):
            def choose(self, in_transit, step):
                return None

        procs = make_ping_world(2)
        with pytest.raises(SchedulerError):
            Runtime(procs, Lazy(), seed=0).run()


class TestLaggard:
    def test_laggard_starves_but_eventually_delivers(self):
        procs = make_ping_world(4)
        result = Runtime(procs, LaggardScheduler([0]), seed=0).run()
        assert result.outputs[0] == 3  # still completes

    def test_laggard_delivery_order_biased(self):
        procs = make_ping_world(4)
        result = Runtime(procs, LaggardScheduler([0]), seed=0).run()
        deliveries = [e for e in result.trace.deliveries() if e.sender != -1]
        to_zero = [i for i, e in enumerate(deliveries) if e.recipient == 0]
        to_rest = [i for i, e in enumerate(deliveries) if e.recipient != 0]
        assert sum(to_zero) / len(to_zero) > sum(to_rest) / len(to_rest)


class TestMessagePattern:
    def test_pattern_shape(self):
        procs = {
            0: FuncProcess(on_start=lambda ctx: ctx.send(1, "x")),
            1: FuncProcess(on_message=lambda ctx, s, p: ctx.halt()),
        }
        result = Runtime(procs, FifoScheduler()).run()
        pattern = message_pattern(result.trace)
        assert ("s", 0, 1, 1) in pattern
        assert ("d", 0, 1, 1) in pattern

    def test_pattern_erases_contents(self):
        def mk(payload):
            return {
                0: FuncProcess(on_start=lambda ctx: ctx.send(1, payload)),
                1: FuncProcess(on_message=lambda ctx, s, p: ctx.halt()),
            }

        p1 = message_pattern(Runtime(mk("a"), FifoScheduler()).run().trace)
        p2 = message_pattern(Runtime(mk("b"), FifoScheduler()).run().trace)
        assert p1 == p2
