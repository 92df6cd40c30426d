"""Tests for the synchronous runtime, BGW engine, and R1 compiler."""

import pytest

from repro.cheaptalk.sync import SynchronousCheapTalk, compile_r1
from repro.circuits import Circuit
from repro.errors import CompilationError, SimulationError, StepLimitExceeded
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import byzantine_agreement_game, consensus_game
from repro.mpc.bgw import multiplication_layers
from repro.sim.sync import SyncProcess, SyncRuntime

F = GF(DEFAULT_PRIME)


class Echo(SyncProcess):
    def __init__(self, peer):
        self.peer = peer
        self.got = []

    def on_round(self, ctx, inbox):
        if ctx.round == 0:
            ctx.send(self.peer, ("hello", ctx.pid))
            return
        for sender, payload in inbox:
            self.got.append((sender, payload))
        if self.got and not ctx.has_output():
            ctx.output(len(self.got))
            ctx.halt()


class TestSyncRuntime:
    def test_round_delivery(self):
        procs = {0: Echo(1), 1: Echo(0)}
        result = SyncRuntime(procs).run()
        assert result.outputs == {0: 1, 1: 1}
        assert result.rounds >= 2

    def test_empty_process_set_rejected(self):
        with pytest.raises(SimulationError):
            SyncRuntime({})

    def test_double_output_rejected(self):
        class Bad(SyncProcess):
            def on_round(self, ctx, inbox):
                ctx.output(1)
                ctx.output(2)

        with pytest.raises(SimulationError):
            SyncRuntime({0: Bad()}).run()

    def test_round_limit(self):
        class Chatter(SyncProcess):
            def on_round(self, ctx, inbox):
                ctx.send(ctx.pid, "again")

        with pytest.raises(StepLimitExceeded):
            SyncRuntime({0: Chatter()}, max_rounds=10).run()

    def test_rng_uses_legacy_sync_namespace(self):
        """Seeded synchronous runs must reproduce pre-kernel randomness."""
        from repro.utils.rng import RngTree

        values = {}

        class Roller(SyncProcess):
            def on_round(self, ctx, inbox):
                values[ctx.pid] = ctx.rng.randrange(10**9)
                ctx.halt()

        SyncRuntime({0: Roller(), 1: Roller()}, seed=3).run()
        expected = {
            pid: RngTree(3).child("sync", pid).rng.randrange(10**9)
            for pid in (0, 1)
        }
        assert values == expected

    def test_rng_first_read_in_a_later_round(self):
        """A stream first read in round 2 draws what it would have drawn
        in round 0."""
        from repro.utils.rng import RngTree

        values = {}

        class LateRoller(SyncProcess):
            def on_round(self, ctx, inbox):
                if ctx.pid == 0 or ctx.round == 2:
                    values[ctx.pid] = [
                        ctx.rng.randrange(10**9) for _ in range(3)
                    ]
                    ctx.halt()
                else:
                    ctx.send(ctx.pid, "wait")

        SyncRuntime({0: LateRoller(), 1: LateRoller()}, seed=3).run()
        streams = {pid: RngTree(3).child("sync", pid).rng for pid in (0, 1)}
        assert values == {
            pid: [stream.randrange(10**9) for _ in range(3)]
            for pid, stream in streams.items()
        }

    def test_rng_deterministic(self):
        values = {}

        class Roller(SyncProcess):
            def on_round(self, ctx, inbox):
                values[ctx.pid] = ctx.rng.randrange(10**9)
                ctx.halt()

        SyncRuntime({0: Roller(), 1: Roller()}, seed=3).run()
        first = dict(values)
        values.clear()
        SyncRuntime({0: Roller(), 1: Roller()}, seed=3).run()
        assert values == first

    def test_broadcast_reaches_everyone(self):
        seen = {}

        class Caster(SyncProcess):
            def on_round(self, ctx, inbox):
                if ctx.round == 0 and ctx.pid == 0:
                    ctx.broadcast("announcement")
                for sender, payload in inbox:
                    seen[ctx.pid] = payload
                if ctx.round >= 1:
                    ctx.halt()

        SyncRuntime({i: Caster() for i in range(3)}).run()
        assert seen == {i: "announcement" for i in range(3)}


class TestMultiplicationLayers:
    def test_layering(self):
        c = Circuit(F)
        a, b = c.input(0), c.input(1)
        m1 = c.mul(a, b)          # layer 1
        m2 = c.mul(m1, b)         # layer 2
        s = c.add(m1, m2)
        m3 = c.mul(s, m1)         # layer 3
        layers = multiplication_layers(c)
        assert layers == [[m1], [m2], [m3]]

    def test_parallel_muls_share_a_layer(self):
        c = Circuit(F)
        a, b = c.input(0), c.input(1)
        m1 = c.mul(a, b)
        m2 = c.mul(b, a)
        layers = multiplication_layers(c)
        assert layers == [[m1, m2]]

    def test_no_muls(self):
        c = Circuit(F)
        c.add(c.const(1), c.const(2))
        assert multiplication_layers(c) == []


class TestR1Compiler:
    def test_bound_enforced(self):
        with pytest.raises(CompilationError):
            compile_r1(consensus_game(6), 1, 1)
        assert compile_r1(consensus_game(7), 1, 1)
        # The cost of asynchrony: Thm 4.1 needs n > 4k+4t = 8.
        from repro.cheaptalk import compile_theorem41

        with pytest.raises(CompilationError):
            compile_theorem41(consensus_game(7), 1, 1)

    def test_consensus_coordinates(self):
        sync = compile_r1(consensus_game(7), 1, 1)
        for seed in range(4):
            actions, result = sync.run((0,) * 7, seed=seed)
            assert len(set(actions)) == 1
            assert actions[0] in (0, 1)

    def test_byzantine_agreement_majority(self):
        sync = compile_r1(byzantine_agreement_game(7), 1, 1)
        actions, _ = sync.run((1, 1, 1, 1, 0, 0, 0), seed=0)
        assert actions == (1,) * 7

    def test_crash_fault_defaults_input(self):
        sync = compile_r1(byzantine_agreement_game(7), 1, 1)
        # types majority 1 but crashing two 1-voters flips reported majority
        actions, _ = sync.run(
            (1, 1, 1, 1, 0, 0, 0), seed=1, crashed=[0, 1]
        )
        # Defaults (type profile 0) for crashed: reported = (0,0,1,1,0,0,0).
        assert actions[2:] == (0,) * 5

    def test_fewer_messages_than_async(self):
        from repro.cheaptalk import compile_theorem41
        from repro.sim import FifoScheduler

        sync = compile_r1(consensus_game(9), 1, 1)
        async_proto = compile_theorem41(consensus_game(9), 1, 1)
        for seed in (1, 2):
            sync_actions, sync_result = sync.run((0,) * 9, seed=seed)
            async_run = async_proto.game.run(
                (0,) * 9, FifoScheduler(), seed=seed
            )
            assert len(set(sync_actions)) == 1
            assert len(set(async_run.actions)) == 1
            assert sync_result.messages_sent < async_run.message_count()

    def test_outcome_distribution_is_fair_coin(self):
        sync = compile_r1(consensus_game(7), 1, 1)
        ones = sum(sync.run((0,) * 7, seed=s)[0][0] for s in range(20))
        assert 3 <= ones <= 17
