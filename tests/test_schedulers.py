"""Contract tests for the scheduler zoo."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    BatchRandomScheduler,
    EagerScheduler,
    FifoScheduler,
    LaggardScheduler,
    Process,
    RandomScheduler,
    RelaxedScheduler,
    Runtime,
    RushingScheduler,
    scheduler_zoo,
)
from repro.sim.network import MessageView, Network


def mk(uid, sender=0, recipient=1, batch=0):
    return MessageView(uid=uid, sender=sender, recipient=recipient,
                       send_step=0, batch=batch)


class TestChooseContracts:
    @pytest.mark.parametrize(
        "scheduler",
        [FifoScheduler(), RandomScheduler(0), EagerScheduler(),
         BatchRandomScheduler(0), LaggardScheduler([1])],
        ids=lambda s: s.name,
    )
    def test_empty_pool_returns_none(self, scheduler):
        scheduler.reset(0)
        assert scheduler.choose([], 0) is None

    @pytest.mark.parametrize(
        "scheduler",
        [FifoScheduler(), RandomScheduler(0), EagerScheduler(),
         BatchRandomScheduler(0), LaggardScheduler([1])],
        ids=lambda s: s.name,
    )
    def test_always_picks_an_existing_uid(self, scheduler):
        scheduler.reset(0)
        pool = [mk(3), mk(7, recipient=2), mk(9, sender=1)]
        for step in range(10):
            uid = scheduler.choose(pool, step)
            assert uid in {3, 7, 9}

    def test_fifo_order(self):
        sched = FifoScheduler()
        assert sched.choose([mk(5), mk(2), mk(9)], 0) == 2

    def test_random_deterministic_per_reset(self):
        a = RandomScheduler(3)
        a.reset(11)
        pool = [mk(i) for i in range(10)]
        seq_a = [a.choose(pool, s) for s in range(5)]
        a.reset(11)
        seq_b = [a.choose(pool, s) for s in range(5)]
        assert seq_a == seq_b

    def test_eager_drains_one_recipient(self):
        sched = EagerScheduler()
        sched.reset(0)
        pool = [mk(1, recipient=1), mk(2, recipient=2), mk(3, recipient=1)]
        first = sched.choose(pool, 0)
        assert first == 1  # lowest recipient chosen, lowest uid within it
        pool2 = [mk(2, recipient=2), mk(3, recipient=1)]
        assert sched.choose(pool2, 1) == 3  # stays on recipient 1

    def test_laggard_defers_victims(self):
        sched = LaggardScheduler([2])
        pool = [mk(1, recipient=2), mk(5, recipient=1)]
        assert sched.choose(pool, 0) == 5
        only_victim = [mk(1, recipient=2)]
        assert sched.choose(only_victim, 0) == 1  # must deliver eventually

    def test_laggard_senders_mode(self):
        sched = LaggardScheduler([2], lag_senders=True)
        pool = [mk(1, sender=2, recipient=0), mk(5, sender=0, recipient=1)]
        assert sched.choose(pool, 0) == 5

    def test_batch_random_finishes_batches(self):
        sched = BatchRandomScheduler(0)
        sched.reset(0)
        pool = [mk(1, batch=10), mk(2, batch=10), mk(3, batch=20)]
        first = sched.choose(pool, 0)
        batch = 10 if first in (1, 2) else 20
        rest = [m for m in pool if m.uid != first]
        second = sched.choose(rest, 1)
        same_batch_left = [m for m in rest if m.batch == batch]
        if same_batch_left:
            assert second == min(m.uid for m in same_batch_left)


class TestRelaxed:
    def test_counts_deliveries(self):
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=2)
        sched.reset(0)
        pool = [mk(i) for i in range(5)]
        assert sched.choose(pool, 0) == 0
        assert sched.choose(pool, 1) == 0
        assert sched.choose(pool, 2) is None

    def test_reset_restores_budget(self):
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=1)
        sched.reset(0)
        assert sched.choose([mk(1)], 0) == 1
        assert sched.choose([mk(2)], 1) is None
        sched.reset(1)
        assert sched.choose([mk(3)], 0) == 3

    def test_is_relaxed_flags(self):
        assert RelaxedScheduler(FifoScheduler(), 1).is_relaxed()
        assert not FifoScheduler().is_relaxed()


class Chatty(Process):
    """Randomized workload: a burst at start, one relay per delivery."""

    def __init__(self, n, budget=12):
        self.n = n
        self.budget = budget

    def on_start(self, ctx):
        for _ in range(3):
            ctx.send(ctx.rng.randrange(self.n), ("chat", ctx.pid))

    def on_message(self, ctx, sender, payload):
        if self.budget > 0:
            self.budget -= 1
            ctx.send(ctx.rng.randrange(self.n), ("chat", ctx.pid))


def _registered_schedulers(n):
    from repro.experiments.schedulers import (
        SCHEDULER_BUILDERS,
        scheduler_from_name,
    )

    return [(name, scheduler_from_name(name, n)) for name in
            sorted(SCHEDULER_BUILDERS)]


class TestDrainContract:
    """Satellite: every registered non-relaxed scheduler must eventually
    deliver every message — the ``Scheduler.choose`` contract, enforced
    empirically on a randomized workload instead of only by construction."""

    def test_non_relaxed_schedulers_drain_everything(self):
        n = 6
        for name, scheduler in _registered_schedulers(n):
            if scheduler.is_relaxed():
                continue
            result = Runtime(
                {pid: Chatty(n) for pid in range(n)}, scheduler, seed=11
            ).run()
            assert result.messages_dropped == 0, name
            assert result.messages_delivered == result.messages_sent, name

    def test_zoo_schedulers_drain_everything(self):
        n = 6
        for scheduler in scheduler_zoo(seed=3, parties=range(n)):
            result = Runtime(
                {pid: Chatty(n) for pid in range(n)}, scheduler, seed=5
            ).run()
            assert result.messages_dropped == 0, scheduler.name
            assert (
                result.messages_delivered == result.messages_sent
            ), scheduler.name

    def test_relaxed_registered_schedulers_flagged(self):
        # Relaxed entries in the registry must say so, since the drain
        # contract intentionally skips them.
        relaxed = [name for name, s in _registered_schedulers(6)
                   if s.is_relaxed()]
        assert relaxed == ["colluding"]


class TestTransitViewFastPaths:
    """The indexed TransitView answers must match the legacy list scans."""

    def _network(self):
        net = Network()
        # A mix of recipients/senders/batches, some removed to exercise
        # bucket cleanup.
        layout = [
            (0, 1, 10), (1, 2, 10), (2, 0, 11), (1, 0, 12), (3, 2, 12),
            (2, 1, 13), (0, 2, 13), (3, 0, 14), (1, 3, 14), (2, 3, 15),
        ]
        for sender, recipient, batch in layout:
            net.send(sender, recipient, "x", 0, batch)
        net.deliver(1, 1)
        net.drop(4)
        net.deliver(0, 2)
        # Hold two messages (a partition cut), send a newer one, then put
        # the held ones back: reinstated uids are older than uid 10.
        held = [net.withdraw(7), net.withdraw(2)]
        net.send(1, 2, "x", 3, 16)
        net.reinstate(held)
        return net

    def _fresh_pairs(self):
        return [
            (FifoScheduler(), FifoScheduler()),
            (RandomScheduler(7), RandomScheduler(7)),
            (EagerScheduler(), EagerScheduler()),
            (BatchRandomScheduler(7), BatchRandomScheduler(7)),
            (LaggardScheduler([0]), LaggardScheduler([0])),
            (LaggardScheduler([2], lag_senders=True),
             LaggardScheduler([2], lag_senders=True)),
            (RushingScheduler([3]), RushingScheduler([3])),
            (RushingScheduler([0, 2]), RushingScheduler([0, 2])),
        ]

    def test_view_choice_matches_legacy_choice(self):
        for fast, legacy in self._fresh_pairs():
            net = self._network()
            fast.reset(9)
            legacy.reset(9)
            for step in range(len(net)):
                view_pick = fast.choose(net.view(), step)
                list_pick = legacy.choose(net.in_transit_views(), step)
                assert view_pick == list_pick, type(fast).__name__
                net.deliver(view_pick, step)
            assert fast.choose(net.view(), 99) is None

    def test_view_is_a_sequence(self):
        net = self._network()
        view = net.view()
        assert len(view) == 8
        assert [m.uid for m in view] == sorted(m.uid for m in view)
        assert view[0].uid == min(view.uids())
        assert view.min_uid() == view[0].uid
        assert [view.nth_uid(i) for i in range(len(view))] == [
            m.uid for m in view
        ]


# One operation on a Network: (kind, a, b). Sends use a/b as sender and
# recipient; the other kinds pick the (a mod pool size)-th oldest message.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["send", "send", "send", "deliver", "drop", "withdraw",
             "reinstate"]
        ),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    max_size=60,
)


class TestIndexedPoolInvariants:
    """The sorted uid list and the buckets agree with a plain scan after
    any mix of send, deliver, drop, withdraw and reinstate."""

    @staticmethod
    def _check(net):
        view = net.view()
        msgs = [net.get(uid) for uid in view.uids()]
        expected = sorted(m.uid for m in msgs)
        assert [view.nth_uid(i) for i in range(len(view))] == expected
        assert [m.uid for m in net.in_transit()] == expected
        assert view.min_uid() == (expected[0] if expected else None)
        for pid in range(6):
            to_pid = [m.uid for m in msgs if m.recipient == pid]
            from_pid = [m.uid for m in msgs if m.sender == pid]
            in_batch = [m.uid for m in msgs if m.batch == pid]
            assert view.oldest_to(pid) == min(to_pid, default=None)
            assert view.oldest_from(pid) == min(from_pid, default=None)
            assert view.oldest_in_batch(pid) == min(in_batch, default=None)
            assert view.has_self_message(pid) == any(
                m.sender == m.recipient == pid for m in msgs
            )

    @given(_OPS)
    @settings(max_examples=150, deadline=None)
    def test_nth_uid_matches_sorted_pool(self, ops):
        net = Network()
        held = []
        for step, (kind, a, b) in enumerate(ops):
            if kind == "send":
                net.send(a, b, "x", step, a)
            elif kind == "reinstate":
                net.reinstate(held)
                held = []
            elif len(net):
                uid = net.view().nth_uid(a % len(net))
                if kind == "deliver":
                    net.deliver(uid, step)
                elif kind == "drop":
                    net.drop(uid)
                else:
                    held.append(net.withdraw(uid))
            self._check(net)


class TestZoo:
    def test_zoo_contains_variety(self):
        zoo = scheduler_zoo(seed=0, parties=range(6))
        names = {s.name for s in zoo}
        assert "fifo" in names
        assert any(name.startswith("laggard") for name in names)
        assert len(zoo) >= 7

    def test_zoo_without_parties(self):
        zoo = scheduler_zoo(seed=0)
        assert all(not s.name.startswith("laggard") for s in zoo)
