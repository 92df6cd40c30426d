"""Contract tests for the scheduler zoo."""

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import Chatty, recording_fifo
from repro.sim import (
    BatchRandomScheduler,
    BoundedDelay,
    DropPlanRelaxedScheduler,
    EagerScheduler,
    FifoScheduler,
    LaggardScheduler,
    LockStep,
    RandomScheduler,
    RelaxedScheduler,
    Runtime,
    RushingScheduler,
    scheduler_zoo,
)
from repro.sim.network import Message, Network


def mk(uid, sender=0, recipient=1, batch=0):
    return Message(uid=uid, sender=sender, recipient=recipient,
                   payload=None, send_step=0, batch=batch)


def transit(*messages):
    """The pool a scheduler is handed when exactly ``messages`` are in
    transit, each under its own uid."""
    net = Network()
    net.reinstate(messages)
    return net.view()


class TestChooseContracts:
    @pytest.mark.parametrize(
        "scheduler",
        [FifoScheduler(), RandomScheduler(0), EagerScheduler(),
         BatchRandomScheduler(0), LaggardScheduler([1])],
        ids=lambda s: s.name,
    )
    def test_empty_pool_returns_none(self, scheduler):
        scheduler.reset(0)
        assert scheduler.choose(transit(), 0) is None

    @pytest.mark.parametrize(
        "scheduler",
        [FifoScheduler(), RandomScheduler(0), EagerScheduler(),
         BatchRandomScheduler(0), LaggardScheduler([1])],
        ids=lambda s: s.name,
    )
    def test_always_picks_an_existing_uid(self, scheduler):
        scheduler.reset(0)
        pool = transit(mk(3), mk(7, recipient=2), mk(9, sender=1))
        for step in range(10):
            uid = scheduler.choose(pool, step)
            assert uid in {3, 7, 9}

    def test_fifo_order(self):
        sched = FifoScheduler()
        assert sched.choose(transit(mk(5), mk(2), mk(9)), 0) == 2

    def test_random_deterministic_per_reset(self):
        a = RandomScheduler(3)
        a.reset(11)
        pool = transit(*(mk(i) for i in range(10)))
        seq_a = [a.choose(pool, s) for s in range(5)]
        a.reset(11)
        seq_b = [a.choose(pool, s) for s in range(5)]
        assert seq_a == seq_b

    def test_eager_drains_one_recipient(self):
        sched = EagerScheduler()
        sched.reset(0)
        pool = transit(mk(1, recipient=1), mk(2, recipient=2),
                       mk(3, recipient=1))
        first = sched.choose(pool, 0)
        assert first == 1  # lowest recipient chosen, lowest uid within it
        pool2 = transit(mk(2, recipient=2), mk(3, recipient=1))
        assert sched.choose(pool2, 1) == 3  # stays on recipient 1

    def test_laggard_defers_victims(self):
        sched = LaggardScheduler([2])
        pool = transit(mk(1, recipient=2), mk(5, recipient=1))
        assert sched.choose(pool, 0) == 5
        only_victim = transit(mk(1, recipient=2))
        assert sched.choose(only_victim, 0) == 1  # must deliver eventually

    def test_laggard_senders_mode(self):
        sched = LaggardScheduler([2], lag_senders=True)
        pool = transit(mk(1, sender=2, recipient=0),
                       mk(5, sender=0, recipient=1))
        assert sched.choose(pool, 0) == 5

    def test_batch_random_finishes_batches(self):
        sched = BatchRandomScheduler(0)
        sched.reset(0)
        pool = [mk(1, batch=10), mk(2, batch=10), mk(3, batch=20)]
        first = sched.choose(transit(*pool), 0)
        batch = 10 if first in (1, 2) else 20
        rest = [m for m in pool if m.uid != first]
        second = sched.choose(transit(*rest), 1)
        same_batch_left = [m for m in rest if m.batch == batch]
        if same_batch_left:
            assert second == min(m.uid for m in same_batch_left)


class TestRelaxed:
    def test_counts_deliveries(self):
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=2)
        sched.reset(0)
        pool = transit(*(mk(i) for i in range(5)))
        assert sched.choose(pool, 0) == 0
        assert sched.choose(pool, 1) == 0
        assert sched.choose(pool, 2) is None

    def test_reset_restores_budget(self):
        sched = RelaxedScheduler(FifoScheduler(), deliveries_before_stop=1)
        sched.reset(0)
        assert sched.choose(transit(mk(1)), 0) == 1
        assert sched.choose(transit(mk(2)), 1) is None
        sched.reset(1)
        assert sched.choose(transit(mk(3)), 0) == 3

    def test_is_relaxed_flags(self):
        assert RelaxedScheduler(FifoScheduler(), 1).is_relaxed()
        assert not FifoScheduler().is_relaxed()


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


class TestOnePoolType:
    """Whatever restricts the pool — a lock-step round, a bounded-delay
    overdue class, a drop plan — the scheduler is handed a TransitView
    holding exactly the eligible messages."""

    N = 6

    def _run(self, expected, timing=None, wrap=lambda scheduler: scheduler):
        """Run the Chatty workload under a recording fifo that checks each
        pool against ``expected(network, step)``; return the pools with
        the in-transit count at each step."""
        runtime = None
        sizes = []

        def check(step):
            network = runtime.network
            sizes.append(len(network))
            return expected(network, step)

        recorder = recording_fifo(check)
        runtime = Runtime(
            {pid: Chatty(self.N) for pid in range(self.N)},
            wrap(recorder), seed=4, timing=timing,
        )
        runtime.run()
        assert recorder.pools
        return list(zip(recorder.pools, sizes))

    def test_lockstep_round(self):
        timing = LockStep()
        watermarks = {}

        def expected(network, step):
            # A round's pool is everything in transit when it began; what
            # is sent during the round waits for the next one.
            watermark = watermarks.setdefault(timing.round, network.total_sent)
            return [uid for uid in network.view().uids() if uid < watermark]

        pools = self._run(expected, timing=timing)
        assert len(watermarks) > 2
        assert any(len(pool) < size for pool, size in pools)

    def test_bounded_delay_overdue_class(self):
        def expected(network, step):
            deadline = {m.uid: m.send_step + 1 for m in network.in_transit()}
            overdue = [uid for uid, due in deadline.items() if due <= step]
            if not overdue:
                return list(network.view().uids())
            first = min(deadline[uid] for uid in overdue)
            return [uid for uid in overdue if deadline[uid] == first]

        pools = self._run(expected, timing=BoundedDelay(1))
        assert any(len(pool) < size for pool, size in pools)

    def test_drop_plan_deliverable_subset(self):
        def should_drop(view):
            return view.recipient == 2 and view.sender != -1

        def expected(network, step):
            return [v.uid for v in network.view() if not should_drop(v)]

        pools = self._run(
            expected,
            wrap=lambda base: DropPlanRelaxedScheduler(base, should_drop),
        )
        assert any(len(pool) < size for pool, size in pools)


# Scan oracles: each scheduler's choice written as a plain scan over a list
# of MessageViews, reading and updating the scheduler's own state the way
# its choose does. The schedulers answer from the pool's index instead; the
# test below holds every indexed answer to these.


def _oldest(views):
    return min(views, key=lambda m: m.uid).uid


def fifo_scan(sched, views):
    return _oldest(views) if views else None


def random_scan(sched, views):
    if not views:
        return None
    return sched._rng.choice(sorted(m.uid for m in views))


def eager_scan(sched, views):
    if not views:
        return None
    to_current = [m for m in views if m.recipient == sched._current]
    if not to_current:
        sched._current = min(m.recipient for m in views)
        to_current = [m for m in views if m.recipient == sched._current]
    return _oldest(to_current)


def laggard_scan(sched, views):
    if not views:
        return None

    def slow(m):
        if m.recipient in sched.lagging:
            return True
        return sched.lag_senders and m.sender in sched.lagging

    fast = [m for m in views if not slow(m)]
    return _oldest(fast if fast else views)


def batch_random_scan(sched, views):
    if not views:
        return None
    if sched._active_batch is not None:
        same = [m for m in views if m.batch == sched._active_batch]
        if same:
            return _oldest(same)
    chosen = sched._rng.choice(sorted(views, key=lambda m: m.uid))
    sched._active_batch = chosen.batch
    return chosen.uid


def rushing_scan(sched, views):
    if not views:
        return None
    fast = [m for m in views if m.sender in sched.favoured]
    return _oldest(fast if fast else views)


class TestTransitViewFastPaths:
    """The indexed TransitView answers must match the scan oracles."""

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
        net.deliver(1)
        net.drop(4)
        net.deliver(0)
        # Hold two messages (a partition cut), send a newer one, then put
        # the held ones back: reinstated uids are older than uid 10.
        held = [net.withdraw(7), net.withdraw(2)]
        net.send(1, 2, "x", 3, 16)
        net.reinstate(held)
        return net

    def _fresh_pairs(self):
        """(scheduler, a twin in the same state, the twin's scan oracle)."""
        return [
            (FifoScheduler(), FifoScheduler(), fifo_scan),
            (RandomScheduler(7), RandomScheduler(7), random_scan),
            (EagerScheduler(), EagerScheduler(), eager_scan),
            (BatchRandomScheduler(7), BatchRandomScheduler(7),
             batch_random_scan),
            (LaggardScheduler([0]), LaggardScheduler([0]), laggard_scan),
            (LaggardScheduler([2], lag_senders=True),
             LaggardScheduler([2], lag_senders=True), laggard_scan),
            (RushingScheduler([3]), RushingScheduler([3]), rushing_scan),
            (RushingScheduler([0, 2]), RushingScheduler([0, 2]),
             rushing_scan),
        ]

    def test_view_choice_matches_legacy_choice(self):
        for fast, legacy, scan in self._fresh_pairs():
            net = self._network()
            fast.reset(9)
            legacy.reset(9)
            for step in range(len(net)):
                view_pick = fast.choose(net.view(), step)
                list_pick = scan(legacy, list(net.view()))
                assert view_pick == list_pick, type(fast).__name__
                net.deliver(view_pick)
            assert fast.choose(net.view(), 99) is None

    def test_view_is_a_sequence(self):
        """Length and iteration (oldest first) agree with the uid list."""
        net = self._network()
        view = net.view()
        assert len(view) == 8
        assert [m.uid for m in view] == sorted(m.uid for m in view)
        first = next(iter(view))
        assert first.uid == min(view.uids())
        assert view.min_uid() == first.uid
        assert [view.nth_uid(i) for i in range(len(view))] == [
            m.uid for m in view
        ]


# One operation on a Network: (kind, a, b). Sends use a/b as sender and
# recipient; the other kinds pick the (a mod pool size)-th oldest message.
_OP = st.tuples(
    st.sampled_from(
        ["send", "send", "send", "deliver", "drop", "withdraw", "reinstate"]
    ),
    st.integers(0, 5),
    st.integers(0, 5),
)
_OPS = st.lists(_OP, max_size=60)


class TestIndexedPoolInvariants:
    """The sorted uid list and the index agree with a plain scan after
    any mix of send, deliver, drop, withdraw and reinstate, whenever the
    index was built."""

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
        assert set(view.self_senders()) == {
            m.sender for m in msgs if m.sender == m.recipient
        }

    @classmethod
    def _replay(cls, ops, first_check):
        """Apply ``ops`` to a fresh pool and check it after every op from
        step ``first_check`` on; the first check builds the index."""
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
                    net.deliver(uid)
                elif kind == "drop":
                    net.drop(uid)
                else:
                    held.append(net.withdraw(uid))
            if step >= first_check:
                cls._check(net)

    @given(_OPS)
    @settings(max_examples=150, deadline=None)
    def test_nth_uid_matches_sorted_pool(self, ops):
        self._replay(ops, first_check=0)

    @given(st.lists(_OP, min_size=10, max_size=60), st.integers(0, 60))
    @example(
        # Built after a reinstatement: uid 0 is back behind uid 1 in the
        # record map, yet it is the oldest message to recipient 1.
        ops=[("send", 0, 1), ("withdraw", 0, 0), ("send", 0, 1),
             ("reinstate", 0, 0)],
        first_check=3,
    )
    @settings(max_examples=150, deadline=None)
    def test_index_built_mid_run_matches_sorted_pool(self, ops, first_check):
        # The index is built from the pool as it stands at some step,
        # which may hold reinstated messages, and every later op must
        # keep it equal to a scan.
        self._replay(ops, first_check % len(ops))

    def test_index_is_built_only_when_asked(self):
        # Fifo and random draws read the uid list alone, so the pool
        # never builds the index for them; eager asks on its first step.
        for scheduler, built in ((FifoScheduler(), False),
                                 (RandomScheduler(3), False),
                                 (EagerScheduler(), True)):
            runtime = Runtime(
                {pid: Chatty(6) for pid in range(6)}, scheduler, seed=11
            )
            runtime.run()
            assert runtime.network._index.live is built, scheduler.name


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
