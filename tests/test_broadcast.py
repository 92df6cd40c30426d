"""Tests for RBC, common coin, ABA, and ACS."""

import pytest

from repro.broadcast import SESSION_REGISTRY, SessionHost, coin_value
from repro.broadcast.rbc import rbc_sid
from repro.broadcast.aba import aba_sid
from repro.broadcast.acs import acs_sid
from repro.errors import ProtocolError
from repro.mpc.avss import AsyncVerifiableSS
from repro.sim import (
    BatchRandomScheduler,
    EagerScheduler,
    FifoScheduler,
    LaggardScheduler,
    RandomScheduler,
)

from tests.helpers import CrashProcess, ScriptedByzantine, results_for, run_hosts

LARGER_SIZES = [(7, 2), (10, 3)]  # n = 3t + 1 beyond the n = 4 tests

SCHEDULERS = [
    FifoScheduler(),
    RandomScheduler(7),
    EagerScheduler(),
    BatchRandomScheduler(3),
    LaggardScheduler([0]),
]


class TestCoin:
    def test_deterministic_and_uniformish(self):
        values = [coin_value(42, ("tag", i)) for i in range(200)]
        assert all(v in (0, 1) for v in values)
        assert 60 < sum(values) < 140
        assert values == [coin_value(42, ("tag", i)) for i in range(200)]

    def test_modulus(self):
        values = {coin_value(1, i, modulus=5) for i in range(100)}
        assert values == {0, 1, 2, 3, 4}

    def test_different_seeds_differ(self):
        a = [coin_value(1, i) for i in range(64)]
        b = [coin_value(2, i) for i in range(64)]
        assert a != b


class TestRBC:
    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
    def test_honest_dealer_all_deliver(self, scheduler):
        sid = rbc_sid(0, "x")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input("payload")

        hosts, _ = run_hosts(4, 1, on_ready=kick, scheduler=scheduler)
        delivered = results_for(hosts, sid)
        assert delivered == {pid: "payload" for pid in range(4)}

    @pytest.mark.parametrize("n,t", LARGER_SIZES)
    def test_honest_dealer_delivers_at_larger_sizes(self, n, t):
        sid = rbc_sid(0, "x")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input("v")

        hosts, _ = run_hosts(n, t, on_ready=kick)
        assert results_for(hosts, sid) == {p: "v" for p in range(n)}

    def test_crashed_dealer_no_delivery_but_quiesce(self):
        sid = rbc_sid(0, "x")
        hosts, result = run_hosts(4, 1, byzantine={0: CrashProcess()})
        assert results_for(hosts, sid) == {}
        assert result.steps < 1000

    def test_crash_nondealer_still_delivers(self):
        sid = rbc_sid(0, "x")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input(123)

        hosts, _ = run_hosts(4, 1, on_ready=kick, byzantine={3: CrashProcess()})
        delivered = results_for(hosts, sid)
        assert delivered == {0: 123, 1: 123, 2: 123}

    def test_equivocating_dealer_agreement_holds(self):
        """A dealer sending different init values cannot split honest parties."""
        sid = rbc_sid(0, "x")

        def behaviour(ctx, sender, payload):
            if sender is None:
                for pid in (1, 2):
                    ctx.send(pid, (sid, ("init", "A")))
                ctx.send(3, (sid, ("init", "B")))
            # Echo both values everywhere to maximise confusion.
            if sender is not None and payload and payload[1][0] == "echo":
                return

        hosts, _ = run_hosts(
            4, 1, byzantine={0: ScriptedByzantine(behaviour)},
            scheduler=RandomScheduler(5),
        )
        delivered = set(results_for(hosts, sid).values())
        assert len(delivered) <= 1

    def test_forged_init_ignored(self):
        """Only the dealer's init triggers echoes."""
        sid = rbc_sid(0, "x")

        def behaviour(ctx, sender, payload):
            if sender is None:
                for pid in (0, 2, 3):
                    ctx.send(pid, (sid, ("init", "forged")))

        hosts, _ = run_hosts(
            4, 1, byzantine={1: ScriptedByzantine(behaviour)}
        )
        assert results_for(hosts, sid) == {}

    def test_two_parallel_instances_do_not_interfere(self):
        sid_a = rbc_sid(0, "a")
        sid_b = rbc_sid(1, "b")

        def kick(host):
            if host.me == 0:
                host.open_session(sid_a).input("va")
            if host.me == 1:
                host.open_session(sid_b).input("vb")

        hosts, _ = run_hosts(4, 1, on_ready=kick, scheduler=RandomScheduler(2))
        assert set(results_for(hosts, sid_a).values()) == {"va"}
        assert set(results_for(hosts, sid_b).values()) == {"vb"}


class TestABA:
    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_inputs_decide_that_value(self, scheduler, value):
        sid = aba_sid("vote")

        def kick(host):
            host.open_session(sid).propose(value)

        hosts, _ = run_hosts(4, 1, on_ready=kick, scheduler=scheduler)
        assert results_for(hosts, sid) == {pid: value for pid in range(4)}

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_inputs_agree(self, seed):
        sid = aba_sid("vote")

        def kick(host):
            host.open_session(sid).propose(host.me % 2)

        hosts, _ = run_hosts(
            4, 1, on_ready=kick, scheduler=RandomScheduler(seed), seed=seed
        )
        decisions = results_for(hosts, sid)
        assert set(decisions) == {0, 1, 2, 3}
        assert len(set(decisions.values())) == 1

    def test_tolerates_crash_fault(self):
        sid = aba_sid("vote")

        def kick(host):
            host.open_session(sid).propose(1)

        hosts, _ = run_hosts(4, 1, on_ready=kick, byzantine={2: CrashProcess()})
        decisions = results_for(hosts, sid)
        assert decisions == {0: 1, 1: 1, 3: 1}

    def test_larger_network(self):
        sid = aba_sid("vote")

        def kick(host):
            host.open_session(sid).propose(1 if host.me < 4 else 0)

        hosts, _ = run_hosts(
            7, 2, on_ready=kick, scheduler=RandomScheduler(11), seed=3
        )
        decisions = results_for(hosts, sid)
        assert len(decisions) == 7
        assert len(set(decisions.values())) == 1

    @pytest.mark.parametrize("n,t", LARGER_SIZES)
    def test_mixed_inputs_agree_at_larger_sizes(self, n, t):
        sid = aba_sid("vote")

        def kick(host):
            host.open_session(sid).propose(host.me % 2)

        hosts, _ = run_hosts(n, t, on_ready=kick)
        decisions = results_for(hosts, sid)
        assert len(decisions) == n
        assert len(set(decisions.values())) == 1

    def test_invalid_input_rejected(self):
        from repro.errors import ProtocolError

        def kick(host):
            with pytest.raises(ProtocolError):
                host.open_session(aba_sid("x")).propose(2)
            with pytest.raises(ProtocolError):  # peers ignore non-int bits
                host.open_session(aba_sid("x")).propose(True)
            host.open_session(aba_sid("x")).propose(0)

        run_hosts(4, 1, on_ready=kick)


class TestABAThresholds:
    """Unit checks on one ABA endpoint (n=4, t=1: relay at 2, bin_values
    at 3, advance on 3 AUX). With no activation in progress the host
    queues every send in ``_pending_sends``, which the tests read."""

    def _aba(self):
        host = SessionHost(0, [0, 1, 2, 3], {"t": 1, "coin_seed": 5})
        return host, host.open_session(aba_sid("unit"))

    @staticmethod
    def _sent(host):
        return [payload for _sid, to, payload in host._pending_sends if to == 0]

    def test_aux_before_bin_values_counts_once_value_enters(self):
        host, aba = self._aba()
        aba.propose(1)
        for sender in (1, 2, 3):
            aba.handle(sender, ("aux", 0, 1))
        state = aba.rounds[0]
        assert state.bin_values == set() and not state.aux_sent
        assert not state.advanced
        for sender in (0, 1, 2):
            aba.handle(sender, ("bval", 0, 1))
        assert state.bin_values == {1}
        assert ("aux", 0, 1) in self._sent(host)
        assert state.advanced
        coin = coin_value(5, (aba.sid, 0))
        if coin == 1:
            assert aba.decided == 1
        else:
            assert (aba.round, aba.est) == (1, 1)

    def test_duplicate_aux_counts_once(self):
        host, aba = self._aba()
        aba.propose(1)
        for sender in (0, 1, 2):
            aba.handle(sender, ("bval", 0, 1))
        state = aba.rounds[0]
        for payload in (("aux", 0, 1), ("aux", 0, 1), ("aux", 0, 0)):
            aba.handle(1, payload)
        aba.handle(2, ("aux", 0, 1))
        assert state.aux_count == [0, 2]
        assert not state.advanced
        aba.handle(3, ("aux", 0, 1))
        assert state.advanced


# Payloads no honest party sends; ("aux", 0) is the arity crash reported
# against ABA, ("echo",) its RBC twin.
MALFORMED_ABA = [("aux", 0), ("bval",), ("bval", 0, 1, 2), ("aux", "0", 1),
                 ("bval", [0], 1), ("bval", 0, 1.0), ("aux", 0, True),
                 ("decide",), ("decide", 0, 1), ("decide", 1.0), "aux", (),
                 None, 7]
MALFORMED_RBC = [("echo",), ("ready", "v", "w"), "init", (), None,
                 ("echo", ["unhashable"]), ("ready", {"v": 1})]
MALFORMED_ENVELOPES = ["hello", None, 7, ("x", "y"), (("no-such-kind", 1), "x"),
                       (([1], 2), "x"), ((), "x"), (("acs", "r"), "x"),
                       (("rbc", 1), ("init", "v")), (("rbc",), ("init", "v")),
                       (("rbc", 1, 2, 3), ("init", "v")),
                       (("avss", 1), ("share", 1)), (("avss",), ("share", 1))]
"""Whole messages no honest host sends: non-session payloads, sids of an
unregistered kind, unhashable or empty sids, a direct message to an ACS
session (whose traffic all goes through its ABA children), and RBC and
AVSS sids of the wrong length, whose constructors unpack
``(kind, dealer, tag)``."""


class TestMalformedMessages:
    """One Byzantine peer's malformed messages are noise: honest hosts
    finish with the result they reach when that peer is silent."""

    @staticmethod
    def _spammer(messages):
        def behaviour(ctx, sender, payload):
            if sender is None:
                for pid in (0, 1, 2):
                    for message in messages:
                        ctx.send(pid, message)

        return ScriptedByzantine(behaviour)

    @pytest.mark.parametrize("scheduler", [FifoScheduler(), RandomScheduler(4)],
                             ids=lambda s: s.name)
    def test_malformed_aba_messages_are_ignored(self, scheduler):
        sid = acs_sid("r")

        def kick(host):
            acs = host.open_session(sid)
            for j in range(3):
                acs.provide_input(j)

        noise = [(("aba", (sid, j)), bad) for j in range(4)
                 for bad in MALFORMED_ABA]
        silent, _ = run_hosts(4, 1, on_ready=kick, scheduler=scheduler,
                              byzantine={3: CrashProcess()})
        noisy, _ = run_hosts(4, 1, on_ready=kick, scheduler=scheduler,
                             byzantine={3: self._spammer(noise)})
        assert len(results_for(silent, sid)) == 3
        assert results_for(noisy, sid) == results_for(silent, sid)

    def test_malformed_rbc_messages_are_ignored(self):
        sid = rbc_sid(0, "x")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input("v")

        noise = [(sid, bad) for bad in MALFORMED_RBC]
        hosts, _ = run_hosts(4, 1, on_ready=kick,
                             byzantine={3: self._spammer(noise)})
        assert results_for(hosts, sid) == {0: "v", 1: "v", 2: "v"}

    def test_malformed_envelopes_are_ignored(self):
        sid = rbc_sid(0, "x")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input("v")

        silent, _ = run_hosts(4, 1, on_ready=kick,
                              byzantine={3: CrashProcess()})
        noisy, _ = run_hosts(4, 1, on_ready=kick,
                             byzantine={3: self._spammer(MALFORMED_ENVELOPES)})
        assert results_for(silent, sid) == {0: "v", 1: "v", 2: "v"}
        assert results_for(noisy, sid) == results_for(silent, sid)

    def test_local_open_of_malformed_sid_raises(self):
        assert SESSION_REGISTRY["avss"] is AsyncVerifiableSS
        opened = []

        def kick(host):
            for sid in (("rbc", 1), ("rbc", 1, 2, 3), ("avss",)):
                with pytest.raises(ProtocolError, match="malformed"):
                    host.open_session(sid)
            opened.append(host.me)

        run_hosts(2, 0, on_ready=kick)
        assert opened == [0, 1]


class TestACS:
    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
    def test_all_inputs_complete(self, scheduler):
        sid = acs_sid("round1")

        def kick(host):
            acs = host.open_session(sid)
            for j in range(4):
                acs.provide_input(j)

        hosts, _ = run_hosts(4, 1, on_ready=kick, scheduler=scheduler)
        subsets = results_for(hosts, sid)
        assert len(subsets) == 4
        (common,) = set(subsets.values())
        assert len(common) >= 3

    @pytest.mark.parametrize("n,t", LARGER_SIZES)
    def test_all_complete_at_larger_sizes(self, n, t):
        sid = acs_sid("round")

        def kick(host):
            acs = host.open_session(sid)
            for j in range(n):
                acs.provide_input(j)

        hosts, _ = run_hosts(n, t, on_ready=kick)
        assert len(results_for(hosts, sid)) == n

    def test_crashed_party_excluded_or_tolerated(self):
        sid = acs_sid("round1")

        def kick(host):
            acs = host.open_session(sid)
            for j in range(4):
                if j != 2:  # nobody observes a contribution from party 2
                    acs.provide_input(j)

        hosts, _ = run_hosts(4, 1, on_ready=kick, byzantine={2: CrashProcess()})
        subsets = results_for(hosts, sid)
        assert len(subsets) == 3
        (common,) = set(subsets.values())
        assert 2 not in common
        assert len(common) >= 3

    def test_agreement_under_partial_observation(self):
        """Parties observe different completion subsets; ACS still agrees.

        Liveness requires that at least n - t contributions are observed by
        every honest party (AVSS totality provides this in the MPC stack);
        the remaining contribution is observed by only one party, whose
        lone 1-vote races the 0-votes triggered by the n - t rule.
        """
        sid = acs_sid("r")

        def kick(host):
            acs = host.open_session(sid)
            for j in range(3):
                acs.provide_input(j)
            if host.me == 0:
                acs.provide_input(3)

        for seed in range(4):
            hosts, _ = run_hosts(
                4, 1, on_ready=kick, scheduler=RandomScheduler(seed), seed=seed
            )
            subsets = results_for(hosts, sid)
            assert len(subsets) == 4
            assert len(set(subsets.values())) == 1
