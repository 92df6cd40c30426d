"""Tests for the MPC substrate: setup, wire algebra, engines, AVSS."""

import random

import pytest

from repro.analysis.deviations import ct_crash, ct_lying_shares
from repro.cheaptalk import CheapTalkGame, compile_theorem41
from repro.circuits import Circuit
from repro.errors import ProtocolError
from repro.field import GF, SMALL_PRIME, DEFAULT_PRIME, lagrange_interpolate
from repro.games.library import consensus_game
from repro.mpc import MpcEngine, TrustedSetup, mpc_sid, x_of
from repro.mpc.avss import (
    AsyncVerifiableSS,
    avss_open_sid,
    avss_sid,
    deal_symmetric_bivariate,
    row_polynomial,
)
from repro.mpc.engine import WireShare
from repro.mpc.shamir import reconstruct, robust_reconstruct, share_secret
from repro.sim import (
    BatchRandomScheduler,
    EagerScheduler,
    FifoScheduler,
    LaggardScheduler,
    RandomScheduler,
)

from tests.helpers import CrashProcess, ScriptedByzantine, results_for, run_hosts

F = GF(DEFAULT_PRIME)

SCHEDULERS = [
    FifoScheduler(),
    RandomScheduler(17),
    EagerScheduler(),
    BatchRandomScheduler(9),
    LaggardScheduler([0]),
]


class TestShamir:
    def test_share_reconstruct_roundtrip(self):
        rng = random.Random(0)
        shares = share_secret(F, 42, 2, list(range(7)), rng)
        assert reconstruct(F, shares, 2) == F(42)

    def test_too_few_parties_rejected(self):
        with pytest.raises(ProtocolError):
            share_secret(F, 1, 3, [0, 1], random.Random(0))

    def test_reconstruct_needs_enough_shares(self):
        rng = random.Random(1)
        shares = share_secret(F, 5, 2, list(range(5)), rng)
        with pytest.raises(ProtocolError):
            reconstruct(F, {0: shares[0]}, 2)

    def test_robust_reconstruct_corrects_errors(self):
        rng = random.Random(2)
        n, t = 9, 2
        shares = share_secret(F, 77, t, list(range(n)), rng)
        shares[3] = shares[3] + F(1)
        shares[6] = F(123456)
        assert robust_reconstruct(F, shares, t, n, t) == F(77)

    def test_robust_reconstruct_waits(self):
        rng = random.Random(3)
        n, t = 9, 2
        shares = share_secret(F, 8, t, list(range(n)), rng)
        partial = {pid: shares[pid] for pid in range(t + 1)}
        assert robust_reconstruct(F, partial, t, n, t) is None

    def test_linearity(self):
        rng = random.Random(4)
        parties = list(range(5))
        s1 = share_secret(F, 10, 1, parties, rng)
        s2 = share_secret(F, 20, 1, parties, rng)
        summed = {pid: s1[pid] + s2[pid] for pid in parties}
        assert reconstruct(F, summed, 1) == F(30)


class TestTrustedSetup:
    def make(self, n=5, t=1, seed=0, with_macs=True):
        return TrustedSetup(F, list(range(n)), t, seed=seed, with_macs=with_macs)

    def test_triple_is_multiplicative(self):
        setup = self.make()
        setup.deal_triple(0)
        shares_a = {p: setup.pack_for(p).shares[("triple", 0, "a")] for p in range(5)}
        shares_b = {p: setup.pack_for(p).shares[("triple", 0, "b")] for p in range(5)}
        shares_c = {p: setup.pack_for(p).shares[("triple", 0, "c")] for p in range(5)}
        a = reconstruct(F, shares_a, 1)
        b = reconstruct(F, shares_b, 1)
        c = reconstruct(F, shares_c, 1)
        assert c == a * b

    def test_input_mask_private_value_matches_sharing(self):
        setup = self.make()
        setup.deal_input_mask(2)
        shares = {p: setup.pack_for(p).shares[("mask", 2)] for p in range(5)}
        assert reconstruct(F, shares, 1) == setup.pack_for(2).private_values[("mask", 2)]
        assert ("mask", 2) not in setup.pack_for(0).private_values

    def test_randbit_is_bit(self):
        setup = self.make()
        for i in range(8):
            setup.deal_base(("randbit", i), bit=True)
            assert int(setup.base_values[("randbit", i)]) in (0, 1)

    def test_duplicate_label_rejected(self):
        setup = self.make()
        setup.deal_base(("rand", 0))
        with pytest.raises(ProtocolError):
            setup.deal_base(("rand", 0))

    def test_mac_verifies(self):
        setup = self.make()
        setup.deal_base(("rand", 0))
        sender, verifier = 1, 3
        share = setup.pack_for(sender).shares[("rand", 0)]
        mac = setup.pack_for(sender).macs[("rand", 0)][verifier]
        vpack = setup.pack_for(verifier)
        assert mac == vpack.alpha * share + vpack.betas[(sender, ("rand", 0))]

    def test_deal_for_circuit_covers_gates(self):
        c = Circuit(F)
        i0 = c.input(0)
        i1 = c.input(1)
        m = c.mul(i0, i1)
        c.randbit()
        c.output(m, 0)
        setup = self.make()
        setup.deal_for_circuit(c)
        pack = setup.pack_for(0)
        assert ("mask", 0) in pack.shares
        assert ("triple", 0, "a") in pack.shares
        assert any(label[0] == "randbit" for label in pack.shares)


class TestWireShare:
    def setup_method(self):
        self.setup = TrustedSetup(F, list(range(5)), 1, seed=7)
        self.setup.deal_base(("rand", 0))
        self.setup.deal_base(("rand", 1))

    def test_affine_evaluation(self):
        pack = self.setup.pack_for(2)
        w = (
            WireShare.base(F, ("rand", 0)).scale(F(3))
            + WireShare.base(F, ("rand", 1))
        ).shift(F(10))
        expected = F(3) * pack.shares[("rand", 0)] + pack.shares[("rand", 1)] + F(10)
        assert w.my_value(pack) == expected

    def test_combo_cancellation(self):
        a = WireShare.base(F, ("rand", 0))
        diff = a - a
        assert diff.combo == ()
        assert diff.const == F(0)

    def test_mac_roundtrip(self):
        sender, verifier = 0, 4
        w = (
            WireShare.base(F, ("rand", 0)).scale(F(5))
            + WireShare.base(F, ("rand", 1)).scale(F(2))
        ).shift(F(9))
        spack = self.setup.pack_for(sender)
        vpack = self.setup.pack_for(verifier)
        value = w.my_value(spack)
        mac = w.my_mac_for(verifier, spack)
        assert w.verify_mac(sender, value, mac, vpack)
        assert not w.verify_mac(sender, value + F(1), mac, vpack)
        assert not w.verify_mac(sender, value, mac + F(1), vpack)

    def test_reconstructs_across_parties(self):
        w = (WireShare.base(F, ("rand", 0)) + WireShare.base(F, ("rand", 1))).shift(F(4))
        shares = {p: w.my_value(self.setup.pack_for(p)) for p in range(5)}
        expected = (
            self.setup.base_values[("rand", 0)]
            + self.setup.base_values[("rand", 1)]
            + F(4)
        )
        assert reconstruct(F, shares, 1) == expected


def build_demo_circuit(n):
    """Outputs: sum of inputs to player 0, product of first two to player 1,
    xor of first two (bits) to everyone."""
    c = Circuit(F, "demo")
    ins = [c.input(p) for p in range(n)]
    total = c.sum_many(ins)
    prod = c.mul(ins[0], ins[1])
    xor = c.b_xor(ins[0], ins[1])
    c.output(total, 0, "sum")
    c.output(prod, 1, "prod")
    for p in range(n):
        c.output(xor, p, f"xor@{p}")
    return c


def run_engine(
    n,
    t,
    circuit,
    inputs,
    mode="bcg",
    scheduler=None,
    seed=0,
    byzantine=None,
    engine_overrides=None,
    defaults=None,
):
    """Run one MPC evaluation; returns ({pid: outputs}, RunResult, setup)."""
    setup = TrustedSetup(F, list(range(n)), t, seed=seed)
    setup.deal_for_circuit(circuit)
    sid = mpc_sid("test")
    engine_overrides = engine_overrides or {}

    def kick(host):
        cls = engine_overrides.get(host.me)
        host.open_session(sid, cls=cls) if cls else host.open_session(sid)

    base_config = {
        "circuit": circuit,
        "field": F,
        "engine_mode": mode,
        "default_inputs": defaults or {p: 0 for p in range(n)},
    }

    # Per-host configs differ (setup pack + own input), so build hosts here
    # rather than via the shared helper.
    from repro.broadcast import SessionHost
    from repro.sim import Runtime

    byzantine = byzantine or {}
    hosts, processes = {}, {}
    for pid in range(n):
        if pid in byzantine:
            processes[pid] = byzantine[pid]
            continue
        config = dict(base_config)
        config.update(setup.host_config(pid))
        config["mpc_input"] = inputs.get(pid)
        host = SessionHost(pid, list(range(n)), config, on_ready=kick)
        hosts[pid] = host
        processes[pid] = host
    runtime = Runtime(processes, scheduler or FifoScheduler(), seed=seed,
                      step_limit=600_000)
    result = runtime.run()
    outputs = {pid: host.results.get(sid) for pid, host in hosts.items()}
    engines = {
        pid: host.sessions.get(sid) for pid, host in hosts.items()
    }
    return outputs, result, setup, engines


class TestEngineHonest:
    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
    @pytest.mark.parametrize("mode,n,t", [("bcg", 5, 1), ("bkr", 4, 1)])
    def test_demo_circuit_all_schedulers(self, scheduler, mode, n, t):
        circuit = build_demo_circuit(n)
        inputs = {p: (p + 1) % 2 for p in range(n)}
        outputs, result, _, engines = run_engine(
            n, t, circuit, inputs, mode=mode, scheduler=scheduler
        )
        assert all(outputs[p] is not None for p in range(n))
        # Asynchronous MPC may replace up to t slow (honest) parties' inputs
        # with the public default — exactly as the paper's mediator proceeds
        # after n - k - t inputs. Compare against the agreed input set.
        agreed_sets = {engines[p].agreed_inputs for p in range(n)}
        assert len(agreed_sets) == 1  # ACS agreement
        (agreed,) = agreed_sets
        assert len(agreed) >= n - t
        effective = {
            p: inputs[p] if p in agreed else 0 for p in range(n)
        }
        assert outputs[0]["sum"] == sum(effective.values())
        assert outputs[1]["prod"] == effective[0] * effective[1]
        for p in range(n):
            assert outputs[p][f"xor@{p}"] == effective[0] ^ effective[1]

    def test_outputs_match_clear_evaluation_with_dealt_randomness(self):
        n, t = 5, 1
        c = Circuit(F, "randy")
        bit = c.randbit()
        i0 = c.input(0)
        c.output(c.b_xor(bit, i0), 2, "masked")
        outputs, _, setup, engines = run_engine(n, t, c, {0: 1})
        randomness = {
            wire: setup.base_values[("randbit", wire)]
            for wire, gate in enumerate(c.gates)
            if gate.op == "randbit"
        }
        clear = c.evaluate({0: 1}, random.Random(0), randomness=randomness)
        assert outputs[2]["masked"] == int(clear["masked"])

    def test_lookup_and_majority_circuits(self):
        n, t = 5, 1
        c = Circuit(F, "maj")
        bits = [c.input(p) for p in range(n)]
        c.output(c.majority(bits), 0, "maj")
        c.output(c.threshold(bits, 2), 1, "thr2")
        inputs = {0: 1, 1: 1, 2: 1, 3: 0, 4: 0}
        outputs, _, _, engines = run_engine(n, t, c, inputs)
        assert outputs[0]["maj"] == 1
        assert outputs[1]["thr2"] == 1

    def test_t_zero_single_party_world(self):
        c = Circuit(F, "solo")
        i0 = c.input(0)
        c.output(c.mul(i0, i0), 0, "sq")
        outputs, _, _, engines = run_engine(2, 0, c, {0: 6})
        assert outputs[0]["sq"] == 36


class TestEngineFaults:
    def test_crashed_input_player_gets_default(self):
        n, t = 5, 1
        circuit = build_demo_circuit(n)
        inputs = {p: 1 for p in range(n)}
        outputs, result, _, engines = run_engine(
            n, t, circuit, inputs, byzantine={4: CrashProcess()},
            defaults={p: 0 for p in range(n)},
        )
        assert outputs[0] is not None
        # Player 4's input replaced by default 0: sum is 4, not 5.
        assert outputs[0]["sum"] == 4

    def test_crashed_non_input_player_tolerated(self):
        n, t = 5, 1
        c = Circuit(F, "pair")
        i0, i1 = c.input(0), c.input(1)
        c.output(c.mul(i0, i1), 0, "prod")
        outputs, result, _, engines = run_engine(
            n, t, c, {0: 3, 1: 7}, byzantine={3: CrashProcess()}
        )
        assert outputs[0]["prod"] == 21

    @pytest.mark.parametrize("mode,n,t", [("bcg", 5, 1), ("bkr", 4, 1)])
    def test_wrong_shares_defeated(self, mode, n, t):
        """A liar corrupting every opening share cannot corrupt outputs."""

        class LyingEngine(MpcEngine):
            def _ensure_open(self, key, share, private_to=None):
                opening = self._opening(key, private_to)
                if opening.announced:
                    return
                opening.announced = True
                opening.mine = share
                value = share.my_value(self.pack) + F(3)  # lie
                recipients = [private_to] if private_to is not None else self.peers
                for recipient in recipients:
                    mac = None
                    if self.mode == "bkr":
                        mac = share.my_mac_for(recipient, self.pack)  # stale MAC
                    self.send(
                        recipient,
                        ("osh", key, int(value), None if mac is None else int(mac)),
                    )
                self._try_resolve(key)

        circuit = build_demo_circuit(n)
        inputs = {p: 1 for p in range(n)}
        liar = n - 1
        outputs, result, _, engines = run_engine(
            n, t, circuit, inputs, mode=mode,
            engine_overrides={liar: LyingEngine},
        )
        honest = [p for p in range(n) if p != liar]
        assert outputs[0]["sum"] == n  # all inputs arrived (liar's RBC was honest)
        assert outputs[1]["prod"] == 1
        for p in honest:
            assert outputs[p][f"xor@{p}"] == 0

    def test_bcg_bound_enforced(self):
        # The engine enforces the soundness bound n > 3t; 3t < n <= 4t is
        # the deliberately-allowed Theorem 4.4 regime (deadlockable but
        # never wrong), so n=4, t=1 runs while n=3, t=1 must refuse.
        with pytest.raises(ProtocolError):
            run_engine(3, 1, build_demo_circuit(3), {p: 0 for p in range(3)},
                       mode="bcg")
        outputs, _, _, _ = run_engine(
            4, 1, build_demo_circuit(4), {p: 0 for p in range(4)}, mode="bcg"
        )
        assert outputs[0]["sum"] == 0

    def test_missing_input_rejected(self):
        c = Circuit(F, "needy")
        c.output(c.input(0), 0, "echo")
        with pytest.raises(ProtocolError):
            run_engine(5, 1, c, {})


class NaiveOpeningsGame(CheapTalkGame):
    """The ablation: every engine trusts the first t+1 opening shares."""

    def player_config(self, setup, pid, own_type):
        config = super().player_config(setup, pid, own_type)
        config["naive_openings"] = True
        return config


class TestRobustOpenings:
    """E14: one liar's wrong shares are decoded away by error-corrected
    openings, but corrupt naive first-t+1 reconstruction."""

    @staticmethod
    def corrupted_runs(game_cls):
        spec = consensus_game(5)
        liar = 0  # lowest pid: naive reconstruction trusts its share first
        honest = range(1, 5)
        corrupted = 0
        for seed in range(12):
            run = game_cls(spec, 1, 0).run(
                (0,) * 5, FifoScheduler(), seed=seed,
                deviations={liar: ct_lying_shares(spec)},
            )
            decoded = {run.actions[p] for p in honest}
            moved = all(p in run.result.outputs for p in honest)
            if not moved or len(decoded) != 1 or not decoded <= {0, 1}:
                corrupted += 1
        return corrupted

    def test_robust_openings_are_never_corrupted(self):
        assert self.corrupted_runs(CheapTalkGame) == 0

    def test_naive_openings_are_corrupted(self):
        assert self.corrupted_runs(NaiveOpeningsGame) > 0


class TestAVSS:
    def run_avss(self, n, t, secret=11, scheduler=None, byzantine=None,
                 dealer=0, seed=0):
        sid = avss_sid(dealer, "s")

        def kick(host):
            if host.me == dealer:
                host.open_session(sid).input(secret)

        hosts, result = run_hosts(
            n, t, on_ready=kick, config={"field": F},
            byzantine=byzantine, scheduler=scheduler, seed=seed,
        )
        return hosts, result, sid

    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
    def test_honest_dealer_all_complete_consistently(self, scheduler):
        n, t, secret = 5, 1, 29
        hosts, _, sid = self.run_avss(n, t, secret, scheduler=scheduler)
        shares = results_for(hosts, sid)
        assert set(shares) == set(range(n))
        points = [(x_of(p), F(v)) for p, v in sorted(shares.items())][: t + 1]
        assert lagrange_interpolate(F, points)(0) == F(secret)

    def test_honest_dealer_completes_at_t2(self):
        hosts, _, sid = self.run_avss(9, 2, secret=17)
        assert set(results_for(hosts, sid)) == set(range(9))

    def test_crashed_dealer_nobody_completes(self):
        hosts, result, sid = self.run_avss(5, 1, byzantine={0: CrashProcess()})
        assert results_for(hosts, sid) == {}
        assert not result.deadlocked or result.steps < 10_000

    def test_row_withheld_by_network_recovery(self):
        """The victim's row is never delivered; it recovers from READY rows.

        This exercises AVSS *totality*: an honest dealer sends every row,
        but the (relaxed) environment withholds the dealer's messages to
        party 2 forever. Party 2 must still complete, by recovering its row
        from a pairwise-consistent subset of READY rows.
        """
        from repro.sim import DropPlanRelaxedScheduler

        n, t, secret = 5, 1, 3
        sid = avss_sid(0, "s")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input(secret)

        scheduler = DropPlanRelaxedScheduler(
            FifoScheduler(),
            should_drop=lambda m: m.sender == 0 and m.recipient == 2,
        )
        hosts, _ = run_hosts(
            n, t, on_ready=kick, config={"field": F}, scheduler=scheduler
        )
        shares = results_for(hosts, sid)
        assert set(shares) >= {1, 2, 3, 4}
        points = [(x_of(p), F(v)) for p, v in sorted(shares.items())][: t + 1]
        assert lagrange_interpolate(F, points)(0) == F(secret)

    def test_corrupt_points_tolerated(self):
        """A non-dealer party sending junk points cannot block completion."""
        n, t, secret = 5, 1, 15
        sid = avss_sid(0, "s")

        def junk(ctx, sender, payload):
            if sender is None:
                for p in range(n):
                    if p != 4:
                        ctx.send(p, (sid, ("pt", 123456789)))

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input(secret)

        hosts, _ = run_hosts(
            n, t, on_ready=kick, config={"field": F},
            byzantine={4: ScriptedByzantine(junk)},
        )
        shares = results_for(hosts, sid)
        assert set(shares) == {0, 1, 2, 3}
        points = [(x_of(p), F(v)) for p, v in sorted(shares.items())][: t + 1]
        assert lagrange_interpolate(F, points)(0) == F(secret)

    def test_non_dealer_cannot_input(self):
        sid = avss_sid(0, "s")

        def kick(host):
            if host.me == 1:
                with pytest.raises(ProtocolError):
                    host.open_session(sid).input(5)

        run_hosts(3, 0, on_ready=kick, config={"field": F})


MALFORMED_MPC = [(), ("osh",), ("osh", "k", 5), ("osh", "k", 5, None, 0),
                 ("osh", ["k"], 5, None), ("osh", "k", 5, "mac"),
                 ("osh", "k", "5", None), "osh", None, 7]
MALFORMED_AVSS = [(), ("pt",), ("ready",), ("row",), ("pt", 1, 2), "pt", None,
                  7, ("ready", ("x",)), ("ready", [1, 2]), ("pt", "1")]
MALFORMED_AVSS_OPEN = [(), ("share",), ("share", 1, 2), ("share", "1"),
                       "share", None, 7]


class TestMalformedMessages:
    """One Byzantine peer's malformed messages are noise: honest hosts
    finish with the result they reach when that peer is silent."""

    @staticmethod
    def _spammer(n, messages):
        def behaviour(ctx, sender, payload):
            if sender is None:
                for pid in range(n):
                    if pid != ctx.pid:
                        for message in messages:
                            ctx.send(pid, message)

        return ScriptedByzantine(behaviour)

    def test_malformed_mpc_messages_are_ignored(self):
        n, t = 5, 1
        circuit = build_demo_circuit(n)
        inputs = {p: 1 for p in range(n)}
        noise = [(mpc_sid("test"), bad) for bad in MALFORMED_MPC]
        silent, _, _, _ = run_engine(n, t, circuit, inputs,
                                     byzantine={4: CrashProcess()})
        noisy, _, _, _ = run_engine(n, t, circuit, inputs,
                                    byzantine={4: self._spammer(n, noise)})
        assert silent[0]["sum"] == 4
        assert noisy == silent

    @pytest.mark.parametrize("x0", [0, 1])
    def test_peer_cannot_open_a_second_evaluation(self, x0):
        """Player 1's only output is x0*x1 and it reports x1 = 0. A second
        evaluation under a fresh sid, opened at its peers by one message
        each and run with input 1 at player 1, would hand it x0 computed
        on the same one-time masks and triples."""
        n, t = 5, 1
        circuit = Circuit(F, "pair")
        circuit.output(circuit.mul(circuit.input(0), circuit.input(1)), 1,
                       "prod")
        evil = mpc_sid("evil")

        class ForgedInput(MpcEngine):
            def config(self, key, default=None):
                if key == "mpc_input":
                    return 1
                return super().config(key, default)

        class Attacker(MpcEngine):
            def start(self):
                super().start()
                for pid in self.peers:
                    if pid != self.me:
                        self.host.session_send(evil, pid, "open")
                self.host.open_session(evil, cls=ForgedInput)

        outputs, _, _, engines = run_engine(
            n, t, circuit, {0: x0, 1: 0}, engine_overrides={1: Attacker}
        )
        assert outputs[1] == {"prod": 0}
        assert engines[1].host.results.get(evil) is None
        assert not any(
            evil in engines[p].host.sessions for p in range(n) if p != 1
        )

    @pytest.mark.parametrize("tags", [1, 5])
    def test_peer_opened_sids_cost_only_their_own_messages(self, tags):
        """A Thm 4.1 cell at n=9: a Byzantine p8 that sends each honest
        host one message per fresh mpc sid adds exactly those messages
        to the crash-only run."""
        spec = consensus_game(9)
        game = compile_theorem41(spec, 1, 1).game

        def spammer(pid, own_type, config):
            def behaviour(ctx, sender, payload):
                if sender is None:
                    for tag in range(tags):
                        for peer in range(8):
                            ctx.send(peer, (mpc_sid(("spam", tag)), "open"))

            return ScriptedByzantine(behaviour)

        types = (0,) * 9
        crashed = game.run(types, FifoScheduler(), seed=1,
                           deviations={8: ct_crash()})
        spammed = game.run(types, FifoScheduler(), seed=1,
                           deviations={8: spammer})
        assert spammed.actions == crashed.actions
        assert spammed.message_count() == crashed.message_count() + 8 * tags

    def test_malformed_avss_messages_are_ignored(self):
        n, t, secret = 5, 1, 29
        sid = avss_sid(0, "s")

        def kick(host):
            if host.me == 0:
                host.open_session(sid).input(secret)

        noise = [(sid, bad) for bad in MALFORMED_AVSS]
        silent, _ = run_hosts(n, t, on_ready=kick, config={"field": F},
                              byzantine={4: CrashProcess()})
        noisy, _ = run_hosts(n, t, on_ready=kick, config={"field": F},
                             byzantine={4: self._spammer(n, noise)})
        assert set(results_for(silent, sid)) == {0, 1, 2, 3}
        assert results_for(noisy, sid) == results_for(silent, sid)

    def test_malformed_avss_open_messages_are_ignored(self):
        n, t, secret = 5, 1, 17
        sid = avss_open_sid(0, "s")
        shares = share_secret(F, secret, t, list(range(n)), random.Random(3))

        def kick(host):
            host.open_session(sid).contribute(shares[host.me])

        noise = [(sid, bad) for bad in MALFORMED_AVSS_OPEN]
        silent, _ = run_hosts(n, t, on_ready=kick, config={"field": F},
                              byzantine={4: CrashProcess()})
        noisy, _ = run_hosts(n, t, on_ready=kick, config={"field": F},
                             byzantine={4: self._spammer(n, noise)})
        assert results_for(silent, sid) == {p: secret for p in range(4)}
        assert results_for(noisy, sid) == results_for(silent, sid)
