"""Deterministic fault injection: the DSL, both substrates, the oracle.

The package turns the paper's t-resilience statements into executable
claims: a seeded :class:`FaultPlan` injected through either substrate
must (a) stay a pure function of ``(spec, seed)`` — byte-identical
repeats, invariant 1 — and (b) be *masked* by the protocol whenever the
crash count stays within the theorem's budget, and only then. The
masking oracle (``repro faults check``) is tested here at both the
trimmed-grid level and through the CLI.
"""

import json

import pytest

from repro.errors import ExperimentError, FaultError
from repro.experiments import ExperimentResult, ExperimentRunner, get_scenario
from repro.experiments.runner import expand_grid
from repro.faults import (
    CrashFault,
    DropFault,
    FaultInjector,
    FaultPlan,
    PartitionFault,
    fault_from_name,
    fault_names,
    injector_for,
    register_fault,
)
from repro.faults.masking import (
    BREAKING_PLANS,
    check_scenario,
    crash_budget,
    crashed_players,
    run_faultcheck,
)
from repro.net.conformance import check_conformance
from repro.sim.process import Process
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, LatencyScheduler


# -- a chatty deterministic protocol for runtime-level tests ------------------

class Gossip(Process):
    """Flood two rounds of rumors; output the sorted set heard."""

    def __init__(self, peers, rounds=2):
        self.peers = tuple(sorted(peers))
        self.rounds = rounds
        self.heard = set()

    def on_start(self, ctx):
        for peer in self.peers:
            ctx.send(peer, ("rumor", ctx.pid, 0))

    def on_message(self, ctx, sender, payload):
        _kind, origin, hop = payload
        self.heard.add(origin)
        if hop + 1 < self.rounds:
            for peer in self.peers:
                ctx.send(peer, ("rumor", origin, hop + 1))
        if len(self.heard) == len(self.peers):
            ctx.output(tuple(sorted(self.heard)))
            ctx.halt()


def gossipers(n):
    return {
        i: Gossip([j for j in range(n) if j != i]) for i in range(n)
    }


def trace_tuples(result):
    return [
        (e.step, e.kind, e.pid, e.sender, e.recipient, e.uid)
        for e in result.trace.events
    ]


def sim_run(n=4, seed=3, faults=None, **kwargs):
    return Runtime(
        gossipers(n), FifoScheduler(), seed=seed, faults=faults, **kwargs
    ).run()


# -- the plan DSL -------------------------------------------------------------

class TestPlanNames:
    ROUND_TRIPS = [
        "crash@p2s40",
        "crash-restart@p3s20r60",
        "drop-0.1",
        "dup-0.05",
        "partition@{1,2}t30h90",
        "corrupt-tcp-0.01",
        "crash@p0s5+crash@p8s9",
        "crash@p1s10+drop-0.25+partition@{0,1}t5h50",
    ]

    @pytest.mark.parametrize("name", ROUND_TRIPS)
    def test_names_round_trip(self, name):
        plan = fault_from_name(name)
        assert plan.name == name
        assert fault_from_name(plan.name) == plan

    def test_none_is_registered_and_empty(self):
        assert "none" in fault_names()
        plan = fault_from_name("none")
        assert plan.is_none
        assert plan.name == "none"

    def test_plans_are_hashable_value_objects(self):
        one = fault_from_name("crash@p2s40+drop-0.1")
        two = fault_from_name("crash@p2s40+drop-0.1")
        assert one == two and hash(one) == hash(two)
        assert one != fault_from_name("crash@p2s40+drop-0.2")
        assert {one: "x"}[two] == "x"

    @pytest.mark.parametrize("bad", [
        "crash@p2",          # missing step
        "drop-1.5",          # probability out of range
        "meteor-strike",     # unknown form
        "+",                 # no actions at all
        "partition@{}t1h2",  # empty group
    ])
    def test_malformed_names_raise_with_vocabulary(self, bad):
        with pytest.raises(FaultError):
            fault_from_name(bad)

    def test_unknown_form_message_lists_the_grammar(self):
        with pytest.raises(FaultError, match="crash@p<pid>s<step>"):
            fault_from_name("meteor-strike")

    def test_restart_must_follow_the_crash(self):
        with pytest.raises(FaultError, match="restart step"):
            CrashFault(0, 10, restart=10)

    def test_partition_heal_must_follow_the_cut(self):
        with pytest.raises(FaultError):
            PartitionFault([0, 1], 30, 30)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FaultError, match="already registered"):
            register_fault("none", FaultPlan)

    def test_crash_pid_outside_the_process_set_rejected(self):
        with pytest.raises(FaultError, match="pid"):
            sim_run(n=4, faults="crash@p9s5")

    def test_injector_for_normalizes_every_spelling(self):
        assert injector_for(None) is None
        assert injector_for("none") is None
        assert injector_for(FaultPlan()) is None
        inj = injector_for("drop-0.1")
        assert isinstance(inj, FaultInjector)
        assert injector_for(inj) is inj


# -- determinism on both substrates -------------------------------------------

class TestChaosDeterminism:
    def test_sim_repeats_are_byte_identical(self):
        one = sim_run(faults="crash@p1s3+drop-0.3")
        two = sim_run(faults="crash@p1s3+drop-0.3")
        assert one.outputs == two.outputs
        assert trace_tuples(one) == trace_tuples(two)

    def test_different_seeds_draw_different_fates(self):
        one = sim_run(seed=1, faults="drop-0.5")
        two = sim_run(seed=2, faults="drop-0.5")
        assert trace_tuples(one) != trace_tuples(two)

    def test_faulted_zero_latency_net_matches_the_kernel(self):
        plan = "crash@p1s3+drop-0.3"
        sim = sim_run(faults=plan)
        net = Runtime(
            gossipers(4), LatencyScheduler("zero"), seed=3, faults=plan
        ).run()
        assert net.outputs == sim.outputs
        assert net.halted == sim.halted
        assert net.messages_delivered == sim.messages_delivered
        assert trace_tuples(net) == trace_tuples(sim)

    def test_faulted_net_repeats_are_byte_identical(self):
        runs = [
            Runtime(
                gossipers(4), LatencyScheduler("lognormal@m5s2"), seed=9,
                faults="drop-0.2+dup-0.2",
            ).run()
            for _ in range(2)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert trace_tuples(runs[0]) == trace_tuples(runs[1])

    def test_faulted_grid_conforms_across_substrates(self):
        spec = get_scenario("netcheck-thm41").replace(
            deviations=("honest",), seed_count=1, latency="zero",
            faults=("crash@p0s5", "drop-0.1"),
        )
        report = check_conformance(spec)
        assert report["ok"], report["diffs"]
        assert {r.faults for r in report["net"].records} == {
            "crash@p0s5", "drop-0.1"
        }

    def test_faulted_grid_repeats_are_byte_identical(self):
        specs = (
            get_scenario("faultcheck-sec64").replace(seed_count=1),
            get_scenario("faultcheck-thm41").replace(
                faults=("drop-0.1+dup-0.05",)
            ),
        )
        with ExperimentRunner() as runner:
            for spec in specs:
                one = runner.run(spec)
                two = runner.run(spec)
                assert one.records == two.records, spec.name
                doc = ExperimentResult.from_json(one.to_json())
                assert doc.records == one.records, spec.name


# -- fault semantics at the runtime level -------------------------------------

class TestCrashSemantics:
    def test_permanent_crash_halts_and_silences_the_pid(self):
        result = sim_run(faults="crash@p1s2")
        kinds = [(e.kind, e.pid) for e in result.trace.events]
        assert ("crash", 1) in kinds
        assert 1 in result.halted
        assert 1 not in result.outputs  # died before its output
        # The survivors still quiesce (no deadlock from the dead pid).
        assert not result.deadlocked

    def test_crash_scheduled_past_the_run_never_fires(self):
        baseline = sim_run()
        faulted = sim_run(faults="crash@p1s100000")
        assert trace_tuples(faulted) == trace_tuples(baseline)
        assert faulted.outputs == baseline.outputs

    def test_crash_restart_replays_the_inbox_and_recovers(self):
        result = sim_run(faults="crash-restart@p1s3r20")
        kinds = [(e.kind, e.pid) for e in result.trace.events]
        assert ("crash", 1) in kinds
        assert ("restart", 1) in kinds
        assert kinds.index(("restart", 1)) > kinds.index(("crash", 1))
        # The pristine copy replays its log and finishes the protocol.
        assert result.outputs[1] == (0, 2, 3)

    def test_restart_pulls_forward_when_traffic_drains(self):
        # r-step far beyond the run's natural length: quiesce-advance
        # must fire it anyway instead of deadlocking.
        result = sim_run(faults="crash-restart@p1s3r500000")
        assert ("restart", 1) in [
            (e.kind, e.pid) for e in result.trace.events
        ]
        assert not result.deadlocked


class TestPartitionSemantics:
    def test_partition_heals_and_the_run_quiesces(self):
        faulted = sim_run(faults="partition@{0,1}t2h40")
        # Cut-crossing messages are held, then released at heal: every
        # process still finishes the protocol — no deadlock, no loss.
        assert not faulted.deadlocked
        assert sorted(faulted.outputs) == [0, 1, 2, 3]

    def test_heal_past_the_run_is_pulled_forward(self):
        # h-step far beyond the run's natural length: quiesce-advance
        # fires the heal when the deliverable pool drains instead of
        # leaving the held messages stuck forever.
        faulted = sim_run(faults="partition@{0,1}t2h900000")
        assert not faulted.deadlocked
        assert sorted(faulted.outputs) == [0, 1, 2, 3]

    def test_drop_loses_messages_dup_adds_them(self):
        procs = gossipers(2)
        dropper = injector_for("drop-0.4")
        dropper.reset(0, procs)
        fates = [dropper.fate(0, 1, step)[0] for step in range(200)]
        assert fates.count("drop") > 0
        assert fates.count("deliver") > fates.count("drop")

        dupper = injector_for("dup-0.9")
        dupper.reset(0, procs)
        copies = [dupper.fate(0, 1, step)[1] for step in range(200)]
        assert copies.count(2) > copies.count(1)

    def test_fate_streams_are_seeded_per_edge(self):
        procs = gossipers(3)
        one, two, other = (injector_for("drop-0.5") for _ in range(3))
        one.reset(7, procs)
        two.reset(7, procs)
        other.reset(8, procs)
        draws = lambda inj, s, r: [
            inj.fate(s, r, step)[0] for step in range(64)
        ]
        assert draws(one, 0, 1) == draws(two, 0, 1)  # same seed: replay
        assert draws(one, 1, 2) != draws(two, 0, 1)  # independent edges
        assert draws(other, 0, 1) != draws(two, 0, 1)  # seed moves fates


# -- each hook runs only while the plan can act -------------------------------

def run_faultcheck_cell(monkeypatch, plan, watch=()):
    """Run ``faultcheck-thm41`` (fifo, seed 0) under ``plan``.

    Returns the cell's kernel runtime and one ``(method, step, result)``
    entry per call of each :class:`FaultInjector` method in ``watch``,
    in call order.
    """
    runtimes = []
    calls = []
    run = Runtime.run

    def recording_run(self):
        runtimes.append(self)
        return run(self)

    monkeypatch.setattr(Runtime, "run", recording_run)
    for name in watch:
        def recording(self, *args, _name=name,
                      _method=getattr(FaultInjector, name)):
            result = _method(self, *args)
            calls.append((_name, runtimes[-1]._step, result))
            return result

        monkeypatch.setattr(FaultInjector, name, recording)
    spec = get_scenario("faultcheck-thm41").replace(
        faults=(plan,), seed_count=1
    )
    with ExperimentRunner() as runner:
        (record,) = runner.run(spec).records
    assert record.ok, record.error
    (runtime,) = runtimes
    return runtime, calls


class TestHookCosts:
    """A plan acts on a few messages, so the kernel pays for a hook only
    while the plan can still change a message's fate."""

    def test_a_crash_builds_no_pool_index(self, monkeypatch):
        runtime, _ = run_faultcheck_cell(monkeypatch, "crash@p0s5")
        assert 0 in runtime.halted
        assert not runtime.network._index.live

    def test_fate_is_never_asked_under_a_crash_only_plan(self, monkeypatch):
        runtime, calls = run_faultcheck_cell(
            monkeypatch, "crash@p0s5+crash@p8s9", watch=("fate",)
        )
        assert {0, 8} <= runtime.halted
        assert calls == []

    def test_fate_is_not_asked_after_a_partition_heals(self, monkeypatch):
        _, calls = run_faultcheck_cell(
            monkeypatch, "partition@{0,1}t10h60",
            watch=("fate", "mark_healed"),
        )
        names = [name for name, _, _ in calls]
        healed = names.index("mark_healed")
        assert "fate" in names[:healed]
        assert "fate" not in names[healed:]

    def test_no_delivery_is_logged_after_the_restart(self, monkeypatch):
        runtime, calls = run_faultcheck_cell(
            monkeypatch, "crash-restart@p2s6r40",
            watch=("log_delivery", "restore"),
        )
        names = [name for name, _, _ in calls]
        restored = names.index("restore")
        assert "log_delivery" in names[:restored]
        assert "log_delivery" not in names[restored:]
        assert runtime._faults.inbox_log == {}

    def test_due_events_runs_only_when_an_event_is_due(self, monkeypatch):
        _, calls = run_faultcheck_cell(
            monkeypatch, "crash-restart@p2s6r40", watch=("due_events",)
        )
        assert [
            (step, [event.kind for event in due]) for _, step, due in calls
        ] == [(6, ["crash"]), (40, ["restart"])]

    def test_passive_while_fate_can_only_deliver_once(self):
        procs = gossipers(4)
        restart = injector_for("crash-restart@p1s3r9")
        restart.reset(0, procs)
        assert restart.passive
        restart.go_down(1)
        assert not restart.passive
        assert restart.fate(0, 1, 4) == ("hold", ("restart", 1))
        restart.restore(1)
        assert restart.passive

        cut = injector_for("partition@{0}t0h5")
        cut.reset(0, procs)
        assert not cut.passive
        cut.mark_healed(0)
        assert cut.passive

        for plan in ("drop-0.1", "dup-0.1", "crash@p1s3+drop-0.1"):
            lossy = injector_for(plan)
            lossy.reset(0, procs)
            assert not lossy.passive, plan


# -- the faults axis through the experiment pipeline --------------------------

class TestFaultsAxis:
    def test_grid_threads_the_faults_axis(self):
        spec = get_scenario("faultcheck-sec64").replace(seed_count=1)
        tasks = expand_grid(spec)
        assert sorted({t.faults for t in tasks}) == sorted(spec.faults)

    def test_sync_theorems_reject_faults(self):
        spec = get_scenario("raw-chicken-matrix")
        with pytest.raises(ExperimentError, match="faults"):
            spec.replace(faults=("crash@p0s5",))

    def test_unknown_plan_rejected_at_spec_validation(self):
        spec = get_scenario("faultcheck-sec64")
        with pytest.raises(ExperimentError, match="unknown fault"):
            spec.replace(faults=("meteor-strike",))

    def test_records_carry_faults_through_json_and_csv(self):
        spec = get_scenario("faultcheck-sec64").replace(
            seed_count=1, faults=("none", "crash@p0s5")
        )
        with ExperimentRunner() as runner:
            result = runner.run(spec)
        again = ExperimentResult.from_json(result.to_json())
        assert again.records == result.records
        assert "faults" in ExperimentResult.CSV_FIELDS
        column = ExperimentResult.CSV_FIELDS.index("faults")
        plans = {row[column] for row in result.csv_rows()}
        assert plans == {"none", "crash@p0s5"}

    def test_fingerprints_separate_fault_plans(self):
        from repro.store.fingerprint import (
            FINGERPRINT_VERSION,
            run_fingerprint,
        )

        assert FINGERPRINT_VERSION == 4
        spec = get_scenario("faultcheck-sec64").replace(
            seed_count=1, faults=("none", "crash@p0s5")
        )
        prints = [run_fingerprint(spec, task) for task in expand_grid(spec)]
        assert len(set(prints)) == len(prints)

    def test_store_dedups_per_fault_plan(self, tmp_path):
        from repro.store import ResultStore

        spec = get_scenario("faultcheck-sec64").replace(seed_count=1)
        path = str(tmp_path / "store.sqlite")
        with ResultStore(path) as store, \
                ExperimentRunner(store=store) as runner:
            cold = runner.run(spec)
            warm = runner.run(spec)
        assert warm.records == cold.records
        assert warm.stats["store"]["hits"] == len(warm.records)
        assert warm.stats["store"]["misses"] == 0


# -- the masking oracle -------------------------------------------------------

class TestMaskingOracle:
    def test_crash_budget_is_k_plus_t_for_cheap_talk(self):
        assert crash_budget(get_scenario("faultcheck-thm41")) == 2  # k+t
        assert crash_budget(get_scenario("faultcheck-sec64")) == 2  # k
        assert crash_budget(get_scenario("raw-chicken-matrix")) == 0

    def test_crashed_players_counts_permanent_player_crashes_only(self):
        plan = "crash@p0s5+crash-restart@p2s6r40+crash@p7s0"
        # n=7: pid 7 is the mediator, crash-restart is not permanent.
        assert crashed_players(plan, 7) == (0,)
        assert crashed_players(plan, 9) == (0, 7)
        assert crashed_players("drop-0.1", 9) == ()

    def test_within_budget_crashes_mask_on_thm41(self):
        spec = get_scenario("faultcheck-thm41").replace(
            seed_count=1, faults=("crash@p0s5", "crash@p0s5+crash@p8s9")
        )
        result = check_scenario(spec, breaking=())
        assert result.ok
        assert [r.expect for r in result.reports] == ["mask", "mask"]
        assert all(r.masked for r in result.reports)

    def test_budget_plus_one_crash_breaks_thm41(self):
        # t+1 = 3 permanent crashes with n=9, k=1, t=1: honest players'
        # *actions* flip (the all-default outcome keeps payoffs flat, so
        # tightness detection must look at actions, not payoffs).
        spec = get_scenario("faultcheck-thm41").replace(
            seed_count=1, faults=("none",)
        )
        result = check_scenario(
            spec, breaking=("crash@p0s5+crash@p1s5+crash@p8s9",)
        )
        assert result.ok
        report = result.reports[0]
        assert report.expect == "break" and not report.masked
        assert {m.field for m in report.mismatches} == {"actions"}

    def test_mediator_crash_is_a_single_point_of_failure(self):
        # Sec 6.4 has t=0: the mediator (pid n) is NOT in the fault
        # budget, and killing it collapses every honest player to ⊥.
        spec = get_scenario("faultcheck-sec64").replace(
            seed_count=1, faults=("none",)
        )
        result = check_scenario(spec, breaking=("crash@p7s0",))
        assert result.ok
        report = result.reports[0]
        assert report.crashed == ()  # pid 7 == n: not a *player* crash
        assert not report.masked

    def test_describe_lines_name_the_verdict(self):
        spec = get_scenario("faultcheck-sec64").replace(
            seed_count=1, faults=("crash@p0s5",)
        )
        result = check_scenario(spec, breaking=())
        line = result.reports[0].describe()
        assert line.startswith("[ok]")
        assert "masked" in line and "budget 2" in line

    def test_registered_verdicts_all_hold(self):
        for result in run_faultcheck():
            assert result.ok, [r.describe() for r in result.reports]

    def test_run_faultcheck_defaults_to_the_registered_scenarios(self):
        assert sorted(BREAKING_PLANS) == [
            "faultcheck-sec64", "faultcheck-thm41"
        ]

    def test_desynced_grids_are_a_fault_error(self):
        from repro.faults.masking import check_plans

        spec = get_scenario("faultcheck-sec64").replace(
            seed_count=1, faults=("none", "crash@p0s5")
        )
        with ExperimentRunner() as runner:
            records = runner.run(spec).records
        faulted = [r for r in records if r.faults == "crash@p0s5"]
        with pytest.raises(FaultError, match="out of sync"):
            check_plans(spec, [], faulted, "crash@p0s5", expect="mask")


# -- the CLI ------------------------------------------------------------------

class TestFaultsCli:
    def test_faults_list_names_the_grammar_and_scenarios(self, capsys):
        from repro.cli import main

        main(["faults", "list"])
        out = capsys.readouterr().out
        assert "crash@p<pid>s<step>" in out
        assert "faultcheck-thm41" in out and "faultcheck-sec64" in out

    def test_faults_list_json_is_machine_readable(self, capsys):
        from repro.cli import main

        main(["faults", "list", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert "none" in doc["registered"]
        assert "faultcheck-sec64" in doc["faultcheck"]

    def test_faults_check_passes_on_sec64(self, capsys):
        from repro.cli import main

        main(["faults", "check", "faultcheck-sec64"])
        out = capsys.readouterr().out
        assert "5/5 plans behaved as claimed [ok]" in out

    def test_faults_check_rejects_unknown_scenarios(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["faults", "check", "no-such-scenario"])
