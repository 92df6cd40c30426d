"""The four workloads, built from the workload seed.

Each workload is a fixed mix of calls into the public library API through
one warm serial :class:`~repro.experiments.runner.ExperimentRunner` (no
pool, no sockets). :meth:`run_pass` runs the mix once, closed loop with a
single client: each grid or audit starts when the previous one returns.
The seed enters only through ``ScenarioSpec.replace(seed_start=...)`` and
``AuditSpec.replace(seed=...)``; the program receives nothing else.

``seeds`` maps a grid's registered seed count to the count a pass runs.
The warm-up pass runs one seed per grid: it touches every code path and
fills every cache. Timed passes run :data:`SEED_SCALE` times the
registered seeds, because the cost of a cell depends on its seed (how
many ABA rounds the coins force, which messages a fault hits), and a
pass over more seeds costs nearly the same whatever the workload seed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from checks import (
    check_all_ok,
    check_audit_verdicts,
    check_conformance,
    check_masking,
    check_overlap,
    check_same_records,
)

CHEAPTALK_GRIDS = ("thm41-honest", "thm41-crash-liar", "thm42-epsilon",
                   "thm44-punishment", "thm45-punishment")
AUDITS = ("sec64-leak", "sec64-minimal-audit")
STORE_GRIDS = ("mediator-honest", "sec64-leak-attack", "sec64-leaky-honest",
               "sec64-minimal-honest", "sec64-minimal-defense",
               "consensus-scaling", "mediator-fuzz", "chicken-mediator",
               "thm45-punishment")
STORE_EXTRA_SEEDS = 2
SEED_SCALE = {"cheaptalk": 3, "audit": 1, "chaos": 5, "store": 4}


@dataclass
class Pass:
    """What one pass of a workload produced, beyond the simulated cells."""

    cells: Optional[int] = None
    """Grid cells answered, store hits included; ``None`` when every
    completed cell was simulated (then the simulated cells count)."""
    evaluations: int = 0
    hit_seconds: list = field(default_factory=list)
    store_counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    """Observations worth printing that are not failures."""


class Cheaptalk:
    """The paper's headline path: Thms 4.1-4.5 on the simulated kernel."""

    def __init__(self, seed: int, runner, workdir: str, seeds) -> None:
        from repro.experiments.registry import get_scenario

        self.runner = runner
        grids = [get_scenario(name) for name in CHEAPTALK_GRIDS]
        grids.append(grids[0].replace(games=("consensus@n13",)))
        self.specs = [
            spec.replace(seed_start=seed, seed_count=seeds(spec.seed_count))
            for spec in grids
        ]

    def run_pass(self, checker) -> Pass:
        for spec in self.specs:
            records = self.runner.run(spec).records
            check_all_ok(checker, f"{spec.name}{list(spec.games)}", records)
        return Pass()


class Audit:
    """Exhaustive Sec 6.4 audits: thousands of small mediator cells.

    The audits' base scenarios are registered again with their seed
    window moved to the workload seed, so the colluding scheduler sees
    different seeds per run; the candidate space is fixed.
    """

    def __init__(self, seed: int, runner, workdir: str, seeds) -> None:
        from repro.audit import get_audit
        from repro.errors import ExperimentError
        from repro.experiments.registry import get_scenario, register_scenario

        self.runner = runner
        self.audits = []
        for name in AUDITS:
            audit = get_audit(name)
            base = get_scenario(audit.scenario)
            moved = f"{base.name}@seed{seed}"
            try:
                get_scenario(moved)
            except ExperimentError:
                register_scenario(base.replace(name=moved, seed_start=seed))
            self.audits.append(audit.replace(
                scenario=moved, seed=seed,
                seed_count=seeds(audit.seed_count or base.seed_count),
            ))

    def run_pass(self, checker) -> Pass:
        from repro.audit import run_audit

        leak, minimal = (
            run_audit(audit, runner=self.runner) for audit in self.audits
        )
        # The verdicts are claims about a window of seeds: at the warm-up's
        # single seed the covert channel need not pay off.
        if self.audits[0].seed_count > 1:
            check_audit_verdicts(checker, leak, minimal)
        evaluations = leak.evaluations() + minimal.evaluations()
        return Pass(evaluations=evaluations)


class Chaos:
    """The same protocol stack through the fault paths and ``NetRuntime``.

    The masking oracle's verdicts are a claim about the seeds
    ``faultcheck-thm41`` registers (those ``repro faults check`` runs):
    at other seed windows 5% loss can break an honest record, and k+t+1
    crashes can leave every honest record intact. So the verdicts are
    checked once per run at the registered seeds, and the timed passes,
    which run at the workload's seeds, report any verdict that differs
    as a note instead of a failure.

    The net drop leg runs honest play only: message loss on top of the
    scenario's k+t crash-and-lie deviators exceeds what Thm 4.1 masks,
    so that combination's outcome legitimately depends on the delivery
    order and has no schedule-free twin to conform to.
    """

    def __init__(self, seed: int, runner, workdir: str, seeds) -> None:
        from repro.experiments.registry import get_scenario

        self.runner = runner
        faultcheck = get_scenario("faultcheck-thm41")
        net = get_scenario("netcheck-thm41")
        self.faultcheck = faultcheck.replace(
            seed_start=seed, seed_count=seeds(faultcheck.seed_count)
        )
        self.net_legs = self._net_legs(net.replace(
            seed_start=seed, seed_count=seeds(net.seed_count)
        ))

    @staticmethod
    def _net_legs(net):
        return (
            net.replace(faults=("none",)),
            net.replace(faults=("drop-0.05",), deviations=("honest",)),
        )

    def run_pass(self, checker) -> Pass:
        from repro.faults.masking import check_scenario
        from repro.net.conformance import conformance_diff

        masking = check_scenario(self.faultcheck, runner=self.runner)
        seeds = f"{self.faultcheck.seed_start}..{self.faultcheck.seeds[-1]}"
        notes = [
            f"{report.describe()} at seeds {seeds}"
            for report in masking.reports if not report.ok
        ]
        for leg, (sim, net) in zip(self.net_legs, self._run_legs(checker)):
            label = f"{leg.name}[{leg.faults[0]}]"
            if leg.faults == ("none",):
                check_conformance(checker, label, sim, net)
                continue
            diffs = conformance_diff(sim, net)
            if diffs:
                notes.append(f"{label} at seeds {seeds}: {len(diffs)} "
                             f"conformance diff(s): {diffs[0]}")
        return Pass(notes=notes)

    def _run_legs(self, checker, legs=None):
        for leg in legs or self.net_legs:
            net = self.runner.run(leg).records
            sim = self.runner.run(
                leg.replace(runtime="sim", latency="zero")
            ).records
            check_all_ok(checker, f"{leg.name}[{leg.faults[0]}]", net + sim)
            yield sim, net

    def final_checks(self, checker) -> None:
        """The masking and lossy-conformance claims at their registered seeds."""
        from repro.experiments.registry import get_scenario
        from repro.faults.masking import check_scenario

        check_masking(checker, check_scenario("faultcheck-thm41",
                                              runner=self.runner))
        legs = self._net_legs(get_scenario("netcheck-thm41"))
        for leg, (sim, net) in zip(legs, self._run_legs(checker, legs)):
            check_conformance(checker, f"{leg.name}[{leg.faults[0]}] "
                              f"registered seeds", sim, net)


class Store:
    """A fresh on-disk ``ResultStore`` per pass: writes, hits, partial dedup."""

    def __init__(self, seed: int, runner, workdir: str, seeds) -> None:
        from repro.experiments.registry import get_scenario

        self.runner = runner
        self.specs = [
            spec.replace(seed_start=seed, seed_count=seeds(spec.seed_count))
            for spec in map(get_scenario, STORE_GRIDS)
        ]
        self.wider = [
            spec.replace(seed_count=spec.seed_count + STORE_EXTRA_SEEDS)
            for spec in self.specs
        ]
        self.path = os.path.join(workdir, f"store-{os.getpid()}.sqlite")

    def _remove_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except FileNotFoundError:
                pass

    def run_pass(self, checker) -> Pass:
        from repro.store import ResultStore

        self._remove_files()
        store = ResultStore(self.path)
        try:
            cold = [store.get_or_run(s, runner=self.runner) for s in self.specs]
            cells = 0
            for spec, outcome in zip(self.specs, cold):
                records = outcome.result.records
                checker.check(not outcome.hit,
                              f"store: fresh store answered {spec.name}")
                check_all_ok(checker, f"store cold {spec.name}", records)
                cells += len(records)
            hit_seconds = []
            for spec, first in zip(self.specs, cold):
                t0 = time.perf_counter()
                again = store.get_or_run(spec, runner=self.runner)
                hit_seconds.append(time.perf_counter() - t0)
                checker.check(again.hit, f"store: {spec.name} missed")
                check_same_records(checker, f"store hit {spec.name}",
                                   first.result.records, again.result.records)
                cells += len(again.result.records)
            before = store.counters()
            for spec in self.wider:
                records = store.get_or_run(spec, runner=self.runner).result.records
                check_all_ok(checker, f"store overlap {spec.name}", records)
                cells += len(records)
            after = store.counters()
            check_overlap(
                checker, "store overlap",
                new_cells=sum(w.grid_size() - s.grid_size()
                              for s, w in zip(self.specs, self.wider)),
                old_cells=sum(s.grid_size() for s in self.specs),
                hits=after["hits"] - before["hits"],
                misses=after["misses"] - before["misses"],
            )
        finally:
            store.close()
            self._remove_files()
        return Pass(cells=cells, hit_seconds=hit_seconds,
                    store_counters=after)


WORKLOADS = {
    "cheaptalk": Cheaptalk,
    "audit": Audit,
    "chaos": Chaos,
    "store": Store,
}
