"""Self-test: the benchmark's output checks fire on wrong outputs.

Run from the repository root::

    python3 perfbench/selftest.py

Each case feeds the checker real outputs with one defect planted — a
tampered record, a dropped cell, a failed cell, a wrong audit verdict, a
wrong masking verdict, a net leg that disagrees with its sim twin, a
store that simulated too much, a miscounted message — and confirms the
defect is counted in ``failed_frac``. The same inputs untouched must
count no failure. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import (  # noqa: E402
    Checker,
    check_accounting,
    check_audit_verdicts,
    check_conformance,
    check_masking,
    check_overlap,
    check_same_records,
)


def _counted(feed) -> int:
    checker = Checker()
    feed(checker)
    return checker.failed


def main() -> int:
    from repro.audit import get_audit, run_audit
    from repro.experiments.registry import get_scenario
    from repro.experiments.runner import ExperimentRunner
    from repro.faults.masking import MaskingResult, check_scenario

    runner = ExperimentRunner()
    records = runner.run(get_scenario("thm45-punishment")).records
    tampered = list(records)
    tampered[1] = dataclasses.replace(
        tampered[1], payoffs=tuple(p + 1.0 for p in tampered[1].payoffs)
    )
    failed_cell = dataclasses.replace(records[0], error="planted failure")
    leak = run_audit(get_audit("sec64-leak"), runner=runner)
    minimal = run_audit(get_audit("sec64-minimal-audit"), runner=runner)
    masking = check_scenario("faultcheck-thm41", runner=runner)
    flipped = dataclasses.replace(
        masking.reports[0], expect="break"
    )
    wrong_masking = MaskingResult(
        scenario=masking.scenario,
        reports=(flipped,) + masking.reports[1:],
    )
    net_spec = get_scenario("netcheck-thm41").replace(seed_count=1)
    net = runner.run(net_spec).records
    sim = runner.run(net_spec.replace(runtime="sim", latency="zero")).records
    net_wrong = (dataclasses.replace(
        net[0], actions=tuple(1 - a for a in net[0].actions)
    ),) + net[1:]
    counts = {"session:aba": records[0].messages_sent - 6, "start": 6}

    cases = [
        ("tampered record",
         lambda c: check_same_records(c, "self-test", records, records),
         lambda c: check_same_records(c, "self-test", records, tampered)),
        ("dropped cell",
         lambda c: check_same_records(c, "self-test", records, records),
         lambda c: check_same_records(c, "self-test", records, records[:-1])),
        ("failed cell",
         lambda c: c.cells(records),
         lambda c: c.cells((failed_cell,) + records[1:])),
        ("wrong audit verdict",
         lambda c: check_audit_verdicts(c, leak, minimal),
         lambda c: check_audit_verdicts(c, minimal, leak)),
        ("wrong masking verdict",
         lambda c: check_masking(c, masking),
         lambda c: check_masking(c, wrong_masking)),
        ("net leg disagrees with its sim twin",
         lambda c: check_conformance(c, "self-test", sim, net),
         lambda c: check_conformance(c, "self-test", sim, net_wrong)),
        ("store simulated an old seed again",
         lambda c: check_overlap(c, "self-test", 4, 8, hits=8, misses=4),
         lambda c: check_overlap(c, "self-test", 4, 8, hits=7, misses=5)),
        ("message miscounted",
         lambda c: check_accounting(c, records[0], counts),
         lambda c: check_accounting(c, records[0], dict(counts, start=5))),
    ]
    ok = True
    for name, clean, broken in cases:
        clean_failed, broken_failed = _counted(clean), _counted(broken)
        fired = clean_failed == 0 and broken_failed > 0
        ok = ok and fired
        print(f"{'ok  ' if fired else 'FAIL'} {name}: clean input counted "
              f"{clean_failed} failure(s), planted defect counted "
              f"{broken_failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
