"""Output checks: every failed check and every non-``ok`` cell is counted.

The functions here take plain data (record tuples, audit and masking
results) so the self-test can feed them tampered inputs and confirm each
check fires. A :class:`Checker` counts attempted and failed operations;
``failed / attempted`` is the benchmark's ``failed_frac``.
"""

from __future__ import annotations


class Checker:
    """Counts attempted operations (cells and checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def cells(self, records) -> None:
        """One attempted operation per simulated cell; failed if not ``ok``."""
        for record in records:
            self.check(
                record.ok,
                f"cell {record.scenario}/{record.scheduler}/"
                f"{record.deviation}/{record.faults}/seed={record.seed} "
                f"not ok: {record.error}",
            )


def check_all_ok(checker: Checker, label: str, records) -> None:
    bad = [r for r in records if not r.ok]
    checker.check(
        not bad, f"{label}: {len(bad)} record(s) not ok"
    )


def check_same_records(checker: Checker, label: str, expected, observed) -> None:
    """``observed`` must equal ``expected`` cell for cell.

    ``RunRecord`` equality already excludes the wall-clock fields, so
    this is exact on everything the simulation decides.
    """
    expected, observed = tuple(expected), tuple(observed)
    if len(expected) != len(observed):
        checker.check(
            False,
            f"{label}: {len(observed)} record(s), expected {len(expected)}",
        )
        return
    diverged = sum(1 for a, b in zip(expected, observed) if a != b)
    checker.check(
        diverged == 0, f"{label}: {diverged} record(s) differ"
    )


def check_audit_verdicts(checker: Checker, leak, minimal) -> None:
    """The leaky mediator is broken (a gain is found); the fix is robust."""
    checker.check(
        not leak.robust() and leak.max_gain() > 0,
        f"{leak.spec.name}: expected non-robust with max_gain > 0, got "
        f"robust={leak.robust()} max_gain={leak.max_gain()}",
    )
    checker.check(
        minimal.robust(),
        f"{minimal.spec.name}: expected robust, got max_gain="
        f"{minimal.max_gain()}",
    )


def check_masking(checker: Checker, masking) -> None:
    """Every masking plan masks and every breaking plan breaks."""
    checker.check(
        any(r.expect == "break" for r in masking.reports),
        f"{masking.scenario}: no breaking plan was run",
    )
    for report in masking.reports:
        checker.check(report.ok, report.describe())


def check_conformance(checker: Checker, label: str, sim_records,
                      net_records) -> None:
    from repro.net.conformance import conformance_diff

    diffs = conformance_diff(sim_records, net_records)
    checker.check(
        not diffs, f"{label}: {len(diffs)} conformance diff(s): {diffs[:2]}"
    )


def check_overlap(checker: Checker, label: str, new_cells: int,
                  old_cells: int, hits: int, misses: int) -> None:
    """The overlap leg simulates exactly the new seeds, per store counters."""
    checker.check(
        misses == new_cells and hits == old_cells,
        f"{label}: store counted {hits} hit(s) / {misses} miss(es), "
        f"expected {old_cells} / {new_cells}",
    )


def check_accounting(checker: Checker, record, counts) -> None:
    """Per-kind session sends + other sends + start signals = messages_sent.

    ``counts`` holds the traced cell's tallies: ``session:<kind>`` per
    session type, ``plain`` for sends outside any session, ``start`` for
    start signals, ``dup`` for extra copies a dup fault put on the wire
    and ``replayed`` for session sends a crash-restart replay suppressed.
    """
    session = sum(v for k, v in counts.items() if k.startswith("session:"))
    total = (
        session + counts.get("plain", 0) + counts.get("start", 0)
        + counts.get("dup", 0) - counts.get("replayed", 0)
    )
    checker.check(
        total == record.messages_sent,
        f"accounting {record.scenario}/{record.scheduler}/{record.faults}/"
        f"seed={record.seed}: counted {total} sends, record has "
        f"{record.messages_sent} ({dict(counts)})",
    )
