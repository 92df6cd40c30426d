"""Golden traffic: every pinned cell's record is byte-identical to its capture.

Performance work on the per-message path (kernel send/deliver, scheduler
draws, session dispatch, ABA thresholds, opening decode) must not change
a single message. Each cell below is run serially and its
``RunRecord.to_dict()`` — minus the wall-clock ``duration_s`` — is hashed
with sha256 over canonical JSON; the digests must equal the ones captured
in ``golden_traffic.json``. The ``thm41-honest`` n=9 cells record their
payload traces, so any change in delivery order or message content shows
up there, not only in the counts.

A digest may only change together with a ``FINGERPRINT_VERSION`` bump in
``repro.store.fingerprint`` and a stated reason. Re-capture with::

    PYTHONPATH=src python tests/test_golden_traffic.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.experiments import ExperimentRunner, get_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traffic.json")


def _golden_specs() -> dict:
    """label -> ScenarioSpec; the cells whose traffic is pinned."""
    honest = get_scenario("thm41-honest")
    faultcheck = get_scenario("faultcheck-thm41")
    return {
        "thm41-honest-n9-payloads": honest.replace(record_payloads=True),
        "thm41-honest-n13-random": honest.replace(
            games=("consensus@n13",), schedulers=("random",), seed_count=2
        ),
        # Schedulers that read the pool's per-sender and per-recipient
        # order.
        "thm41-honest-rushing-laggard": honest.replace(
            schedulers=("rushing-last", "laggard-quarter"), seed_count=1
        ),
        # Lock-step and bounded-delay eligibility: the kernel paths that
        # call the timing model's hooks on every send and delivery.
        "thm41-timing-models": get_scenario("thm41-timing-models").replace(
            seed_count=1
        ),
        # A 224-gate circuit: pins the order in which the MPC engine
        # resolves gates and announces multiplication openings.
        "thm41-honest-volunteer-n9-payloads": honest.replace(
            games=("volunteer@n9",), schedulers=("fifo", "random"),
            seed_start=1, seed_count=1, record_payloads=True,
        ),
        "thm41-crash-liar": get_scenario("thm41-crash-liar"),
        "thm42-epsilon-lying-last": get_scenario("thm42-epsilon").replace(
            deviations=("lying-last",)
        ),
        "thm44-punishment-batch-random": get_scenario(
            "thm44-punishment"
        ).replace(schedulers=("batch-random",)),
        "thm45-punishment": get_scenario("thm45-punishment"),
        "sec64-leak-attack-colluding": get_scenario("sec64-leak-attack"),
        "faultcheck-thm41": get_scenario("faultcheck-thm41"),
        # The k+t+1 breaking plan: three crashes, two at one step.
        "faultcheck-thm41-breaking": faultcheck.replace(
            faults=("crash@p0s5+crash@p1s5+crash@p8s9",)
        ),
        # Every faultcheck plan under a non-fifo order: eager builds the
        # pool index before the first crash and random never does, so
        # both ways a halt or crash can find its messages stay pinned.
        "faultcheck-thm41-random-eager": faultcheck.replace(
            schedulers=("random", "eager"), seed_count=1
        ),
        # Held messages under lock-step: they leave the round and return
        # in the round after their release.
        "faultcheck-thm41-lockstep": faultcheck.replace(
            timings=("lockstep",)
        ),
        "netcheck-thm41-memory": get_scenario("netcheck-thm41"),
        # Every faultcheck plan under seeded latency, payloads traced:
        # pins release-time re-draws, the lazy heap's withdrawn-then-
        # reinstated deliveries, dups and drops.
        "netcheck-thm41-memory-faults": get_scenario("netcheck-thm41").replace(
            faults=faultcheck.faults, seed_count=1, record_payloads=True
        ),
        "netcheck-sec64-memory": get_scenario("netcheck-sec64"),
        # The lock-step R1 baseline, and the ideal mediator under fifo,
        # random and laggard-first: both reach their action profiles
        # through the deadlock resolution the cheap-talk game uses.
        "r1-baseline": get_scenario("r1-baseline"),
        "mediator-honest": get_scenario("mediator-honest"),
    }


def record_digest(record) -> str:
    data = record.to_dict()
    del data["duration_s"]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(record, timed: bool = False) -> str:
    key = (
        f"{record.game}/{record.scheduler}/{record.deviation}/"
        f"{record.faults}/seed={record.seed}"
    )
    return f"{key}/timing={record.timing}" if timed else key


def digests(spec, runner) -> dict:
    records = runner.run(spec).records
    assert all(r.ok for r in records), [r.error for r in records if not r.ok]
    # A grid over several timing models holds one cell per model.
    timed = len(spec.timings) > 1
    return {cell_key(r, timed): record_digest(r) for r in records}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runner():
    with ExperimentRunner() as shared:
        yield shared


@pytest.mark.parametrize("label", sorted(_golden_specs()))
def test_traffic_matches_golden_capture(label, runner):
    expected = _golden()[label]
    observed = digests(_golden_specs()[label], runner)
    assert sorted(observed) == sorted(expected)
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"{label}: records changed for {changed}"


def test_golden_covers_every_pinned_cell():
    assert sorted(_golden()) == sorted(_golden_specs())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with ExperimentRunner() as shared:
        captured = {
            label: digests(spec, shared)
            for label, spec in sorted(_golden_specs().items())
        }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(captured, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, captured.values()))} digests to {GOLDEN_PATH}")
