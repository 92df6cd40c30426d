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
    return {
        "thm41-honest-n9-payloads": honest.replace(record_payloads=True),
        "thm41-honest-n13-random": honest.replace(
            games=("consensus@n13",), schedulers=("random",), seed_count=2
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
        "netcheck-thm41-memory": get_scenario("netcheck-thm41"),
    }


def record_digest(record) -> str:
    data = record.to_dict()
    del data["duration_s"]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(record) -> str:
    return (
        f"{record.game}/{record.scheduler}/{record.deviation}/"
        f"{record.faults}/seed={record.seed}"
    )


def digests(spec, runner) -> dict:
    records = runner.run(spec).records
    assert all(r.ok for r in records), [r.error for r in records if not r.ok]
    return {cell_key(r): record_digest(r) for r in records}


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
