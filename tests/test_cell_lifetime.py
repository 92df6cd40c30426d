"""A finished kernel cell leaves nothing for the cyclic garbage collector.

Every simulated cell builds its object graph afresh: the kernel with its
network and per-pid contexts, n session hosts with their sessions, rounds
and sets, or a mediator and its players. When ``ExperimentRunner.run``
returns, reference counting alone must free all of it (CONTRIBUTING
invariant 13), so per-cell memory does not pile up across a grid.

``runtime="net-tcp"`` is out of scope: asyncio's own futures and streams
form reference cycles.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.registry import get_scenario
from repro.experiments.runner import ExperimentRunner

FAMILIES = (
    "thm41-honest",
    "thm41-crash-liar",
    "thm42-epsilon",
    "thm44-punishment",
    "thm45-punishment",
    "netcheck-thm41",
    "netcheck-sec64",
    "sec64-leak-attack",
    "mediator-honest",
    "r1-baseline",
)


def _one_cell(spec, faults=None):
    """``spec`` cut to one cell: the first game, timing and scheduler, the
    last deviation profile (the adversarial one where there are two) and
    one seed."""
    changes = dict(
        seed_count=1,
        timings=spec.timings[:1],
        schedulers=spec.schedulers[:1],
        deviations=spec.deviations[-1:],
        faults=(faults,) if faults is not None else spec.faults[:1],
    )
    if spec.games:
        changes["games"] = spec.games[:1]
    return spec.replace(**changes)


def _cells():
    for name in FAMILIES:
        yield pytest.param(_one_cell(get_scenario(name)), id=name)
    faultcheck = get_scenario("faultcheck-thm41")
    for plan in faultcheck.faults:
        yield pytest.param(
            _one_cell(faultcheck, plan), id=f"faultcheck-thm41[{plan}]"
        )


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.mark.parametrize("spec", _cells())
def test_finished_cell_leaves_no_cyclic_garbage(runner, spec):
    runner.run(spec)  # warm the artifact cache and every lazy import
    gc.collect()
    gc.disable()
    try:
        result = runner.run(spec)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert [record.ok for record in result.records] == [True]
    assert leftover == 0
