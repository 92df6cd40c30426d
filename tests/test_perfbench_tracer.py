"""The benchmark tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches the program from outside, by class or
module attribute: ``CheapTalkGame.run``, ``MediatorGame.run``,
``Runtime._send_from``, every ``Scheduler.choose`` and about a hundred
more. A refactor that moves one of them (say, ``run`` onto a base class)
makes ``Tracer.install`` fail, which otherwise shows only in a traced
benchmark pass. This test installs the tracer, without running anything
under it, and checks that ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


@pytest.fixture
def perfbench(monkeypatch):
    """The perfbench modules ``tracing`` and ``checks``, imported from
    their directory and dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    try:
        yield (
            importlib.import_module("tracing"),
            importlib.import_module("checks"),
        )
    finally:
        for name in ("tracing", "checks"):
            sys.modules.pop(name, None)


def test_install_patches_every_entry_point_and_uninstall_restores_it(perfbench):
    from repro.cheaptalk.game import CheapTalkGame
    from repro.mediator.games import MediatorGame
    from repro.sim.runtime import Runtime

    tracing, checks = perfbench
    tracer = tracing.Tracer(checks.Checker())
    tracer.install()
    try:
        originals = {}
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        in_place = [
            key for key, original in originals.items()
            if vars(key[0])[key[1]] is original
        ]
    finally:
        tracer.uninstall()
    assert {
        (CheapTalkGame, "run"), (MediatorGame, "run"), (Runtime, "_send_from"),
    } <= set(originals)
    assert not in_place, f"install left the original in place: {in_place}"
    assert not tracer._patches
    still_wrapped = [
        key for key, original in originals.items()
        if vars(key[0])[key[1]] is not original
    ]
    assert not still_wrapped, f"uninstall did not restore: {still_wrapped}"
