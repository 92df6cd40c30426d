"""Shared test utilities for running protocol hosts under the simulator."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.broadcast import SessionHost
from repro.sim import FifoScheduler, Process, Runtime, TransitView


class CrashProcess(Process):
    """A party that never sends anything (crash fault from time zero)."""

    def on_message(self, ctx, sender, payload):
        pass


class Chatty(Process):
    """Randomized workload: a burst at start, one relay per delivery."""

    def __init__(self, n, budget=12):
        self.n = n
        self.budget = budget

    def on_start(self, ctx):
        for _ in range(3):
            ctx.send(ctx.rng.randrange(self.n), ("chat", ctx.pid))

    def on_message(self, ctx, sender, payload):
        if self.budget > 0:
            self.budget -= 1
            ctx.send(ctx.rng.randrange(self.n), ("chat", ctx.pid))


class ScriptedByzantine(Process):
    """A party driven by an explicit behaviour function.

    ``behaviour(ctx, sender, payload)`` is called for the start signal
    (``sender is None``) and for every delivered message.
    """

    def __init__(self, behaviour: Callable) -> None:
        self.behaviour = behaviour

    def on_start(self, ctx):
        self.behaviour(ctx, None, None)

    def on_message(self, ctx, sender, payload):
        self.behaviour(ctx, sender, payload)


def run_hosts(
    n: int,
    t: int,
    on_ready: Optional[Callable[[SessionHost], None]] = None,
    config: Optional[dict] = None,
    byzantine: Optional[dict[int, Process]] = None,
    scheduler=None,
    seed: int = 0,
    step_limit: int = 400_000,
):
    """Run ``n`` session hosts to quiescence; return (hosts, RunResult).

    ``byzantine`` maps pids to replacement processes (those pids get no
    SessionHost). ``on_ready`` runs on every honest host at its start
    signal.
    """
    peers = list(range(n))
    byzantine = byzantine or {}
    full_config = {"t": t, "coin_seed": 1234 + seed}
    if config:
        full_config.update(config)
    hosts: dict[int, SessionHost] = {}
    processes: dict[int, Process] = {}
    for pid in peers:
        if pid in byzantine:
            processes[pid] = byzantine[pid]
            continue
        host = SessionHost(pid, peers, full_config, on_ready=on_ready)
        hosts[pid] = host
        processes[pid] = host
    runtime = Runtime(
        processes,
        scheduler or FifoScheduler(),
        seed=seed,
        step_limit=step_limit,
    )
    result = runtime.run()
    return hosts, result


def results_for(hosts: dict, sid: tuple) -> dict[int, Any]:
    """Collect each honest host's result for session ``sid`` (if finished)."""
    return {
        pid: host.results[sid]
        for pid, host in hosts.items()
        if sid in host.results
    }


def recording_fifo(expected: Optional[Callable[[int], list]] = None):
    """A fifo scheduler that checks every pool it is handed.

    Each pool must be a :class:`TransitView` and, given ``expected``, hold
    exactly the uids ``expected(step)`` lists (ascending). The uids of each
    pool are kept in the scheduler's ``pools``. The class is built per
    call, not at module level: perfbench's tracer wraps the ``choose`` of
    every live ``Scheduler`` subclass and names the span after the
    package in the class's module name, which a test module lacks.
    """

    class RecordingFifo(FifoScheduler):
        name = "recording-fifo"

        def __init__(self) -> None:
            self.pools: list[list[int]] = []

        def choose(self, in_transit, step):
            assert isinstance(in_transit, TransitView), type(in_transit)
            uids = list(in_transit.uids())
            if expected is not None:
                assert uids == expected(step), step
            self.pools.append(uids)
            return super().choose(in_transit, step)

    return RecordingFifo()
