"""Running mediator games under schedulers and collecting outcomes.

A :class:`MediatorGame` bundles a :class:`~repro.games.library.GameSpec`
with the canonical mediator and honest-player processes, runs them under
arbitrary environment strategies (including relaxed ones), applies the
deadlock semantics — AH wills or default moves — and reduces each run to an
action profile of the underlying game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import GameError
from repro.games.library import GameSpec
from repro.mediator.protocol import FnMediator, HonestMediatorPlayer, mediator_pid
from repro.sim import LatencyScheduler, Runtime, Scheduler, TimingModel
from repro.sim.runtime import RunResult

DeviationFactory = Callable[[int, Any], Any]
"""(pid, own_type) -> Process replacing the honest player."""


def build_engine(
    processes: dict[int, Any],
    scheduler: Scheduler,
    runtime: str = "sim",
    latency: str = "zero",
    timing: Optional[TimingModel] = None,
    **options: Any,
):
    """The engine that runs a game's processes on ``runtime``.

    ``sim`` and ``net`` both run on the kernel; ``net`` swaps the
    scheduler and timing model for a
    :class:`~repro.sim.scheduler.LatencyScheduler` over ``latency``.
    ``net-tcp`` runs the asyncio substrate over localhost sockets.
    ``options`` are the keyword arguments both engines share.
    """
    if runtime == "net-tcp":
        from repro.net.runtime import NetRuntime

        return NetRuntime(processes, latency=latency, **options)
    if runtime == "net":
        scheduler, timing = LatencyScheduler(latency), None
    return Runtime(processes, scheduler, timing=timing, **options)


@dataclass
class MediatorRun:
    """One mediator-game run reduced to underlying-game terms."""

    actions: tuple
    result: RunResult
    types: tuple

    def message_count(self) -> int:
        return self.result.trace.message_count()


class MediatorGame:
    """The asynchronous mediator game Γ_d extending an underlying game Γ."""

    def __init__(
        self,
        spec: GameSpec,
        k: int,
        t: int,
        approach: str = "default",
        rounds: int = 1,
        will: Optional[Callable[[int, Any], Any]] = None,
        mediator_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        if approach not in ("default", "ah"):
            raise GameError(f"unknown deadlock approach {approach!r}")
        if approach == "default" and spec.default_moves is None:
            raise GameError("default-move approach needs spec.default_moves")
        self.spec = spec
        self.k = k
        self.t = t
        self.approach = approach
        self.rounds = rounds
        self.will = will
        self.mediator_factory = mediator_factory or (
            lambda: FnMediator(spec, k, t, rounds=rounds)
        )

    @property
    def n(self) -> int:
        return self.spec.game.n

    @property
    def mediator(self) -> int:
        return mediator_pid(self.n)

    # -- process assembly ------------------------------------------------------

    def processes(
        self,
        types: Sequence[Any],
        deviations: Optional[Mapping[int, DeviationFactory]] = None,
    ) -> dict[int, Any]:
        deviations = deviations or {}
        procs: dict[int, Any] = {}
        for pid in range(self.n):
            if pid in deviations:
                procs[pid] = deviations[pid](pid, types[pid])
            else:
                procs[pid] = HonestMediatorPlayer(
                    self.spec, pid, types[pid], will=self.will
                )
        procs[self.mediator] = self.mediator_factory()
        return procs

    # -- running -----------------------------------------------------------------

    def run(
        self,
        types: Sequence[Any],
        scheduler: Scheduler,
        seed: int = 0,
        deviations: Optional[Mapping[int, DeviationFactory]] = None,
        step_limit: int = 200_000,
        record_payloads: bool = False,
        timing: Optional[TimingModel] = None,
        record_trace: bool = True,
        runtime: str = "sim",
        latency: str = "zero",
        faults: Any = None,
    ) -> MediatorRun:
        types = tuple(types)
        processes = self.processes(types, deviations)
        result = build_engine(
            processes,
            scheduler,
            runtime=runtime,
            latency=latency,
            seed=seed,
            mediator_pid=self.mediator,
            step_limit=step_limit,
            record_payloads=record_payloads,
            timing=timing,
            record_trace=record_trace,
            faults=faults,
        ).run()
        actions = self.resolve_actions(types, result)
        return MediatorRun(actions=actions, result=result, types=types)

    def resolve_actions(self, types: tuple, result: RunResult) -> tuple:
        """Apply the deadlock semantics to produce a full action profile.

        Players that moved keep their move. For players that did not: under
        the AH approach their will (if any) is executed; otherwise — and
        always under the default-move approach — the game's default move
        applies.
        """
        actions = []
        for pid in range(self.n):
            if pid in result.outputs:
                actions.append(result.outputs[pid])
                continue
            move = None
            if self.approach == "ah":
                move = result.wills.get(pid)
            if move is None and self.spec.default_moves is not None:
                move = self.spec.default_moves(pid, types[pid])
            actions.append(move)
        return tuple(actions)

    def sample_outcomes(
        self,
        schedulers: Sequence[Scheduler],
        samples_per_scheduler: int = 8,
        type_profiles: Optional[Sequence[tuple]] = None,
        deviations: Optional[Mapping[int, DeviationFactory]] = None,
        seed: int = 0,
    ) -> dict[tuple, list[tuple]]:
        """Monte-Carlo outcome samples: {type profile: [action profiles]}."""
        profiles = (
            list(type_profiles)
            if type_profiles is not None
            else self.spec.game.type_space.profiles()
        )
        out: dict[tuple, list[tuple]] = {}
        for types in profiles:
            rows: list[tuple] = []
            for s_idx, scheduler in enumerate(schedulers):
                for rep in range(samples_per_scheduler):
                    run = self.run(
                        types,
                        scheduler,
                        seed=seed + 7919 * s_idx + rep,
                        deviations=deviations,
                    )
                    rows.append(run.actions)
            out[tuple(types)] = rows
        return out
