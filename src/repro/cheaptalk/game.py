"""The asynchronous cheap-talk game Γ_CT.

Players communicate only with each other over private pairwise channels;
the mediator's computation is replaced by the MPC engine evaluating the
mediator circuit. A :class:`CheapTalkPlayer` hosts the engine session,
decodes its private output wire into an underlying-game action, makes its
move, and *keeps serving* protocol messages afterwards (the paper's
observation that a player who has moved may still need to answer messages
so that others can move).

Deadlock semantics mirror the mediator game: players that never move get
their AH will (if any) or the game's default move.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from repro.broadcast.base import SessionHost
from repro.cheaptalk.circuits import mediator_circuit_for, output_label
from repro.circuits import Circuit
from repro.errors import CompilationError, GameError
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import GameSpec
from repro.mediator.games import MediatorRun, build_engine
from repro.mpc import TrustedSetup, mpc_sid
from repro.sim import Scheduler, TimingModel
from repro.sim.runtime import RunResult

ENGINE_SID = mpc_sid("cheap-talk")


class CheapTalkPlayer(SessionHost):
    """Honest cheap-talk player: run the engine, move, keep serving."""

    def __init__(
        self,
        spec: GameSpec,
        pid: int,
        own_type: Any,
        config: dict,
        will: Optional[Callable[[int, Any], Any]] = None,
    ) -> None:
        self.spec = spec
        self.own_type = own_type
        self.will = will
        peers = list(range(spec.game.n))
        super().__init__(pid, peers, config, on_ready=self._kick)

    def _kick(self, host: "CheapTalkPlayer") -> None:
        self.await_session(ENGINE_SID, self._on_engine_result)

    def _on_engine_result(self, sid: tuple, outputs: dict) -> None:
        encoded = outputs.get(output_label(self.me))
        if encoded is None or self._ctx is None:
            return
        try:
            action = self.spec.decode_action(encoded)
        except KeyError:
            # A corrupted opening decoded to garbage outside the action
            # encoding (possible only in ablation/naive modes): the player
            # cannot follow the recommendation and makes no move here — the
            # deadlock semantics (will / default move) take over.
            self._ctx.log("undecodable-recommendation", value=encoded)
            return
        if not self._ctx.has_output():
            self._ctx.output(action)

    def _will_rng(self):
        """Private randomness for executing a randomized will.

        Seeded from this player's *private* setup shares, so other players
        (and the environment) cannot predict a randomized punishment move.
        """
        import random

        from repro.utils.rng import derive_seed

        pack = self.config.get("setup")
        fingerprint = 0
        if pack is not None and pack.shares:
            fingerprint = sum(int(v) for v in pack.shares.values()) % (2**61)
        seed = derive_seed(self.config.get("coin_seed", 0), "will", self.me,
                           fingerprint)
        return random.Random(seed)

    def on_deadlock(self, pid: int) -> Optional[Any]:
        if self.will is None:
            return None
        try:
            return self.will(pid, self.own_type, self._will_rng())
        except TypeError:
            return self.will(pid, self.own_type)


class CheapTalkGame:
    """Γ_CT: the cheap-talk extension of an underlying game."""

    def __init__(
        self,
        spec: GameSpec,
        k: int,
        t: int,
        mode: str = "bcg",
        approach: str = "default",
        field: Optional[GF] = None,
        will: Optional[Callable[[int, Any], Any]] = None,
        circuit: Optional[Circuit] = None,
        enforce_engine_bounds: bool = True,
    ) -> None:
        if approach not in ("default", "ah"):
            raise GameError(f"unknown deadlock approach {approach!r}")
        self.spec = spec
        self.k = k
        self.t = t
        self.mode = mode
        self.approach = approach
        self.field = field or GF(DEFAULT_PRIME)
        self.will = will
        self.circuit = circuit or mediator_circuit_for(spec, self.field)
        self.enforce_engine_bounds = enforce_engine_bounds
        self.fault_budget = k + t
        n = spec.game.n
        if enforce_engine_bounds:
            if mode == "bcg" and n <= 3 * self.fault_budget and self.fault_budget:
                raise CompilationError(
                    f"bcg cheap talk needs n > 3(k+t) for broadcast safety "
                    f"(n={n}, k+t={self.fault_budget})"
                )
            if mode == "bkr" and n <= 3 * self.fault_budget and self.fault_budget:
                raise CompilationError(
                    f"bkr cheap talk needs n > 3(k+t) (n={n}, k+t={self.fault_budget})"
                )

    @property
    def n(self) -> int:
        return self.spec.game.n

    # -- assembly -----------------------------------------------------------------

    def build_setup(self, seed: int) -> TrustedSetup:
        setup = TrustedSetup(
            self.field, list(range(self.n)), self.fault_budget, seed=seed,
            with_macs=(self.mode == "bkr"),
        )
        setup.deal_for_circuit(self.circuit)
        return setup

    def player_config(self, setup: TrustedSetup, pid: int, own_type: Any) -> dict:
        config = {
            "circuit": self.circuit,
            "engine_mode": self.mode,
            "mpc_input": self.spec.encode_type(own_type),
            "default_inputs": {
                p: self.spec.encode_type(
                    self.spec.game.type_space.profiles()[0][p]
                )
                for p in range(self.n)
            },
        }
        config.update(setup.host_config(pid))
        return config

    def processes(
        self,
        types: Sequence[Any],
        setup: TrustedSetup,
        deviations: Optional[Mapping[int, Callable]] = None,
    ) -> dict[int, Any]:
        deviations = deviations or {}
        procs: dict[int, Any] = {}
        for pid in range(self.n):
            config = self.player_config(setup, pid, types[pid])
            if pid in deviations:
                procs[pid] = deviations[pid](pid, types[pid], config)
            else:
                procs[pid] = CheapTalkPlayer(
                    self.spec, pid, types[pid], config, will=self.will
                )
        return procs

    # -- running --------------------------------------------------------------------

    def run(
        self,
        types: Sequence[Any],
        scheduler: Scheduler,
        seed: int = 0,
        deviations: Optional[Mapping[int, Callable]] = None,
        step_limit: int = 600_000,
        record_payloads: bool = False,
        timing: Optional[TimingModel] = None,
        record_trace: bool = True,
        runtime: str = "sim",
        latency: str = "zero",
        faults: Any = None,
    ) -> MediatorRun:
        types = tuple(types)
        setup = self.build_setup(seed)
        processes = self.processes(types, setup, deviations)
        result = build_engine(
            processes,
            scheduler,
            runtime=runtime,
            latency=latency,
            seed=seed,
            step_limit=step_limit,
            record_payloads=record_payloads,
            timing=timing,
            record_trace=record_trace,
            faults=faults,
        ).run()
        actions = self.resolve_actions(types, result)
        return MediatorRun(actions=actions, result=result, types=types)

    def resolve_actions(self, types: tuple, result: RunResult) -> tuple:
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
        deviations: Optional[Mapping[int, Callable]] = None,
        seed: int = 0,
    ) -> dict[tuple, list[tuple]]:
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
                        seed=seed + 104729 * s_idx + rep,
                        deviations=deviations,
                    )
                    rows.append(run.actions)
            out[tuple(types)] = rows
        return out
