"""The asynchronous cheap-talk game Γ_CT.

Players communicate only with each other over private pairwise channels;
the mediator's computation is replaced by the MPC engine evaluating the
mediator circuit. A :class:`CheapTalkPlayer` hosts the engine session,
decodes its private output wire into an underlying-game action, makes its
move, and *keeps serving* protocol messages afterwards (the paper's
observation that a player who has moved may still need to answer messages
so that others can move).

Players that never move get their AH will (if any) or the game's default
move, by the same :func:`~repro.mediator.games.resolve_actions` as the
mediator game.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.broadcast.base import SessionHost
from repro.cheaptalk.circuits import (
    default_inputs,
    mediator_circuit_for,
    output_label,
)
from repro.circuits import Circuit
from repro.errors import CompilationError
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import GameSpec
from repro.mediator.games import (
    ExtensionGame,
    MediatorRun,
    resolve_actions,
    run_engine,
)
from repro.mpc import TrustedSetup, mpc_sid
from repro.sim import Scheduler, TimingModel

ENGINE_SID = mpc_sid("cheap-talk")

Will = Callable[[int, Any, random.Random], Any]
"""(pid, own_type, private rng) -> the move to make if the run deadlocks."""


class CheapTalkPlayer(SessionHost):
    """Honest cheap-talk player: run the engine, move, keep serving."""

    def __init__(
        self,
        spec: GameSpec,
        pid: int,
        own_type: Any,
        config: dict,
        will: Optional[Will] = None,
    ) -> None:
        self.spec = spec
        self.own_type = own_type
        self.will = will
        peers = list(range(spec.game.n))
        super().__init__(pid, peers, config, on_ready=self._kick)

    @staticmethod
    def _kick(host: "CheapTalkPlayer") -> None:
        # A plain function, not a bound method: the host keeps its
        # ``on_ready``, and a method bound to the host would make the two
        # a reference cycle (in crash-restart snapshots too).
        host.await_session(ENGINE_SID, host._on_engine_result)

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
        return self.will(pid, self.own_type, self._will_rng())


class CheapTalkGame(ExtensionGame):
    """Γ_CT: the cheap-talk extension of an underlying game."""

    SEED_STRIDE = 104729

    def __init__(
        self,
        spec: GameSpec,
        k: int,
        t: int,
        mode: str = "bcg",
        approach: str = "default",
        field: Optional[GF] = None,
        will: Optional[Will] = None,
        circuit: Optional[Circuit] = None,
        enforce_engine_bounds: bool = True,
    ) -> None:
        super().__init__(spec, k, t, approach, will)
        self.mode = mode
        self.field = field or GF(DEFAULT_PRIME)
        self.circuit = circuit or mediator_circuit_for(spec, self.field)
        self.default_inputs = default_inputs(spec)
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
            "default_inputs": dict(self.default_inputs),
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
        result = run_engine(
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
        )
        actions = resolve_actions(self.spec, self.approach, types, result)
        return MediatorRun(actions=actions, result=result, types=types)
