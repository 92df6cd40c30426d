"""Synchronous cheap talk: the R1 baseline the paper improves on.

R1 (ADGH/ADH): in the *synchronous* setting a mediator can be implemented
with cheap talk whenever n > 3k + 3t, errorless, no punishment, bounded
O(nNc) messages. This module compiles the same game specs through the
synchronous BGW-style engine so the repository can measure the cost of
asynchrony directly: the same game that needs n > 4k + 4t asynchronously
(Theorem 4.1) runs synchronously at n > 3k + 3t.

Execution happens on the one simulation kernel: ``SyncRuntime`` adapts the
round-based processes onto :class:`~repro.sim.runtime.Runtime` under the
:class:`~repro.sim.timing.LockStep` timing model, so the R1 baseline and
the asynchronous compilers differ only in their timing model and engine —
not in their delivery loop.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.cheaptalk.circuits import (
    default_inputs,
    mediator_circuit_for,
    output_label,
)
from repro.circuits import Circuit
from repro.errors import CompilationError
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import GameSpec
from repro.mediator.games import resolve_actions
from repro.mpc import TrustedSetup
from repro.mpc.bgw import BgwParty
from repro.sim.sync import SyncProcess, SyncRuntime


class SyncCheapTalkPlayer(BgwParty):
    """BGW party that decodes its output wire into an underlying-game move."""

    def __init__(self, spec: GameSpec, *args, **kwargs) -> None:
        self.spec = spec
        super().__init__(*args, **kwargs)

    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        if self.result is not None and not ctx.has_output():
            encoded = self.result.get(output_label(self.pid))
            if encoded is not None:
                ctx.output(self.spec.decode_action(encoded))


class SynchronousCheapTalk:
    """The synchronous cheap-talk game (R1 regime)."""

    def __init__(
        self,
        spec: GameSpec,
        k: int,
        t: int,
        field: Optional[GF] = None,
        circuit: Optional[Circuit] = None,
    ) -> None:
        n = spec.game.n
        if n <= 3 * k + 3 * t:
            raise CompilationError(
                f"R1 needs n > 3k+3t (n={n}, k={k}, t={t})"
            )
        self.spec = spec
        self.k = k
        self.t = t
        self.field = field or GF(DEFAULT_PRIME)
        self.circuit = circuit or mediator_circuit_for(spec, self.field)
        self.default_inputs = default_inputs(spec)
        self.fault_budget = k + t

    @property
    def n(self) -> int:
        return self.spec.game.n

    def run(
        self,
        types: Sequence[Any],
        seed: int = 0,
        crashed: Sequence[int] = (),
    ):
        """One lock-step run; returns (actions, SyncRunResult)."""
        types = tuple(types)
        setup = TrustedSetup(
            self.field, list(range(self.n)), self.fault_budget, seed=seed,
            with_macs=False,
        )
        setup.deal_for_circuit(self.circuit)
        processes: dict[int, SyncProcess] = {}
        for pid in range(self.n):
            if pid in crashed:
                processes[pid] = _SyncCrash()
                continue
            processes[pid] = SyncCheapTalkPlayer(
                self.spec,
                pid,
                self.n,
                self.fault_budget,
                self.field,
                self.circuit,
                setup.pack_for(pid),
                self.spec.encode_type(types[pid]),
                # BgwParty fills in missing inputs in its own copy.
                dict(self.default_inputs),
            )
        runtime = SyncRuntime(processes, seed=seed)
        result = runtime.run()
        return resolve_actions(self.spec, "default", types, result), result


class _SyncCrash(SyncProcess):
    def on_round(self, ctx, inbox):
        pass


def compile_r1(
    spec: GameSpec, k: int, t: int, field: Optional[GF] = None
) -> SynchronousCheapTalk:
    """The synchronous baseline compiler (bound n > 3k + 3t)."""
    return SynchronousCheapTalk(spec, k, t, field=field)
