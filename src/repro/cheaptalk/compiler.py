"""The four cheap-talk compilers (Theorems 4.1, 4.2, 4.4, 4.5).

Each compiler checks its theorem's hypothesis — the bound on n, the
required punishment strength, bounded utilities for the ε results — and
assembles a :class:`~repro.cheaptalk.game.CheapTalkGame` with the matching
substrate (errorless BCG-style engine or statistical BKR-style engine),
deadlock approach, and wills.

The bounds are enforced exactly as the paper states them. Our substrate
(trusted offline setup instead of online AVSS, cf. PAPER.md, "Modelling
substitutions") would tolerate slightly weaker bounds in places; the
compilers deliberately do not exploit that, so experiments measure the
paper's own parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cheaptalk.game import CheapTalkGame
from repro.errors import CompilationError
from repro.field import GF, DEFAULT_PRIME
from repro.games.library import GameSpec

_EPSILON_PRIMES = [
    101, 257, 1009, 10007, 100003, 1000003, 10000019, DEFAULT_PRIME
]


@dataclass
class CompiledProtocol:
    """A cheap-talk strategy profile implementing a mediator strategy."""

    theorem: str
    bound: str
    game: CheapTalkGame
    spec: GameSpec
    k: int
    t: int
    epsilon: Optional[float] = None
    epsilon_achieved: Optional[float] = None
    notes: str = ""

    @property
    def circuit_size(self) -> int:
        return self.game.circuit.size

    def describe(self) -> str:
        eps = (
            f", ε≤{self.epsilon_achieved:.3g}" if self.epsilon_achieved else ""
        )
        return (
            f"{self.theorem} [{self.bound}] on {self.spec.name}: n={self.spec.game.n}, "
            f"k={self.k}, t={self.t}, engine={self.game.mode}, "
            f"c={self.circuit_size}{eps}"
        )


def punishment_will(spec: GameSpec) -> Callable:
    """A will executing the spec's punishment strategy (possibly mixed)."""
    if spec.punishment is None:
        raise CompilationError(f"spec {spec.name!r} has no punishment strategy")

    def will(pid: int, own_type, rng):
        return spec.punishment[pid].sample(own_type, rng)

    return will


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CompilationError(message)


def _epsilon_bound(field: GF, game: CheapTalkGame) -> float:
    """Union bound on the BKR failure probability for one run.

    Each MAC verification accepts a forged share with probability at most
    2/p; a run verifies at most n shares per opening and there are
    2·(mul gates) + (output wires) openings.
    """
    circuit = game.circuit
    n_openings = 2 * circuit.mul_count + len(circuit.outputs)
    checks = max(1, n_openings * game.n)
    return min(1.0, 2.0 * checks / field.p)


def compile_theorem41(
    spec: GameSpec,
    k: int,
    t: int,
    approach: str = "default",
    field: Optional[GF] = None,
) -> CompiledProtocol:
    """Theorem 4.1: n > 4k + 4t, errorless, no punishment needed.

    Works identically under the AH approach and the default-move approach
    (the probability of deadlock under honest play is 0).
    """
    n = spec.game.n
    _require(n > 4 * k + 4 * t, f"Theorem 4.1 needs n > 4k+4t (n={n}, k={k}, t={t})")
    game = CheapTalkGame(
        spec, k, t, mode="bcg", approach=approach, field=field
    )
    return CompiledProtocol(
        theorem="Theorem 4.1",
        bound="n > 4k+4t",
        game=game,
        spec=spec,
        k=k,
        t=t,
        notes="Errorless BCG-style substrate; O(nNc) messages.",
    )


def compile_theorem42(
    spec: GameSpec,
    k: int,
    t: int,
    epsilon: float = 1e-9,
    approach: str = "default",
    field: Optional[GF] = None,
) -> CompiledProtocol:
    """Theorem 4.2: n > 3k + 3t, ε-implementation, bounded utilities.

    The field is chosen so the statistical substrate's failure probability
    is at most ε (forgery probability 2/p per MAC check, union-bounded).
    """
    n = spec.game.n
    _require(n > 3 * k + 3 * t, f"Theorem 4.2 needs n > 3k+3t (n={n}, k={k}, t={t})")
    _require(0 < epsilon <= 1, f"epsilon must be in (0, 1], got {epsilon}")
    if field is None:
        for p in _EPSILON_PRIMES:
            candidate = GF(p)
            game = CheapTalkGame(
                spec, k, t, mode="bkr", approach=approach, field=candidate
            )
            if _epsilon_bound(candidate, game) <= epsilon:
                field = candidate
                break
        else:  # pragma: no cover - DEFAULT_PRIME always suffices
            raise CompilationError("no field large enough for epsilon")
    game = CheapTalkGame(spec, k, t, mode="bkr", approach=approach, field=field)
    achieved = _epsilon_bound(field, game)
    _require(
        achieved <= epsilon,
        f"field GF({field.p}) gives ε={achieved:.3g} > requested {epsilon:.3g}",
    )
    return CompiledProtocol(
        theorem="Theorem 4.2",
        bound="n > 3k+3t",
        game=game,
        spec=spec,
        k=k,
        t=t,
        epsilon=epsilon,
        epsilon_achieved=achieved,
        notes="Statistical BKR-style substrate; ε-(k,t)-robust.",
    )


def compile_theorem44(
    spec: GameSpec,
    k: int,
    t: int,
    field: Optional[GF] = None,
) -> CompiledProtocol:
    """Theorem 4.4: n > 3k + 4t with a (k+t)-punishment, AH approach.

    The punishment strategy is placed in every honest player's will; if the
    protocol deadlocks (which requires rational players to stall, since the
    substrate tolerates the t malicious alone), the punishment makes every
    potential staller worse off.
    """
    n = spec.game.n
    _require(n > 3 * k + 4 * t, f"Theorem 4.4 needs n > 3k+4t (n={n}, k={k}, t={t})")
    _require(
        spec.punishment is not None,
        f"Theorem 4.4 needs a punishment strategy for {spec.name!r}",
    )
    _require(
        spec.punishment_strength >= k + t,
        f"Theorem 4.4 needs a (k+t)-punishment; spec certifies only "
        f"{spec.punishment_strength} (need {k + t})",
    )
    game = CheapTalkGame(
        spec, k, t, mode="bcg", approach="ah", field=field,
        will=punishment_will(spec),
    )
    return CompiledProtocol(
        theorem="Theorem 4.4",
        bound="n > 3k+4t",
        game=game,
        spec=spec,
        k=k,
        t=t,
        notes="Punishment in wills; weak implementation uses O(nc) messages.",
    )


def compile_theorem45(
    spec: GameSpec,
    k: int,
    t: int,
    epsilon: float = 1e-9,
    field: Optional[GF] = None,
) -> CompiledProtocol:
    """Theorem 4.5: n > 2k + 3t, ε, with a (2k+2t)-punishment, AH approach."""
    n = spec.game.n
    _require(n > 2 * k + 3 * t, f"Theorem 4.5 needs n > 2k+3t (n={n}, k={k}, t={t})")
    _require(0 < epsilon <= 1, f"epsilon must be in (0, 1], got {epsilon}")
    _require(
        spec.punishment is not None,
        f"Theorem 4.5 needs a punishment strategy for {spec.name!r}",
    )
    _require(
        spec.punishment_strength >= 2 * k + 2 * t,
        f"Theorem 4.5 needs a (2k+2t)-punishment; spec certifies only "
        f"{spec.punishment_strength} (need {2 * k + 2 * t})",
    )
    if field is None:
        for p in _EPSILON_PRIMES:
            candidate = GF(p)
            game = CheapTalkGame(
                spec, k, t, mode="bkr", approach="ah", field=candidate,
                will=punishment_will(spec),
            )
            if _epsilon_bound(candidate, game) <= epsilon:
                field = candidate
                break
        else:  # pragma: no cover
            raise CompilationError("no field large enough for epsilon")
    game = CheapTalkGame(
        spec, k, t, mode="bkr", approach="ah", field=field,
        will=punishment_will(spec),
    )
    achieved = _epsilon_bound(field, game)
    return CompiledProtocol(
        theorem="Theorem 4.5",
        bound="n > 2k+3t",
        game=game,
        spec=spec,
        k=k,
        t=t,
        epsilon=epsilon,
        epsilon_achieved=achieved,
        notes="Statistical substrate plus punishment in wills.",
    )
