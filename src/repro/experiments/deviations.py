"""Named deviation profiles for declarative scenarios.

A *deviation profile* maps a name (carried by the JSON spec) to the
concrete per-player deviation factories of
:mod:`repro.analysis.deviations`. Factories have different arities in the
two run modes — mediator-game deviations take ``(pid, own_type)``,
cheap-talk deviations take ``(pid, own_type, config)`` — so every profile
declares which modes it supports, the runner resolves the mode from the
scenario's theorem, and a builder returns the factories of that mode.

Besides registered names, ``audit:{…}`` names are accepted: they carry a
serialized :class:`~repro.audit.strategy_space.CandidateDeviation` and are
materialized on the fly, which is how the audit engine evaluates searched
candidates through ordinary scenario grids (including across
``multiprocessing`` workers — the name is plain data).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.games.library import GameSpec

MODE_FOR_THEOREM = {
    "4.1": "cheaptalk",
    "4.2": "cheaptalk",
    "4.4": "cheaptalk",
    "4.5": "cheaptalk",
    "mediator": "mediator",
    "r1": "none",
    "raw-game": "none",
}

ProfileBuilder = Callable[[GameSpec, int, int, str], dict]

_PROFILES: dict[str, tuple[frozenset[str], ProfileBuilder]] = {}


def register_deviation(name: str, modes: tuple[str, ...]):
    """Decorator registering a ``(spec, k, t, mode) -> {pid: factory}``."""

    def _register(fn: ProfileBuilder) -> ProfileBuilder:
        if name in _PROFILES:
            raise ExperimentError(f"deviation {name!r} is already registered")
        _PROFILES[name] = (frozenset(modes), fn)
        return fn

    return _register


def deviation_names() -> list[str]:
    return sorted(_PROFILES)


def deviation_modes(name: str) -> tuple[str, ...]:
    """The run modes a registered profile supports."""
    try:
        modes, _ = _PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown deviation profile {name!r}; known profiles: "
            f"{', '.join(deviation_names())}"
        ) from None
    return tuple(sorted(modes))


def deviations_for_mode(mode: str) -> list[str]:
    """All registered profile names available in ``mode`` runs."""
    return sorted(
        name for name, (modes, _) in _PROFILES.items() if mode in modes
    )


def deviation_profile(name: str, spec: GameSpec, k: int, t: int, mode: str) -> dict:
    """Resolve profile ``name`` into ``{pid: factory}`` for ``mode``."""
    if name.startswith("audit:"):
        from repro.audit.strategy_space import candidate_from_name

        if mode not in ("cheaptalk", "mediator"):
            raise ExperimentError(
                f"audit deviations are not available for {mode!r} runs"
            )
        return candidate_from_name(name).build(spec, mode)
    try:
        modes, builder = _PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown deviation profile {name!r}; known profiles: "
            f"{', '.join(deviation_names())}"
        ) from None
    if mode not in modes:
        raise ExperimentError(
            f"deviation profile {name!r} is not available for "
            f"{mode!r} runs (supports: {', '.join(sorted(modes))})"
        )
    return builder(spec, k, t, mode)


@register_deviation("honest", ("cheaptalk", "mediator", "none"))
def _honest(spec, k, t, mode):
    return {}


@register_deviation("crash-last", ("cheaptalk", "mediator"))
def _crash_last(spec, k, t, mode):
    from repro.analysis.deviations import crash, ct_crash

    n = spec.game.n
    return {n - 1: ct_crash() if mode == "cheaptalk" else crash()}


@register_deviation("lying-last", ("cheaptalk",))
def _lying_last(spec, k, t, mode):
    from repro.analysis.deviations import ct_lying_shares

    return {spec.game.n - 1: ct_lying_shares(spec)}


@register_deviation("crash+liar", ("cheaptalk",))
def _crash_liar(spec, k, t, mode):
    from repro.analysis.deviations import ct_crash, ct_lying_shares

    n = spec.game.n
    return {n - 2: ct_crash(), n - 1: ct_lying_shares(spec)}


@register_deviation("stall-last", ("cheaptalk", "mediator"))
def _stall_last(spec, k, t, mode):
    from repro.analysis.deviations import ct_stall_after, stall_after_messages

    n = spec.game.n
    if mode == "cheaptalk":
        return {n - 1: ct_stall_after(spec, limit=12)}
    return {n - 1: stall_after_messages(spec, limit=2)}


@register_deviation("leak-attack", ("mediator",))
def _leak_attack(spec, k, t, mode):
    from repro.analysis.section64 import leak_attack

    return leak_attack(spec, (0, 1))
