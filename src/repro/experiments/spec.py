"""Declarative experiment scenarios.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of a
grid of runs: which game, through which theorem (or directly against the
mediator / the raw game matrix), at which ``(k, t)``, under which timing
models and environments and deviation profiles, over which seed range.
Specs carry no live objects — only names resolved at run time through the
game, timing, scheduler, deviation, and scenario registries — so they
pickle cheaply across worker processes and serialize losslessly to JSON.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import (
    ExperimentError,
    FaultError,
    NetError,
    SimulationError,
    SpecError,
)
from repro.faults.plan import fault_from_name
from repro.net.latency import latency_from_name
from repro.sim.timing import timing_from_name

THEOREMS = ("4.1", "4.2", "4.4", "4.5", "r1", "mediator", "raw-game")
"""Legal values of :attr:`ScenarioSpec.theorem`.

The four numbered entries are the paper's cheap-talk compilers; ``r1`` is
the synchronous baseline; ``mediator`` runs the ideal mediator game itself;
``raw-game`` evaluates the underlying game matrix on explicit action
profiles without any simulation.
"""

RUNTIMES = ("sim", "net", "net-tcp")
"""Legal values of :attr:`ScenarioSpec.runtime`.

``sim`` is the step-scheduled kernel (:mod:`repro.sim`) under the spec's
schedulers; ``net`` runs the same kernel under a
:class:`~repro.sim.scheduler.LatencyScheduler`, which delivers in order of
virtual arrival time under the spec's ``latency`` model (deterministic);
``net-tcp`` runs the processes over real localhost TCP sockets
(:mod:`repro.net`; wall-clock, not byte-deterministic).
"""

MEDIATOR_VARIANTS = ("standard", "leaky-sec64", "minimal-sec64")
"""Mediator implementations for ``theorem="mediator"`` runs.

``leaky-sec64`` is the paper's Section 6.4 counterexample mediator (leaks
``a + b·i``); ``minimal-sec64`` is its minimally-informative transform.
"""


def _tuplize(value: Any) -> Any:
    """Recursively convert lists/tuples to tuples (JSON gives us lists)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplize(v) for v in value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: a named grid of runs.

    The grid is the cross product ``games × timings × schedulers ×
    deviations × faults × seeds`` — except for ``r1`` (synchronous by construction:
    no scheduler or timing grid, honest only; ``games × seeds``) and
    ``raw-game`` (one evaluation per entry of ``action_profiles``). Timing
    names are resolved through :func:`repro.sim.timing.timing_from_name`
    (``"async"``, ``"lockstep"``, ``"bounded-<d>[@<gst>]"``); game names
    through :func:`repro.games.registry.make_game` (registry names,
    ``family@params`` instances, ``file:<path>`` GameDef files).
    """

    name: str
    game: str
    n: int
    theorem: str = "4.1"
    k: int = 1
    t: int = 1
    epsilon: Optional[float] = None
    games: tuple[str, ...] = ()
    """Optional game axis: ``family@params`` (or registry / ``file:``)
    names the grid crosses with the other axes, so one sweep can scan
    game size the way it scans timing models. Empty means the single
    ``game``. Parameters in an entry win over ``n`` (``consensus@n5``
    is 5-player regardless), exactly as in
    :func:`repro.games.registry.make_game`."""

    timings: tuple[str, ...] = ("async",)
    schedulers: tuple[str, ...] = ("fifo",)
    deviations: tuple[str, ...] = ("honest",)
    seed_start: int = 0
    seed_count: int = 1
    type_profile: Optional[tuple] = None
    action_profiles: tuple[tuple, ...] = ()
    mediator_variant: str = "standard"
    runtime: str = "sim"
    """Which substrate executes the grid: the step-scheduled kernel
    (``sim``), the same kernel in seeded latency order (``net``), or real
    localhost TCP sockets (``net-tcp``). See :data:`RUNTIMES`."""

    latency: str = "zero"
    """Latency model for net runtimes, by
    :func:`repro.net.latency.latency_from_name` name (``zero``,
    ``fixed-<d>``, ``lognormal@m<median>s<sigma>``,
    ``gst-<pre>-<post>@<t>``). Must stay ``zero`` for ``runtime="sim"`` —
    the kernel models delay through ``timings`` instead."""

    faults: tuple[str, ...] = ("none",)
    """Fault-plan axis, by :func:`repro.faults.plan.fault_from_name` name
    (``none``, ``crash@p<pid>s<step>``, ``drop-<p>``, ``dup-<p>``,
    ``partition@{<pids>}t<start>h<heal>``,
    ``crash-restart@p<pid>s<step>r<restart>``, ``corrupt-tcp-<p>``, and
    ``+``-joined compounds). The grid crosses it with the other axes, so
    one scenario can sweep a protocol across fault intensities the way it
    sweeps schedulers."""

    step_limit: Optional[int] = None
    timeout_s: Optional[float] = None
    record_payloads: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "games", _tuplize(self.games))
        object.__setattr__(self, "timings", _tuplize(self.timings))
        object.__setattr__(self, "schedulers", _tuplize(self.schedulers))
        object.__setattr__(self, "deviations", _tuplize(self.deviations))
        object.__setattr__(self, "faults", _tuplize(self.faults))
        object.__setattr__(self, "type_profile", _tuplize(self.type_profile))
        object.__setattr__(self, "action_profiles", _tuplize(self.action_profiles))
        for timing in self.timings:
            try:
                timing_from_name(timing)
            except SimulationError as exc:
                raise ExperimentError(str(exc)) from None
        if self.theorem not in THEOREMS:
            raise ExperimentError(
                f"unknown theorem {self.theorem!r}; one of: {', '.join(THEOREMS)}"
            )
        if self.mediator_variant not in MEDIATOR_VARIANTS:
            raise ExperimentError(
                f"unknown mediator variant {self.mediator_variant!r}; "
                f"one of: {', '.join(MEDIATOR_VARIANTS)}"
            )
        if self.runtime not in RUNTIMES:
            raise ExperimentError(
                f"unknown runtime {self.runtime!r}; one of: "
                f"{', '.join(RUNTIMES)}"
            )
        try:
            latency_from_name(self.latency)
        except NetError as exc:
            raise ExperimentError(str(exc)) from None
        if self.runtime == "sim":
            if self.latency != "zero":
                raise ExperimentError(
                    "latency models apply to net runtimes; the simulated "
                    "kernel models delay through the timings axis"
                )
        else:
            if self.theorem in ("r1", "raw-game"):
                raise ExperimentError(
                    f"theorem {self.theorem!r} has no asynchronous message "
                    f"schedule; it only runs on the simulated kernel"
                )
            if self.timings != ("async",):
                raise ExperimentError(
                    "timing models belong to the simulated kernel; net "
                    "runs take a latency model instead"
                )
        for fault in self.faults:
            try:
                fault_from_name(fault)
            except FaultError as exc:
                raise ExperimentError(str(exc)) from None
        if self.faults != ("none",) and self.theorem in ("r1", "raw-game"):
            raise ExperimentError(
                f"theorem {self.theorem!r} has no asynchronous message "
                f"schedule to inject faults into; drop the faults axis"
            )
        if self.seed_count < 1:
            raise ExperimentError("seed_count must be >= 1")
        if not self.timings or not self.schedulers or not self.deviations:
            raise ExperimentError(
                "timings, schedulers and deviations must be non-empty"
            )
        if not self.faults:
            raise ExperimentError(
                "faults must be non-empty (use ('none',) for fault-free)"
            )
        if self.theorem == "raw-game" and not self.action_profiles:
            raise ExperimentError("raw-game scenarios need action_profiles")
        if self.games:
            if self.theorem == "raw-game":
                raise ExperimentError(
                    "raw-game scenarios evaluate one explicit payoff "
                    "matrix; a games axis does not apply"
                )
            from repro.errors import GameError
            from repro.games.families import is_family_name, parse_game_name

            for game in self.games:
                if not isinstance(game, str) or not game:
                    raise ExperimentError(
                        f"games axis entries must be names, got {game!r}"
                    )
                if is_family_name(game):
                    try:
                        parse_game_name(game)
                    except GameError as exc:
                        raise ExperimentError(str(exc)) from None

    # -- grid geometry -------------------------------------------------------

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.seed_start, self.seed_start + self.seed_count))

    @property
    def game_axis(self) -> tuple[str, ...]:
        """The effective game axis: ``games`` or the single ``game``."""
        return self.games or (self.game,)

    def grid_size(self) -> int:
        if self.theorem == "raw-game":
            return len(self.action_profiles)
        if self.theorem == "r1":
            return len(self.game_axis) * self.seed_count
        return (
            len(self.game_axis)
            * len(self.timings)
            * len(self.schedulers)
            * len(self.deviations)
            * len(self.faults)
            * self.seed_count
        )

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with ``changes`` applied (convenience for overrides)."""
        return dataclasses.replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    DERIVED_FIELDS = ("mode", "supported_deviations")
    """Read-only keys ``repro scenarios --json`` adds alongside the spec
    fields (run mode and the deviation profiles available to it); dropped
    on parse so the emitted JSON still round-trips through ``from_dict``."""

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = {k: v for k, v in data.items() if k not in cls.DERIVED_FIELDS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown ScenarioSpec field(s): {', '.join(sorted(unknown))}"
                f"; accepted fields: {', '.join(sorted(known))}"
            )
        return cls(**{key: _tuplize(value) for key, value in data.items()})

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
