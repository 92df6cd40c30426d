"""Compile-once/run-many: the per-process artifact cache.

Across a sweep only the *slow axes* of a grid cell vary — ``(game, n,
theorem, k, t, epsilon, mediator_variant)`` and the deviation profile —
while ``(seed, scheduler, timing)`` vary fast. Everything derived from the
slow axes is a pure function of names: the built :class:`GameSpec`, the
compiled Thm 4.1/4.2/4.4/4.5 cheap-talk protocol (or mediator game, or R1
baseline), the resolved deviation-profile factories, and the default type
profile. :func:`prepare_cell` materializes exactly that bundle — the
*prepare phase* — and :class:`ArtifactCache` memoizes it per process with a
bounded LRU, so a 200-seed × 4-scheduler sweep compiles each protocol once
instead of 800 times.

Correctness contract (pinned by ``tests/test_perf_cache.py``): every cached
artifact is stateless across runs — games build fresh processes and a fresh
``TrustedSetup`` per ``run()`` call, and deviation profiles are factories
invoked per run — so warm-cache and cold-cache sweeps produce identical
records. Per-run state (schedulers, timing models) is *not* cached here.

``file:`` games additionally key on the file's ``(mtime_ns, size)`` stamp,
so editing a GameDef JSON between runs invalidates its cache entries.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.experiments.deviations import MODE_FOR_THEOREM, deviation_profile
from repro.games.registry import FILE_GAME_PREFIX, make_game

DEFAULT_CACHE_SIZE = 64
"""Default LRU bound of a per-process :class:`ArtifactCache`."""


def _file_stamp(game_name: str) -> Optional[tuple]:
    """Invalidation stamp for ``file:`` games (None for registry names)."""
    if not game_name.startswith(FILE_GAME_PREFIX):
        return None
    path = game_name[len(FILE_GAME_PREFIX):]
    try:
        st = os.stat(path)
    except OSError:
        return ("missing",)
    return (st.st_mtime_ns, st.st_size)


@dataclass(frozen=True)
class CellKey:
    """The slow axes of a grid cell — everything the prepare phase needs.

    Two cells with equal keys share one prepared artifact bundle; the fast
    axes (seed, scheduler, timing) never appear here.
    """

    game: str
    n: int
    theorem: str
    k: int
    t: int
    epsilon: Optional[float]
    mediator_variant: str
    deviation: str
    type_profile: Optional[tuple]
    file_stamp: Optional[tuple] = None
    runtime: str = "sim"
    latency: str = "zero"
    """Execution substrate axes. Prepared artifacts are substrate-blind
    (the same compiled protocol runs on either runtime), but the key
    carries them so store-level cell identity — and anything else keyed
    on a whole ``CellKey`` — never conflates a simulated cell with a net
    cell; the sub-keys below deliberately omit them so the artifact
    cache still shares compilations across substrates."""

    faults: str = "none"
    """The injected fault plan: a run axis like ``runtime``/``latency``
    above — carried for whole-key cell identity, omitted from the
    sub-keys because prepared artifacts are fault-blind."""

    @classmethod
    def for_task(cls, spec, task) -> "CellKey":
        game_name = task.game or spec.game
        return cls(
            game=game_name,
            n=spec.n,
            theorem=spec.theorem,
            k=spec.k,
            t=spec.t,
            epsilon=spec.epsilon,
            mediator_variant=spec.mediator_variant,
            deviation=task.deviation,
            type_profile=spec.type_profile,
            file_stamp=_file_stamp(game_name),
            runtime=task.runtime,
            latency=task.latency,
            faults=task.faults,
        )

    # Sub-keys let independent layers share entries: all deviations of one
    # protocol share its compiled game; all (k, t) cells of one game share
    # its GameSpec.

    def game_key(self) -> tuple:
        return ("game", self.game, self.n, self.file_stamp)

    def protocol_key(self) -> tuple:
        return (
            "protocol", self.game, self.n, self.file_stamp, self.theorem,
            self.k, self.t, self.epsilon, self.mediator_variant,
        )

    def deviation_key(self) -> tuple:
        return (
            "deviation", self.game, self.n, self.file_stamp, self.theorem,
            self.k, self.t, self.deviation,
        )


class ArtifactCache:
    """A bounded, insertion-ordered LRU memo for prepared artifacts.

    ``maxsize <= 0`` disables caching entirely (every lookup is a miss and
    nothing is stored) — that is the *cold* reference path benchmarks and
    determinism tests compare against.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._store: OrderedDict[tuple, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, build: Callable[[], Any]) -> Any:
        if self.maxsize <= 0:
            self.misses += 1
            return build()
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = build()
            self._store[key] = value
            if len(self._store) > self.maxsize:
                self._store.popitem(last=False)
            return value
        self.hits += 1
        self._store.move_to_end(key)
        return value

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


@dataclass(frozen=True)
class PreparedCell:
    """The output of the prepare phase: run-ready, run-stateless artifacts."""

    key: CellKey
    game_spec: Any
    types: tuple
    game: Any = None
    """The compiled cheap-talk protocol game, mediator game, or R1
    baseline — ``None`` for ``raw-game`` cells (no simulation)."""

    deviations: dict = field(default_factory=dict)
    mode: str = "none"


def _build_protocol(spec, game_spec):
    """Compile the spec's theorem over ``game_spec`` (slow, cacheable)."""
    from repro.cheaptalk import (
        compile_theorem41,
        compile_theorem42,
        compile_theorem44,
        compile_theorem45,
    )

    if spec.theorem == "4.1":
        return compile_theorem41(game_spec, spec.k, spec.t).game
    if spec.theorem == "4.2":
        kwargs = {} if spec.epsilon is None else {"epsilon": spec.epsilon}
        return compile_theorem42(game_spec, spec.k, spec.t, **kwargs).game
    if spec.theorem == "4.4":
        return compile_theorem44(game_spec, spec.k, spec.t).game
    kwargs = {} if spec.epsilon is None else {"epsilon": spec.epsilon}
    return compile_theorem45(game_spec, spec.k, spec.t, **kwargs).game


def _build_mediator(spec, game_spec):
    from repro.mediator import MediatorGame

    if spec.mediator_variant == "standard":
        return MediatorGame(game_spec, spec.k, spec.t)

    from repro.games.library import BOT
    from repro.mediator import LeakySection64Mediator, minimally_informative

    leaky = MediatorGame(
        game_spec,
        spec.k,
        spec.t,
        approach="ah",
        will=lambda pid, ty: BOT,
        mediator_factory=lambda: LeakySection64Mediator(
            game_spec, spec.k, spec.t
        ),
    )
    if spec.mediator_variant == "leaky-sec64":
        return leaky
    return minimally_informative(leaky, rounds=2)


def prepare_cell(spec, task, cache: Optional[ArtifactCache] = None) -> PreparedCell:
    """Run the prepare phase for one grid cell, through ``cache`` if given.

    The returned bundle is everything :func:`repro.experiments.runner` needs
    to execute the cheap per-seed run phase; with ``cache=None`` every
    artifact is built from scratch (the cold reference path).
    """
    if cache is None:
        cache = ArtifactCache(maxsize=0)
    key = CellKey.for_task(spec, task)
    game_spec = cache.get(key.game_key(), lambda: make_game(key.game, key.n))
    types = (
        spec.type_profile
        if spec.type_profile is not None
        else tuple(game_spec.game.type_space.profiles()[0])
    )

    if spec.theorem == "raw-game":
        return PreparedCell(key=key, game_spec=game_spec, types=tuple(types))

    if spec.theorem == "r1":
        from repro.cheaptalk.sync import compile_r1

        game = cache.get(
            key.protocol_key(), lambda: compile_r1(game_spec, spec.k, spec.t)
        )
        return PreparedCell(
            key=key, game_spec=game_spec, types=tuple(types), game=game,
            mode="none",
        )

    mode = MODE_FOR_THEOREM[spec.theorem]
    deviations = cache.get(
        key.deviation_key(),
        lambda: deviation_profile(
            task.deviation, game_spec, spec.k, spec.t, mode
        ),
    )
    if spec.theorem == "mediator":
        game = cache.get(
            key.protocol_key(), lambda: _build_mediator(spec, game_spec)
        )
    else:
        game = cache.get(
            key.protocol_key(), lambda: _build_protocol(spec, game_spec)
        )
    return PreparedCell(
        key=key,
        game_spec=game_spec,
        types=tuple(types),
        game=game,
        deviations=deviations,
        mode=mode,
    )
