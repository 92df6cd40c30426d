"""Stable content fingerprints for store keys.

A store key must mean the same thing across processes, machines, and
sessions, so it is a SHA-256 over *canonical JSON* (sorted keys, compact
separators) of exactly the fields that determine the bytes being stored
— never over pickles, reprs, or anything address- or mtime-dependent.

Two granularities exist:

* :func:`run_fingerprint` keys one :class:`~repro.experiments.results
  .RunRecord` — the :class:`~repro.experiments.cache.CellKey` slow axes
  plus the fast axes ``(scheduler, timing, seed)`` and the
  record-affecting spec fields (``record_payloads``, ``step_limit``,
  the raw-game action profile). The scenario name is included: a record
  carries its scenario, so a cross-scenario hit would hand back a record
  whose identity fields disagree with the requesting spec.
* :func:`spec_fingerprint` / :func:`audit_fingerprint` key a whole
  stored :class:`ExperimentResult` / :class:`AuditResult` document by the
  full spec dict (plus the frontier's (k, t) ranges), so an identical
  submission is answered with the byte-identical result JSON.

``file:`` games fingerprint by a SHA-256 of the file's *content*
(:func:`game_content_stamp`), not its ``(mtime, size)``: the in-process
:class:`~repro.experiments.cache.ArtifactCache` wants cheap invalidation,
but a durable store must survive checkouts and copies that rewrite
mtimes without changing meaning.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.games.registry import FILE_GAME_PREFIX
from repro.utils.sha256 import sha256

FINGERPRINT_VERSION = 4
"""Bump when the fingerprint layout changes, or when the same cell's
record changes: old store rows simply stop matching (and stay readable
through the query API) instead of being served against a key that no
longer means the same thing.

Version history: 2 added the ``runtime``/``latency`` axes so net-substrate
cells never dedup against simulated-kernel cells; 3 added the ``faults``
axis so a faulty cell never dedups against its fault-free twin; 4: under
lock-step timing, a message a fault plan holds now leaves the round and
comes back in the round after its release, where it used to stay in
transit undelivered (or be chosen after its withdrawal, an error), so
lock-step cells with a partition or crash-restart plan record different
traffic."""


def canonical_json(data) -> str:
    """The one serialization fingerprints are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return sha256(canonical_json(data).encode("utf-8")).hexdigest()


def game_content_stamp(game_name: str) -> Optional[str]:
    """Content hash for ``file:`` games; None for registry/family names.

    A missing or unreadable file stamps as ``"missing"`` — the cell still
    fingerprints deterministically, and the run itself will record the
    error.
    """
    if not game_name.startswith(FILE_GAME_PREFIX):
        return None
    path = game_name[len(FILE_GAME_PREFIX):]
    try:
        with open(path, "rb") as fh:
            return sha256(fh.read()).hexdigest()
    except OSError:
        return "missing"


def game_stamps(spec) -> dict:
    """Content stamps for every ``file:`` game the spec can touch, each
    distinct name read and hashed once."""
    stamps = {}
    for name in dict.fromkeys((spec.game,) + tuple(spec.game_axis)):
        stamp = game_content_stamp(name)
        if stamp is not None:
            stamps[name] = stamp
    return stamps


def run_fingerprint(spec, task, stamps: Optional[dict] = None) -> str:
    """The store key of one grid cell's :class:`RunRecord`.

    ``stamps`` is :func:`game_stamps` of ``spec``, computed here when not
    given: a grid computes it once and passes it to every cell, so each
    ``file:`` game is hashed once per grid, not once per cell.
    """
    if stamps is None:
        stamps = game_stamps(spec)
    game_name = task.game or spec.game
    profile = (
        list(spec.action_profiles[task.profile_index])
        if spec.theorem == "raw-game" and task.profile_index is not None
        else None
    )
    return digest({
        "v": FINGERPRINT_VERSION,
        "kind": "run",
        "scenario": spec.name,
        "theorem": spec.theorem,
        "game": game_name,
        "game_content": stamps.get(game_name),
        "n": spec.n,
        "k": spec.k,
        "t": spec.t,
        "epsilon": spec.epsilon,
        "mediator_variant": spec.mediator_variant,
        "deviation": task.deviation,
        "scheduler": task.scheduler,
        "timing": task.timing,
        "runtime": task.runtime,
        "latency": task.latency,
        "faults": task.faults,
        "seed": task.seed,
        "type_profile": (
            list(spec.type_profile) if spec.type_profile is not None else None
        ),
        "action_profile": profile,
        "step_limit": spec.step_limit,
        "record_payloads": spec.record_payloads,
    })


def spec_fingerprint(spec) -> str:
    """The store key of a whole scenario grid's :class:`ExperimentResult`.

    The full spec dict participates (it is embedded verbatim in the stored
    JSON), so any spec-visible difference — even ``description`` — keys a
    distinct result document.
    """
    return digest({
        "v": FINGERPRINT_VERSION,
        "kind": "scenario",
        "spec": spec.to_dict(),
        "games": game_stamps(spec),
    })


def audit_fingerprint(spec, ks=None, ts=None, kind: str = "audit") -> str:
    """The store key of an :class:`AuditResult` (one cell or a frontier)."""
    game_content = (
        game_content_stamp(spec.game) if spec.game is not None else None
    )
    return digest({
        "v": FINGERPRINT_VERSION,
        "kind": kind,
        "spec": spec.to_dict(),
        "game_content": game_content,
        "ks": list(ks) if ks is not None else None,
        "ts": list(ts) if ts is not None else None,
    })
