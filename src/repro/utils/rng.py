"""Deterministic hierarchical randomness.

Every stochastic component of a simulation (each player, the mediator, the
scheduler, the setup dealer) draws from its own :class:`random.Random`
instance whose seed is derived from a single master seed plus a label path.
This makes whole experiments reproducible from one integer while keeping the
streams statistically independent of each other.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.utils.sha256 import sha256


_SEED_MEMO: dict[tuple, int] = {}
_SEED_MEMO_MAX = 65536


def derive_seed(master: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``master`` and a label path.

    The derivation is a SHA-256 hash of the master seed and the repr of each
    label, so distinct label paths give (cryptographically) independent
    seeds and the mapping is stable across processes and Python versions.
    Derivations are memoized per process: sweeps re-derive the same
    (seed, path) pairs for every grid cell, and the mapping is pure. The
    memo keys on the label *reprs* — what the hash actually consumes — so
    equal-but-distinct-repr labels (``1`` vs ``1.0``) never collide.
    """
    key = (master, tuple(repr(label) for label in labels))
    cached = _SEED_MEMO.get(key)
    if cached is not None:
        return cached
    hasher = sha256()
    hasher.update(str(master).encode())
    for label_repr in key[1]:
        hasher.update(b"/")
        hasher.update(label_repr.encode())
    derived = int.from_bytes(hasher.digest()[:8], "big")
    if len(_SEED_MEMO) >= _SEED_MEMO_MAX:
        _SEED_MEMO.clear()
    _SEED_MEMO[key] = derived
    return derived


class RngTree:
    """A node in a deterministic randomness tree.

    ``RngTree(seed)`` is the root; ``tree.child(label)`` derives a child node
    and ``tree.rng`` is the node's own :class:`random.Random` stream (created
    lazily — many nodes are only ever used to derive children).
    """

    def __init__(self, seed: int, _path: tuple[object, ...] = ()) -> None:
        self.seed = seed
        self._path = _path
        self._rng: random.Random | None = None

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(
                derive_seed(self.seed, *self._path, "stream")
            )
        return self._rng

    def child(self, *labels: object) -> "RngTree":
        """Return the child node at ``labels`` (deterministic in labels)."""
        return RngTree(self.seed, self._path + tuple(labels))

    def shuffled(self, items: Iterable) -> list:
        """Return a new list with ``items`` shuffled by this node's stream."""
        out = list(items)
        self.rng.shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngTree(seed={self.seed}, path={self._path!r})"
