"""The built-in SHA-256 gives OpenSSL's digest bytes wherever the program hashes.

``repro.utils.sha256`` replaces ``hashlib.sha256`` in seed derivation,
the dealt common coin and the store fingerprints, so every seed, coin,
record and store key must come out exactly as ``hashlib`` computes it.
Each test redoes the program's computation with ``hashlib.sha256`` and
compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.coin import coin_value
from repro.games.registry import FILE_GAME_PREFIX
from repro.store import fingerprint
from repro.utils.rng import derive_seed
from repro.utils.sha256 import sha256

labels = st.one_of(
    st.integers(),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(-5, 5), st.text(max_size=4)),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)


def test_module_follows_the_interpreter_version():
    expected = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert expected in sys.modules
    assert sha256().name == "sha256" and sha256().digest_size == 32


@given(st.lists(st.binary(max_size=200), max_size=6))
def test_incremental_digest_matches_hashlib(chunks):
    ours, reference = sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        reference.update(chunk)
    assert ours.digest() == reference.digest()
    assert ours.hexdigest() == reference.hexdigest()


@given(st.integers(0, 2**64), st.lists(labels, max_size=5))
def test_derive_seed_matches_hashlib(master, path):
    blob = str(master).encode() + b"".join(
        b"/" + repr(label).encode() for label in path
    )
    expected = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    assert derive_seed(master, *path) == expected


@given(st.integers(0, 2**64), st.tuples(st.text(max_size=6), labels),
       st.integers(2, 2**16))
def test_coin_value_matches_hashlib(seed, tag, modulus):
    blob = f"{seed}|{tag!r}".encode()
    expected = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    assert coin_value(seed, tag, modulus) == expected % modulus


@given(json_values)
def test_fingerprint_digest_matches_hashlib(data):
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert fingerprint.digest(data) == expected


def _stamp_matches_hashlib(content: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "wb") as fh:
            fh.write(content)
        stamp = fingerprint.game_content_stamp(FILE_GAME_PREFIX + path)
    assert stamp == hashlib.sha256(content).hexdigest()


@settings(max_examples=40)
@given(st.binary(max_size=4096))
def test_game_content_stamp_matches_hashlib(content):
    _stamp_matches_hashlib(content)


@pytest.mark.parametrize("size", [0, 64, 1024 * 1024 + 1, 3 * 1024 * 1024])
def test_game_content_stamp_matches_hashlib_empty_and_large(size):
    _stamp_matches_hashlib(random.Random(size).randbytes(size))
