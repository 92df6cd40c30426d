"""Asynchronous secure multiparty computation substrate.

Two engines evaluate :class:`repro.circuits.Circuit` objects over
secret-shared state:

* :class:`MpcEngine` in mode ``"bcg"`` — the errorless t < n/4 engine in the
  style of Ben-Or–Canetti–Goldreich: openings are Berlekamp–Welch
  error-corrected, so up to t parties sending wrong shares are simply
  corrected away and output delivery is guaranteed.
* mode ``"bkr"`` — the statistical t < n/3 engine in the style of
  Ben-Or–Kelmer–Rabin: every dealt share carries pairwise
  information-theoretic MACs; wrong shares are *rejected* (forgery
  probability 2/|F| per attempt), and reconstruction uses any t+1 verified
  shares.

Offline material (input masks, Beaver triples, shared randomness, MAC keys)
comes from :class:`TrustedSetup` — the documented substitution for the
papers' offline subprotocols (PAPER.md, "Modelling substitutions").
"""

from repro.mpc.shamir import share_secret, reconstruct, robust_reconstruct, x_of
from repro.mpc.setup import TrustedSetup, SetupPack
from repro.mpc.engine import MpcEngine, mpc_sid
from repro.mpc.avss import AsyncVerifiableSS, avss_sid

__all__ = [
    "share_secret",
    "reconstruct",
    "robust_reconstruct",
    "x_of",
    "TrustedSetup",
    "SetupPack",
    "MpcEngine",
    "mpc_sid",
    "AsyncVerifiableSS",
    "avss_sid",
]
