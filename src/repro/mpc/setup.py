"""Trusted offline setup: dealt masks, Beaver triples, randomness, MACs.

This module is the documented substitution (PAPER.md, "Modelling
substitutions") for the offline subprotocols of BCG/BKR: a dealer — run
*before* the asynchronous game starts, and never again — deals

* an *input mask* ``r_p`` per input player p: a degree-t sharing of a random
  value whose cleartext is also given privately to p (the SPDZ-style input
  trick: p later broadcasts ``x_p − r_p``);
* one Beaver triple (degree-t sharings of a, b, ab) per multiplication gate;
* one shared random field element / bit per rand/randbit gate;
* pairwise information-theoretic MAC material (BDOZ-style): verifier j holds
  a global key α_j and per-(sender, base-value) offsets β; sender i holds
  the tag ``m = α_j · y_i + β`` for its share ``y_i`` of every base value.
  MACs are linear, so they extend to every wire of the circuit (each wire is
  an affine combination of base values, tracked by the engine).

The dealt material is *per-host*: :meth:`TrustedSetup.pack_for` returns what
one party may see. Malicious parties receive their packs too (the adversary
knows its own shares and keys), but honest packs never leave the honest
hosts — the simulation enforces this because packs live in process-local
config, which schedulers and other processes cannot read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.circuits import Circuit
from repro.errors import ProtocolError
from repro.field import GF, GFElement, Polynomial
from repro.mpc.shamir import share_secret, x_of
from repro.utils.rng import derive_seed

BaseLabel = tuple
"""Labels: ("mask", player) | ("triple", k, "a"/"b"/"c") | ("rand", wire)
| ("randbit", wire)."""


@dataclass
class SetupPack:
    """The slice of setup material one party is allowed to hold."""

    pid: int
    shares: dict[BaseLabel, GFElement] = field(default_factory=dict)
    macs: dict[BaseLabel, dict[int, GFElement]] = field(default_factory=dict)
    """macs[label][j]: MAC on *my* share of label, verifiable by party j."""

    alpha: Optional[GFElement] = None
    """My global verification key (for checking others' shares)."""

    betas: dict[tuple[int, BaseLabel], GFElement] = field(default_factory=dict)
    """betas[(i, label)]: my offset key for party i's share of label."""

    private_values: dict[BaseLabel, GFElement] = field(default_factory=dict)
    """Cleartext values whispered to me alone (my input mask)."""

    coin_seed: int = 0


class TrustedSetup:
    """Deal everything a circuit evaluation will consume."""

    def __init__(
        self,
        field_: GF,
        parties: Sequence[int],
        t: int,
        seed: int = 0,
        with_macs: bool = True,
    ) -> None:
        self.field = field_
        self.parties = list(parties)
        self.t = t
        self.with_macs = with_macs
        self._rng = random.Random(derive_seed(seed, "trusted-setup"))
        self.coin_seed = derive_seed(seed, "coin")
        self._packs: dict[int, SetupPack] = {
            pid: SetupPack(pid=pid, coin_seed=self.coin_seed) for pid in self.parties
        }
        if with_macs:
            for pid in self.parties:
                self._packs[pid].alpha = self.field.random(self._rng)
        self.base_values: dict[BaseLabel, GFElement] = {}

    # -- dealing ---------------------------------------------------------------

    def deal_base(
        self, label: BaseLabel, value=None, bit: bool = False,
        modulus: Optional[int] = None,
    ) -> GFElement:
        """Deal one degree-t sharing (with MACs) of ``value`` (random if None)."""
        if label in self.base_values:
            raise ProtocolError(f"base value {label!r} already dealt")
        if value is None:
            if bit:
                value = self.field(self._rng.randrange(2))
            elif modulus is not None:
                value = self.field(self._rng.randrange(modulus))
            else:
                value = self.field.random(self._rng)
        value = self.field(value)
        self.base_values[label] = value
        shares = share_secret(self.field, value, self.t, self.parties, self._rng)
        for pid, y in shares.items():
            self._packs[pid].shares[label] = y
        if self.with_macs:
            for verifier in self.parties:
                alpha = self._packs[verifier].alpha
                for sender in self.parties:
                    beta = self.field.random(self._rng)
                    self._packs[verifier].betas[(sender, label)] = beta
                    mac = alpha * shares[sender] + beta
                    self._packs[sender].macs.setdefault(label, {})[verifier] = mac
        return value

    def deal_input_mask(self, player: int) -> None:
        value = self.deal_base(("mask", player))
        self._packs[player].private_values[("mask", player)] = value

    def deal_triple(self, index: int) -> None:
        a = self.deal_base(("triple", index, "a"))
        b = self.deal_base(("triple", index, "b"))
        self.deal_base(("triple", index, "c"), value=a * b)

    def deal_for_circuit(self, circuit: Circuit) -> None:
        """Deal everything ``circuit`` consumes (masks, triples, randomness)."""
        for player in circuit.input_players():
            self.deal_input_mask(player)
        mul_index = 0
        for wire, gate in enumerate(circuit.gates):
            if gate.op == "mul":
                self.deal_triple(mul_index)
                mul_index += 1
            elif gate.op == "rand":
                self.deal_base(("rand", wire))
            elif gate.op == "randbit":
                self.deal_base(("randbit", wire), bit=True)
            elif gate.op == "randint":
                self.deal_base(("randint", wire), modulus=gate.param)

    # -- distribution -------------------------------------------------------------

    def pack_for(self, pid: int) -> SetupPack:
        if pid not in self._packs:
            raise ProtocolError(f"party {pid} unknown to setup")
        return self._packs[pid]

    def host_config(self, pid: int) -> dict:
        """Config fragment to merge into a SessionHost's config."""
        return {
            "setup": self.pack_for(pid),
            "coin_seed": self.coin_seed,
            "t": self.t,
            "field": self.field,
        }
