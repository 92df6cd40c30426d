"""Common coin from dealt setup randomness.

The ABA protocol needs, per round, a random bit that all honest parties
agree on and that the adversary cannot bias. BCG obtain it from AVSS-based
secret-sharing machinery; per PAPER.md, "Modelling substitutions", we
substitute a *dealt common random sequence*: the trusted offline setup
places a seed in every host's config, and the coin for tag ``x`` is a hash
of (seed, x). This preserves the property the theorems consume — ABA
terminates with probability 1, in expected O(1) rounds — under our
adversary model (schedulers cannot read host configs; deviating players
learning coins early can bias *their own* messages but cannot stall honest
parties, whose round structure does not depend on predicting the coin).
"""

from __future__ import annotations

from typing import Any

from repro.broadcast.base import Session, register_session
from repro.errors import ProtocolError
from repro.utils.sha256 import sha256


def coin_value(seed: int, tag: Any, modulus: int = 2) -> int:
    """The dealt common coin for ``tag``: uniform in range(modulus)."""
    digest = sha256(f"{seed}|{tag!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % modulus


@register_session("coin")
class CommonCoin(Session):
    """Session wrapper around the dealt coin (finishes immediately)."""

    def start(self) -> None:
        seed = self.config("coin_seed")
        if seed is None:
            raise ProtocolError("host config lacks 'coin_seed' setup material")
        _, tag = self.sid[0], self.sid[1:]
        self.finish(coin_value(seed, tag))

    def handle(self, sender: int, payload: Any) -> None:  # pragma: no cover
        pass
