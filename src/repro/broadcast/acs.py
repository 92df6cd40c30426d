"""Agreement on a common subset (ACS), in the BCG/BKR style.

Every party observes asynchronous "party j's contribution is complete"
events (in the MPC engines: AVSS from dealer j terminated locally) and the
parties must agree on a set S of at least ``n - t`` contributors such that
every j in S really contributed (at least one honest party saw completion).

Construction: one binary agreement per party. A party proposes 1 in ABA_j
when it observes j's completion; once ``n - t`` ABAs have decided 1, it
proposes 0 in every ABA it has not yet voted in. S is the set of indices
whose ABA decided 1. (ABA validity — decisions are some honest party's
input — gives the "really contributed" guarantee.)

Sid shape: ``("acs", tag)``; the ABA children are ``("aba", (sid, j))``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.base import Session, register_session


def acs_sid(tag: Any) -> tuple:
    return ("acs", tag)


@register_session("acs")
class CommonSubset(Session):
    """One endpoint of an ACS instance."""

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        self.voted: set[int] = set()
        self.decisions: dict[int, int] = {}
        self._started_children = False

    def start(self) -> None:
        # Instantiate (and subscribe to) all ABA children up front so that
        # their messages route correctly even before any local vote.
        self._started_children = True
        for j in self.peers:
            self.host.await_session(self._aba_sid(j), self._on_aba)

    def _aba_sid(self, j: int) -> tuple:
        return ("aba", (self.sid, j))

    def _aba(self, j: int) -> BinaryAgreement:
        return self.host.open_session(self._aba_sid(j))

    # -- inputs ------------------------------------------------------------------

    def provide_input(self, j: int) -> None:
        """Report that party j's contribution completed locally."""
        if j in self.voted or self.finished:
            return
        self.voted.add(j)
        self._aba(j).propose(1)

    # -- ABA results --------------------------------------------------------------

    def _on_aba(self, sid: tuple, decision: int) -> None:
        j = sid[1][1]
        self.decisions[j] = decision
        ones = [i for i, d in self.decisions.items() if d == 1]
        if len(ones) >= self.n - self.t:
            for i in self.peers:
                if i not in self.voted:
                    self.voted.add(i)
                    self._aba(i).propose(0)
        if len(self.decisions) == len(self.peers) and not self.finished:
            subset = tuple(sorted(i for i, d in self.decisions.items() if d == 1))
            self.finish(subset)

    def handle(self, sender: int, payload: Any) -> None:
        # All traffic flows through the ABA children; ACS itself is silent,
        # so a message addressed to it directly is Byzantine noise.
        return
