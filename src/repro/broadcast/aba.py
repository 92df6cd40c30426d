"""Asynchronous binary Byzantine agreement (t < n/3).

The protocol is the Mostéfaoui–Moumen–Raynal (MMR) style binary agreement
driven by the dealt common coin of :mod:`repro.broadcast.coin`:

Per round ``r`` with current estimate ``est``:

1. *BV-broadcast*: send ``BVAL(r, est)``. Upon ``BVAL(r, v)`` from ``t+1``
   distinct senders, relay ``BVAL(r, v)`` (at most once per value). Upon
   ``2t+1`` distinct senders, add ``v`` to ``bin_values[r]`` — every value
   in ``bin_values`` was proposed by at least one honest party.
2. *AUX*: once ``bin_values[r]`` is non-empty, send ``AUX(r, w)`` for the
   first such ``w``. Wait for ``n - t`` AUX messages whose values lie in
   ``bin_values[r]``; let ``vals`` be the set of those values.
3. *Coin*: ``c = coin(sid, r)``. If ``vals == {v}``: decide ``v`` when
   ``v == c``, else set ``est = v``. If ``|vals| == 2``: set ``est = c``.
   Advance to round ``r + 1``.

Termination gadget: upon deciding, broadcast ``DECIDE(v)``; upon ``t+1``
``DECIDE(v)`` relay it; upon ``2t+1`` finish. This lets parties that fall
behind terminate without running further rounds.

Sid shape: ``("aba", tag)``. Input arrives via :meth:`propose` (parents call
it when their precondition becomes true); messages arriving before the
local proposal are buffered by the normal state machine.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.broadcast.base import Session, register_session
from repro.broadcast.coin import coin_value
from repro.errors import ProtocolError


def aba_sid(tag: Any) -> tuple:
    return ("aba", tag)


class _Round:
    """Per-round message state."""

    __slots__ = ("bval_sent", "bval_recv", "bin_values", "bin_order",
                 "aux_sent", "aux_recv", "aux_count", "advanced")

    def __init__(self) -> None:
        self.bval_sent: set[int] = set()
        self.bval_recv: list[set[int]] = [set(), set()]
        self.bin_values: set[int] = set()
        self.bin_order: list[int] = []
        self.aux_sent = False
        self.aux_recv: dict[int, int] = {}
        self.aux_count = [0, 0]
        """AUX senders per value; a sender's first AUX of the round counts."""
        self.advanced = False


@register_session("aba")
class BinaryAgreement(Session):
    """One endpoint of an MMR binary-agreement instance.

    Thresholds are fixed per session, so they are computed once here.
    :meth:`_try_progress` runs only when its outcome can change — the
    proposal, a new ``bin_values`` entry, or a new AUX in the current
    round — and is otherwise a no-op, so skipping it keeps every send in
    place.
    """

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        t = self.t
        self._relay = t + 1
        self._quorum = 2 * t + 1
        self._aux_quorum = self.n - t
        self.est: Optional[int] = None
        self.round = 0
        self.rounds: dict[int, _Round] = {}
        self.decided: Optional[int] = None
        self.decide_recv: list[set[int]] = [set(), set()]
        self.decide_sent = False

    def _round(self, r: int) -> _Round:
        state = self.rounds.get(r)
        if state is None:
            state = self.rounds[r] = _Round()
        return state

    # -- input -----------------------------------------------------------------

    def propose(self, value: int) -> None:
        """Supply this party's input bit (idempotent; first call wins)."""
        if type(value) is not int or value not in (0, 1):
            raise ProtocolError(f"ABA input must be a bit, got {value!r}")
        if self.est is not None:
            return
        self.est = value
        self._send_bval(0, value)
        self._try_progress(0)

    # -- messaging ---------------------------------------------------------------

    def _send_bval(self, r: int, v: int) -> None:
        state = self._round(r)
        if v not in state.bval_sent:
            state.bval_sent.add(v)
            self.send_all(("bval", r, v))

    def handle(self, sender: int, payload: Any) -> None:
        # A Byzantine peer can put anything under an ABA sid: a payload of
        # the wrong type or arity, a non-int round or a value other than
        # the int 0 or 1 is noise, ignored like any other message honest
        # parties never send.
        if type(payload) is not tuple or not payload:
            return
        kind = payload[0]
        if kind == "bval" or kind == "aux":
            if len(payload) != 3:
                return
            _, r, v = payload
            if type(r) is not int or type(v) is not int or v not in (0, 1):
                return
            state = self._round(r)
            if kind == "bval":
                holders = state.bval_recv[v]
                holders.add(sender)
                count = len(holders)
                if count >= self._relay:
                    self._send_bval(r, v)  # amplification (safe pre-proposal too)
                if count >= self._quorum and v not in state.bin_values:
                    state.bin_values.add(v)
                    state.bin_order.append(v)
                    self._try_progress(r)
            elif sender not in state.aux_recv:
                state.aux_recv[sender] = v
                state.aux_count[v] += 1
                self._try_progress(r)
        elif kind == "decide":
            if len(payload) != 2:
                return
            _, v = payload
            if type(v) is not int or v not in (0, 1):
                return
            holders = self.decide_recv[v]
            holders.add(sender)
            if len(holders) >= self._relay:
                self._broadcast_decide(v)
            if len(holders) >= self._quorum:
                self.decided = v
                self.finish(v)

    # -- round progression ----------------------------------------------------------

    def _try_progress(self, r: int) -> None:
        if self.est is None or self.finished or self.decided is not None:
            return
        if r != self.round:
            return
        state = self._round(r)
        if not state.aux_sent:
            if not state.bin_values:
                return
            state.aux_sent = True
            self.send_all(("aux", r, state.bin_order[0]))
        if state.advanced:
            return
        # AUX messages count only for values already in bin_values.
        counts = state.aux_count
        if sum(counts[v] for v in state.bin_order) < self._aux_quorum:
            return
        vals = [v for v in state.bin_order if counts[v]]
        coin = coin_value(self.config("coin_seed"), (self.sid, r))
        state.advanced = True
        if len(vals) == 1:
            (v,) = vals
            if v == coin:
                self._decide(v)
                return
            self.est = v
        else:
            self.est = coin
        self.round = r + 1
        self._send_bval(self.round, self.est)
        self._try_progress(self.round)

    def _decide(self, v: int) -> None:
        self.decided = v
        self._broadcast_decide(v)
        self.finish(v)

    def _broadcast_decide(self, v: int) -> None:
        if not self.decide_sent:
            self.decide_sent = True
            self.send_all(("decide", v))
