"""Bracha reliable broadcast (t < n/3).

Sid shape: ``("rbc", dealer_pid, tag)``. The dealer's value is any hashable
payload. Guarantees (with at most t Byzantine parties out of n > 3t):

* *validity* — if the dealer is honest, every honest party delivers the
  dealer's value;
* *agreement* — no two honest parties deliver different values;
* *totality* — if any honest party delivers, all honest parties do.

A Byzantine dealer can prevent delivery entirely (no termination guarantee)
— exactly the behaviour the ACS layer is designed to tolerate.
"""

from __future__ import annotations

from typing import Any

from repro.broadcast.base import Session, register_session


def rbc_sid(dealer: int, tag: Any) -> tuple:
    return ("rbc", dealer, tag)


@register_session("rbc")
class ReliableBroadcast(Session):
    """One endpoint of a Bracha broadcast instance."""

    sid_len = 3

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        _, self.dealer, self.tag = sid
        self.value_to_send: Any = None
        self.sent_echo = False
        self.sent_ready = False
        self.echoes: dict[Any, set[int]] = {}
        self.readies: dict[Any, set[int]] = {}

    # Thresholds (standard Bracha):
    #   echo quorum   : floor((n + t) / 2) + 1   (any two quorums intersect
    #                   in an honest party)
    #   ready support : t + 1   (amplification: at least one honest sent it)
    #   delivery      : 2t + 1  (at least t+1 honest sent ready)

    @property
    def _echo_quorum(self) -> int:
        return (self.n + self.t) // 2 + 1

    def input(self, value: Any) -> None:
        """Dealer-side entry point: broadcast ``value``."""
        if self.me != self.dealer:
            raise RuntimeError("only the dealer inputs to an RBC")
        self.send_all(("init", value))

    def start(self) -> None:
        value = self.config(("rbc-input", self.sid))
        if self.me == self.dealer and value is not None:
            self.send_all(("init", value))

    def handle(self, sender: int, payload: Any) -> None:
        # A Byzantine peer can put anything under an RBC sid: a payload of
        # the wrong type or arity, or an unhashable value (values key the
        # echo/ready tallies), is noise and ignored.
        if type(payload) is not tuple or len(payload) != 2:
            return
        kind, value = payload
        try:
            hash(value)
        except TypeError:
            return
        if kind == "init":
            if sender != self.dealer or self.sent_echo:
                return  # forged or duplicate init: ignore
            self.sent_echo = True
            self.send_all(("echo", value))
        elif kind == "echo":
            holders = self.echoes.setdefault(value, set())
            holders.add(sender)
            if len(holders) >= self._echo_quorum and not self.sent_ready:
                self.sent_ready = True
                self.send_all(("ready", value))
        elif kind == "ready":
            holders = self.readies.setdefault(value, set())
            holders.add(sender)
            if len(holders) >= self.t + 1 and not self.sent_ready:
                self.sent_ready = True
                self.send_all(("ready", value))
            if len(holders) >= 2 * self.t + 1 and not self.finished:
                self.finish(value)
