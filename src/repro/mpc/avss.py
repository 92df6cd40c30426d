"""Asynchronous verifiable secret sharing (bivariate echo protocol, t < n/4).

Sid shape: ``("avss", dealer, tag)``. The dealer embeds its secret in a
random *symmetric* bivariate polynomial F of degree t in each variable
(``F(0,0) = secret``) and sends party p its row ``f_p(y) = F(x_p, y)``.
Parties echo evaluation points to each other (``f_i(x_j) = f_j(x_i)`` by
symmetry), send READY — carrying their full row — once their row matches
``3t+1`` echo points, and complete with share ``f_p(0)`` upon ``2t+1``
READYs. A party whose row never arrives recovers it from any pairwise-
consistent subset of ``2t+1`` READY rows (such a subset lies on a single
bivariate polynomial by the standard pairwise-consistency lemma).

Guarantees, under the adversary model exercised by our deviation library
(crash / omission / selective dealers, arbitrary wrong points and READY
rows from up to t non-dealer parties):

* honest dealer ⇒ every honest party completes, with correct shares, under
  every (fair) scheduler;
* no honest party completes with a share inconsistent with the web of
  honest rows;
* totality: if one honest party completes, all honest parties do.

The full BCG machinery for arbitrarily inconsistent dealers (consistency-
graph clique finding) is *not* reproduced; the MPC engines therefore take
their inputs through the dealt-mask + reliable-broadcast path instead
(PAPER.md, "Modelling substitutions"), and AVSS stands as an
independently tested substrate.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.broadcast.base import Session, register_session
from repro.errors import ProtocolError
from repro.field import GF, GFElement, Polynomial, lagrange_interpolate
from repro.mpc.shamir import x_of


def avss_sid(dealer: int, tag: Any) -> tuple:
    return ("avss", dealer, tag)


def avss_open_sid(dealer: int, tag: Any) -> tuple:
    return ("avss-open", dealer, tag)


@register_session("avss-open")
class AvssReconstruction(Session):
    """Public reconstruction of an AVSS-shared secret.

    Each party contributes its share (call :meth:`contribute`, typically
    from an ``await_session`` callback on the AVSS completion); shares are
    exchanged and decoded with online error correction, so up to t wrong
    shares are tolerated at n > 4t (and detected-but-waiting at n > 3t).
    """

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        self.field: GF = self.config("field")
        if self.field is None:
            raise ProtocolError("host config lacks 'field' for reconstruction")
        self.shares: dict[int, GFElement] = {}
        self.sent = False

    def contribute(self, share) -> None:
        if self.sent:
            return
        self.sent = True
        self.send_all(("share", int(share)))

    def handle(self, sender: int, payload: Any) -> None:
        # Anything but ("share", int) from a new sender is Byzantine noise.
        if type(payload) is not tuple or len(payload) != 2:
            return
        kind, share = payload
        if kind != "share" or sender in self.shares:
            return
        if not isinstance(share, int):
            return
        self.shares[sender] = self.field(share)
        if self.finished:
            return
        from repro.field import robust_interpolate
        from repro.mpc.shamir import x_of as _x

        points = [(_x(pid), y) for pid, y in sorted(self.shares.items())]
        poly = robust_interpolate(
            self.field, points, self.t, len(self.peers), self.t
        )
        if poly is not None:
            self.finish(int(poly(0)))


def deal_symmetric_bivariate(field: GF, secret, t: int, rng) -> list[list[GFElement]]:
    """Coefficient matrix c[i][j] of a random symmetric F with F(0,0)=secret."""
    size = t + 1
    coeffs = [[field.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = field.random(rng)
            coeffs[i][j] = value
            coeffs[j][i] = value
    coeffs[0][0] = field(secret)
    return coeffs


def row_polynomial(field: GF, coeffs: list[list[GFElement]], x: int) -> Polynomial:
    """f_x(y) = F(x, y) for the given coefficient matrix."""
    xe = field(x)
    out = []
    for j in range(len(coeffs)):
        acc = field.zero()
        xpow = field.one()
        for i in range(len(coeffs)):
            acc = acc + coeffs[i][j] * xpow
            xpow = xpow * xe
        out.append(acc)
    return Polynomial(field, tuple(out)).normalized()


@register_session("avss")
class AsyncVerifiableSS(Session):
    """One endpoint of an AVSS instance."""

    sid_len = 3

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        _, self.dealer, self.tag = sid
        self.field: GF = self.config("field")
        if self.field is None:
            raise ProtocolError("host config lacks 'field' for AVSS")
        self.row: Optional[Polynomial] = None
        self.points: dict[int, GFElement] = {}
        self.ready_rows: dict[int, Polynomial] = {}
        self.sent_points = False
        self.sent_ready = False

    # -- dealer ------------------------------------------------------------------

    def input(self, secret) -> None:
        if self.me != self.dealer:
            raise ProtocolError("only the dealer inputs to AVSS")
        coeffs = deal_symmetric_bivariate(self.field, secret, self.t, self.rng)
        for p in self.peers:
            row = row_polynomial(self.field, coeffs, x_of(p))
            self.send(p, ("row", tuple(int(c) for c in row.coeffs)))

    # -- protocol ------------------------------------------------------------------

    def _adopt_row(self, row: Polynomial) -> None:
        if self.row is not None:
            return
        self.row = row
        if not self.sent_points:
            self.sent_points = True
            for p in self.peers:
                self.send(p, ("pt", int(self.row(x_of(p)))))
        self._progress()

    def handle(self, sender: int, payload: Any) -> None:
        # A Byzantine peer can put anything under an AVSS sid: payloads of
        # the wrong type or arity, non-int points and malformed rows are
        # noise, ignored.
        if type(payload) is not tuple or len(payload) != 2:
            return
        kind, body = payload
        if kind == "row":
            if sender != self.dealer:
                return
            row = self._row_from_wire(body)
            if row is not None:
                self._adopt_row(row)
        elif kind == "pt":
            if sender not in self.points and isinstance(body, int):
                self.points[sender] = self.field(body)
                self._progress()
        elif kind == "ready":
            if sender in self.ready_rows:
                return
            row = self._row_from_wire(body)
            if row is not None:
                self.ready_rows[sender] = row
                self._progress()

    def _row_from_wire(self, coeffs: Any) -> Optional[Polynomial]:
        """A row from its wire coefficients; None unless a tuple of at most
        t+1 ints."""
        if not isinstance(coeffs, tuple) or len(coeffs) > self.t + 1:
            return None
        if not all(isinstance(c, int) for c in coeffs):
            return None
        return Polynomial(self.field, tuple(self.field(c) for c in coeffs))

    # -- state machine -----------------------------------------------------------------

    def _matches(self) -> int:
        assert self.row is not None
        count = 0
        for sender, value in self.points.items():
            if self.row(x_of(sender)) == value:
                count += 1
        return count

    def _progress(self) -> None:
        if self.row is None and len(self.ready_rows) >= 2 * self.t + 1:
            recovered = self._recover_row()
            if recovered is not None:
                self._adopt_row(recovered)
                return
        if self.row is not None and not self.sent_ready:
            if self._matches() >= 3 * self.t + 1:
                self.sent_ready = True
                self.send_all(
                    ("ready", tuple(int(c) for c in self.row.coeffs))
                )
        if (
            self.row is not None
            and len(self.ready_rows) >= 2 * self.t + 1
            and not self.finished
        ):
            self.finish(int(self.row(0)))

    def _recover_row(self) -> Optional[Polynomial]:
        """Find 2t+1 pairwise-consistent READY rows; interpolate my row."""
        ids = sorted(self.ready_rows)
        need = 2 * self.t + 1
        for subset in itertools.combinations(ids, need):
            rows = {i: self.ready_rows[i] for i in subset}
            consistent = all(
                rows[a](x_of(b)) == rows[b](x_of(a))
                for a, b in itertools.combinations(subset, 2)
            )
            if not consistent:
                continue
            points = [(x_of(i), rows[i](x_of(self.me))) for i in subset]
            return lagrange_interpolate(self.field, points[: self.t + 1])
        return None
