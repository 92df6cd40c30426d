"""The asynchronous MPC engine: evaluates a circuit on shared state.

One :class:`MpcEngine` session runs per party per circuit evaluation. The
dataflow follows BCG/BKR:

1. **Input phase.** Every input player broadcasts (via reliable broadcast)
   the difference δ_p = x_p − r_p between its input and its dealt mask; the
   parties run ACS to agree on the set S of players whose broadcast
   completed. Input wires become [x_p] = [r_p] + δ_p for p ∈ S and the
   public default for p ∉ S. (No honest player is ever excluded *silently*:
   ACS guarantees |S| ≥ n − t and RBC totality delivers δ_p for all p ∈ S.)

2. **Evaluation.** Every wire is an *affine combination* of dealt base
   values (masks, triple components, shared randomness) plus a public
   constant — linear gates are local bookkeeping; multiplications consume a
   Beaver triple and two public openings (d = x − a, e = y − b), after which
   [xy] = de + d[b] + e[a] + [c] is again affine.

3. **Openings.** mode ``"bcg"`` (t < n/4): shares are collected and decoded
   with online Berlekamp–Welch error correction — wrong shares from up to t
   parties are corrected, never trusted. mode ``"bkr"`` (t < n/3): every
   share arrives with its pairwise information-theoretic MAC; the receiver
   verifies against its keys and reconstructs from any t+1 *verified*
   shares (a forged share passes with probability 2/|F|).

4. **Outputs.** Each output wire is opened privately to its recipient. The
   session finishes with {output label: int value} once all local outputs
   are reconstructed (other parties' openings keep being served afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.broadcast.base import Session, register_session
from repro.circuits import Circuit
from repro.errors import ProtocolError
from repro.field import GF, GFElement, lagrange_interpolate
from repro.mpc.setup import SetupPack
from repro.mpc.shamir import robust_reconstruct, x_of


def mpc_sid(tag: Any) -> tuple:
    return ("mpc", tag)


@dataclass(frozen=True)
class WireShare:
    """An affine combination of dealt base values plus a public constant."""

    combo: tuple[tuple[Any, GFElement], ...]
    const: GFElement

    @staticmethod
    def constant(field: GF, value) -> "WireShare":
        return WireShare((), field(value))

    @staticmethod
    def base(field: GF, label, coeff=1) -> "WireShare":
        return WireShare(((label, field(coeff)),), field.zero())

    def _merge(self, other: "WireShare", sign: int) -> "WireShare":
        acc: dict[Any, GFElement] = dict(self.combo)
        for label, coeff in other.combo:
            signed = coeff if sign > 0 else -coeff
            if label in acc:
                acc[label] = acc[label] + signed
            else:
                acc[label] = signed
        combo = tuple(
            (label, coeff) for label, coeff in acc.items() if coeff.value != 0
        )
        const = self.const + other.const if sign > 0 else self.const - other.const
        return WireShare(combo, const)

    def __add__(self, other: "WireShare") -> "WireShare":
        return self._merge(other, +1)

    def __sub__(self, other: "WireShare") -> "WireShare":
        return self._merge(other, -1)

    def scale(self, scalar: GFElement) -> "WireShare":
        if scalar.value == 0:
            return WireShare((), scalar)
        return WireShare(
            tuple((label, coeff * scalar) for label, coeff in self.combo),
            self.const * scalar,
        )

    def shift(self, scalar: GFElement) -> "WireShare":
        return WireShare(self.combo, self.const + scalar)

    def my_value(self, pack: SetupPack) -> GFElement:
        value = self.const
        for label, coeff in self.combo:
            share = pack.shares.get(label)
            if share is None:
                raise ProtocolError(f"setup pack lacks share for {label!r}")
            value = value + coeff * share
        return value

    def my_mac_for(self, verifier: int, pack: SetupPack) -> GFElement:
        """MAC on my share of this wire, checkable by ``verifier``."""
        total = None
        for label, coeff in self.combo:
            mac = pack.macs.get(label, {}).get(verifier)
            if mac is None:
                raise ProtocolError(f"setup pack lacks MAC for {label!r}")
            term = coeff * mac
            total = term if total is None else total + term
        if total is None:
            total = self.const.field.zero() if hasattr(self.const, "field") else None
        return total if total is not None else self.const * 0

    def verify_mac(
        self, sender: int, value: GFElement, mac: GFElement, pack: SetupPack
    ) -> bool:
        """Check ``sender``'s claimed share of this wire against my keys."""
        expected = pack.alpha * (value - self.const)
        offset = None
        for label, coeff in self.combo:
            beta = pack.betas.get((sender, label))
            if beta is None:
                return False
            term = coeff * beta
            offset = term if offset is None else offset + term
        if offset is not None:
            expected = expected + offset
        return mac == expected


class _Opening:
    """State of one (public or private) opening."""

    __slots__ = ("mine", "contributions", "value", "private_to", "announced")

    def __init__(self, private_to: Optional[int]) -> None:
        self.mine: Optional[WireShare] = None
        self.contributions: dict[int, tuple[GFElement, Optional[GFElement]]] = {}
        self.value: Optional[GFElement] = None
        self.private_to = private_to
        self.announced = False


@register_session("mpc")
class MpcEngine(Session):
    """One party's endpoint of a circuit evaluation."""

    peer_opened = False
    """Every host opens its own engine when it starts. An engine opened by
    a peer's message would run a second evaluation on the same one-time
    masks and triples, on inputs that peer chooses."""

    def __init__(self, host, sid) -> None:
        super().__init__(host, sid)
        self.circuit: Circuit = self.config("circuit")
        if self.circuit is None:
            raise ProtocolError("host config lacks 'circuit'")
        self.field: GF = self.config("field")
        self.mode: str = self.config("engine_mode", "bcg")
        self.pack: SetupPack = self.config("setup")
        if self.pack is None:
            raise ProtocolError("host config lacks 'setup' pack")
        self._check_bounds()

        self.circuit.validate()
        self.input_players = self.circuit.input_players()
        self.deltas: dict[int, GFElement] = {}
        self.agreed_inputs: Optional[tuple[int, ...]] = None
        self.wires: list[Optional[WireShare]] = [None] * self.circuit.size
        self.openings: dict[Any, _Opening] = {}
        self._mul_index: dict[int, int] = {}
        self._dependents: list[list[int]] = [[] for _ in self.circuit.gates]
        self._input_wires: list[int] = []
        self._index_gates()
        self._ready: list[int] = list(range(self.circuit.size))
        """Min-heap of unresolved wires whose inputs changed since they
        were last tried. Every wire starts queued; a wire is requeued when
        an argument resolves, when one of its own multiplication openings
        gets a value, or (input wires) when a delta or the ACS subset
        arrives. Wires pop in ascending order, as in a sweep over the
        whole circuit, so openings are announced in the same order."""
        self.my_outputs = {
            out.label: None for out in self.circuit.outputs if out.player == self.me
        }
        self._output_requested: set[str] = set()

    # -- setup ------------------------------------------------------------------

    def _check_bounds(self) -> None:
        """Enforce soundness bounds.

        ``bcg`` openings are *sound* (never reconstruct a wrong value) as
        long as the error-correction agreement threshold 2t+1 is reachable
        from honest shares alone, i.e. n > 3t. Guaranteed liveness against
        t parties that simultaneously stall *and* lie needs n > 4t — the
        Theorem 4.1 regime; the punishment-based compilers (Theorem 4.4)
        deliberately run at 3t < n ≤ 4t, where a coalition can force a
        deadlock but never a wrong output, and deadlock is deterred by the
        wills. ``bkr`` reconstruction takes t+1 MAC-verified shares out of
        n − t ≥ 2t+1 honest ones, so n > 3t covers both soundness and
        honest-path liveness (RBC/ABA also need n > 3t).
        """
        n, t = self.n, self.t
        if self.mode not in ("bcg", "bkr"):
            raise ProtocolError(f"unknown engine mode {self.mode!r}")
        if n <= 3 * t and t > 0:
            raise ProtocolError(
                f"{self.mode} engine needs n > 3t (n={n}, t={t})"
            )

    def _index_gates(self) -> None:
        """A triple per multiplication, and the edges the worklist follows."""
        k = 0
        for wire, gate in enumerate(self.circuit.gates):
            if gate.op == "mul":
                self._mul_index[wire] = k
                k += 1
            elif gate.op == "input":
                self._input_wires.append(wire)
            for arg in gate.args:
                self._dependents[arg].append(wire)

    # -- session lifecycle ----------------------------------------------------------

    def start(self) -> None:
        acs = self.host.open_session(("acs", (self.sid, "inputs")))
        self.host.await_session(("acs", (self.sid, "inputs")), self._on_acs)
        for p in self.peers:
            if p not in self.input_players:
                acs.provide_input(p)
        for p in self.input_players:
            rbc_sid = ("rbc", p, (self.sid, "delta"))
            self.host.await_session(rbc_sid, self._on_delta)
        if self.me in self.input_players:
            my_input = self.config("mpc_input")
            if my_input is None:
                raise ProtocolError(f"party {self.me} has no 'mpc_input'")
            mask = self.pack.private_values.get(("mask", self.me))
            if mask is None:
                raise ProtocolError(f"party {self.me} lacks its input mask")
            delta = self.field(my_input) - mask
            rbc = self.host.open_session(("rbc", self.me, (self.sid, "delta")))
            rbc.input(int(delta))

    def _on_delta(self, sid: tuple, value: Any) -> None:
        dealer = sid[1]
        self.deltas[dealer] = self.field(int(value))
        self._requeue_inputs()
        acs = self.host.open_session(("acs", (self.sid, "inputs")))
        acs.provide_input(dealer)
        self._pump()

    def _on_acs(self, sid: tuple, subset: tuple) -> None:
        self.agreed_inputs = subset
        self._requeue_inputs()
        self._pump()

    def _requeue_inputs(self) -> None:
        for wire in self._input_wires:
            heappush(self._ready, wire)

    # -- wire evaluation ---------------------------------------------------------------

    def _input_wire(self, player: int) -> Optional[WireShare]:
        if self.agreed_inputs is None:
            return None
        if player in self.agreed_inputs:
            delta = self.deltas.get(player)
            if delta is None:
                return None  # RBC totality will deliver it
            return WireShare.base(self.field, ("mask", player)).shift(delta)
        defaults = self.config("default_inputs", {})
        return WireShare.constant(self.field, defaults.get(player, 0))

    def _resolve_gate(self, wire: int) -> Optional[WireShare]:
        gate = self.circuit.gates[wire]
        op = gate.op
        if op == "input":
            return self._input_wire(gate.param)
        if op == "const":
            return WireShare.constant(self.field, gate.param)
        if op in ("add", "sub"):
            a, b = self.wires[gate.args[0]], self.wires[gate.args[1]]
            if a is None or b is None:
                return None
            return a + b if op == "add" else a - b
        if op == "smul":
            a = self.wires[gate.args[0]]
            return None if a is None else a.scale(gate.param)
        if op == "sadd":
            a = self.wires[gate.args[0]]
            return None if a is None else a.shift(gate.param)
        if op == "rand":
            return WireShare.base(self.field, ("rand", wire))
        if op == "randbit":
            return WireShare.base(self.field, ("randbit", wire))
        if op == "randint":
            return WireShare.base(self.field, ("randint", wire))
        if op == "mul":
            return self._resolve_mul(wire, gate)
        raise ProtocolError(f"unknown gate op {op!r}")  # pragma: no cover

    def _resolve_mul(self, wire: int, gate) -> Optional[WireShare]:
        x, y = self.wires[gate.args[0]], self.wires[gate.args[1]]
        if x is None or y is None:
            return None
        k = self._mul_index[wire]
        a = WireShare.base(self.field, ("triple", k, "a"))
        b = WireShare.base(self.field, ("triple", k, "b"))
        c = WireShare.base(self.field, ("triple", k, "c"))
        d_key = ("mul", wire, "d")
        e_key = ("mul", wire, "e")
        self._ensure_open(d_key, x - a)
        self._ensure_open(e_key, y - b)
        d = self.openings[d_key].value
        e = self.openings[e_key].value
        if d is None or e is None:
            return None
        return (
            b.scale(d) + a.scale(e) + c
        ).shift(d * e)

    # -- openings ----------------------------------------------------------------------

    def _opening(self, key: Any, private_to: Optional[int] = None) -> _Opening:
        opening = self.openings.get(key)
        if opening is None:
            opening = _Opening(private_to)
            self.openings[key] = opening
        return opening

    def _ensure_open(self, key: Any, share: WireShare,
                     private_to: Optional[int] = None) -> None:
        opening = self._opening(key, private_to)
        if opening.announced:
            return
        opening.announced = True
        opening.mine = share
        value = share.my_value(self.pack)
        recipients = [private_to] if private_to is not None else self.peers
        for recipient in recipients:
            mac: Optional[GFElement] = None
            if self.mode == "bkr":
                mac = share.my_mac_for(recipient, self.pack)
            self.send(
                recipient,
                ("osh", key, int(value), None if mac is None else int(mac)),
            )
        self._try_resolve(key)

    def handle(self, sender: int, payload: Any) -> None:
        # A Byzantine peer can put anything under the engine's sid: only
        # ("osh", hashable key, int share, int or None MAC) is an opening
        # share; any other type, arity or field is noise and ignored.
        if type(payload) is not tuple or len(payload) != 4:
            return
        kind, key, value, mac = payload
        if kind != "osh" or not isinstance(value, int):
            return
        if mac is not None and not isinstance(mac, int):
            return
        try:
            hash(key)
        except TypeError:
            return
        opening = self._opening(key)
        if sender not in opening.contributions:
            opening.contributions[sender] = (
                self.field(value),
                None if mac is None else self.field(mac),
            )
        self._try_resolve(key)
        self._pump()

    def _try_resolve(self, key: Any) -> None:
        opening = self.openings[key]
        if opening.value is not None or opening.mine is None:
            return
        if opening.private_to is not None and opening.private_to != self.me:
            return
        shares: dict[int, GFElement] = {}
        if self.mode == "bkr":
            for sender, (value, mac) in opening.contributions.items():
                if sender == self.me:
                    continue
                if mac is None:
                    continue
                if opening.mine.verify_mac(sender, value, mac, self.pack):
                    shares[sender] = value
            shares[self.me] = opening.mine.my_value(self.pack)
            if len(shares) >= self.t + 1:
                points = [(x_of(pid), y) for pid, y in sorted(shares.items())]
                poly = lagrange_interpolate(self.field, points[: self.t + 1])
                opening.value = poly(0)
        elif self.config("naive_openings", False):
            # Ablation mode (PAPER.md, "Modelling substitutions"): trust
            # the first t+1 shares and interpolate exactly, with no error
            # correction. A single wrong-share adversary corrupts the
            # opening; tests/test_mpc.py (TestRobustOpenings) uses this to
            # show why robust decoding is load-bearing.
            for sender, (value, _mac) in sorted(opening.contributions.items()):
                shares[sender] = value
            shares[self.me] = opening.mine.my_value(self.pack)
            if len(shares) >= self.t + 1:
                points = [(x_of(pid), y) for pid, y in sorted(shares.items())]
                poly = lagrange_interpolate(self.field, points[: self.t + 1])
                opening.value = poly(0)
        else:
            for sender, (value, _mac) in opening.contributions.items():
                shares[sender] = value
            shares[self.me] = opening.mine.my_value(self.pack)
            opening.value = robust_reconstruct(
                self.field, shares, self.t, len(self.peers), self.t
            )
        if opening.value is not None and key[0] == "mul":
            heappush(self._ready, key[1])  # the product may now resolve

    # -- the pump -------------------------------------------------------------------------

    def _pump(self) -> None:
        # One pass: a wire's arguments precede it (Circuit.validate), so
        # each resolves before its dependents pop.
        ready, wires = self._ready, self.wires
        while ready:
            wire = heappop(ready)
            if wires[wire] is not None:
                continue
            resolved = self._resolve_gate(wire)
            if resolved is not None:
                wires[wire] = resolved
                for dependent in self._dependents[wire]:
                    heappush(ready, dependent)
        for out in self.circuit.outputs:
            share = wires[out.wire]
            if share is None or out.label in self._output_requested:
                continue
            self._output_requested.add(out.label)
            self._ensure_open(("out", out.label), share, private_to=out.player)
        for out in self.circuit.outputs:
            if out.player != self.me or self.my_outputs[out.label] is not None:
                continue
            opening = self.openings.get(("out", out.label))
            if opening is not None and opening.value is not None:
                self.my_outputs[out.label] = int(opening.value)
        if (
            not self.finished
            and self.agreed_inputs is not None
            and all(v is not None for v in self.my_outputs.values())
        ):
            self.finish(dict(self.my_outputs))
