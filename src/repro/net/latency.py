"""Pluggable latency models for the real-network substrate.

A :class:`LatencyModel` answers one question: how long does the message a
``sender`` just posted to ``recipient`` spend in flight? Delays are in
*virtual latency units* — the kernel's
:class:`~repro.sim.scheduler.LatencyScheduler` (``runtime="net"``) advances
a virtual clock by them directly, the TCP transport multiplies them by its
wall-clock ``time_scale`` — so the same model name means the same schedule
shape on both.

Naming mirrors :mod:`repro.sim.timing`'s ``timing_from_name`` so a spec's
``latency`` axis stays a plain JSON string:

* ``zero`` — deliver immediately (the fifo-equivalent schedule);
* ``fixed-<d>`` — every edge takes exactly ``d`` units;
* ``lognormal@m<median>s<sigma>`` — per-edge seeded lognormal draws with
  the given median and shape;
* ``gst-<pre>-<post>@<t>`` — GST-style phase shift: uniform-jittered
  delays up to ``pre`` before virtual time ``t``, a fixed ``post`` after.

All stochastic models draw from per-edge :class:`~repro.utils.rng.RngTree`
streams rooted at the run seed (``child("net", "edge", sender,
recipient)``), so a ``runtime="net"`` run is a pure function of
``(spec, seed)`` exactly like any other kernel run.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict

from repro.errors import NetError
from repro.utils.rng import RngTree


def _fmt(value: float) -> str:
    """Render a numeric parameter the way the parser accepts it back."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


class LatencyModel:
    """Base class: zero latency, the deterministic reference schedule."""

    name = "zero"

    def reset(self, seed: int) -> None:
        """Re-root the per-edge streams for a new run (idempotent)."""
        self._tree = RngTree(seed)
        self._edge_rngs: dict = {}

    def edge_rng(self, sender: int, recipient: int):
        """The seeded stream owned by the ``sender → recipient`` edge."""
        key = (sender, recipient)
        rng = self._edge_rngs.get(key)
        if rng is None:
            rng = self._tree.child("net", "edge", sender, recipient).rng
            self._edge_rngs[key] = rng
        return rng

    def delay(self, sender: int, recipient: int, now: float) -> float:
        """In-flight time, in virtual latency units (must be >= 0)."""
        return 0.0


class FixedLatency(LatencyModel):
    """Every edge takes exactly ``d`` units — lockstep-like wavefronts."""

    def __init__(self, d: float) -> None:
        if d < 0:
            raise NetError(f"fixed latency must be >= 0, got {d}")
        self.d = float(d)
        self.name = f"fixed-{_fmt(d)}"

    def delay(self, sender: int, recipient: int, now: float) -> float:
        return self.d


class LogNormalLatency(LatencyModel):
    """Per-edge lognormal delays: heavy-tailed, seeded, deterministic."""

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0 or sigma < 0:
            raise NetError(
                f"lognormal latency needs median > 0 and sigma >= 0, "
                f"got median={median} sigma={sigma}"
            )
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(self.median)
        self.name = f"lognormal@m{_fmt(median)}s{_fmt(sigma)}"

    def delay(self, sender: int, recipient: int, now: float) -> float:
        # edge_rng inlined for a stream it has already made: this runs
        # once per message.
        rng = self._edge_rngs.get((sender, recipient))
        if rng is None:
            rng = self.edge_rng(sender, recipient)
        return rng.lognormvariate(self._mu, self.sigma)


class GstLatency(LatencyModel):
    """GST-style phase shift over virtual time.

    Before the global stabilisation time the network is chaotic: each
    delivery draws a uniform delay in ``[0, pre]`` from its edge stream.
    From ``gst`` on, every edge settles to the fixed bound ``post`` — the
    partial-synchrony picture :class:`~repro.sim.timing.BoundedDelay`
    models in steps, replayed in latency units.
    """

    def __init__(self, pre: float, post: float, gst: float) -> None:
        if pre < 0 or post < 0 or gst < 0:
            raise NetError(
                f"gst latency parameters must be >= 0, got "
                f"pre={pre} post={post} gst={gst}"
            )
        self.pre = float(pre)
        self.post = float(post)
        self.gst = float(gst)
        self.name = f"gst-{_fmt(pre)}-{_fmt(post)}@{_fmt(gst)}"

    def delay(self, sender: int, recipient: int, now: float) -> float:
        if now >= self.gst:
            return self.post
        return self.edge_rng(sender, recipient).uniform(0.0, self.pre)


LatencyBuilder = Callable[[], LatencyModel]

LATENCY_BUILDERS: Dict[str, LatencyBuilder] = {
    "zero": LatencyModel,
}


def register_latency(name: str, builder: LatencyBuilder) -> None:
    """Register a fixed latency-model name (parameterized forms are parsed)."""
    if name in LATENCY_BUILDERS:
        raise NetError(f"latency model {name!r} is already registered")
    LATENCY_BUILDERS[name] = builder


def latency_names() -> list[str]:
    """The fixed (non-parameterized) model names, sorted."""
    return sorted(LATENCY_BUILDERS)


_FIXED_RE = re.compile(r"^fixed-(\d+(?:\.\d+)?)$")
_LOGNORMAL_RE = re.compile(r"^lognormal@m(\d+(?:\.\d+)?)s(\d+(?:\.\d+)?)$")
_GST_RE = re.compile(r"^gst-(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)@(\d+(?:\.\d+)?)$")


def latency_from_name(name: str) -> LatencyModel:
    """Build a latency model from its spec/CLI name.

    Accepts the registered fixed names plus the parameterized families
    ``fixed-<d>``, ``lognormal@m<median>s<sigma>`` and
    ``gst-<pre>-<post>@<gst>``. The built model's ``.name`` round-trips to
    the input, so specs and stored records stay JSON-stable.
    """
    builder = LATENCY_BUILDERS.get(name)
    if builder is not None:
        return builder()
    match = _FIXED_RE.match(name)
    if match:
        return FixedLatency(float(match.group(1)))
    match = _LOGNORMAL_RE.match(name)
    if match:
        return LogNormalLatency(float(match.group(1)), float(match.group(2)))
    match = _GST_RE.match(name)
    if match:
        return GstLatency(
            float(match.group(1)), float(match.group(2)), float(match.group(3))
        )
    raise NetError(
        f"unknown latency model {name!r}: known models are "
        f"{latency_names()}, plus parameterized forms 'fixed-<d>', "
        f"'lognormal@m<median>s<sigma>' and 'gst-<pre>-<post>@<gst>'"
    )
