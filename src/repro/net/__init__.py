"""Network substrate: seeded latency, and the protocols over real sockets.

In-flight time is decided by a pluggable
:class:`~repro.net.latency.LatencyModel` instead of a step scheduler, two
ways:

* ``runtime="net"`` — the simulated kernel under
  :class:`~repro.sim.scheduler.LatencyScheduler`, which delivers from the
  in-memory virtual-clock wire :class:`~repro.net.router.MemoryTransport`;
  byte-reproducible from the seed;
* ``runtime="net-tcp"`` — :class:`~repro.net.runtime.NetRuntime`, the
  same :class:`~repro.sim.process.Process` objects as per-node asyncio
  tasks wired through a :class:`~repro.net.runtime.Router` over real
  localhost TCP sockets.

``repro.net.conformance`` holds the oracle that keeps both
record-equivalent to the kernel's other schedules.

Only ``repro.net.runtime`` and ``repro.net.tcp`` import asyncio. Exports
are lazy, so importing the latency vocabulary (which
``repro.experiments.spec`` validates against) or running a kernel net
cell never loads it.
"""

from __future__ import annotations

_LAZY = {
    "LatencyModel": ("repro.net.latency", "LatencyModel"),
    "latency_from_name": ("repro.net.latency", "latency_from_name"),
    "latency_names": ("repro.net.latency", "latency_names"),
    "register_latency": ("repro.net.latency", "register_latency"),
    "Router": ("repro.net.runtime", "Router"),
    "MemoryTransport": ("repro.net.router", "MemoryTransport"),
    "TcpTransport": ("repro.net.tcp", "TcpTransport"),
    "NetRuntime": ("repro.net.runtime", "NetRuntime"),
    "CONFORMANCE_FIELDS": ("repro.net.conformance", "CONFORMANCE_FIELDS"),
    "conformance_view": ("repro.net.conformance", "conformance_view"),
    "conformance_diff": ("repro.net.conformance", "conformance_diff"),
    "check_conformance": ("repro.net.conformance", "check_conformance"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return __all__
