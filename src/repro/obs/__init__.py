"""Unified telemetry layer: metrics and span tracing.

``repro.obs`` is the observability subsystem shared by every layer of the
repro stack — the experiment runner, the audit engine and the result
store all report into one process-global :class:`MetricsRegistry` and
(when a tracer is active) one span stream.

The layer is *strictly out-of-band* (CONTRIBUTING invariant 8): nothing
observable may alter a ``RunRecord``, a stored document, or the
``parallel == serial`` byte-identity guarantee. ``REPRO_OBS=off`` (or
:func:`set_enabled`) turns every metric mutation into a no-op; tracing is
opt-in per run (``--trace-out`` / ``--profile`` / :func:`activate`). All
wall-clock reads live inside the lint rule's scoped clock exemption — OS
entropy stays banned here like everywhere.

Two pillars:

* :mod:`repro.obs.metrics` — counters/gauges/histograms with labels,
  deterministic JSON snapshots, mark/delta.
* :mod:`repro.obs.tracing` — nested spans, lossless JSON round-trip,
  Chrome trace-event export, cross-pool span buffering/merge.

Exports resolve lazily (module ``__getattr__``, mirroring the top-level
``repro`` package), so importing the package loads neither pillar.
"""

from __future__ import annotations

import importlib

_METRICS_EXPORTS = (
    "ENV_OBS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "registry",
    "set_enabled",
)

_TRACING_EXPORTS = (
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "span",
)

_EXPORT_MODULES = {
    **{name: "repro.obs.metrics" for name in _METRICS_EXPORTS},
    **{name: "repro.obs.tracing" for name in _TRACING_EXPORTS},
}

__all__ = sorted(_EXPORT_MODULES)


def __getattr__(name: str):
    module_name = _EXPORT_MODULES.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
