"""Process-global metrics registry: counters, gauges, histograms.

This is the first pillar of the ``repro.obs`` telemetry layer. A
:class:`MetricsRegistry` holds named instruments, each of which may carry
label sets (``counter.inc(1, scenario="thm41-honest")``); one process-wide
default registry (:func:`registry`) is shared by the runner, the audit
engine and the result store.

Design constraints, in priority order:

* **Out-of-band.** Nothing here may influence simulation results. The
  instrumented layers only *report* into the registry; they never read
  telemetry back into control flow. Disabling telemetry entirely
  (``REPRO_OBS=off`` or :func:`set_enabled`) turns every mutation into a
  no-op and must leave every ``RunRecord`` byte-identical.
* **Deterministic rendering.** :meth:`MetricsRegistry.snapshot` sorts
  metrics by name and samples by label so two snapshots of equal state
  are equal strings.
* **Dependency-free and cheap.** Pure stdlib; one lock per registry;
  an instrument mutation is a dict update.

Wall-clock reads are legal here: ``repro.obs`` is inside the lint rule's
scoped clock exemption (telemetry measures real time by definition), while
OS entropy remains banned everywhere.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

from repro.errors import ObsError

ENV_OBS = "REPRO_OBS"
"""Environment switch: set to ``off``/``0``/``false`` to disable telemetry."""

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})

_OVERRIDE: Optional[bool] = None
"""Programmatic override (set_enabled); ``None`` defers to ``REPRO_OBS``."""


def enabled() -> bool:
    """Is telemetry collection on? (default: yes, unless ``REPRO_OBS=off``)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(ENV_OBS, "").strip().lower() not in _OFF_VALUES


def set_enabled(value: Optional[bool]) -> None:
    """Force telemetry on/off from code; ``None`` restores the env default."""
    global _OVERRIDE
    _OVERRIDE = value


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    """Series label block: ``{a="x",b="y"}`` (empty string if none)."""
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """Common name/help/label-set machinery for all three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = registry._lock

    def _samples(self) -> list[dict]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": self._samples(),
        }


class Counter(_Instrument):
    """Monotonically increasing count (events, cells, cache hits)."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        if not enabled():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> list[dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(key), "value": value} for key, value in items
        ]


class Gauge(_Instrument):
    """Point-in-time level (queue depth, live workers)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        if not enabled():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not enabled():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> list[dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(key), "value": value} for key, value in items
        ]


DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Latency-oriented bucket bounds in seconds (plus the implicit +Inf)."""


class Histogram(_Instrument):
    """Bucketed distribution (latencies, batch throughput)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, registry)
        self.buckets = tuple(sorted(buckets))
        # label key -> [per-bucket counts..., +Inf count, sum, count]
        self._series: dict[LabelKey, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        if not enabled():
            return
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [0.0] * (len(self.buckets) + 3)
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series[i] += 1
            series[-3] += 1  # +Inf bucket
            series[-2] += value  # sum
            series[-1] += 1  # count

    def count(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[-1] if series else 0.0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[-2] if series else 0.0

    def _samples(self) -> list[dict]:
        with self._lock:
            items = sorted(
                (key, list(series)) for key, series in self._series.items()
            )
        samples = []
        for key, series in items:
            buckets = {
                _format_value(bound): series[i]
                for i, bound in enumerate(self.buckets)
            }
            buckets["+Inf"] = series[-3]
            samples.append({
                "labels": dict(key),
                "count": series[-1],
                "sum": series[-2],
                "buckets": buckets,
            })
        return samples


class MetricsRegistry:
    """Named instruments with get-or-create semantics and sorted exports."""

    def __init__(self):
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, self, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (tests start from an empty registry)."""
        with self._lock:
            self._instruments.clear()

    # -- exports ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic JSON-safe snapshot, sorted by name and labels."""
        with self._lock:
            instruments = [
                self._instruments[name] for name in sorted(self._instruments)
            ]
        return {
            "version": 1,
            "metrics": {
                instrument.name: instrument.describe()
                for instrument in instruments
            },
        }

    def snapshot_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- deltas -----------------------------------------------------------

    def _flat(self) -> dict[str, float]:
        """Flatten cumulative series to ``name{labels}`` -> value."""
        flat: dict[str, float] = {}
        for name, described in self.snapshot()["metrics"].items():
            for sample in described["samples"]:
                block = _format_labels(_label_key(sample["labels"]))
                if described["type"] == "histogram":
                    flat[f"{name}_count{block}"] = sample["count"]
                    flat[f"{name}_sum{block}"] = sample["sum"]
                else:
                    flat[f"{name}{block}"] = sample["value"]
        return flat

    def mark(self) -> dict[str, float]:
        """Capture current cumulative values for :meth:`delta_since`."""
        return self._flat()

    def delta_since(self, mark: dict[str, float]) -> dict[str, float]:
        """Per-series change since :meth:`mark` (new series included).

        Gauges report their *current* value rather than a difference —
        a level has no meaningful delta. Unchanged series are omitted.
        """
        deltas: dict[str, float] = {}
        gauges = {
            name for name, described in self.snapshot()["metrics"].items()
            if described["type"] == "gauge"
        }
        for series, value in self._flat().items():
            base = series.split("{", 1)[0]
            if base in gauges:
                deltas[series] = value
                continue
            change = value - mark.get(series, 0.0)
            if change:
                deltas[series] = change
        return deltas


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global default registry shared by all repro layers."""
    return _REGISTRY
