"""Outside-in per-layer tracing: wrappers around each layer's entry points.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces class
and module attributes with wrappers and :meth:`Tracer.uninstall` puts the
originals back, so untraced runs execute the program exactly as shipped.

Each wrapper records a span — name, start, end, parent span, and the id
of the grid cell it ran in — into flat in-memory arrays, and keeps counts
at the same boundary. A span's self time is its duration minus the time
covered by its child spans; calls are synchronous and single-threaded, so
children never overlap and the covered time is the sum of their
durations. The trace is written to disk once, by :meth:`Tracer.write`.

Span names are ``<layer>.<entry point>``, where the layer is the
``src/repro/`` package that defines the wrapped code.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
from array import array

from checks import check_accounting

MAX_SPANS = 2_000_000
"""Spans kept for the trace file (~28 bytes each). Counts and self times
keep accumulating past the cap; the file header records how many spans
were left out."""

FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)
POLY_METHODS = ("__call__", "evaluate_many", "__add__", "__sub__",
                "__mul__", "divmod")
POLY_FUNCTIONS = ("lagrange_interpolate", "lagrange_coefficients_at_zero",
                  "berlekamp_welch", "robust_interpolate")
OBS_UPDATES = (("Counter", "inc"), ("Gauge", "set"), ("Gauge", "inc"),
               ("Gauge", "dec"), ("Histogram", "observe"))
SESSION_KINDS = ("rbc", "aba", "acs", "coin")
MPC_SESSION_KINDS = ("mpc", "avss", "avss-open")


class Tracer:
    def __init__(self, checker) -> None:
        self.checker = checker
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: collections.Counter = collections.Counter()
        self.cell_counts: collections.Counter = collections.Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.stack: list[list] = []
        self.cell = 0
        self.cells = 0
        self.injector = None
        self.in_session_send = 0
        self._patches: list[tuple] = []

    # -- aggregates ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def total_calls(self, prefix: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls)
                   if n == prefix or n.startswith(prefix + "."))

    def total_self(self, prefix: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n == prefix or n.startswith(prefix + "."))

    def attributed_s(self) -> float:
        return sum(self.self_s)

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)``/``after(args, result)``
        run inside it to keep counts at the same boundary."""
        nid = self._name_id(name)
        tracer = self
        calls, self_s, stack = self.calls, self.self_s, self.stack
        names_a, parents_a, cells_a = (
            self.span_name, self.span_parent, self.span_cell
        )
        starts_a, ends_a = self.span_start, self.span_end
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts_a)
            keep = idx < MAX_SPANS
            if keep:
                names_a.append(nid)
                parents_a.append(stack[-1][0] if stack else -1)
                cells_a.append(tracer.cell)
            else:
                tracer.spans_dropped += 1
                idx = -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            if keep:
                starts_a.append(t0)
                ends_a.append(t0)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = perf()
                stack.pop()
                if keep:
                    ends_a[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def counter(self, key: str, fn):
        """``fn`` wrapped to count calls only (too hot for a span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _patch_function(self, module, name: str, make) -> None:
        """Replace a function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, original))

    def _span_methods(self, cls, names, span_name: str, **hooks) -> None:
        for attr in names:
            self._patch(cls, attr,
                        lambda fn: self.span(span_name, fn, **hooks))

    # -- hooks that keep the per-cell message accounting ----------------------

    def _cell_start(self, args) -> None:
        self.cell += 1
        self.cells += 1
        self.cell_counts = collections.Counter()
        self.injector = None

    def _cell_end(self, args, record) -> None:
        self.counts["msgs:sent"] += record.messages_sent
        self.counts["msgs:delivered"] += record.messages_delivered
        self.counts["msgs:dropped"] += record.messages_dropped
        for key, value in self.cell_counts.items():
            self.counts[key] += value
        if record.ok:
            check_accounting(self.checker, record, self.cell_counts)

    def _session_send(self, fn):
        def wrapper(host, sid, recipient, payload):
            kind = sid[0]
            self.cell_counts["session:" + kind] += 1
            self.in_session_send += 1
            try:
                return fn(host, sid, recipient, payload)
            finally:
                self.in_session_send -= 1

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _flush_pending(self, fn):
        def wrapper(host):
            self.in_session_send += 1
            try:
                return fn(host)
            finally:
                self.in_session_send -= 1

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _kernel_send(self, args) -> None:
        # args: (runtime, sender, recipient, payload, batch)
        replaying = self.injector is not None and self.injector.replaying
        if self.in_session_send:
            if replaying:
                self.cell_counts["replayed"] += 1
        elif not replaying:
            self.cell_counts["plain"] += 1

    def _start_signals(self, args) -> None:
        self.cell_counts["start"] += len(args[0].processes)

    def _fate(self, args, result) -> None:
        if result[0] == "deliver" and result[1] > 1:
            self.cell_counts["dup"] += result[1] - 1

    def _injector_reset(self, args) -> None:
        self.injector = args[0]

    def _handle(self, kind: str):
        counts = self.counts

        def before(args):
            if args[0].finished:
                counts["stale:" + kind] += 1

        return before

    def _open_session(self, args) -> None:
        host, sid = args[0], args[1]
        if sid not in host.sessions:
            self.counts["instances:" + sid[0]] += 1

    def _runner_result(self, args, result) -> None:
        cache = result.stats.get("cache", {})
        self.counts["cache:hits"] += cache.get("hits", 0)
        self.counts["cache:misses"] += cache.get("misses", 0)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import repro.experiments.runner as runner_module
        from repro.analysis import deviations as analysis_deviations
        from repro.analysis import section64 as analysis_section64
        from repro.audit.search import AuditEngine
        from repro.broadcast.aba import BinaryAgreement
        from repro.broadcast.acs import CommonSubset
        from repro.broadcast.base import SessionHost
        from repro.broadcast.coin import CommonCoin
        from repro.broadcast.rbc import ReliableBroadcast
        from repro.cheaptalk.game import CheapTalkGame
        from repro.experiments import cache as experiments_cache
        from repro.experiments.runner import ExperimentRunner
        from repro.faults.injector import FaultInjector
        from repro.field import poly
        from repro.field.gf import GF, GFElement
        from repro.games.bayesian import BayesianGame
        from repro.mediator.games import MediatorGame
        from repro.mediator.protocol import FnMediator, HonestMediatorPlayer
        from repro.mpc.avss import AsyncVerifiableSS, AvssReconstruction
        from repro.mpc.engine import MpcEngine
        from repro.mpc.setup import TrustedSetup
        from repro.net.router import MemoryTransport
        from repro.net.runtime import NetRuntime
        from repro.obs import metrics as obs_metrics
        from repro.sim.runtime import Runtime
        from repro.sim.scheduler import Scheduler
        from repro.store import fingerprint as store_fingerprint
        from repro.store.core import ResultStore

        span = self.span
        # experiments: the cell boundary carries the cell id
        self._patch(runner_module, "execute_task",
                    lambda fn: span("experiments.cell", fn,
                                    before=self._cell_start,
                                    after=self._cell_end))
        self._patch_function(experiments_cache, "prepare_cell",
                             lambda fn: span("experiments.prepare", fn))
        self._span_methods(ExperimentRunner, ("run",), "experiments.run",
                           after=self._runner_result)
        # sim
        self._span_methods(Runtime, ("run",), "sim.run")
        self._span_methods(Runtime, ("_send_from",), "sim.send",
                           before=self._kernel_send)
        self._span_methods(Runtime, ("_deliver",), "sim.deliver")
        self._span_methods(Runtime, ("_inject_start_signals",), "sim.start",
                           before=self._start_signals)
        pending = [Scheduler]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "choose" in cls.__dict__ and not getattr(
                cls.__dict__["choose"], "__isabstractmethod__", False
            ):
                layer = cls.__module__.split(".")[1]
                self._span_methods(cls, ("choose",), f"{layer}.choose")
        # broadcast
        self._span_methods(SessionHost, ("on_message",), "broadcast.dispatch")
        self._patch(SessionHost, "session_send", self._session_send)
        self._patch(SessionHost, "_flush_pending", self._flush_pending)
        self._span_methods(SessionHost, ("open_session",), "broadcast.open",
                           before=self._open_session)
        for cls, kind in ((ReliableBroadcast, "rbc"), (BinaryAgreement, "aba"),
                          (CommonSubset, "acs"), (CommonCoin, "coin")):
            self._span_methods(cls, ("handle",), f"broadcast.{kind}.handle",
                               before=self._handle(kind))
            if "start" in cls.__dict__:
                self._span_methods(cls, ("start",), f"broadcast.{kind}.start")
        # field
        for attr in FIELD_OPS:
            self._span_methods(GFElement, (attr,), f"field.{attr.strip('_')}")
        self._span_methods(GF, ("__call__",), "field.coerce")
        self._patch(GFElement, "__init__",
                    lambda fn: self.counter("field.elements", fn))
        for attr in POLY_METHODS:
            self._span_methods(poly.Polynomial, (attr,),
                               f"field.poly.{attr.strip('_')}")
        for name in POLY_FUNCTIONS:
            self._patch_function(poly, name,
                                 lambda fn, n=name: span(f"field.{n}", fn))
        # mpc
        self._span_methods(MpcEngine, ("handle",), "mpc.handle")
        self._span_methods(MpcEngine, ("start",), "mpc.start")
        self._span_methods(AsyncVerifiableSS, ("handle",), "mpc.avss.handle")
        self._span_methods(AvssReconstruction, ("handle",),
                           "mpc.avss-open.handle")
        self._span_methods(TrustedSetup, ("deal_for_circuit",), "mpc.setup")
        # cheaptalk, mediator, games, analysis
        self._span_methods(CheapTalkGame, ("run",), "cheaptalk.run")
        self._span_methods(MediatorGame, ("run",), "mediator.run")
        self._span_methods(FnMediator, ("on_message",), "mediator.handle")
        self._span_methods(HonestMediatorPlayer, ("on_message",),
                           "mediator.player")
        self._span_methods(BayesianGame, ("utility", "utility_of"),
                           "games.utility")
        for module in (analysis_deviations, analysis_section64):
            for value in list(vars(module).values()):
                if (isinstance(value, type)
                        and value.__module__ == module.__name__
                        and "on_message" in value.__dict__):
                    self._span_methods(value, ("on_message",),
                                       "analysis.handle")
        # audit
        self._span_methods(AuditEngine, ("evaluate",), "audit.evaluate")
        self._span_methods(AuditEngine, ("baseline",), "audit.baseline")
        # faults
        self._span_methods(FaultInjector, ("fate",), "faults.fate",
                           after=self._fate)
        self._span_methods(FaultInjector, ("reset",), "faults.reset",
                           before=self._injector_reset)
        self._span_methods(FaultInjector, ("restore",), "faults.restore")
        self._patch(FaultInjector, "hold",
                    lambda fn: self.counter("faults.held", fn))
        # net
        self._span_methods(NetRuntime, ("run",), "net.run")
        self._span_methods(NetRuntime, ("_send_from",), "net.send",
                           before=self._kernel_send)
        self._span_methods(NetRuntime, ("_inject_start_signals",), "net.start",
                           before=self._start_signals)
        self._span_methods(NetRuntime, ("_activate",), "net.activate")
        self._span_methods(MemoryTransport, ("post",), "net.post")
        # obs
        for cls_name, attr in OBS_UPDATES:
            self._span_methods(getattr(obs_metrics, cls_name), (attr,),
                               "obs.update")
        self._span_methods(obs_metrics.MetricsRegistry,
                           ("counter", "gauge", "histogram"), "obs.lookup")
        # store
        for attr in ("__init__", "get_or_run", "put_records", "fetch_records",
                     "fetch_result", "put_result"):
            self._span_methods(ResultStore, (attr,),
                               f"store.{attr.strip('_')}")
        for name in ("run_fingerprint", "spec_fingerprint"):
            self._patch_function(store_fingerprint, name,
                                 lambda fn: span("store.fingerprint", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then the span arrays as raw machine data."""
        header = dict(header)
        header.update(
            names=self.names,
            spans=len(self.span_start),
            spans_dropped=self.spans_dropped,
            columns=[["name", "i"], ["parent", "i"], ["cell", "i"],
                     ["start", "d"], ["end", "d"]],
            byteorder=sys.byteorder,
        )
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_cell,
                           self.span_start, self.span_end):
                column.tofile(out)


def layer_metrics(tracer: Tracer, evaluations: int, store_counters: dict,
                  traced_s: float, overhead: float) -> dict:
    """Per-layer metrics: ``name -> (value, why it does not apply or None)``.

    Values are per simulated cell unless the name says otherwise; audit
    times are per candidate evaluation. A metric that cannot apply to the
    workload reads 0 with the reason beside it.
    """
    cells = tracer.cells
    counts = tracer.counts
    out: dict = {}

    def per_cell(name, total, scale=1.0):
        if cells:
            out[name] = (total * scale / cells, None)
        else:
            out[name] = (0.0, "no simulated cells")

    def ratio(name, num, den, why):
        out[name] = (num / den, None) if den else (0.0, why)

    def span_metrics(name, span, calls=False):
        if calls:
            per_cell(f"{name}.calls", tracer.total_calls(span))
        per_cell(f"{name}.self_ms", tracer.total_self(span), 1000.0)

    span_metrics("sim.run", "sim.run")
    span_metrics("sim.send", "sim.send", calls=True)
    span_metrics("sim.deliver", "sim.deliver")
    span_metrics("sim.choose", "sim.choose")
    per_cell("sim.msgs_per_cell", counts["msgs:delivered"])
    ratio("sim.drop_ratio", counts["msgs:dropped"], counts["msgs:sent"],
          "no messages sent")
    span_metrics("broadcast.dispatch", "broadcast.dispatch")
    for kind in SESSION_KINDS:
        prefix = f"broadcast.{kind}"
        span_metrics(f"{prefix}.handle", f"{prefix}.handle", calls=True)
        per_cell(f"{prefix}.sends", counts["session:" + kind])
        per_cell(f"{prefix}.instances", counts["instances:" + kind])
        ratio(f"{prefix}.stale_ratio", counts["stale:" + kind],
              tracer.total_calls(f"{prefix}.handle"),
              f"no {kind} messages handled")
    per_cell("field.ops", tracer.total_calls("field"))
    per_cell("field.elements", counts["field.elements"])
    per_cell("field.self_ms", tracer.total_self("field"), 1000.0)
    span_metrics("mpc.handle", "mpc.handle", calls=True)
    per_cell("mpc.sends", sum(counts["session:" + k] for k in MPC_SESSION_KINDS))
    span_metrics("mpc.setup", "mpc.setup")
    span_metrics("cheaptalk.run", "cheaptalk.run")
    span_metrics("mediator.run", "mediator.run")
    span_metrics("mediator.handle", "mediator.handle")
    span_metrics("games.utility", "games.utility")
    span_metrics("experiments.cell", "experiments.cell")
    span_metrics("experiments.prepare", "experiments.prepare")
    ratio("experiments.cache_hit_ratio", counts["cache:hits"],
          counts["cache:hits"] + counts["cache:misses"],
          "no artifact-cache lookups")
    for name in ("audit.evaluate", "audit.baseline"):
        ratio(f"{name}.self_ms", tracer.total_self(name) * 1000.0,
              evaluations, "no audit evaluations on this workload")
    span_metrics("faults.fate", "faults.fate", calls=True)
    span_metrics("faults.reset", "faults.reset")
    span_metrics("faults.restore", "faults.restore")
    per_cell("faults.held", counts["faults.held"])
    span_metrics("net.run", "net.run")
    span_metrics("net.post", "net.post", calls=True)
    per_cell("obs.updates", tracer.total_calls("obs.update"))
    per_cell("obs.self_ms", tracer.total_self("obs"), 1000.0)
    for name in ("put_records", "fetch_records", "fetch_result", "put_result",
                 "fingerprint"):
        span_metrics(f"store.{name}", f"store.{name}")
    ratio("store.record_hit_ratio", store_counters.get("hits", 0),
          store_counters.get("hits", 0) + store_counters.get("misses", 0),
          "no result store on this workload")
    out["trace.overhead"] = (overhead, None)
    ratio("trace.unattributed_share", traced_s - tracer.attributed_s(),
          traced_s, "no traced pass")
    return out
