"""Deterministic network simulation: one kernel, pluggable timing models.

The model follows Section 2 of the paper: players alternate moves with an
*environment* (the scheduler). An environment move picks the next player and
the set of in-transit messages to that player that are delivered just before
it moves. The environment is a first-class strategic actor: every run is
parameterised by a :class:`~repro.sim.scheduler.Scheduler`.

Orthogonally to the scheduler, a :class:`~repro.sim.timing.TimingModel`
decides which in-transit messages are *eligible* for delivery at all:
:class:`~repro.sim.timing.Asynchronous` (everything — the paper's setting),
:class:`~repro.sim.timing.LockStep` (synchronous rounds — the R1/R2
baseline), and :class:`~repro.sim.timing.BoundedDelay` (partial synchrony
with a delay bound and GST). The synchronous ``SyncRuntime`` is a thin
adapter over the same kernel.

Non-relaxed schedulers must deliver every message eventually; *relaxed*
schedulers (used only in mediator games, Section 5) may drop messages but
must treat a batch of messages sent by the mediator at one step
all-or-none.
"""

from repro.sim.network import (
    Message,
    MessageView,
    Network,
    START_SIGNAL,
    TransitView,
)
from repro.sim.process import Context, Process, FuncProcess
from repro.sim.runtime import Runtime, RunResult
from repro.sim.scheduler import (
    Scheduler,
    FifoScheduler,
    RandomScheduler,
    EagerScheduler,
    LaggardScheduler,
    RushingScheduler,
    BatchRandomScheduler,
    LatencyScheduler,
    RelaxedScheduler,
    DropPlanRelaxedScheduler,
    scheduler_zoo,
)
from repro.sim.timing import (
    Asynchronous,
    BoundedDelay,
    LockStep,
    TimingModel,
    register_timing,
    timing_from_name,
    timing_names,
)
from repro.sim.trace import Trace, TraceEvent, message_pattern

__all__ = [
    "Message",
    "MessageView",
    "Network",
    "START_SIGNAL",
    "TransitView",
    "Context",
    "Process",
    "FuncProcess",
    "Runtime",
    "RunResult",
    "Scheduler",
    "FifoScheduler",
    "RandomScheduler",
    "EagerScheduler",
    "LaggardScheduler",
    "BatchRandomScheduler",
    "LatencyScheduler",
    "RelaxedScheduler",
    "DropPlanRelaxedScheduler",
    "scheduler_zoo",
    "TimingModel",
    "Asynchronous",
    "LockStep",
    "BoundedDelay",
    "register_timing",
    "timing_from_name",
    "timing_names",
    "Trace",
    "TraceEvent",
    "message_pattern",
]
