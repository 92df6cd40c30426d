"""Deterministic fault injection for both substrates.

The paper's theorems are *resilience* claims: the cheap-talk mediator
survives up to ``t`` crashed players among ``n >= 2k+3``. This package
turns those claims into executable experiments — a declarative, seeded
:class:`FaultPlan` (named like latency models: ``crash@p2s40``,
``drop-0.1``, ``partition@{1,2}t30h90``, ...) is injected through the
simulated kernel and the TCP substrate via one shared
:class:`FaultInjector` state machine, and the masking oracle in
:mod:`repro.faults.masking` checks mechanically that plans within the
fault budget leave honest players' records untouched.
"""

from repro.errors import FaultError
from repro.faults.injector import FaultEvent, FaultInjector, injector_for
from repro.faults.plan import (
    CorruptTcpFault,
    CrashFault,
    DropFault,
    DupFault,
    FaultPlan,
    PartitionFault,
    fault_from_name,
    fault_names,
    register_fault,
)

__all__ = [
    "CorruptTcpFault",
    "CrashFault",
    "DropFault",
    "DupFault",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "PartitionFault",
    "fault_from_name",
    "fault_names",
    "injector_for",
    "register_fault",
]
