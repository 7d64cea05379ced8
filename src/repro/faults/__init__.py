"""Deterministic, sim-time-scheduled fault injection.

See ``docs/fault_injection.md`` for the fault taxonomy, the plan JSON
schema, and the determinism guarantees.
"""

from repro.faults.injector import FaultError, FaultInjector, NetFault, RequestTimeout
from repro.faults.plan import FAULT_KINDS, DiskFault, FaultEvent, FaultPlan, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "DiskFault",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "NetFault",
    "RequestTimeout",
    "RetryPolicy",
]
