"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is the complete description of everything that will
go wrong in a run: a seed (the only entropy source the injector uses), a
tuple of :class:`FaultEvent` entries pinned to simulated time, and the
:class:`RetryPolicy` the PFS clients apply while riding the faults out.
Plans are frozen dataclasses with a JSON round-trip, so they enter
the experiment fingerprint exactly like every other piece of an
``ExperimentSpec`` and two runs of the same plan are bit-identical.

Fault taxonomy (see ``docs/fault_injection.md`` for semantics):

- ``disk_failslow``   -- scale a disk's transfer time / add seek penalty;
- ``server_crash``    -- a data server drops requests and loses RAM state;
- ``net_degrade``     -- extra Ethernet latency plus seeded jitter;
- ``net_partition``   -- transit to/from a node set blocks until healed;
- ``cache_evict``     -- Memcached nodes leave (and rejoin) the ring.

Windowed events (``until_s`` set) revert automatically; ``until_s=None``
means the fault is permanent for the run -- except ``net_partition`` and
``server_crash``, which *require* an end time: transfers crossing a cut
wait on the heal event, and requests parked on a crashed server wait on
its recovery, so an unhealed cut or an unrecovered server would hang the
run instead of timing its requests out.  Two windows of one
kind may not overlap on one target (:meth:`FaultEvent.overlaps`); a plan
that has such a pair fails to load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.codec import JsonRecord

__all__ = ["FAULT_KINDS", "DiskFault", "FaultEvent", "FaultPlan", "RetryPolicy"]

#: Every fault kind the injector knows how to apply.
FAULT_KINDS: tuple[str, ...] = (
    "disk_failslow",
    "server_crash",
    "net_degrade",
    "net_partition",
    "cache_evict",
)


@dataclass
class DiskFault:
    """Fail-slow state installed on a :class:`~repro.disk.drive.DiskDrive`.

    The drive only duck-types this (``drive.fault`` is ``None`` nominally
    and anything with these two attributes when degraded), keeping
    ``repro.disk`` free of a dependency on the faults package.
    """

    #: Media transfer takes this many times longer (>= 1).
    transfer_factor: float = 4.0
    #: Flat penalty added to every non-sequential positioning, modelling
    #: retried seeks / head re-calibration on a sick actuator.
    extra_seek_s: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout/retry knobs used while a plan is installed.

    The per-request timeout is *size-aware*: a fixed small timeout would
    declare large striped batches dead while the server is still happily
    streaming them, and every false timeout doubles the offered load
    (the server keeps servicing the abandoned attempt while the client
    re-sends it) -- congestion collapse in miniature.  ``timeout_for``
    therefore floors the implied transfer rate via ``timeout_per_byte_s``.
    """

    #: Base per-request timeout, independent of payload size.
    base_timeout_s: float = 2.0
    #: Additional timeout per payload byte (1e-6 floors the implied
    #: server rate at ~1 MB/s before a retry fires).
    timeout_per_byte_s: float = 1e-6
    #: Attempts beyond the first before the request errors out.
    max_retries: int = 12
    #: First backoff sleep; doubles (by default) each retry.
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    #: Backoff ceiling so recovery is noticed promptly.
    backoff_max_s: float = 2.0
    #: ``"none"`` (default: deterministic exponential backoff, replay-
    #: compatible with pre-jitter plans) or ``"full"`` (AWS-style full
    #: jitter: sleep ~ U[0, capped exponential), drawn from the plan RNG,
    #: so synchronized retries don't stampede a recovering server).
    backoff_jitter: str = "none"

    def __post_init__(self) -> None:
        if self.base_timeout_s <= 0:
            raise ValueError("base_timeout_s must be > 0")
        if self.timeout_per_byte_s < 0:
            raise ValueError("timeout_per_byte_s must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_jitter not in ("none", "full"):
            raise ValueError(f"bad backoff_jitter {self.backoff_jitter!r}")

    def timeout_for(self, nbytes: int) -> float:
        """Request timeout for a payload of ``nbytes``."""
        return self.base_timeout_s + nbytes * self.timeout_per_byte_s

    def backoff_s(self, attempt: int, rng: Optional["random.Random"] = None) -> float:
        """Sleep before retry number ``attempt`` (1-based).

        With ``backoff_jitter="full"`` and an ``rng`` (the injector's
        plan-seeded ``random.Random``), the sleep is uniform in [0, the
        capped exponential).  The RNG is only consumed in that mode, so
        unjittered policies replay identically with or without it.
        """
        ceiling = min(
            self.backoff_base_s * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_max_s,
        )
        if self.backoff_jitter == "full" and rng is not None:
            return rng.random() * ceiling
        return ceiling


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: applied at ``at_s``, reverted at ``until_s``
    (or never, when ``until_s`` is None)."""

    kind: str
    at_s: float
    until_s: Optional[float] = None
    #: Kind-specific index: data-server index for ``disk_failslow`` /
    #: ``server_crash``, unused for the network kinds,
    #: the compute-node id for ``cache_evict`` when ``nodes`` is empty.
    target: int = 0

    # -- disk_failslow ---------------------------------------------------
    transfer_factor: float = 4.0
    extra_seek_s: float = 0.0

    # -- net_degrade -----------------------------------------------------
    extra_latency_s: float = 0.0
    #: Uniform [0, jitter_s) seeded jitter added per transfer.
    jitter_s: float = 0.0

    # -- net_partition / cache_evict -------------------------------------
    #: Node ids on the far side of the cut / cache nodes to evict.
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (know {FAULT_KINDS})")
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.until_s is not None and self.until_s <= self.at_s:
            raise ValueError("until_s must be > at_s")
        if self.target < 0:
            raise ValueError("target must be >= 0")
        if self.kind == "disk_failslow":
            if self.transfer_factor < 1:
                raise ValueError("transfer_factor must be >= 1 (fail-SLOW)")
            if self.extra_seek_s < 0:
                raise ValueError("extra_seek_s must be >= 0")
        elif self.kind == "net_degrade":
            if self.extra_latency_s < 0 or self.jitter_s < 0:
                raise ValueError("latency/jitter must be >= 0")
            if self.extra_latency_s == 0 and self.jitter_s == 0:
                raise ValueError("net_degrade needs extra_latency_s or jitter_s > 0")
        elif self.kind == "net_partition":
            if not self.nodes:
                raise ValueError("net_partition needs a non-empty node set")
            if self.until_s is None:
                raise ValueError(
                    "net_partition requires until_s: senders block on the heal "
                    "event, so an unhealed cut would hang the run"
                )
        elif self.kind == "server_crash" and self.until_s is None:
            raise ValueError(
                "server_crash requires until_s: requests to a crashed server wait "
                "on its recovery, so a server that never recovers would hang the run"
            )

    @property
    def evicted_nodes(self) -> tuple[int, ...]:
        """Cache nodes a ``cache_evict`` event removes."""
        return self.nodes if self.nodes else (self.target,)

    def overlaps(self, other: "FaultEvent") -> bool:
        """True when ``other`` is a fault of the same kind on a shared
        target (a data server, an evicted cache node, or the one network)
        whose window meets this one's.  A revert and an apply at the same
        instant do not meet: the injector runs the revert first."""
        if other.kind != self.kind:
            return False
        if self.kind in ("disk_failslow", "server_crash") and other.target != self.target:
            return False
        if self.kind == "cache_evict" and not set(self.evicted_nodes) & set(other.evicted_nodes):
            return False
        return (other.until_s is None or self.at_s < other.until_s) and (
            self.until_s is None or other.at_s < self.until_s
        )


@dataclass(frozen=True)
class FaultPlan(JsonRecord):
    """A seeded schedule of fault events plus the client retry policy.

    Plan files are read and written by :mod:`repro.codec`.
    """

    seed: int = 0
    events: tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "events", tuple(self.events))
        # The injector holds one state per fault kind and target, so a
        # second window there would fail mid-run or be cut short.
        for j, b in enumerate(self.events):
            for i, a in enumerate(self.events[:j]):
                if a.overlaps(b):
                    raise ValueError(
                        f"fault events {i} ({a.kind} at {a.at_s}-{a.until_s} s) and "
                        f"{j} ({b.kind} at {b.at_s}-{b.until_s} s) overlap on one target"
                    )

    def dump(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
