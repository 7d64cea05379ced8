"""Metric instruments and the registry components publish into.

A registry entry is one of two things:

- a **view** (:meth:`MetricsRegistry.view`) of a value a component
  already keeps -- ``GlobalCache.n_hits``, ``EmcDaemon.samples``, a
  budget's byte total -- read once, when the snapshot is taken.  Views
  cost nothing per event, and there is no second copy to keep in step;
- a **recorded instrument**, for quantities no component keeps:

  - :class:`Counter` -- monotonically increasing totals (disk seek
    seconds, merged block requests);
  - :class:`Histogram` -- fixed-bucket distributions (seek distance,
    elevator queue depth at dispatch);
  - :class:`TimeSeries` -- ``(sim_time, value)`` samples (mis-prefetch
    ratio, windowed throughput);
  - :class:`EventLog` -- append-only record streams (blktrace accesses).

All timestamps are *simulated* seconds: nothing here reads a wall clock,
so an observed run is a pure function of its inputs exactly like a plain
run.  Observability off means no registry at all: ``Simulator.obs`` is
``None``, no view is registered, and each component holds ``None`` in
place of its recorded instruments.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "DEFAULT_BOUNDS",
    "Counter",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "View",
]

#: Default histogram bucket boundaries: powers of two up to 1 Mi.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(float(2**i) for i in range(21))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def to_dict(self) -> Any:
        return self.value


class Histogram:
    """A fixed-bucket distribution.

    ``bounds`` are the inclusive upper edges of the buckets; one overflow
    bucket catches everything beyond the last edge.  Bucket layout is
    fixed at construction so observation is O(log buckets) and snapshots
    are schema-stable across runs.
    """

    __slots__ = ("name", "bounds", "counts", "n", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.n = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.n += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def to_dict(self) -> Any:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class TimeSeries:
    """``(sim_time, value)`` samples, appended in simulation order."""

    __slots__ = ("name", "samples")

    kind = "timeseries"

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[tuple[float, float]] = []

    def record(self, t: float, v: float) -> None:
        self.samples.append((t, v))

    def __len__(self) -> int:
        return len(self.samples)

    def to_dict(self) -> Any:
        return [[t, v] for t, v in self.samples]


class EventLog:
    """Append-only stream of structured records (e.g. blktrace accesses).

    Rows are arbitrary objects; snapshots report the count only (a full
    dump would dwarf every other metric), and consumers that need the
    records themselves -- plots, seek-distance analysis -- read ``rows``
    directly.
    """

    __slots__ = ("name", "fields", "rows")

    kind = "event_log"

    def __init__(self, name: str, fields: Sequence[str] = ()) -> None:
        self.name = name
        self.fields = tuple(fields)
        self.rows: list[Any] = []

    def append(self, row: Any) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> Any:
        return {"fields": list(self.fields), "n": len(self.rows)}


class View:
    """A snapshot-time read of state a component already keeps.

    ``read()`` returns the entry's JSON-ready value in the form its
    kind's recorded instrument would snapshot to (a number for counters
    and gauges, ``[[t, v], ...]`` for a time series, ``{"fields": [...],
    "n": count}`` for an event log).
    """

    __slots__ = ("name", "kind", "read")

    def __init__(self, name: str, kind: str, read: Callable[[], Any]) -> None:
        self.name = name
        self.kind = kind
        self.read = read

    def to_dict(self) -> Any:
        return self.read()


_Instrument = Any  # Counter | Histogram | TimeSeries | EventLog | View

#: Snapshot section per entry kind.
_SECTION: Mapping[str, str] = MappingProxyType(
    {
        "counter": "counters",
        "gauge": "gauges",
        "histogram": "histograms",
        "timeseries": "timeseries",
        "event_log": "event_logs",
    }
)


class MetricsRegistry:
    """Registry of named views and recorded instruments.

    Names are dotted paths (``disk.disk0.seek_s``); asking twice for the
    same recorded instrument returns the same object, and asking for an
    existing name with a different kind is an error (two components
    silently sharing a metric is always a bug).  A view or an attached
    instrument may not take a name that is already registered.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    # -- factories ------------------------------------------------------

    def _get_or_create(self, name: str, kind: str, factory: Any) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
            return inst
        if inst.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, wanted {kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get_or_create(name, "histogram", lambda: Histogram(name, bounds))

    def timeseries(self, name: str) -> TimeSeries:
        return self._get_or_create(name, "timeseries", lambda: TimeSeries(name))

    def attach(self, name: str, instrument: _Instrument) -> None:
        """Register an externally constructed instrument under ``name``."""
        existing = self._instruments.get(name)
        if existing is not None and existing is not instrument:
            raise ValueError(f"metric {name!r} already registered")
        self._instruments[name] = instrument

    def view(self, name: str, kind: str, read: Callable[[], Any]) -> None:
        """Register ``read()`` as the snapshot value of ``name``, filed
        under ``kind``'s section.  ``read`` runs only when a snapshot is
        taken."""
        if kind not in _SECTION:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.attach(name, View(name, kind, read))

    # -- queries --------------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self, now: float) -> dict:
        """A JSON-ready view of every instrument, stamped with *sim* time.

        Instruments are grouped by kind and sorted by name, so two
        identical runs produce byte-identical snapshots.
        """
        out: dict[str, Any] = {"sim_time_s": now}
        for section in _SECTION.values():
            out[section] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[_SECTION[inst.kind]][name] = inst.to_dict()
        return out
