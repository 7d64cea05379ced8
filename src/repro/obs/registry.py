"""Metric instruments and the registry components publish into.

Four instrument kinds cover every counter the simulation keeps today:

- :class:`Counter` -- monotonically increasing totals (bytes served,
  cache hits, prefetch cycles);
- :class:`Gauge` -- last-written values (resident cache bytes);
- :class:`Histogram` -- fixed-bucket distributions (seek distance,
  elevator queue depth at dispatch);
- :class:`TimeSeries` -- ``(sim_time, value)`` samples (EMC improvement
  estimate, windowed throughput);
- :class:`EventLog` -- append-only record streams (blktrace accesses).

All timestamps are *simulated* seconds: nothing here reads a wall clock,
so an observed run is a pure function of its inputs exactly like a plain
run.  Observability off means no registry at all: ``Simulator.obs`` is
``None`` and each component holds ``None`` in place of its instruments.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = [
    "DEFAULT_BOUNDS",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
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


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v

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


_Instrument = Any  # Counter | Gauge | Histogram | TimeSeries | EventLog


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted paths (``disk.disk0.seek_s``); asking twice for the
    same name returns the same instrument, and asking for an existing
    name with a different kind is an error (two components silently
    sharing a metric is always a bug).
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

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get_or_create(name, "histogram", lambda: Histogram(name, bounds))

    def timeseries(self, name: str) -> TimeSeries:
        return self._get_or_create(name, "timeseries", lambda: TimeSeries(name))

    def event_log(self, name: str, fields: Sequence[str] = ()) -> EventLog:
        return self._get_or_create(name, "event_log", lambda: EventLog(name, fields))

    def attach(self, name: str, instrument: _Instrument) -> None:
        """Register an externally constructed instrument under ``name``."""
        existing = self._instruments.get(name)
        if existing is not None and existing is not instrument:
            raise ValueError(f"metric {name!r} already registered")
        self._instruments[name] = instrument

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
        out: dict[str, Any] = {
            "sim_time_s": now,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timeseries": {},
            "event_logs": {},
        }
        section = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
            "timeseries": "timeseries",
            "event_log": "event_logs",
        }
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[section[inst.kind]][name] = inst.to_dict()
        return out
