"""Span tracing: follow one I/O request across simulation layers.

A *span* is a named interval of simulated time on a *track* (one row in
the trace viewer: a rank, a PFS server, a disk).  Spans are recorded with
lightweight context managers::

    with tracer.span("mpi.io", track="rank3", trace=tid, op="R"):
        yield from engine.do_io(proc, op)

Because simulation processes interleave, nothing thread-local can carry
the request identity between layers; instead a *trace-context id* is
propagated explicitly -- stamped on the MPI-IO call, carried by the PFS
request message, and attached to the block requests it becomes -- so the
MPI rank -> MPI-IO engine -> PFS client -> data server -> I/O scheduler
-> disk chain of one logical operation shares one id.

Two span flavours map onto the Chrome ``trace_event`` format:

- synchronous (default): properly nested within their track, exported as
  ``"X"`` complete events (a rank's MPI-IO calls, a disk's strictly
  serial services);
- ``async_=True``: may overlap on their track, exported as ``"b"``/``"e"``
  async event pairs keyed by span id (a server handling many concurrent
  requests).

The tracer reads the clock of the simulator it is bound to and never
schedules anything: tracing cannot perturb a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Span", "SpanRecord", "Tracer"]


class SpanRecord:
    """One recorded span.  ``t1`` stays None if the owning process never
    exited the span (e.g. the schedule drained first)."""

    __slots__ = ("name", "cat", "track", "trace_id", "span_id", "t0", "t1", "args", "async_")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        trace_id: int,
        span_id: int,
        t0: float,
        args: Optional[dict],
        async_: bool,
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.trace_id = trace_id
        self.span_id = span_id
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args = args
        self.async_ = async_

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name} [{self.t0}..{self.t1}] track={self.track}>"


class Span:
    """Context manager stamping begin/end sim times onto a SpanRecord."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, *exc: Any) -> None:
        self.record.t1 = self._tracer.now

    @property
    def trace_id(self) -> int:
        return self.record.trace_id


class Tracer:
    """Records spans and instants against one simulator's clock."""

    def __init__(self) -> None:
        self._sim: Optional["Simulator"] = None
        self.spans: list[SpanRecord] = []
        #: Instant (point) events: (name, cat, track, trace_id, t, args).
        self.instants: list[tuple[str, str, str, int, float, Optional[dict]]] = []
        self._next_trace = 0
        self._next_span = 0
        #: stream_id -> trace-context id of the MPI-IO call currently
        #: executing on that stream (explicit cross-layer propagation).
        self._stream_ctx: dict[int, int] = {}

    def bind(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # -- trace-context propagation -------------------------------------

    def new_trace(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def bind_stream(self, stream_id: int, trace_id: int) -> None:
        """Associate a client stream with the trace context it serves."""
        self._stream_ctx[stream_id] = trace_id

    def trace_of_stream(self, stream_id: int) -> int:
        """The trace context bound to a stream (0 = untraced background)."""
        return self._stream_ctx.get(stream_id, 0)

    # -- recording ------------------------------------------------------

    def span(
        self,
        name: str,
        track: str = "main",
        cat: str = "sim",
        trace: int = 0,
        async_: bool = False,
        **args: Any,
    ) -> Span:
        self._next_span += 1
        rec = SpanRecord(
            name=name,
            cat=cat,
            track=track,
            trace_id=trace,
            span_id=self._next_span,
            t0=self.now,
            args=args or None,
            async_=async_,
        )
        self.spans.append(rec)
        return Span(self, rec)

    def instant(
        self,
        name: str,
        track: str = "main",
        cat: str = "sim",
        trace: int = 0,
        **args: Any,
    ) -> None:
        self.instants.append((name, cat, track, trace, self.now, args or None))

    def __len__(self) -> int:
        return len(self.spans)
