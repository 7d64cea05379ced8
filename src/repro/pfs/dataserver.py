"""Data server: network-facing I/O service over a block layer.

Each incoming request names a file, a byte range *within the server's
object* for that file, and the issuing stream.  The server translates to
LBNs using the file's extent, splits into block requests of at most
``MAX_SECTORS`` (the kernel's 512 KB cap), submits them all at once (so
the elevator sees the full batch), and replies when the last completes.

The :class:`LocalityDaemon` is DualPar's per-server agent: every
``interval`` it snapshots the mean head seek distance over the elapsed
slot, building the ``SeekDist`` series EMC consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.disk.drive import BlockDevice
from repro.iosched import request as blkreq
from repro.iosched.blocklayer import BlockLayer
from repro.net.ethernet import Network
from repro.pfs.filesystem import FileSystem
from repro.pfs.pagecache import ServerPageCache
from repro.sim import Event, Interrupt, Simulator, all_of

__all__ = ["DataServer", "LocalityDaemon", "ServerRequest", "absorb_interrupt", "wait_all"]

#: The PVFS2 server performs disk I/O from a small pool of worker
#: threads; the kernel elevator sees THOSE contexts, not the remote MPI
#: ranks.  Client streams are folded onto the pool.
N_IO_THREADS = 4

#: Fixed CPU cost to parse/dispatch one request at the server.
REQUEST_CPU_S = 20e-6

#: Incremental CPU cost per piece of a list-I/O request.
LIST_PIECE_CPU_S = 2e-6

#: Memory-copy bandwidth charged when a write lands in the server's RAM.
MEMCPY_BYTES_S = 3e9

#: Active locality slots the SeekDist average EMC reads spans.
RECENT_SLOTS = 3


def absorb_interrupt(gen: Generator) -> Generator:
    """Run ``gen``, ending quietly if it is interrupted (a server crash
    under a service, a request timeout under a client attempt).

    Ending via StopIteration, not a failure, matters: the other side may
    hold this process inside ``any_of``/``all_of``, and the kernel's
    combinators propagate a constituent's *failure* even after they have
    fired.
    """
    try:
        yield from gen
    except Interrupt:
        return


def wait_all(sim: Simulator, events: list[Event]) -> Event:
    """``all_of(sim, events)`` over pending events that never fail (block
    completions, in-flight reads), with no condition event for one: its
    :meth:`Simulator.hop_after` hop resumes the waiter in the same slot."""
    if len(events) == 1:
        return sim.hop_after(events[0])
    return all_of(sim, events)


@dataclass(slots=True)
class ServerRequest:
    """One object-range request as received from a client."""

    file_name: str
    object_offset: int
    length: int
    op: str  # 'R' | 'W'
    stream_id: int
    #: Observability trace-context id (0 = untraced); carried through to
    #: the block requests this server request fans out into.
    trace_id: int = 0
    #: Client-assigned id under fault injection (None nominally): a
    #: retried write re-sends the same id, and the server's commit log
    #: records each id at most once (exactly-once accounting).
    req_id: Optional[int] = None


class DataServer:
    """One PVFS2 data server."""

    def __init__(
        self,
        sim: Simulator,
        server_index: int,
        node_id: int,
        network: Network,
        fs: FileSystem,
        device: BlockDevice,
        block_layer: BlockLayer,
        writeback_interval_s: Optional[float] = None,
        writeback_max_dirty: int = 64 * 1024 * 1024,
    ):
        self.sim = sim
        self.server_index = server_index
        self.node_id = node_id
        self.network = network
        self.fs = fs
        self.device = device
        self.block_layer = block_layer
        self.page_cache = ServerPageCache()
        #: Optional kernel-flusher-style write-back buffer (the paper's
        #: servers force dirty writeback every second).
        if writeback_interval_s is not None:
            from repro.pfs.writeback import WritebackBuffer

            self.writeback: Optional["WritebackBuffer"] = WritebackBuffer(
                sim,
                self,
                flush_interval_s=writeback_interval_s,
                max_dirty_bytes=writeback_max_dirty,
            )
        else:
            self.writeback = None
        #: In-flight reads per file: (start, end, completion event).
        self._inflight: dict[str, list] = {}
        self.n_requests = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # Fault state (inert until enable_fault_tracking()).
        self.crashed = False
        self.n_dropped_requests = 0
        self.n_crashes = 0
        self.n_recoveries = 0
        self.lost_dirty_bytes = 0
        #: Fired by recover(); opened by crash(), None while running.
        self._recovery: Optional[Event] = None
        #: Live service processes (insertion-ordered), tracked only under
        #: fault injection so a crash can interrupt in-flight work.
        self._service_procs: Optional[dict] = None
        #: Committed write req_ids in commit order, tracked only under
        #: fault injection (the exactly-once property's observable).
        self.commit_log: Optional[list[int]] = None
        self._committed_ids: set[int] = set()
        if sim.obs is not None:
            reg = sim.obs.registry
            pre = f"pfs.ds{server_index}"
            reg.view(f"{pre}.requests", "counter", lambda: self.n_requests)
            reg.view(f"{pre}.bytes_read", "counter", lambda: self.bytes_read)
            reg.view(f"{pre}.bytes_written", "counter", lambda: self.bytes_written)
        self._tracer = sim.obs.tracer if sim.obs is not None else None
        if sim._sanitizer is not None:
            sim._sanitizer.on_component_registered(f"ds{server_index}")

    @property
    def bytes_served(self) -> int:
        """Bytes of every serviced request, reads and writes."""
        return self.bytes_read + self.bytes_written

    def _io_context(self, client_stream: int) -> int:
        return client_stream % N_IO_THREADS

    # -- fault lifecycle -------------------------------------------------

    def enable_fault_tracking(self) -> None:
        """Arm crash support: track service processes and committed write
        ids.  Called by the fault injector at install time; nominal runs
        never pay for either."""
        if self._service_procs is None:
            self._service_procs = {}
        if self.commit_log is None:
            self.commit_log = []

    def crash(self) -> None:
        """Power-fail the server: in-flight services stop, queued client
        requests are black-holed, and volatile state (page cache, dirty
        write-back data) is lost."""
        from repro.sim import SimulationError

        if self.crashed:
            raise SimulationError(f"ds{self.server_index} is already crashed")
        self.crashed = True
        self.n_crashes += 1
        self._recovery = self.sim.event()
        san = self.sim._sanitizer
        if san is not None:
            san.on_component_unregistered(f"ds{self.server_index}")
        procs = self._service_procs
        if procs is not None:
            for proc in list(procs):
                if proc.is_alive:
                    proc.interrupt("server-crash")
            procs.clear()
        if self.writeback is not None:
            self.lost_dirty_bytes += self.writeback.drop_all()
        # RAM is gone: post-recovery reads go back to the platters.
        old = self.page_cache
        self.page_cache = ServerPageCache()
        self.page_cache.n_hits = old.n_hits
        self.page_cache.n_misses = old.n_misses
        self._inflight = {}

    def recover(self) -> None:
        """Restart after :meth:`crash`: accept requests again (cold)."""
        from repro.sim import SimulationError

        san = self.sim._sanitizer
        if san is not None:
            # A double recover() must not double-register the component.
            san.on_component_registered(f"ds{self.server_index}")
        if not self.crashed:
            raise SimulationError(f"ds{self.server_index} is not crashed")
        self.crashed = False
        self.n_recoveries += 1
        ev, self._recovery = self._recovery, None
        ev.succeed(self.sim.now)

    def recovery_event(self) -> Event:
        """An event that fires when the server next returns from a crash;
        already triggered while it runs, so callers can wait on it
        unconditionally."""
        if self._recovery is not None:
            return self._recovery
        return self.sim.event().succeed(self.sim.now)

    def _spawn(self, gen, name: str):
        """Service-process spawn point: tracked (and interrupt-absorbing)
        under fault injection, a plain process nominally."""
        procs = self._service_procs
        if procs is None:
            proc = self.sim.process(gen, name=name)
        else:
            proc = self.sim.process(absorb_interrupt(gen), name=name)
            procs[proc] = None
            proc.callbacks.append(self._untrack)
        return proc

    def _untrack(self, event) -> None:
        procs = self._service_procs
        if procs is not None:
            procs.pop(event, None)

    # ------------------------------------------------------------------

    def handle(self, req: ServerRequest) -> Event:
        """Start servicing a request; returns an event firing when the
        data is on disk (write) or read off the platters (read).

        Network transfer of the payload is the *client's* side of the
        conversation -- see :class:`~repro.pfs.client.PfsClient`.

        A crashed server black-holes the request: the event never fires
        and the fault-aware client's timeout/retry path takes over.
        """
        return self._start(self._serve, req, 1, "svc")

    def _start(self, serve, request, n_requests: int, kind: str) -> Event:
        """The start step of every client request, one range or a list:
        the ``done`` event fired after ``serve(request)``, run in a
        (tracked) service process named ``ds{i}-{kind}``.  A crashed
        server counts ``n_requests`` dropped and never fires ``done``."""
        done = self.sim.event()
        if self.crashed:
            self.n_dropped_requests += n_requests
            return done
        self._spawn(self._service(serve, request, done), name=f"ds{self.server_index}-{kind}")
        return done

    def _service(self, serve, request, done: Event):
        yield from serve(request)
        done.succeed(self.sim.now)

    def _account(self, req: ServerRequest) -> None:
        """The end step of every serviced range: count it, and under
        fault tracking record a write's req_id in the commit log exactly
        once.  Runs atomically (no yields) with the ``done``
        notification, so a request is committed iff its client observes
        success."""
        log = self.commit_log
        if log is not None and req.op == "W" and req.req_id is not None:
            if req.req_id not in self._committed_ids:
                self._committed_ids.add(req.req_id)
                log.append(req.req_id)
        self.n_requests += 1
        if req.op == "R":
            self.bytes_read += req.length
        else:
            self.bytes_written += req.length

    def _submit_blocks_throttled(self, req: ServerRequest, is_async: bool = False):
        """Translate one object range to block requests and submit them.

        Splits the range into ``MAX_SECTORS`` pieces; before each, the
        server thread sleeps in ``get_request_wait`` while the elevator
        queue is congested (``NR_REQUESTS``).  Generator; returns the
        completion-event list."""
        san = self.sim._sanitizer
        if san is not None:
            san.on_server_dispatch(self)
        # Not charged network time: namespace lookup (DESIGN.md).
        f = self.fs.lookup(req.file_name)
        lbn = f.lbn_of(self.server_index, req.object_offset)
        nsectors_total = -(-req.length // 512)
        max_sectors = blkreq.MAX_SECTORS
        completions = []
        pos = 0
        block_layer = self.block_layer
        while pos < nsectors_total:
            if block_layer.congested:
                yield from block_layer.throttle()
            if self.crashed:
                # The server died while this thread slept in the throttle
                # gate (e.g. the writeback flusher): abandon the rest.
                return completions
            take = min(max_sectors, nsectors_total - pos)
            completions.append(
                block_layer.submit(
                    lbn + pos,
                    take,
                    op=req.op,
                    stream_id=self._io_context(req.stream_id),
                    is_async=is_async,
                    trace_id=req.trace_id,
                )
            )
            pos += take
        return completions

    def _object_bytes(self, file_name: str) -> int:
        # Not charged network time: namespace lookup (DESIGN.md).
        f = self.fs.lookup(file_name)
        return f.layout.object_size(f.size, self.server_index)

    def _overlapping_inflight(self, file_name: str, start: int, end: int) -> list[Event]:
        return [
            ev
            for s, e, ev in self._inflight.get(file_name, [])
            if s < end and e > start
        ]

    def _perform_io(self, req: ServerRequest):
        """Page-cache-aware disk access for one object range."""
        sim = self.sim
        pc = self.page_cache
        if req.op == "W":
            pc.invalidate(req.file_name, req.object_offset, req.length)
            if self.writeback is not None and not self.writeback.over_limit:
                # Write-back: dirty the range in RAM and return; the
                # flusher daemon writes it to disk within its interval.
                self.writeback.add(req.file_name, req.object_offset, req.length)
                yield sim.timeout(req.length / MEMCPY_BYTES_S)
                return
            completions = yield from self._submit_blocks_throttled(req)
            yield wait_all(sim, completions)
            return
        start, end = req.object_offset, req.object_offset + req.length
        if self.writeback is not None and self.writeback.covers(
            req.file_name, start, req.length
        ):
            # Read of dirty not-yet-flushed data: served from RAM.
            yield sim.timeout(req.length / MEMCPY_BYTES_S)
            return
        if pc.contains(req.file_name, start, req.length):
            pc.n_hits += 1
            trigger = pc.on_hit(req.file_name, start, req.length, self._io_context(req.stream_id))
            if trigger is not None:
                ra_start, ra_len = trigger
                obj_end = self._object_bytes(req.file_name)
                ra_end = min(ra_start + ra_len, obj_end)
                if (
                    ra_end > ra_start
                    and not self.block_layer.congested
                    and not pc.contains(req.file_name, ra_start, ra_end - ra_start)
                ):
                    pc.insert(req.file_name, ra_start, ra_end - ra_start)
                    ra_req = ServerRequest(
                        file_name=req.file_name,
                        object_offset=ra_start,
                        length=ra_end - ra_start,
                        op="R",
                        stream_id=req.stream_id,
                        trace_id=req.trace_id,
                    )
                    self._spawn(
                        self._disk_read_tracked(ra_req, ra_start, ra_end, is_async=True),
                        name=f"ds{self.server_index}-ra",
                    )
            waits = self._overlapping_inflight(req.file_name, start, end)
            if waits:
                yield wait_all(sim, waits)
            return
        pc.n_misses += 1
        extra = pc.record_access(req.file_name, start, req.length, self._io_context(req.stream_id))
        read_end = min(end + extra, self._object_bytes(req.file_name))
        read_end = max(read_end, end)
        # Mark resident immediately so concurrent overlapping reads wait on
        # the in-flight event instead of re-reading (page-lock semantics).
        pc.insert(req.file_name, start, read_end - start)
        yield from self._disk_read_tracked(req, start, end, is_async=False)
        if read_end > end:
            # Asynchronous readahead: the extension proceeds in the
            # background while the caller's reply departs -- and it keeps
            # the elevator queue busy, exactly as kernel readahead does.
            ra_req = ServerRequest(
                file_name=req.file_name,
                object_offset=end,
                length=read_end - end,
                op="R",
                stream_id=req.stream_id,
                trace_id=req.trace_id,
            )
            self._spawn(
                self._disk_read_tracked(ra_req, end, read_end, is_async=True),
                name=f"ds{self.server_index}-ra",
            )

    def _disk_read_tracked(self, req: ServerRequest, start: int, end: int, is_async: bool = False):
        sim = self.sim
        inflight_ev = sim.event()
        entry = (start, end, inflight_ev)
        self._inflight.setdefault(req.file_name, []).append(entry)
        try:
            disk_req = ServerRequest(
                file_name=req.file_name,
                object_offset=start,
                length=end - start,
                op="R",
                stream_id=req.stream_id,
                trace_id=req.trace_id,
            )
            completions = yield from self._submit_blocks_throttled(
                disk_req, is_async=is_async
            )
            yield wait_all(sim, completions)
        finally:
            # A crash interrupt can unwind this frame after crash() has
            # replaced the inflight map; only remove what is still there.
            entries = self._inflight.get(req.file_name)
            if entries is not None and entry in entries:
                entries.remove(entry)
            inflight_ev.succeed()

    def call(self, request: ServerRequest | list[ServerRequest]) -> Generator:
        """Service ``request`` (one range, or a list batch) inside the
        caller's process: ``yield from server.call(request)`` returns where
        the service process of :meth:`handle` or :meth:`handle_list` would
        fire its ``done`` event, True if it served inline, False if it fell
        back to that process and waited for ``done``.

        Inline, the caller's next step belongs on a NORMAL hop where
        ``done`` would fire (:meth:`PfsClient._exchange` starts its reply
        on one), so every other event keeps its ``(time, priority,
        arrival)`` slot.  The spawned process's URGENT ``_Initialize``
        needs no hop: a piece calls this right after its request
        transfer's wire timeout, which has it as its one waiter, so
        nothing can be queued or dispatched in between; any other caller
        yields ``sim.urgent_hop()`` first.  A batch of several ranges
        keeps its process, and so does every request under fault
        tracking (a crash must interrupt in-flight service) and on a
        crashed server (which black-holes it).
        """
        if self._service_procs is None and not self.crashed:
            if type(request) is not list:
                yield from self._serve(request)
                return True
            if len(request) == 1:
                yield from self._serve_list(request, inline=True)
                return True
        if type(request) is list:
            yield self.handle_list(request)
        else:
            yield self.handle(request)
        return False

    def _serve(self, req: ServerRequest):
        """The work of one request: parse CPU, disk/cache I/O, commit
        and accounting.  Ends without yielding after the commit, so the
        caller's completion signal is atomic with it."""
        sim = self.sim
        tr = self._tracer
        if tr is not None:
            # Async span: many server requests overlap on one server track.
            with tr.span(
                "pfs.server",
                track=f"ds{self.server_index}",
                cat="pfs",
                trace=req.trace_id,
                async_=True,
                op=req.op,
                length=req.length,
                file=req.file_name,
            ):
                yield sim.timeout(REQUEST_CPU_S)
                yield from self._perform_io(req)
        else:
            yield sim.timeout(REQUEST_CPU_S)
            yield from self._perform_io(req)
        self._account(req)

    # ------------------------------------------------------------------

    def handle_list(self, reqs: list[ServerRequest]) -> Event:
        """List I/O: many object ranges delivered in ONE request message.

        All pieces hit the block layer together, so the elevator sees the
        whole batch at once -- the mechanism DualPar's CRM and collective
        aggregators rely on for deep, sortable queues.
        """
        return self._start(self._serve_list, reqs, len(reqs), "list")

    def _serve_list(self, reqs: list[ServerRequest], inline: bool = False):
        """The work of one list batch, as :meth:`_serve` for one range."""
        tr = self._tracer
        if tr is not None:
            with tr.span(
                "pfs.server_list",
                track=f"ds{self.server_index}",
                cat="pfs",
                trace=reqs[0].trace_id if reqs else 0,
                async_=True,
                pieces=len(reqs),
                bytes=sum(r.length for r in reqs),
            ):
                yield from self._service_list_body(reqs, inline)
        else:
            yield from self._service_list_body(reqs, inline)
        for r in reqs:
            self._account(r)

    def _service_list_body(self, reqs: list[ServerRequest], inline: bool):
        sim = self.sim
        yield sim.timeout(REQUEST_CPU_S + LIST_PIECE_CPU_S * len(reqs))
        if inline:
            # The one range's piece process, run here.  Its _Initialize
            # needs no hop: the CPU timeout has this process as its one
            # waiter.  Where it would end, an URGENT hop, and where the
            # all_of over it would fire, a NORMAL one queued by that hop.
            yield from self._perform_io(reqs[0])
            yield sim.hop_after(sim.urgent_hop())
            return
        pieces = [
            self._spawn(self._perform_io(req), name=f"ds{self.server_index}-piece")
            for req in reqs
        ]
        yield all_of(sim, pieces)


class LocalityDaemon:
    """Samples per-slot mean seek distance on one data server.

    The paper: "we set up a locality daemon at each data server, which
    tracks disk head seek distance, SeekDist ... and use it as a metric
    for quantifying I/O efficiency".
    """

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        interval_s: float = 1.0,
        name: str = "locality",
    ):
        from repro.obs.sampling import PeriodicSampler

        self.sim = sim
        self.device = device
        self.interval_s = interval_s
        self.name = name
        #: (slot_end_time, mean seek sectors, n requests in slot)
        self.samples: list[tuple[float, float, int]] = []
        self._last_n = 0
        self._last_seek = 0
        if sim.obs is not None:
            sim.obs.registry.view(
                f"locality.{name}.seekdist",
                "timeseries",
                lambda: [[t, mean] for t, mean, _ in self.samples],
            )
        self._sampler = PeriodicSampler(sim, interval_s, self._probe, name=name)
        self._proc = self._sampler._proc

    def _probe(self, now: float) -> None:
        stats = self.device.stats
        dn = stats.n_requests - self._last_n
        dseek = stats.total_seek_sectors - self._last_seek
        mean = (dseek / dn) if dn > 0 else 0.0
        self.samples.append((now, mean, dn))
        self._last_n = stats.n_requests
        self._last_seek = stats.total_seek_sectors

    def recent_seek_dist(self) -> Optional[float]:
        """Average SeekDist over the last ``RECENT_SLOTS`` active slots."""
        active = [(t, m, n) for t, m, n in self.samples[-8 * RECENT_SLOTS :] if n > 0]
        if not active:
            return None
        tail = active[-RECENT_SLOTS:]
        total_req = sum(n for _, _, n in tail)
        if total_req == 0:
            return None
        return sum(m * n for _, m, n in tail) / total_req
