"""List I/O: batched multi-range requests, one message per data server.

"We use list I/O to pack small requests and issue them in ascending order
of the requested data's offsets in the files to improve disk efficiency"
(paper SIV-D).  Semantically: the caller provides sorted segments; each
data server receives a single request message naming every piece it owns
and submits them to its block layer together.

The conversation with each server is the client's one request/reply
exchange (:meth:`PfsClient._exchange`) with a header of one descriptor
per run, and the per-server units run through the client's one
fault-aware fan-out (:meth:`PfsClient._fan_out`), as stripe pieces do.
"""

from __future__ import annotations

from typing import Generator

from repro.extents import Segment
from repro.pfs.client import CONTROL_MSG_BYTES, PfsClient
from repro.pfs.dataserver import ServerRequest
from repro.pfs.filesystem import PfsFile

__all__ = ["batch_io", "PER_PIECE_HEADER_BYTES"]

#: Wire bytes describing one (offset, length) piece in a list request.
PER_PIECE_HEADER_BYTES = 16


def batch_io(
    client: PfsClient,
    f: PfsFile,
    segments: list[Segment],
    op: str,
    stream_id: int,
) -> Generator:
    """Issue ``segments`` of file ``f`` as list-I/O; yield until done.

    Pieces are grouped per data server, object-contiguous runs coalesced,
    and each server receives one message.  All servers proceed in
    parallel; for reads the payloads stream back afterwards.
    """
    if op not in ("R", "W"):
        raise ValueError(f"op must be 'R' or 'W', got {op!r}")
    if not segments:
        return
    layout = client.layout
    tracer = client._tracer
    trace_id = tracer.trace_of_stream(stream_id) if tracer is not None else 0
    by_server: dict[int, list] = {}
    total_by_server: dict[int, int] = {}
    for seg in segments:
        if seg.offset < 0 or seg.end > f.size:
            raise ValueError(f"segment {seg} outside file {f.name} of {f.size} bytes")
        for piece in layout.split(seg.offset, seg.length):
            runs = by_server.setdefault(piece.server, [])
            # Coalesce per-server object-contiguous runs across segments.
            if runs and runs[-1].object_offset + runs[-1].length == piece.object_offset:
                runs[-1].length += piece.length
            else:
                runs.append(
                    ServerRequest(
                        file_name=f.name,
                        object_offset=piece.object_offset,
                        length=piece.length,
                        op=op,
                        stream_id=stream_id,
                        trace_id=trace_id,
                    )
                )
            total_by_server[piece.server] = total_by_server.get(piece.server, 0) + piece.length

    units = sorted(by_server.items())
    faults = client.faults
    if faults is not None and op == "W":
        # Ids are stamped once, before any attempt: a timed-out batch is
        # re-sent with the same ids so the server commits each run once.
        for _, reqs in units:
            for req in reqs:
                req.req_id = faults.next_request_id()

    servers = client.servers
    yield client._fan_out(
        [
            (
                s,
                total_by_server[s],
                lambda s=s, reqs=reqs: client._exchange(
                    servers[s],
                    op,
                    CONTROL_MSG_BYTES + PER_PIECE_HEADER_BYTES * len(reqs),
                    total_by_server[s],
                    reqs,
                ),
            )
            for s, reqs in units
        ],
        "listio-s{}",
    )
    total = sum(total_by_server.values())
    if op == "R":
        client.bytes_read += total
    else:
        client.bytes_written += total
