"""MPI derived datatypes, flattened to (offset, length) segment lists.

The ADIO layer ultimately services flattened offset/length lists; these
classes reproduce the datatype algebra the benchmarks use to describe
noncontiguous access (the demo program's "derived Vector datatype",
noncontig's vector of MPI_INT columns, BTIO's nested views).

A datatype has an *extent* (the span one instance covers, including
trailing holes) and a *size* (bytes of actual data).  ``flatten(offset,
count)`` produces the contiguous pieces ``count`` consecutive instances
occupy starting at ``offset``; adjacent pieces are merged.

:class:`FileView` models ``MPI_File_set_view``: a displacement plus a
tiling filetype, mapping a logical (linear) byte range of the view onto
physical file segments -- what ``ADIOI_*_ReadStrided`` actually computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.ops import Segment

__all__ = ["ContigType", "VectorType", "IndexedType", "FileView"]


class Datatype:
    """Base: any type reducible to a template of (offset, length) pieces."""

    #: bytes of real data per instance
    size: int
    #: span of one instance (stride to the next instance)
    extent: int

    def _template(self) -> list[Segment]:
        """Pieces of ONE instance, relative to its origin."""
        raise NotImplementedError

    def flatten(self, offset: int = 0, count: int = 1) -> list[Segment]:
        """Pieces covered by ``count`` instances starting at ``offset``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out: list[Segment] = []
        template = self._template()
        for i in range(count):
            base = offset + i * self.extent
            for seg in template:
                s = Segment(base + seg.offset, seg.length)
                if out and out[-1].end == s.offset:
                    out[-1] = Segment(out[-1].offset, out[-1].length + s.length)
                else:
                    out.append(s)
        return out


@dataclass(frozen=True)
class ContigType(Datatype):
    """``count`` contiguous bytes (MPI_Type_contiguous over bytes)."""

    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.length

    @property
    def extent(self) -> int:  # type: ignore[override]
        return self.length

    def _template(self) -> list[Segment]:
        return [Segment(0, self.length)]


@dataclass(frozen=True)
class VectorType(Datatype):
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` bytes spaced
    ``stride`` bytes apart."""

    count: int
    blocklength: int
    stride: int

    def __post_init__(self) -> None:
        if self.count <= 0 or self.blocklength <= 0:
            raise ValueError("count and blocklength must be positive")
        if self.stride < self.blocklength:
            raise ValueError("stride must be >= blocklength")

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.count * self.blocklength

    @property
    def extent(self) -> int:  # type: ignore[override]
        # MPI extent: from the first byte to the last byte of the last
        # block (no trailing hole), per MPI_Type_vector semantics.
        return (self.count - 1) * self.stride + self.blocklength

    def _template(self) -> list[Segment]:
        return [Segment(i * self.stride, self.blocklength) for i in range(self.count)]


@dataclass(frozen=True)
class IndexedType(Datatype):
    """MPI_Type_indexed: explicit (displacement, blocklength) pairs."""

    blocks: tuple  # of (displacement, blocklength)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        for disp, length in self.blocks:
            if disp < 0 or length <= 0:
                raise ValueError(f"bad block ({disp}, {length})")
        ordered = sorted(self.blocks)
        for (d1, l1), (d2, _l2) in zip(ordered, ordered[1:]):
            if d1 + l1 > d2:
                raise ValueError("blocks overlap")

    @property
    def size(self) -> int:  # type: ignore[override]
        return sum(length for _, length in self.blocks)

    @property
    def extent(self) -> int:  # type: ignore[override]
        return max(d + n for d, n in self.blocks)

    def _template(self) -> list[Segment]:
        return [Segment(d, n) for d, n in sorted(self.blocks)]


@dataclass(frozen=True)
class FileView:
    """MPI_File_set_view(disp, etype=byte, filetype=...).

    The view exposes only the filetype's data bytes, tiled repeatedly
    from ``disp``; :meth:`segments` converts a (logical_offset, length)
    access within the view into physical file segments.
    """

    filetype: Datatype
    disp: int = 0

    def __post_init__(self) -> None:
        if self.disp < 0:
            raise ValueError("displacement must be non-negative")

    def segments(self, logical_offset: int, length: int) -> list[Segment]:
        """Physical file pieces for view bytes [logical_offset, +length)."""
        if logical_offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        out: list[Segment] = []
        tsize = self.filetype.size
        textent = self.filetype.extent
        template = self.filetype._template()
        tile = logical_offset // tsize
        pos_in_tile = logical_offset % tsize
        remaining = length
        while remaining > 0:
            base = self.disp + tile * textent
            consumed = 0
            for seg in template:
                if pos_in_tile >= consumed + seg.length:
                    consumed += seg.length
                    continue
                skip = pos_in_tile - consumed
                take = min(seg.length - skip, remaining)
                s = Segment(base + seg.offset + skip, take)
                if out and out[-1].end == s.offset:
                    out[-1] = Segment(out[-1].offset, out[-1].length + take)
                else:
                    out.append(s)
                remaining -= take
                pos_in_tile += take
                consumed += seg.length
                if remaining == 0:
                    break
            tile += 1
            pos_in_tile = 0
        return out
