"""Namespace and on-disk extent allocation.

Each file's per-server object occupies one contiguous LBN extent on that
server's disk.  The allocator can place extents two ways:

``spread`` (default)
    Files rotate across allocation groups spanning the whole disk, as
    general-purpose filesystems do.  Two concurrently-accessed files are
    then typically far apart, producing the long inter-file seeks of
    Fig 6.
``packed``
    Extents allocated back-to-back (plus a configurable gap) from the
    start of the disk -- useful for controlled unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.disk.geometry import SECTOR_BYTES
from repro.pfs.layout import StripeLayout

__all__ = ["ExtentAllocator", "FileSystem", "PfsFile"]


@dataclass(frozen=True)
class Extent:
    """A contiguous sector run on one server's disk."""

    start_lbn: int
    n_sectors: int


class ExtentAllocator:
    """Allocates per-file extents on one server's disk."""

    def __init__(
        self,
        total_sectors: int,
        placement: str = "spread",
        n_groups: int = 16,
        gap_sectors: int = 2048,
    ):
        if placement not in ("spread", "packed"):
            raise ValueError(f"unknown placement {placement!r}")
        self.total_sectors = total_sectors
        self.placement = placement
        self.n_groups = n_groups
        self.gap_sectors = gap_sectors
        self._next_group = 0
        self._group_cursor = [
            (total_sectors // n_groups) * g for g in range(n_groups)
        ]
        self._packed_cursor = 0

    def allocate(self, n_sectors: int) -> Extent:
        if n_sectors <= 0:
            n_sectors = 1
        if self.placement == "packed":
            start = self._packed_cursor
            if start + n_sectors > self.total_sectors:
                raise RuntimeError("server disk full (packed)")
            self._packed_cursor = start + n_sectors + self.gap_sectors
            return Extent(start, n_sectors)
        # spread: round-robin across allocation groups
        for _ in range(self.n_groups):
            g = self._next_group
            self._next_group = (self._next_group + 1) % self.n_groups
            start = self._group_cursor[g]
            limit = (
                self.total_sectors
                if g == self.n_groups - 1
                else (self.total_sectors // self.n_groups) * (g + 1)
            )
            if start + n_sectors <= limit:
                self._group_cursor[g] = start + n_sectors + self.gap_sectors
                return Extent(start, n_sectors)
        raise RuntimeError("server disk full (spread)")


@dataclass
class PfsFile:
    """A striped file: layout plus one extent per data server."""

    name: str
    size: int
    layout: StripeLayout
    extents: dict[int, Extent] = field(default_factory=dict)

    def lbn_of(self, server: int, object_offset: int) -> int:
        """Disk LBN of a byte offset within this file's object on ``server``."""
        ext = self.extents[server]
        sector = object_offset // SECTOR_BYTES
        if sector >= ext.n_sectors:
            raise ValueError(
                f"object offset {object_offset} beyond extent of {self.name} on server {server}"
            )
        return ext.start_lbn + sector


class FileSystem:
    """The PVFS2 namespace: file creation and lookup.

    One instance is shared by every client and data server (the data
    servers consult extents directly, modelling their local Berkeley-DB
    object maps); lookups are not charged simulated time (DESIGN.md).
    """

    def __init__(self, layout: StripeLayout, allocators: list[ExtentAllocator]):
        if len(allocators) != layout.n_servers:
            raise ValueError("need one allocator per data server")
        self.layout = layout
        self.allocators = allocators
        self.files: dict[str, PfsFile] = {}

    def create(self, name: str, size: int) -> PfsFile:
        if name in self.files:
            raise FileExistsError(name)
        if size <= 0:
            raise ValueError("file size must be positive")
        f = PfsFile(name=name, size=size, layout=self.layout)
        for server in range(self.layout.n_servers):
            obj_bytes = self.layout.object_size(size, server)
            n_sectors = max(-(-obj_bytes // SECTOR_BYTES), 1)
            f.extents[server] = self.allocators[server].allocate(n_sectors)
        self.files[name] = f
        return f

    def lookup(self, name: str) -> PfsFile:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def exists(self, name: str) -> bool:
        return name in self.files
