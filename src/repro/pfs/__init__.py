"""PVFS2-like parallel file system.

Files are striped over data servers in fixed units (64 KB by default, the
paper's PVFS2 configuration).  Each data server stores its portion of a
file in a contiguous on-disk extent, preserving the paper's observation
that "there is a good correspondence between file-level addresses and
disk-level addresses".  There is no client-side cache (PVFS2 semantics) --
DualPar's Memcached-backed global cache in :mod:`repro.cache` is the only
client-side buffering in the system.

Components:

- :class:`StripeLayout` -- offset <-> (server, object offset) math.
- :class:`FileSystem` + :class:`PfsFile` -- namespace and per-server
  extent allocation.
- :class:`DataServer` -- receives requests over the network, translates to
  LBNs, and drives its block layer; hosts the locality daemon that feeds
  DualPar's EMC.
- :class:`PfsClient` -- the compute-node side: splits file requests into
  striped server requests.
"""

from repro.pfs.layout import StripePiece, StripeLayout
from repro.pfs.filesystem import ExtentAllocator, FileSystem, PfsFile
from repro.pfs.dataserver import DataServer, LocalityDaemon
from repro.pfs.client import PfsClient

__all__ = [
    "DataServer",
    "ExtentAllocator",
    "FileSystem",
    "LocalityDaemon",
    "PfsClient",
    "PfsFile",
    "StripeLayout",
    "StripePiece",
]
