"""Chunk math: file byte ranges to cache chunk keys.

Every chunk is indexed by a unique key generated from the file name and
the chunk's address in the file (paper SIV-D).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["ChunkKey", "chunk_range", "DEFAULT_CHUNK_BYTES"]

#: Chunk size = PVFS2 stripe unit, "so that a chunk can be efficiently
#: accessed by touching only one server".
DEFAULT_CHUNK_BYTES = 64 * 1024


class ChunkKey(NamedTuple):
    file_name: str
    index: int


def chunk_range(offset: int, length: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> range:
    """Chunk indices overlapping the byte range [offset, offset+length)."""
    if offset < 0 or length < 0:
        raise ValueError("offset/length must be non-negative")
    if length == 0:
        return range(0, 0)
    first = offset // chunk_bytes
    last = (offset + length - 1) // chunk_bytes
    return range(first, last + 1)
