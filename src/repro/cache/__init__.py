"""Memcached-like distributed client-side cache.

DualPar gives every process of a data-driven program a cache quota (1 MB
by default); the caches of all processes form one global, chunked,
key-value store managed across compute nodes (the paper uses Memcached
v1.4.7).  A file is partitioned into chunks equal to the PVFS2 stripe unit
(64 KB) so a chunk touches exactly one data server; chunks are placed on
compute nodes round-robin.

- :class:`GlobalCache` -- chunk get/put, batched by chunk run, with
  network-costed access, time-tag eviction, dirty tracking for
  writeback, and per-cycle used/unused accounting (the mis-prefetch
  ratio input to EMC).
- :class:`QuotaTracker` -- per-process byte quotas.
"""

from repro.cache.chunk import ChunkKey, chunk_range
from repro.cache.memcache import CachedChunk, GlobalCache
from repro.cache.quota import QuotaTracker

__all__ = [
    "CachedChunk",
    "ChunkKey",
    "GlobalCache",
    "QuotaTracker",
    "chunk_range",
]
