"""Per-process cache quotas (1 MB per process by default, paper SV)."""

from __future__ import annotations

__all__ = ["QuotaTracker"]

DEFAULT_QUOTA_BYTES = 1024 * 1024


class QuotaTracker:
    """Tracks one process's dirty write bytes in the cache within a cycle;
    a full quota blocks the process until the next cycle writes back."""

    def __init__(self, quota_bytes: int = DEFAULT_QUOTA_BYTES):
        if quota_bytes < 0:
            raise ValueError("quota must be non-negative")
        self.quota_bytes = quota_bytes
        self.dirty_bytes = 0

    @property
    def full(self) -> bool:
        return self.dirty_bytes >= self.quota_bytes

    def add_dirty(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.dirty_bytes += nbytes

    def reset_dirty(self) -> None:
        self.dirty_bytes = 0
