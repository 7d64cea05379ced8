"""Striping math: file offsets to per-server object offsets.

PVFS2 ``simple_stripe``: stripe unit ``u``, servers ``0..n-1``; byte range
``[k*u, (k+1)*u)`` of the file lives on server ``k % n`` at object offset
``(k // n) * u + (off % u)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StripeLayout", "StripePiece"]

#: PVFS2's default stripe unit, also DualPar's cache chunk size.
DEFAULT_STRIPE_UNIT = 64 * 1024


@dataclass(frozen=True)
class StripePiece:
    """One contiguous piece of a file request on a single server."""

    server: int
    object_offset: int  # offset within the server's object for this file
    file_offset: int
    length: int


@dataclass(frozen=True)
class StripeLayout:
    n_servers: int
    stripe_unit: int = DEFAULT_STRIPE_UNIT

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if self.stripe_unit < 1:
            raise ValueError("stripe unit must be positive")

    def server_of(self, offset: int) -> int:
        return (offset // self.stripe_unit) % self.n_servers

    def object_offset_of(self, offset: int) -> int:
        stripe = offset // self.stripe_unit
        return (stripe // self.n_servers) * self.stripe_unit + offset % self.stripe_unit

    def object_size(self, file_size: int, server: int) -> int:
        """Bytes of a ``file_size``-byte file stored on ``server``."""
        if file_size <= 0:
            return 0
        full_stripes = file_size // self.stripe_unit
        base = (full_stripes // self.n_servers) * self.stripe_unit
        rem_stripes = full_stripes % self.n_servers
        if server < rem_stripes:
            base += self.stripe_unit
        elif server == rem_stripes:
            base += file_size % self.stripe_unit
        return base

    def split(self, offset: int, length: int) -> list[StripePiece]:
        """Decompose a byte range into per-server pieces.

        Contiguous object ranges on the same server are NOT coalesced --
        each piece is within one stripe unit, matching what the PVFS2
        client actually sends (the server-side block layer does the
        merging).
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        pieces: list[StripePiece] = []
        pos = offset
        remaining = length
        u = self.stripe_unit
        while remaining > 0:
            in_unit = pos % u
            take = min(u - in_unit, remaining)
            pieces.append(
                StripePiece(
                    server=self.server_of(pos),
                    object_offset=self.object_offset_of(pos),
                    file_offset=pos,
                    length=take,
                )
            )
            pos += take
            remaining -= take
        return pieces
