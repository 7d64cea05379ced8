"""Disk geometry: LBN to cylinder / rotational-position mapping.

The model is fixed-geometry: every track holds the same number of
sectors.  None of the paper's effects depend on zoning, and a fixed
geometry keeps the model analytically checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DiskGeometry", "SECTOR_BYTES"]

#: Bytes per sector, the unit LBNs address.
SECTOR_BYTES = 512


@dataclass(frozen=True)
class DiskGeometry:
    """Fixed disk geometry.

    Parameters
    ----------
    total_sectors:
        Capacity of the drive in 512-byte sectors.
    sectors_per_track:
        Sectors per revolution.
    heads:
        Tracks per cylinder (number of platter surfaces).
    """

    total_sectors: int
    sectors_per_track: int = 1200
    heads: int = 4
    sectors_per_cylinder: int = field(init=False)
    n_cylinders: int = field(init=False)

    def __post_init__(self) -> None:
        if self.total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if self.sectors_per_track <= 0 or self.heads <= 0:
            raise ValueError("sectors_per_track and heads must be positive")
        spc = self.sectors_per_track * self.heads
        object.__setattr__(self, "sectors_per_cylinder", spc)
        object.__setattr__(self, "n_cylinders", -(-self.total_sectors // spc))

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        sectors_per_track: int = 1200,
        heads: int = 4,
    ) -> "DiskGeometry":
        """Build a geometry holding at least ``capacity_bytes``."""
        return cls(
            total_sectors=-(-capacity_bytes // SECTOR_BYTES),
            sectors_per_track=sectors_per_track,
            heads=heads,
        )

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * SECTOR_BYTES

    def cylinder_of(self, lbn: int) -> int:
        """Cylinder containing ``lbn``."""
        self._check(lbn)
        return lbn // self.sectors_per_cylinder

    def angle_of(self, lbn: int) -> float:
        """Rotational position of ``lbn`` on its track, in [0, 1)."""
        self._check(lbn)
        return (lbn % self.sectors_per_track) / self.sectors_per_track

    def _check(self, lbn: int) -> None:
        if not 0 <= lbn < self.total_sectors:
            raise ValueError(f"LBN {lbn} outside disk [0, {self.total_sectors})")
