"""Mechanical hard-disk model.

The paper's entire effect rests on one hardware property: a 7200-RPM disk
serves sequential requests more than an order of magnitude faster than
random ones, and the ratio is governed by *where* the head must move between
consecutively-serviced requests.  This package models exactly that:

- :class:`DiskGeometry` -- maps logical block numbers (LBNs, 512-byte
  sectors) to cylinders and rotational positions.
- :class:`SeekModel` -- seek time as a function of cylinder distance,
  calibrated by (track-to-track, average, full-stroke) times.
- :class:`DiskDrive` -- serves one request at a time: seek + rotational
  latency + media transfer; tracks head position and per-request seek
  distance in sectors (the paper's ``SeekDist`` metric).
- :class:`DriveStats` -- seek-distance and utilisation accounting used by
  DualPar's data-server locality daemon.
"""

from repro.disk.drive import BlockDevice, DiskDrive, DiskParams
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.disk.stats import DriveStats

__all__ = [
    "BlockDevice",
    "DiskDrive",
    "DiskGeometry",
    "DiskParams",
    "DriveStats",
    "SeekModel",
]
