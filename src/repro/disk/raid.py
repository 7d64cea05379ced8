"""Alias kept for the benchmark tracer: one drive stands for the RAID-1 pair.

The paper's data servers were 2-disk RAID-1 pairs; the simulation models
each server as a single :class:`~repro.disk.drive.DiskDrive` (DESIGN.md,
substitution table).  ``benchmarks/suite/layers.py`` still names
``repro.disk.raid:RaidArray.service`` in its boundary table and imports
every module listed there, so this module survives only until that entry
is dropped (ROADMAP item 3); then it is deleted.  Nothing in ``repro``
imports it.
"""

from repro.disk.drive import DiskDrive

__all__ = ["RaidArray"]

RaidArray = DiskDrive
