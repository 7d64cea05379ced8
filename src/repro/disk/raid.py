"""RAID array of member drives (the Darwin nodes had 2-drive hardware RAID).

- RAID-0: chunks striped round-robin across members; a request touching
  several members is serviced by them in parallel, completing when the
  slowest member finishes.
- RAID-1: reads go to one member (chosen by chunk for determinism and
  spindle balance); writes go to all members in parallel.

The array exposes the :class:`~repro.disk.drive.BlockDevice` protocol so
the block layer is agnostic to whether it drives a single spindle or an
array.  Array stats aggregate bytes/requests at the array level; per-member
mechanical stats remain on the members.

RAID-1 degradation (driven by the fault injector): a failed member takes
no traffic; reads fail over to the next in-sync mirror; writes fan out to
the surviving members only.  On repair the member returns for *writes*
immediately but stays read-stale until a paced rebuild daemon has copied
it back from a surviving mirror -- rebuild traffic contends with
foreground service on the member spindles, which is precisely the
degraded-mode cost the fault suite measures.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.disk.drive import DiskDrive
from repro.disk.stats import DriveStats, SeekSample
from repro.sim import Process, Simulator, all_of

__all__ = ["RaidArray"]

#: Sectors copied per rebuild step (1 MiB): large enough to stream,
#: small enough that pacing and foreground interleave are visible.
_REBUILD_STEP_SECTORS = 2048


class RaidArray:
    """RAID-0 or RAID-1 over identical member drives."""

    def __init__(
        self,
        sim: Simulator,
        members: Sequence[DiskDrive],
        level: int = 0,
        chunk_sectors: int = 128,
        name: str = "raid0",
    ):
        if not members:
            raise ValueError("RAID needs at least one member drive")
        if level not in (0, 1):
            raise ValueError(f"unsupported RAID level {level}")
        if chunk_sectors <= 0:
            raise ValueError("chunk_sectors must be positive")
        sizes = {m.total_sectors for m in members}
        if len(sizes) > 1:
            raise ValueError("RAID members must be identical in size")
        self.sim = sim
        self.members = list(members)
        self.level = level
        self.chunk_sectors = chunk_sectors
        self.name = name
        self.stats = DriveStats()
        # One service process per member at a time.
        self._member_busy = [False] * len(members)
        # Mirror degradation state (RAID-1 only; all-False nominally).
        self._member_failed = [False] * len(members)
        # Repaired but not yet resynced: takes writes, serves no reads.
        self._member_stale = [False] * len(members)
        # Bumped when a member fails: a rebuild started before then is
        # superseded and must not mark the member in-sync.
        self._member_epoch = [0] * len(members)
        self._n_rebuilding = 0
        self.n_member_failures = 0
        self.n_rebuilds = 0
        self.n_degraded_reads = 0
        self.rebuilt_bytes = 0
        #: When set (tests), every RAID-1 read appends (lbn, member).
        self.read_targets: Optional[list[tuple[int, int]]] = None

    @property
    def total_sectors(self) -> int:
        per = self.members[0].total_sectors
        return per * len(self.members) if self.level == 0 else per

    # ------------------------------------------------------------------

    def _split(self, lbn: int, nsectors: int) -> list[tuple[int, int, int]]:
        """Map an array request to (member, member_lbn, nsectors) pieces.

        Contiguous pieces landing on the same member are coalesced so each
        member sees at most a few large requests, mirroring what a real
        RAID controller issues.
        """
        n_mem = len(self.members)
        if self.level == 1:
            member = self._read_member(lbn)
            return [(member, lbn, nsectors)]
        pieces: dict[int, list[tuple[int, int]]] = {}
        pos = lbn
        remaining = nsectors
        while remaining > 0:
            chunk_idx = pos // self.chunk_sectors
            member = chunk_idx % n_mem
            member_chunk = chunk_idx // n_mem
            offset_in_chunk = pos % self.chunk_sectors
            take = min(self.chunk_sectors - offset_in_chunk, remaining)
            member_lbn = member_chunk * self.chunk_sectors + offset_in_chunk
            runs = pieces.setdefault(member, [])
            if runs and runs[-1][0] + runs[-1][1] == member_lbn:
                runs[-1] = (runs[-1][0], runs[-1][1] + take)
            else:
                runs.append((member_lbn, take))
            pos += take
            remaining -= take
        return [(m, mlbn, n) for m, runs in sorted(pieces.items()) for mlbn, n in runs]

    def _read_member(self, lbn: int) -> int:
        """Preferred mirror for a RAID-1 read, failing over past members
        that are failed or still stale from an unfinished rebuild."""
        n_mem = len(self.members)
        preferred = (lbn // self.chunk_sectors) % n_mem
        for k in range(n_mem):
            m = (preferred + k) % n_mem
            if not self._member_failed[m] and not self._member_stale[m]:
                if k > 0:
                    self.n_degraded_reads += 1
                return m
        raise RuntimeError(f"{self.name}: no in-sync mirror left to read from")

    def _member_service(self, member: int, mlbn: int, n: int, op: str) -> Generator:
        if self._member_busy[member]:
            if self._n_rebuilding == 0:
                # Nominally the block layer serializes per device, so a
                # busy member is a caller bug.
                raise RuntimeError(f"{self.name}: member {member} already busy")
            # Rebuild traffic legitimately contends with foreground
            # service; poll at half-revolution granularity (deterministic,
            # and coarse enough not to flood the schedule).
            while self._member_busy[member]:
                yield self.sim.timeout(self.members[member].params.revolution_s / 2)
        self._member_busy[member] = True
        try:
            yield from self.members[member].service(mlbn, n, op)
        finally:
            self._member_busy[member] = False

    def service(self, lbn: int, nsectors: int, op: str = "R") -> Generator:
        """Serve one array request, fanning out to members in parallel."""
        if lbn + nsectors > self.total_sectors:
            raise ValueError("request beyond array end")
        start = self.sim.now
        if self.level == 1 and op == "W":
            procs = [
                self.sim.process(self._member_service(m, lbn, nsectors, op))
                for m in range(len(self.members))
                if not self._member_failed[m]
            ]
        else:
            pieces = self._split(lbn, nsectors)
            if self.level == 1 and self.read_targets is not None:
                for m, _mlbn, _n in pieces:
                    self.read_targets.append((lbn, m))
            procs = [
                self.sim.process(self._member_service(m, mlbn, n, op))
                for m, mlbn, n in pieces
            ]
        yield all_of(self.sim, procs)
        self.stats.record(
            SeekSample(
                time=start,
                lbn=lbn,
                nsectors=nsectors,
                seek_sectors=0,
                service_time=self.sim.now - start,
                op=op,
            )
        )

    # -- mirror faults (RAID-1) -----------------------------------------

    def fail_member(self, member: int) -> None:
        """Drop one mirror out of the array (fault-injector entry point)."""
        if self.level != 1:
            raise ValueError(f"{self.name}: member faults need RAID-1")
        if self._member_failed[member]:
            raise ValueError(f"{self.name}: member {member} already failed")
        survivors = [
            i
            for i in range(len(self.members))
            if i != member and not self._member_failed[i] and not self._member_stale[i]
        ]
        if not survivors:
            raise ValueError(f"{self.name}: cannot fail the last in-sync mirror")
        self._member_failed[member] = True
        # Whatever happens on the array while it is out, it misses.
        self._member_stale[member] = True
        self._member_epoch[member] += 1
        self.n_member_failures += 1

    def repair_member(
        self,
        member: int,
        rebuild_rate_bytes_s: float = 40e6,
        rebuild_bytes: Optional[int] = None,
    ) -> Process:
        """Return a failed member to service and start its rebuild.

        The member accepts writes immediately (so it does not fall further
        behind) but stays read-stale until the rebuild daemon has copied
        it back from an in-sync mirror.  ``rebuild_rate_bytes_s`` paces
        the copy (md's ``speed_limit_max``); ``rebuild_bytes`` caps the
        resynced region (bitmap-style partial resync), defaulting to the
        whole member.
        """
        if not self._member_failed[member]:
            raise ValueError(f"{self.name}: member {member} is not failed")
        if rebuild_rate_bytes_s <= 0:
            raise ValueError("rebuild_rate_bytes_s must be > 0")
        self._member_failed[member] = False
        self._n_rebuilding += 1
        return self.sim.process(
            self._rebuild(
                member, rebuild_rate_bytes_s, rebuild_bytes, self._member_epoch[member]
            ),
            name=f"{self.name}-rebuild{member}",
            daemon=True,
        )

    def _rebuild_source(self, member: int) -> int:
        for i in range(len(self.members)):
            if i != member and not self._member_failed[i] and not self._member_stale[i]:
                return i
        raise RuntimeError(f"{self.name}: no in-sync mirror to rebuild from")

    def _rebuild(
        self, member: int, rate_bytes_s: float, limit_bytes: Optional[int], epoch: int
    ) -> Generator:
        total = self.members[member].total_sectors
        if limit_bytes is not None:
            total = min(total, -(-int(limit_bytes) // 512))
        pos = 0
        while pos < total and self._member_epoch[member] == epoch:
            n = min(_REBUILD_STEP_SECTORS, total - pos)
            src = self._rebuild_source(member)
            yield from self._member_service(src, pos, n, "R")
            yield from self._member_service(member, pos, n, "W")
            self.rebuilt_bytes += n * 512
            # Pace to the configured rebuild rate on top of the media time.
            yield self.sim.timeout(n * 512 / rate_bytes_s)
            pos += n
        self._n_rebuilding -= 1
        if self._member_epoch[member] != epoch:
            return  # the member failed mid-rebuild; a later repair starts over
        self._member_stale[member] = False
        self.n_rebuilds += 1
