"""The paper's benchmark programs as access-pattern generators.

Each workload reproduces the published access pattern of the benchmark it
stands in for (sizes are scaled down configurably -- the simulation's
event count, not the pattern, limits scale; DESIGN.md documents scaling):

- :class:`MpiIoTest` -- PVFS2's ``mpi-io-test``: globally sequential
  16 KB segments interleaved across ranks, frequent barriers.
- :class:`Hpio` -- Northwestern/Sandia ``hpio``: regioned access with
  configurable count/spacing/size.
- :class:`IorMpiIo` -- LLNL ``ior-mpi-io``: each rank streams its own
  1/P of the file; random across ranks, sequential within.
- :class:`Noncontig` -- ANL ``noncontig``: column access of a 2D array
  with a vector datatype; collective or independent.
- :class:`S3asim` -- sequence-similarity search: fragmented DB reads,
  result writes, query-count driven.
- :class:`Btio` -- NAS BT-IO: tiny per-rank cells whose size shrinks with
  process count, written per timestep (collective or independent).
- :class:`Demo` -- the motivating synthetic program of Section II.
- :class:`DependentReads` -- the Table-III adversary whose addresses
  depend on previously read data (every prefetch is wrong).
- :class:`SyntheticPattern` -- building block for tests/examples.

:data:`WORKLOADS` names the ones a run can ask for by name (the CLI, the
experiment service's submissions) and :func:`build_workload` builds one
scaled to a size, direction and process count.
"""

from typing import Callable

from repro.workloads.base import FileSpec, Workload, normalize_op
from repro.workloads.btio import Btio
from repro.workloads.demo import Demo
from repro.workloads.dependent import DependentReads
from repro.workloads.hpio import Hpio
from repro.workloads.ior import IorMpiIo
from repro.workloads.mpi_io_test import MpiIoTest
from repro.workloads.noncontig import Noncontig
from repro.workloads.s3asim import S3asim
from repro.workloads.synthetic import SyntheticPattern

__all__ = [
    "WORKLOADS",
    "Btio",
    "Demo",
    "DependentReads",
    "FileSpec",
    "Hpio",
    "IorMpiIo",
    "MpiIoTest",
    "Noncontig",
    "S3asim",
    "SyntheticPattern",
    "Workload",
    "build_workload",
    "normalize_op",
]


def _mb(n: float) -> int:
    return int(n * 1024 * 1024)


#: name -> (description, builder(size_mb, op, nprocs) -> Workload)
WORKLOADS: dict[str, tuple[str, Callable[[int, str, int], Workload]]] = {
    "mpi-io-test": (
        "globally sequential 16 KB segments, frequent barriers (PVFS2 suite)",
        lambda size_mb, op, nprocs: MpiIoTest(file_size=_mb(size_mb), op=op),
    ),
    "hpio": (
        "regioned access, 32 KB regions (Northwestern/Sandia)",
        lambda size_mb, op, nprocs: Hpio(
            region_count=max(_mb(size_mb) // (32 * 1024), 1),
            region_bytes=32 * 1024,
            op=op,
        ),
    ),
    "ior-mpi-io": (
        "each rank streams its own 1/P of the file (ASCI Purple)",
        lambda size_mb, op, nprocs: IorMpiIo(file_size=_mb(size_mb), op=op),
    ),
    "noncontig": (
        "column access of a 2D array via vector datatype (ANL)",
        lambda size_mb, op, nprocs: Noncontig(
            elmtcount=256,
            n_rows=max(_mb(size_mb) // (64 * 1024), 64),
            op=op,
        ).with_ncols_hint(max(nprocs, 64)),
    ),
    "s3asim": (
        "fragmented sequence-database search, mixed read/write",
        lambda size_mb, op, nprocs: S3asim(db_bytes=_mb(size_mb)),
    ),
    "btio": (
        "NAS BT-IO checkpointing; request size shrinks with process count",
        lambda size_mb, op, nprocs: Btio(
            total_bytes=_mb(size_mb), n_steps=2, cell_scale=16384, op="W"
        ),
    ),
    "demo": (
        "the paper's Section-II motivating synthetic (16-segment vector reads)",
        lambda size_mb, op, nprocs: Demo(file_size=_mb(size_mb), nprocs_hint=nprocs),
    ),
    "dependent": (
        "Table-III adversary: addresses depend on previously read data",
        lambda size_mb, op, nprocs: DependentReads(file_size=_mb(size_mb)),
    ),
    "random": (
        "seeded random 16 KB blocks per rank (synthetic)",
        lambda size_mb, op, nprocs: SyntheticPattern(
            file_size=_mb(size_mb), pattern="random", op=op
        ),
    ),
}


def build_workload(name: str, size_mb: int, op: str, nprocs: int) -> Workload:
    """Construct a named workload scaled to size_mb/op/nprocs."""

    try:
        _, builder = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; see `python -m repro list-workloads`"
        ) from None
    return builder(size_mb, op, nprocs)
