"""MPI-IO layer (the simulated ROMIO/ADIO stack).

Execution engines interpret a job's I/O operations:

- :class:`IndependentEngine` -- vanilla MPI-IO: each rank issues its
  synchronous requests one at a time (paper's baseline / Strategy 1).
- :class:`CollectiveEngine` -- ROMIO-style two-phase collective I/O with
  aggregators, data sieving within collective buffers, and exchange
  costs (the paper's main comparator).
- :class:`PreexecPrefetchEngine` -- Strategy 2: speculative pre-execution
  that issues prefetch requests immediately as they are generated, aiming
  to hide I/O behind computation (Chen et al. SC'08 style).
- DualPar itself lives in :mod:`repro.core.engine`, built on this layer.

Shared machinery: :mod:`repro.mpiio.listio` (batched per-server
requests); coalescing with hole bridging is :mod:`repro.extents`.
"""

from repro.mpiio.engine import IndependentEngine, IoEngine
from repro.mpiio.collective import CollectiveEngine
from repro.mpiio.prefetch import PreexecPrefetchEngine
from repro.mpiio.listio import batch_io

__all__ = [
    "CollectiveEngine",
    "IndependentEngine",
    "IoEngine",
    "PreexecPrefetchEngine",
    "batch_io",
]
