"""Named I/O strategies.

Maps the paper's scheme names onto engine factories:

- ``vanilla``        -- vanilla MPI-IO (Strategy 1, the baseline);
- ``collective``     -- ROMIO two-phase collective I/O;
- ``prefetch``       -- Strategy 2: pre-execution prefetching with
  immediate issue, computation sliced away;
- ``dualpar``        -- full DualPar under EMC control (opportunistic);
- ``dualpar-forced`` -- DualPar pinned in data-driven mode (how SV-B
  runs single-application comparisons: "programs stay in the
  data-driven mode").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mpiio.collective import CollectiveEngine
from repro.mpiio.engine import IndependentEngine
from repro.mpiio.prefetch import PreexecPrefetchEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import DualParSystem

__all__ = ["STRATEGY_NAMES", "resolve_strategy"]

STRATEGY_NAMES = ("vanilla", "collective", "prefetch", "dualpar", "dualpar-forced")


def resolve_strategy(
    name: str, dualpar_system: Optional["DualParSystem"] = None
) -> Callable:
    """Return an engine factory for ``MpiRuntime.launch``."""
    if name == "vanilla":
        return IndependentEngine
    if name == "collective":
        return CollectiveEngine
    if name == "prefetch":
        return PreexecPrefetchEngine
    if name in ("dualpar", "dualpar-forced"):
        if dualpar_system is None:
            raise ValueError(f"strategy {name!r} needs a DualParSystem")
        return dualpar_system.engine_factory(forced=name == "dualpar-forced")
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
