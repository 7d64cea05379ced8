"""Named I/O strategies: the paper's schemes and their engines.

:data:`STRATEGIES` is the one table of strategy names.  Each entry
carries the description ``repro list-strategies`` prints and the engine
``MpiRuntime.launch`` builds each rank's ADIO engine from; the DualPar
entries build theirs from the run's :class:`~repro.core.system.DualParSystem`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.mpiio.collective import CollectiveEngine
from repro.mpiio.engine import IndependentEngine
from repro.mpiio.prefetch import PreexecPrefetchEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import DualParSystem

__all__ = ["STRATEGIES", "Strategy", "resolve_strategy"]


class Strategy(NamedTuple):
    description: str
    #: The engine factory; None for DualPar, whose engines the run's
    #: DualParSystem builds.
    engine: Optional[Callable] = None


STRATEGIES: dict[str, Strategy] = {
    "vanilla": Strategy("independent synchronous MPI-IO (Strategy 1)", IndependentEngine),
    "collective": Strategy("ROMIO-style two-phase collective I/O", CollectiveEngine),
    "prefetch": Strategy(
        "speculative pre-execution prefetching (Strategy 2)", PreexecPrefetchEngine
    ),
    "dualpar": Strategy("DualPar, mode chosen opportunistically by EMC"),
    # How SV-B runs single-application comparisons: "programs stay in
    # the data-driven mode".
    "dualpar-forced": Strategy("DualPar pinned in data-driven mode"),
}


def resolve_strategy(
    name: str, dualpar_system: Optional["DualParSystem"] = None
) -> Callable:
    """Return an engine factory for ``MpiRuntime.launch``."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; choose from {tuple(STRATEGIES)}")
    engine = STRATEGIES[name].engine
    if engine is not None:
        return engine
    if dualpar_system is None:
        raise ValueError(f"strategy {name!r} needs a DualParSystem")
    return dualpar_system.engine_factory(forced=name == "dualpar-forced")
