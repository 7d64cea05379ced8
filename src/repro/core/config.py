"""DualPar configuration: every threshold the paper names, one knob each."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DualParConfig"]


@dataclass(frozen=True)
class DualParConfig:
    """Defaults are the paper's prototype values."""

    #: Per-process cache quota ("each process has 1MB quota in the cache").
    quota_bytes: int = 1024 * 1024

    #: aveSeekDist/aveReqDist must exceed this to enter data-driven mode
    #: ("The default T_improvement value is 3 in our prototype").
    t_improvement: float = 3.0

    #: Minimum I/O ratio to enter data-driven mode ("larger than 80% in
    #: our prototype").
    io_ratio_enter: float = 0.80

    #: I/O ratio below which a data-driven program reverts to normal.
    #: (The paper reverts "when the condition no longer holds"; the seek-
    #: distance condition is unobservable once the mode has fixed it, so
    #: the exit test uses the I/O ratio with hysteresis -- see DESIGN.md.)
    io_ratio_exit: float = 0.70

    #: Mis-prefetch ratio above which the mode is disabled ("20% by
    #: default in the prototype").
    misprefetch_threshold: float = 0.20

    #: Holes up to this many bytes between sorted requests are absorbed
    #: (reads: fetched too; writes: read-modify-write).
    hole_threshold_bytes: int = 64 * 1024

    #: Ghost pre-executions are stopped this factor past the expected
    #: cache-fill time.
    deadline_factor: float = 2.0
    deadline_min_s: float = 0.05
    deadline_max_s: float = 10.0

    #: EMC evaluation period.
    emc_interval_s: float = 1.0

    #: Window over which I/O ratio and ReqDist are measured.
    metric_window_s: float = 2.0

    #: Fraction of recorded computation the ghost re-executes (1.0 =
    #: faithful re-execution as DualPar does; 0.0 = slicing away all
    #: computation as Strategy 2 does -- ablation knob).
    ghost_compute_factor: float = 1.0

    #: Pin the mode instead of letting EMC decide (experiment control:
    #: "For execution with DualPar, programs stay in the data-driven
    #: mode" in SV-B).
    force_mode: Optional[str] = None

    #: Engine used while in normal (computation-driven) mode.
    normal_engine: str = "vanilla"  # 'vanilla' | 'collective'

    #: Use list I/O for batched CRM issue (ablation knob).
    use_list_io: bool = True

    def __post_init__(self) -> None:
        if self.quota_bytes < 0:
            raise ValueError("quota_bytes must be non-negative")
        if not 0 <= self.io_ratio_enter <= 1 or not 0 <= self.io_ratio_exit <= 1:
            raise ValueError("I/O ratio thresholds must be in [0, 1]")
        if self.io_ratio_exit > self.io_ratio_enter:
            raise ValueError("exit threshold must not exceed enter threshold")
        if self.t_improvement <= 0:
            raise ValueError("t_improvement must be positive")
        if not 0 <= self.misprefetch_threshold <= 1:
            raise ValueError("misprefetch_threshold must be in [0, 1]")
        if self.hole_threshold_bytes < 0:
            raise ValueError("hole_threshold_bytes must be non-negative")
        # A zero period re-arms the EMC daemon at the same instant forever.
        if self.emc_interval_s <= 0:
            raise ValueError("emc_interval_s must be positive")
        if self.force_mode not in (None, "normal", "datadriven"):
            raise ValueError(f"bad force_mode {self.force_mode!r}")
        if self.normal_engine not in ("vanilla", "collective"):
            raise ValueError(f"bad normal_engine {self.normal_engine!r}")
