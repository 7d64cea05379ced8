"""Kernel block layer: request queueing, merging, and I/O scheduling.

The paper's observation is that the *kernel* disk scheduler (CFQ on the
Darwin data servers) can only create an efficient service order out of the
requests it can actually see queued -- and synchronous MPI-IO trickles
requests in one or two at a time, defeating it.  This package reproduces
that machinery:

- :class:`BlockRequest` / :class:`IoUnit` -- submitted requests and the
  (possibly merged) units the disk actually services.
- :class:`BlockLayer` -- the dispatch loop: accepts submissions, lets the
  elected scheduler merge/sort/batch them, and feeds the
  :class:`~repro.disk.drive.BlockDevice` one unit at a time.
- Schedulers: :class:`NoopScheduler`, :class:`DeadlineScheduler`,
  :class:`CfqScheduler` (the default, as on the paper's servers), and
  :class:`AnticipatoryScheduler`.
"""

from types import MappingProxyType
from typing import Mapping

from repro.iosched.base import Decision, IoScheduler
from repro.iosched.blocklayer import BlockLayer, BlockLayerStats
from repro.iosched.cfq import CfqScheduler
from repro.iosched.deadline import DeadlineScheduler
from repro.iosched.anticipatory import AnticipatoryScheduler
from repro.iosched.noop import NoopScheduler
from repro.iosched.request import BlockRequest, IoUnit

__all__ = [
    "AnticipatoryScheduler",
    "BlockLayer",
    "BlockLayerStats",
    "BlockRequest",
    "CfqScheduler",
    "Decision",
    "DeadlineScheduler",
    "IoScheduler",
    "IoUnit",
    "NoopScheduler",
]

SCHEDULERS: Mapping[str, type[IoScheduler]] = MappingProxyType(
    {
        "noop": NoopScheduler,
        "deadline": DeadlineScheduler,
        "cfq": CfqScheduler,
        "anticipatory": AnticipatoryScheduler,
    }
)


def make_scheduler(name: str) -> IoScheduler:
    """Instantiate a scheduler by its Linux elevator name."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}") from None
    return cls()
