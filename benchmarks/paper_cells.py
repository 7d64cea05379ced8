"""The paper's cells: one row per cell of every figure, table and ablation.

Each row names the paper artifact it belongs to, its pattern
(``<figure>/<workload>/<op>``), its strategy and op, and builds the
row's :class:`~repro.ExperimentSpec` at two scales:

- ``bench``: what ``benchmarks/bench_*.py`` run to regenerate the
  artifact (``make bench``);
- ``smoke``: 8 ranks per job on ``paper_spec(n_compute_nodes=4)`` and a
  few MB, whose seed-0 digests ``cell_digests.py`` pins in the
  ``figures`` section of ``results/cells.digests.json``.

A row's key is ``<pattern>/<strategy>`` (``fig3/noncontig/R/dualpar-forced``).
Rows that name a target I/O ratio (Fig 1(a)/(b), Table I) calibrate
their demo program's inter-call compute at each scale, as the paper
tunes it.  A cell several artifacts read is one row: the overall
average reads Fig 3's rows, Fig 1(a) and (b) share their 4 KB / 90 %
cells, and Fig 6 traces Table II's read rows.  Disk traces are recorded
at bench scale only (a trace observes the disks and changes no result).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from repro import (
    Btio,
    Demo,
    DependentReads,
    DualParConfig,
    ExperimentSpec,
    Hpio,
    IorMpiIo,
    JobSpec,
    MpiIoTest,
    Noncontig,
    S3asim,
    SyntheticPattern,
    calibrate_compute_for_ratio,
    run_experiments,
)
from repro.cluster import ClusterSpec, paper_spec
from repro.runner import run_spec

KB = 1024
MB = 1024 * KB

#: Vanilla MPI-IO, collective I/O and DualPar pinned data-driven (Figs 3-5,
#: Table II).
SCHEMES = ("vanilla", "collective", "dualpar-forced")
#: Table I's strategies 1-3: computation-driven, pre-execution
#: prefetching, data-driven.
STRATEGIES = ("vanilla", "prefetch", "dualpar-forced")
FIG1_RATIOS = (0.2, 0.43, 0.72, 0.9, 1.0)  # Fig 1(a), 4 KB segments
FIG1_SEGMENTS_KB = (4, 8, 16, 32, 64, 128)  # Fig 1(b), I/O ratio 0.9
FIG3_WORKLOADS = ("mpi-io-test", "noncontig", "ior-mpi-io")
FIG4_NPROCS = (16, 64, 256)
FIG5_QUERIES = (16, 24, 32)
#: Fig 7: hpio joins this many simulated seconds in; throughput window.
FIG7_JOIN_AT_S = 1.5
FIG7_WINDOW_S = 0.5
FIG8_QUOTAS_KB = (0, 64, 128, 256, 512, 1024)
TABLE3_QUOTAS_KB = (512, 1024, 2048, 4096)
IO_SCHEDULERS = ("cfq", "deadline", "noop", "anticipatory")
T_IMPROVEMENTS = (1.0, 3.0, 10.0, 30.0)


@dataclass(frozen=True)
class Row:
    """One paper cell: a pattern under one strategy."""

    artifact: str
    pattern: str
    strategy: str
    #: ``make(strategy, smoke, compute_per_call)`` -> the row's spec at
    #: one scale.
    make: Callable[[str, bool, float], ExperimentSpec]
    #: Target I/O ratio the demo's compute is calibrated to (or None).
    ratio: Optional[float] = None

    @property
    def key(self) -> str:
        return f"{self.pattern}/{self.strategy}"

    @property
    def op(self) -> str:
        return self.pattern.rsplit("/", 1)[1]


def fig1_pattern(segment_kb: int, ratio: float) -> str:
    return f"fig1/demo-{segment_kb}KB-io{round(ratio * 100)}/R"


def table3_pattern(quota_kb: int) -> str:
    """Table III's dependent reads under a DualPar cache of ``quota_kb``;
    the default cache (1 MB), which the lockout run uses, is the plain
    pattern."""
    if quota_kb * KB == DualParConfig().quota_bytes:
        return "table3/dependent/R"
    return f"table3/dependent-{quota_kb}KB/R"


def _cluster(smoke: bool, nodes: int = 32, traced: bool = False, **kw) -> ClusterSpec:
    return paper_spec(n_compute_nodes=4 if smoke else nodes,
                      trace_disks=traced and not smoke, **kw)


def _one(name, nprocs, workload, strategy, cluster, **kw) -> ExperimentSpec:
    return ExperimentSpec((JobSpec(name, nprocs, workload, strategy=strategy),),
                          cluster_spec=cluster, **kw)


def _demo(segment_kb, traced, strategy, smoke, compute):
    seg = segment_kb * KB
    # Two calls per rank at least, so a 128 KB smoke row still does I/O.
    size = max(2 * MB, 2 * 16 * 8 * seg) if smoke else 48 * MB
    demo = Demo(file_size=size, segment_bytes=seg, segments_per_call=16,
                compute_per_call=compute, nprocs_hint=8)
    return _one("demo", 8, demo, strategy, _cluster(smoke, 8, traced))


def _fig1cd(strategy, smoke, _compute):
    # Fully I/O bound at bench scale; the smoke row computes between calls
    # so that the prefetches have time to land and be hit.
    return _demo(4, True, strategy, smoke, 0.002 if smoke else 0.0)


def _fig3(name, op, strategy, smoke, _compute):
    if name == "mpi-io-test":
        workload = MpiIoTest(file_size=(2 if smoke else 64) * MB, op=op)
    elif name == "noncontig":
        workload = Noncontig(elmtcount=256, n_rows=64 if smoke else 4096, op=op)
    else:
        workload = IorMpiIo(file_size=(2 if smoke else 128) * MB, op=op)
    return _one(name, 8 if smoke else 64, workload, strategy, _cluster(smoke))


def _fig4(nprocs, strategy, smoke, _compute):
    btio = [
        JobSpec(
            f"btio{i}",
            math.isqrt(nprocs) if smoke else nprocs,  # 4, 8 and 16 smoke ranks
            Btio(file_name=f"btio{i}.dat", total_bytes=MB // 4 if smoke else 6 * MB,
                 n_steps=2, cell_scale=16384, op="W", compute_per_step=0.002,
                 segments_per_call=64),
            strategy=strategy,
        )
        for i in range(3)
    ]
    return ExperimentSpec(tuple(btio), cluster_spec=_cluster(smoke))


def _fig5(n_queries, strategy, smoke, _compute):
    s3asim = [
        JobSpec(
            f"s3asim{i}",
            8 if smoke else 32,
            S3asim(db_file=f"s3adb{i}.dat", out_file=f"s3aout{i}.dat", n_fragments=16,
                   n_queries=n_queries // 4 if smoke else n_queries,
                   db_bytes=(4 if smoke else 48) * MB, min_seq_bytes=64 * KB,
                   max_seq_bytes=384 * KB, result_bytes=32 * KB,
                   compute_per_query=0.002, out_region_bytes=2 * MB, seed=11 + i),
            strategy=strategy,
        )
        for i in range(3)
    ]
    return ExperimentSpec(tuple(s3asim), cluster_spec=_cluster(smoke))


def _table2(op, strategy, smoke, _compute):
    miot = [
        JobSpec(
            f"mpi-io-test-{i}",
            8 if smoke else 32,
            MpiIoTest(file_name=f"miot{i}.dat", file_size=(2 if smoke else 96) * MB,
                      request_bytes=16 * KB, op=op, barrier_every=4),
            strategy=strategy,
        )
        for i in range(2)
    ]
    return ExperimentSpec(tuple(miot), cluster_spec=_cluster(smoke, traced=True))


def _fig7(strategy, smoke, _compute):
    ranks = 8 if smoke else 32
    jobs = (
        JobSpec("mpi-io-test", ranks,
                MpiIoTest(file_name="a.dat", file_size=(16 if smoke else 384) * MB,
                          barrier_every=0),
                strategy=strategy),
        JobSpec("hpio", ranks,
                Hpio(file_name="b.dat", region_count=512 if smoke else 8192,
                     region_bytes=16 * KB),
                strategy=strategy, delay_s=FIG7_JOIN_AT_S),
    )
    return ExperimentSpec(
        jobs,
        cluster_spec=_cluster(smoke, 16, traced=True, locality_interval_s=0.25),
        dualpar_config=DualParConfig(emc_interval_s=0.25, metric_window_s=1.0),
        timeline_window_s=FIG7_WINDOW_S,
    )


def _fig8(quota_kb, strategy, smoke, _compute):
    btio = Btio(total_bytes=(1 if smoke else 8) * MB, n_steps=2, cell_scale=16384,
                op="W", compute_per_step=0.002, segments_per_call=64)
    config = None if quota_kb is None else DualParConfig(quota_bytes=quota_kb * KB)
    return _one("btio", 8 if smoke else 64, btio, strategy, _cluster(smoke),
                dualpar_config=config)


def _table3(quota_kb, strategy, smoke, _compute):
    config = None
    if quota_kb is not None:
        # The adversary: entry pinned open, so every wrong prediction costs
        # DualPar a wasted prefetch cycle before the EMC locks the mode out.
        config = DualParConfig(io_ratio_enter=0.0, io_ratio_exit=0.0, t_improvement=1e-9,
                               emc_interval_s=0.1, quota_bytes=quota_kb * KB)
    dependent = DependentReads(file_size=(64 if smoke else 96) * MB, request_bytes=64 * KB)
    # The smoke digest was pinned with the job named after the pattern.
    return _one("dependent" if smoke else "dep", 8 if smoke else 16, dependent, strategy,
                _cluster(smoke, 16), dualpar_config=config)


def _io_scheduler(elevator, strategy, smoke, _compute):
    # 8 MB at smoke scale, where the deadline and noop elevators part.
    workload = MpiIoTest(file_size=(8 if smoke else 48) * MB, barrier_every=4)
    return _one("m", 8 if smoke else 32, workload, strategy,
                _cluster(smoke, io_scheduler=elevator))


def _t_improvement(t_improvement, strategy, smoke, _compute):
    ranks = 8 if smoke else 32
    jobs = (
        JobSpec("seq", ranks,
                MpiIoTest(file_name="a.dat", file_size=(16 if smoke else 192) * MB,
                          barrier_every=0),
                strategy=strategy),
        JobSpec("hpio", ranks,
                Hpio(file_name="b.dat", region_count=512 if smoke else 4096,
                     region_bytes=16 * KB),
                strategy=strategy, delay_s=1.0),
    )
    config = DualParConfig(emc_interval_s=0.25, metric_window_s=1.0,
                           t_improvement=t_improvement)
    return ExperimentSpec(jobs, cluster_spec=_cluster(smoke, 16, locality_interval_s=0.25),
                          dualpar_config=config)


def _hole_filling(fill, strategy, smoke, _compute):
    # Regions spaced so that whole cache chunks fall in the holes (holes
    # smaller than a chunk are bridged by chunk alignment regardless).
    hpio = Hpio(region_count=128 if smoke else 1536, region_bytes=16 * KB,
                region_spacing=112 * KB)
    config = DualParConfig(hole_threshold_bytes=128 * KB if fill else 0)
    return _one("h", 8 if smoke else 32, hpio, strategy, _cluster(smoke),
                dualpar_config=config)


def _list_io(use, strategy, smoke, _compute):
    # A random access order scatters the CRM's per-cycle chunk set.
    random = SyntheticPattern(file_size=(2 if smoke else 64) * MB, request_bytes=16 * KB,
                              pattern="random")
    config = DualParConfig(use_list_io=use, hole_threshold_bytes=0)
    return _one("r", 8 if smoke else 32, random, strategy, _cluster(smoke),
                dualpar_config=config)


def _server_cache(writeback, strategy, smoke, _compute):
    # A small dirty cap emulates sustained writes that cannot hide in
    # server RAM.
    cluster = _cluster(smoke, server_writeback_interval_s=1.0 if writeback else None,
                       server_writeback_max_dirty=256 * KB if smoke else 2 * MB)
    pattern = "server-writeback" if writeback else "server-writethrough"
    workload = MpiIoTest(file_size=(4 if smoke else 48) * MB, op="W", barrier_every=4)
    # The smoke digest was pinned with the job named after the pattern.
    return _one(pattern if smoke else "w", 8 if smoke else 32, workload, strategy, cluster)


def _ghost_compute(factor, strategy, smoke, _compute):
    demo = Demo(file_size=(2 if smoke else 24) * MB, segment_bytes=4096,
                compute_per_call=0.002, nprocs_hint=8)
    return _one("d", 8, demo, strategy, _cluster(smoke, 8),
                dualpar_config=DualParConfig(ghost_compute_factor=factor))


def _rows() -> Iterable[Row]:
    demo = {(4, r) for r in FIG1_RATIOS} | {(kb, 0.9) for kb in FIG1_SEGMENTS_KB}
    for kb, ratio in sorted(demo):
        for s in STRATEGIES:
            yield Row("Fig 1", fig1_pattern(kb, ratio), s, partial(_demo, kb, False), ratio)
    for s in ("prefetch", "dualpar-forced"):
        yield Row("Fig 1", "fig1/demo/R", s, _fig1cd)
    for s in STRATEGIES:
        yield Row("Table I", "table1/demo-4KB-io30/R", s, partial(_demo, 4, True), 0.3)
    for op in "RW":
        for name in FIG3_WORKLOADS:
            for s in SCHEMES:
                yield Row("Fig 3", f"fig3/{name}/{op}", s, partial(_fig3, name, op))
    for p in FIG4_NPROCS:
        for s in SCHEMES:
            yield Row("Fig 4", f"fig4/btio-P{p}/W", s, partial(_fig4, p))
    for q in FIG5_QUERIES:
        for s in SCHEMES:
            yield Row("Fig 5", f"fig5/s3asim-q{q}/RW", s, partial(_fig5, q))
    for op in "RW":
        for s in SCHEMES:
            yield Row("Table II", f"table2/mpi-io-test-x2/{op}", s, partial(_table2, op))
    for s in ("vanilla", "dualpar"):
        yield Row("Fig 7", "fig7/adaptive/R", s, _fig7)
    for kb in FIG8_QUOTAS_KB:
        yield Row("Fig 8", f"fig8/btio-{kb}KB/W", "dualpar-forced", partial(_fig8, kb))
    yield Row("Fig 8", "fig8/btio/W", "vanilla", partial(_fig8, None))
    yield Row("Table III", "table3/dependent/R", "vanilla", partial(_table3, None))
    for kb in TABLE3_QUOTAS_KB:
        yield Row("Table III", table3_pattern(kb), "dualpar", partial(_table3, kb))
    for elevator in IO_SCHEDULERS:
        for s in ("vanilla", "dualpar-forced"):
            yield Row("Ablations", f"ablation/io-scheduler-{elevator}/R", s,
                      partial(_io_scheduler, elevator))
    for t in T_IMPROVEMENTS:
        yield Row("Ablations", f"ablation/t-improvement-T{t:g}/R", "dualpar",
                  partial(_t_improvement, t))
    for ablation, maker in (("hole-filling", _hole_filling), ("list-io", _list_io)):
        for on in (True, False):
            yield Row("Ablations", f"ablation/{ablation}-{'on' if on else 'off'}/R",
                      "dualpar-forced", partial(maker, on))
    for writeback in (False, True):
        for s in ("vanilla", "dualpar-forced"):
            cache = "writeback" if writeback else "writethrough"
            yield Row("Ablations", f"ablation/server-{cache}/W", s,
                      partial(_server_cache, writeback))
    for factor in (1.0, 0.0):
        yield Row("Ablations", f"ablation/ghost-compute-{round(factor * 100)}/R",
                  "dualpar-forced", partial(_ghost_compute, factor))


ROWS: list[Row] = list(_rows())
BY_KEY: dict[str, Row] = {row.key: row for row in ROWS}

#: (pattern, smoke) -> calibrated compute seconds per call.
_calibrated: dict[tuple[str, bool], float] = {}


def _compute_per_call(row: Row, smoke: bool) -> float:
    if row.ratio is None or row.ratio >= 1.0:
        return 0.0
    if (row.pattern, smoke) not in _calibrated:
        probe = row.make(row.strategy, smoke, 0.0)
        _calibrated[row.pattern, smoke] = calibrate_compute_for_ratio(
            lambda compute: row.make(row.strategy, smoke, compute).specs[0].workload,
            row.ratio,
            probe.specs[0].nprocs,
            cluster_spec=probe.cluster_spec,
        )
    return _calibrated[row.pattern, smoke]


def spec(key: str, smoke: bool = False) -> ExperimentSpec:
    """The spec of row ``key`` at bench or smoke scale, its I/O ratio
    calibrated."""
    row = BY_KEY[key]
    made = row.make(row.strategy, smoke, _compute_per_call(row, smoke))
    return dataclasses.replace(made, label=key)


def run(keys: Iterable[str]) -> dict:
    """``{key: catalogued result}`` of bench-scale rows, from one
    ``run_experiments`` call (fanned out, and served from the result
    catalog when already there)."""
    keys = list(keys)
    return dict(zip(keys, run_experiments([spec(k) for k in keys])))


def run_live(key: str):
    """The full result of one bench-scale row: live cluster, disk
    traces, engines and timeline."""
    return run_spec(spec(key))
