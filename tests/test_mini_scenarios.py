"""Fast miniatures of every paper experiment.

The real regenerations live in benchmarks/ (minutes); these shrunken
versions run in seconds and guard the same qualitative orderings, so a
regression in any experiment path is caught by plain `pytest tests/`.
"""

import pytest

from repro import (
    Btio,
    Demo,
    DependentReads,
    DualParConfig,
    Hpio,
    IorMpiIo,
    JobSpec,
    MpiIoTest,
    Noncontig,
    S3asim,
    run_experiment,
)
from repro.cluster import ClusterSpec
from repro.disk.drive import DiskParams

NPROCS = 16


def mini_spec(**kw):
    defaults = dict(
        n_compute_nodes=8,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=4 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


def thpt(workload, strategy, **kw):
    res = run_experiment(
        [JobSpec("m", NPROCS, workload, strategy=strategy)],
        cluster_spec=mini_spec(),
        **kw,
    )
    return res.jobs[0].throughput_mb_s


# ------------------------------------------------------- fig1 (crossover)


def test_mini_fig1_crossover():
    def compute_rich():
        return Demo(file_size=8 * 1024 * 1024, segment_bytes=4096,
                    compute_per_call=0.02, nprocs_hint=NPROCS)
    def io_bound():
        return Demo(file_size=8 * 1024 * 1024, segment_bytes=4096,
                    compute_per_call=0.0, nprocs_hint=NPROCS)
    # Compute-rich: prefetching (S2) at least matches DualPar (S3 pays
    # redundant ghost computation).
    s2 = thpt(compute_rich(), "prefetch")
    s3 = thpt(compute_rich(), "dualpar-forced")
    assert s2 >= s3 * 0.95
    # I/O-bound: DualPar wins.
    s2b = thpt(io_bound(), "prefetch")
    s3b = thpt(io_bound(), "dualpar-forced")
    assert s3b > s2b


# ------------------------------------------------------- fig3 (single app)


@pytest.mark.parametrize(
    "workload_factory",
    [
        lambda: MpiIoTest(file_size=8 * 1024 * 1024),
        lambda: Noncontig(elmtcount=256, n_rows=512),
        lambda: IorMpiIo(file_size=16 * 1024 * 1024),
    ],
    ids=["mpi-io-test", "noncontig", "ior"],
)
def test_mini_fig3_dualpar_beats_vanilla(workload_factory):
    v = thpt(workload_factory(), "vanilla")
    d = thpt(workload_factory(), "dualpar-forced")
    assert d > v


# ------------------------------------------------------------ fig4 (BTIO)


def test_mini_fig4_btio_orderings():
    def w():
        return Btio(total_bytes=2 * 1024 * 1024, n_steps=1, cell_scale=16384,
                    op="W", segments_per_call=64)
    v = thpt(w(), "vanilla")
    c = thpt(w(), "collective")
    d = thpt(w(), "dualpar-forced")
    assert c > 2 * v
    assert d > 2 * v


# ---------------------------------------------------------- fig5 (s3asim)


def test_mini_fig5_s3asim_dualpar_leads():
    def w():
        return S3asim(n_queries=6, db_bytes=16 * 1024 * 1024,
                      min_seq_bytes=64 * 1024, max_seq_bytes=256 * 1024,
                      out_region_bytes=1024 * 1024)
    v = thpt(w(), "vanilla")
    d = thpt(w(), "dualpar-forced")
    assert d > v


# ------------------------------------------------ tab2/fig6 (interference)


def test_mini_table2_concurrent_instances():
    def run(strategy):
        res = run_experiment(
            [
                JobSpec(f"i{k}", NPROCS,
                        MpiIoTest(file_name=f"t2-{k}.dat",
                                  file_size=8 * 1024 * 1024, barrier_every=4),
                        strategy=strategy)
                for k in range(2)
            ],
            cluster_spec=mini_spec(placement="spread"),
        )
        return res.system_throughput_mb_s

    assert run("dualpar-forced") > run("vanilla")


# -------------------------------------------------------- fig8 (cache sweep)


def test_mini_fig8_more_cache_not_worse():
    def w():
        return Btio(total_bytes=2 * 1024 * 1024, n_steps=1, cell_scale=16384,
                    op="W", segments_per_call=64)
    small = thpt(w(), "dualpar-forced",
                 dualpar_config=DualParConfig(quota_bytes=64 * 1024))
    big = thpt(w(), "dualpar-forced",
               dualpar_config=DualParConfig(quota_bytes=1024 * 1024))
    assert big >= small * 0.8


# --------------------------------------------------------- tab3 (adversary)


def test_mini_table3_bounded_overhead():
    def w():
        return DependentReads(file_size=8 * 1024 * 1024)
    res_v = run_experiment([JobSpec("v", NPROCS, w(), strategy="vanilla")],
                           cluster_spec=mini_spec())
    res_d = run_experiment(
        [JobSpec("d", NPROCS, w(), strategy="dualpar")],
        cluster_spec=mini_spec(),
        dualpar_config=DualParConfig(io_ratio_enter=0.0, io_ratio_exit=0.0,
                                     t_improvement=1e-9, emc_interval_s=0.05),
    )
    assert res_d.jobs[0].elapsed_s < res_v.jobs[0].elapsed_s * 1.6


# ----------------------------------------------------------- fig7 (adaptive)


def test_mini_fig7_interference_switch():
    spec = mini_spec(locality_interval_s=0.1)
    res = run_experiment(
        [
            JobSpec("seq", NPROCS,
                    MpiIoTest(file_name="a.dat", file_size=24 * 1024 * 1024,
                              barrier_every=0),
                    strategy="dualpar"),
            JobSpec("joiner", NPROCS,
                    Hpio(file_name="b.dat", region_count=512,
                         region_bytes=16 * 1024),
                    strategy="dualpar", delay_s=0.2),
        ],
        cluster_spec=spec,
        dualpar_config=DualParConfig(emc_interval_s=0.1, metric_window_s=0.5),
    )
    # No switch before the joiner arrives; at least one program switched
    # once the interference appeared.
    trans = res.dualpar.transitions
    assert all(t >= 0.2 for t, _, _ in trans)
    assert any(m == "datadriven" for _, _, m in trans)
