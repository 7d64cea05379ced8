"""Tests for the analysis/reporting module."""

from repro.analysis import analyze_cache, analyze_disks, analyze_network, summarize
from repro.cluster import ClusterSpec
from repro.disk.drive import DiskParams
from repro.runner import JobSpec, run_experiment
from repro.workloads import SyntheticPattern


def run(strategy="vanilla"):
    return run_experiment(
        [JobSpec("a", 4, SyntheticPattern(file_size=2 * 1024 * 1024),
                 strategy=strategy)],
        cluster_spec=ClusterSpec(
            n_compute_nodes=2,
            n_data_servers=3,
            disk=DiskParams(capacity_bytes=2 * 10**9),
        ),
    )


def test_disk_reports_cover_all_servers():
    res = run()
    reports = analyze_disks(res)
    assert len(reports) == 3
    assert sum(r.bytes_served for r in reports) >= 2 * 1024 * 1024
    for r in reports:
        assert 0 <= r.utilization <= 1
        assert r.busy_s >= 0
        assert r.effective_mb_s >= 0


def test_disk_report_efficiency():
    res = run()
    r = analyze_disks(res)[0]
    assert 0 <= r.efficiency <= 2  # bounded near the media rate


def test_cache_report_none_without_cache_traffic():
    res = run("vanilla")
    assert analyze_cache(res) is None


def test_cache_report_for_dualpar():
    res = run("dualpar-forced")
    report = analyze_cache(res)
    assert report is not None
    assert report.n_gets > 0
    assert 0 <= report.hit_ratio <= 1


def test_network_report():
    res = run()
    net = analyze_network(res)
    assert net["messages"] > 0
    assert net["total_mb_moved"] > 0
    assert 0 <= net["busiest_node"]


def test_summarize_renders_everything():
    res = run("dualpar-forced")
    text = summarize(res)
    assert "jobs" in text
    assert "data servers" in text
    assert "global cache" in text
    assert "DualPar[a]" in text
    assert "network" in text


def test_summarize_vanilla_omits_cache():
    res = run("vanilla")
    text = summarize(res)
    assert "global cache" not in text
    assert "DualPar[" not in text
