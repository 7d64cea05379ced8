"""Coverage for the parallel experiment runner and its result catalog."""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Iterator

import pytest

from repro import DualParConfig, ExperimentSpec, JobSpec, MpiIoTest, run_experiments
from repro.cluster import paper_spec
from repro.runner import parallel
from repro.runner.parallel import WorkerCellError, experiment_fingerprint
from repro.service.catalog import ResultCatalog, canonical_json, result_to_dict
from repro.workloads.base import FileSpec, Workload


def _spec(strategy="vanilla", quota_kb=None, stripe_unit=64 * 1024, nprocs=8):
    return ExperimentSpec(
        [
            JobSpec(
                "m",
                nprocs,
                MpiIoTest(file_size=4 * 1024 * 1024),
                strategy=strategy,
            )
        ],
        cluster_spec=paper_spec(n_compute_nodes=8, stripe_unit=stripe_unit),
        dualpar_config=(
            DualParConfig(quota_bytes=quota_kb * 1024) if quota_kb is not None else None
        ),
        label=f"{strategy}",
    )


def _canon(results) -> list[str]:
    return [canonical_json(result_to_dict(r)) for r in results]


def _record_path(cache_dir, spec):
    return ResultCatalog(cache_dir).path_for(experiment_fingerprint(spec))


def test_results_in_input_order_and_correct(tmp_path):
    specs = [_spec("vanilla"), _spec("collective"), _spec("dualpar-forced")]
    results = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert len(results) == 3
    assert [r.jobs[0].strategy for r in results] == [
        "vanilla",
        "collective",
        "dualpar-forced",
    ]
    assert all(r.jobs[0].throughput_mb_s > 0 for r in results)


def test_pool_matches_inline(tmp_path):
    specs = [_spec("vanilla"), _spec("collective"), _spec("dualpar-forced")]
    inline = run_experiments(specs, jobs=1, cache=False)
    pooled = run_experiments(specs, jobs=2, cache=False)
    assert _canon(inline) == _canon(pooled)
    # Hit, miss, inline and pooled results are the same objects too.
    assert inline == pooled


def test_cold_warm_inline_pooled_all_equal(tmp_path):
    specs = [_spec("vanilla"), _spec("dualpar-forced", quota_kb=256)]
    cold = run_experiments(specs, jobs=2, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 2
    warm = run_experiments(specs, jobs=2, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 2
    inline = run_experiments(specs, jobs=1, cache=False)
    assert _canon(cold) == _canon(warm) == _canon(inline)
    assert cold == warm == inline
    for spec, res in zip(specs, cold):
        record = ResultCatalog(tmp_path).get(experiment_fingerprint(spec))
        assert record.provenance["source"] == "runner"
        assert record.submission["label"] == spec.label
        assert canonical_json(record.result) == canonical_json(result_to_dict(res))


def test_cache_hit_returns_byte_identical_result(tmp_path):
    specs = [_spec("dualpar-forced", quota_kb=256)]
    first = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    second = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1
    assert parallel.LAST_RUN_STATS.misses == 0
    assert _canon(first) == _canon(second)


def test_fingerprint_sensitive_to_parameters():
    base = _spec("dualpar-forced", quota_kb=256)
    variants = [
        _spec("dualpar-forced", quota_kb=512),  # different quota
        _spec("dualpar-forced", quota_kb=256, stripe_unit=128 * 1024),  # stripe
        _spec("vanilla", quota_kb=256),  # different strategy
        _spec("dualpar-forced", quota_kb=256, nprocs=16),  # different ranks
    ]
    fps = {experiment_fingerprint(s) for s in [base] + variants}
    assert len(fps) == len(variants) + 1


def test_fingerprint_ignores_label():
    a = _spec("vanilla")
    b = ExperimentSpec(a.specs, cluster_spec=a.cluster_spec, label="other name")
    assert experiment_fingerprint(a) == experiment_fingerprint(b)


def test_changed_parameters_miss_the_cache(tmp_path):
    run_experiments([_spec("dualpar-forced", quota_kb=256)], jobs=1, cache_dir=tmp_path)
    run_experiments([_spec("dualpar-forced", quota_kb=512)], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert parallel.LAST_RUN_STATS.hits == 0


def test_corrupt_cache_file_is_ignored(tmp_path):
    spec = _spec("vanilla")
    good = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    path = _record_path(tmp_path, spec)
    assert path.exists()

    # Garbage must be treated as a miss, not an error, and rewritten.
    path.write_bytes(b"\x80corrupt")
    again = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert _canon(good) == _canon(again)
    assert ResultCatalog(tmp_path).get(experiment_fingerprint(spec)) is not None

    # Valid JSON that is not a record is also a miss.
    path.write_text(json.dumps({"not": "a record"}))
    run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1


def test_truncated_cache_entry_is_a_miss(tmp_path):
    """A valid record cut short mid-stream -- the torn-write shape the
    fsync before the commit defends against -- must replay as a miss and
    be rewritten whole."""
    spec = _spec("vanilla")
    good = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    path = _record_path(tmp_path, spec)
    whole = path.read_text()

    path.write_text(whole[: len(whole) // 2])
    again = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert parallel.LAST_RUN_STATS.hits == 0
    assert _canon(good) == _canon(again)
    # The record was healed by the re-run: whole, and a hit again.
    healed = json.loads(path.read_text())
    assert healed["result"] == json.loads(whole)["result"]
    run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1


def test_cache_can_be_disabled(tmp_path):
    spec = _spec("vanilla")
    run_experiments([spec], jobs=1, cache=False, cache_dir=tmp_path)
    assert not tmp_path.joinpath("records").exists()


def test_slim_result_measurement_surface(tmp_path):
    (res,) = run_experiments(
        [_spec("dualpar-forced", quota_kb=256)], jobs=1, cache_dir=tmp_path
    )
    assert res.system_throughput_mb_s > 0
    assert res.total_io_time_s > 0
    assert res.total_bytes_served > 0
    assert res.job("m").name == "m"
    with pytest.raises(KeyError):
        res.job("nope")


def test_spec_accepts_list_of_jobspecs():
    spec = _spec("vanilla")
    assert isinstance(spec.specs, tuple)


# ---------------------------------------------------------------------------
# worker failure attribution (ISSUE 9 satellite)
# ---------------------------------------------------------------------------


class _BoomWorkload(Workload):
    """Explodes mid-stream inside the worker process."""

    name = "boom"

    def files(self) -> list[FileSpec]:
        return [FileSpec("boom.dat", 1024 * 1024)]

    def ops(self, rank: int, size: int) -> Iterator:
        raise RuntimeError("kaboom in ops")
        yield  # pragma: no cover - unreachable


def _boom_spec():
    return ExperimentSpec(
        [JobSpec("b", 2, _BoomWorkload())],
        cluster_spec=paper_spec(n_compute_nodes=2),
        label="boom-cell",
    )


def test_worker_failure_carries_child_traceback():
    """A cell that dies inside a pool worker must surface as a
    WorkerCellError naming the cell and carrying the child's full
    traceback text across the process boundary -- not a bare exception
    with only parent-side frames."""
    with pytest.raises(WorkerCellError) as excinfo:
        run_experiments([_spec("vanilla"), _boom_spec()], jobs=2, cache=False)
    err = excinfo.value
    assert err.label == "boom-cell"
    # The child traceback survived the pool boundary verbatim.
    assert "Traceback (most recent call last)" in err.traceback_text
    assert "kaboom in ops" in err.traceback_text
    assert "_BoomWorkload" in err.traceback_text or "in ops" in err.traceback_text
    # And the rendered message shows it too.
    assert "boom-cell" in str(err)
    assert "kaboom in ops" in str(err)


def test_inline_run_raises_the_original_exception():
    # jobs=1 runs in-process: no wrapping, the real exception propagates.
    with pytest.raises(RuntimeError, match="kaboom in ops"):
        run_experiments([_boom_spec()], jobs=1, cache=False)


# ---------------------------------------------------------------------------
# worker crashes: requeue, then give up
# ---------------------------------------------------------------------------


class _CrashingMpiIoTest(MpiIoTest):
    """mpi-io-test whose worker dies while setting up the cell: on the
    first attempt only (``marker`` records it), or on every attempt."""

    def __init__(self, marker: str, always: bool = False) -> None:
        super().__init__(file_size=4 * 1024 * 1024)
        self.marker = marker
        self.always = always

    def files(self) -> list[FileSpec]:
        if self.always or not os.path.exists(self.marker):
            open(self.marker, "a").close()
            os._exit(3)
        return super().files()


def _crash_spec(marker, always=False):
    return ExperimentSpec(
        [JobSpec("m", 8, _CrashingMpiIoTest(str(marker), always), strategy="vanilla")],
        cluster_spec=paper_spec(n_compute_nodes=8),
        label="crashy",
    )


def test_pool_requeues_a_cell_whose_worker_dies(tmp_path):
    specs = [_spec("vanilla"), _crash_spec(tmp_path / "crashed-once")]
    pooled = run_experiments(specs, jobs=2, cache=False)
    assert (tmp_path / "crashed-once").exists()
    inline = run_experiments(specs, jobs=1, cache=False)
    assert _canon(pooled) == _canon(inline)


def test_pool_gives_up_on_a_cell_that_always_crashes(tmp_path):
    specs = [_spec("vanilla"), _crash_spec(tmp_path / "crashed", always=True)]
    with pytest.raises(WorkerCellError) as excinfo:
        run_experiments(specs, jobs=2, cache=False)
    assert excinfo.value.label == "crashy"
    assert "giving up" in excinfo.value.traceback_text


# ---------------------------------------------------------------------------
# code fingerprint
# ---------------------------------------------------------------------------


def test_code_fingerprint_covers_c_sources(tmp_path, monkeypatch):
    c_file = tmp_path / "kernel.c"
    c_file.write_text("int f(void) { return 1; }\n")
    files = parallel._code_files()
    assert any(p.endswith(".c") for p in files)
    monkeypatch.setattr(parallel, "_code_files", lambda: [*files, str(c_file)])

    def fingerprint() -> str:
        _fresh_import(monkeypatch)
        return parallel._code_fingerprint()

    before = fingerprint()
    c_file.write_text("int f(void) { return 2; }\n")
    assert fingerprint() != before


def _fresh_import(monkeypatch) -> None:
    """Reset the fingerprint state to what a process importing the
    package now would hold."""
    monkeypatch.setattr(parallel, "_LOADED_SIGNATURE", parallel._code_signature())
    monkeypatch.setattr(parallel, "_CODE_FINGERPRINT", None)


def _copied_package(tmp_path, monkeypatch):
    """Point the fingerprint at a copy of the package, freshly imported."""
    import shutil

    pkg = tmp_path / "repro"
    shutil.copytree(parallel._PKG_ROOT, pkg, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    monkeypatch.setattr(parallel, "_PKG_ROOT", pkg)
    _fresh_import(monkeypatch)
    return pkg


def test_code_fingerprint_describes_the_code_the_process_loaded(tmp_path, monkeypatch):
    """A long-running process (``repro serve``) runs the modules it
    imported, so an edit on disk does not move its fingerprint."""
    pkg = _copied_package(tmp_path, monkeypatch)
    before = parallel._code_fingerprint()
    source = pkg / "runner" / "strategies.py"
    source.write_text(source.read_text() + "\n# edited\n")
    assert parallel._code_fingerprint() == before
    _fresh_import(monkeypatch)
    assert parallel._code_fingerprint() != before  # a new process: new key


def test_edit_before_first_hash_catalogues_nothing(tmp_path, monkeypatch):
    """Hashing the files after they changed would key this process's
    results as the edited code's, and a process running the edited code
    would then get a wrong hit; the run is refused and stores nothing."""
    pkg = _copied_package(tmp_path, monkeypatch)
    source = pkg / "runner" / "strategies.py"
    source.write_text(source.read_text() + "\n# edited\n")
    cache_dir = tmp_path / "catalog"
    spec = _spec()
    with pytest.raises(parallel.StaleCodeError, match="restart"):
        run_experiments([spec], jobs=1, cache_dir=cache_dir)
    from repro.service import Coordinator

    with pytest.raises(parallel.StaleCodeError):
        Coordinator(catalog_dir=cache_dir)  # a server hashes its code at start
    _fresh_import(monkeypatch)  # the edited code's own process
    assert experiment_fingerprint(spec) not in ResultCatalog(cache_dir)
    assert len(ResultCatalog(cache_dir)) == 0
    # Uncatalogued runs need no code hash.
    assert run_experiments([spec], jobs=1, cache=False)[0].makespan_s > 0


# ---------------------------------------------------------------------------
# cross-process cache race (ISSUE 9 satellite)
# ---------------------------------------------------------------------------


def _race_entry(cache_dir, barrier, results):
    """One racer: start in lockstep, run the same cell, then re-read it
    a few times; every read must be byte-identical to the first run."""
    spec = _spec("vanilla")
    barrier.wait()
    first = run_experiments([spec], jobs=1, cache_dir=cache_dir)
    blobs = _canon(first)
    for _ in range(3):
        again = run_experiments([spec], jobs=1, cache_dir=cache_dir)
        blobs += _canon(again)
    results.put((len(set(blobs)) == 1, blobs[0]))


def test_cross_process_cache_race_single_entry_no_corrupt_reads(tmp_path):
    """Two processes racing the same catalog record must yield exactly
    one stored entry and zero corrupt reads (extends the truncated-entry
    -is-miss test above to real concurrency: atomic fsync-before-rename
    means a reader sees a whole entry or a miss, never a torn one)."""
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_race_entry, args=(tmp_path, barrier, results))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    outcomes = [results.get(timeout=300) for _ in procs]
    for p in procs:
        p.join(300)
        assert p.exitcode == 0
    # Zero corrupt reads in either process, and both saw the same bytes.
    assert all(consistent for consistent, _ in outcomes)
    assert len({blob for _, blob in outcomes}) == 1
    # Exactly one whole stored entry, no leftover temp files.
    entries = list(tmp_path.glob("records/*.json"))
    assert len(entries) == 1
    assert not list(tmp_path.glob("records/*.tmp*"))
    # The surviving entry replays as a hit, byte-identical to the race.
    final = run_experiments([_spec("vanilla")], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1
    assert _canon(final)[0] == outcomes[0][1]
