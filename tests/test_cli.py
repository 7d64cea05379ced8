"""Tests for the command-line interface."""

import pytest

from repro.cli import WORKLOADS, build_workload, main, make_parser


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in WORKLOADS:
        assert name in out


def test_list_strategies(capsys):
    assert main(["list-strategies"]) == 0
    out = capsys.readouterr().out
    assert "dualpar" in out and "collective" in out


def test_build_workload_all_names():
    for name in WORKLOADS:
        w = build_workload(name, size_mb=8, op="R", nprocs=8)
        assert w.files()


def test_build_workload_unknown():
    with pytest.raises(SystemExit):
        build_workload("warp-drive", 8, "R", 8)


def test_run_small(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "vanilla",
            "--compute-nodes", "2",
            "--data-servers", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "MB/s" in out and "vanilla" in out


def test_run_dualpar_shows_internals(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "dualpar-forced",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--quota-kb", "256",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetch cycles" in out


def test_compare(capsys):
    rc = main(
        [
            "compare",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategies", "vanilla", "dualpar-forced",
            "--compute-nodes", "2",
            "--data-servers", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "vanilla" in out and "dualpar-forced" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


def test_run_with_elevator_option(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "vanilla",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--elevator", "deadline",
        ]
    )
    assert rc == 0


def test_submit_without_job_name_is_a_bad_submission(tmp_path, capsys):
    """A job missing a required field is reported, not a traceback; the
    spec fails to load before any coordinator is contacted."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"schema_version": 1, "jobs": [{"workload": "mpi-io-test"}]}')
    assert main(["submit", str(spec), "--port", "1"]) == 1
    err = capsys.readouterr().err
    assert "bad submission" in err
    assert "missing JobSubmission fields: ['name']" in err
