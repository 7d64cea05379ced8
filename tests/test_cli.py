"""Tests for the command-line interface."""

from pathlib import Path

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


# -- one lowering: flags -> ExperimentSubmission -> ExperimentSpec ----------

_PLAN = str(Path(__file__).parent.parent / "examples/faultplans/crash_recover.json")

#: (flags, the cell's fields as the flags set them): workload, nprocs,
#: size_mb, op, compute nodes, data servers, elevator, quota (KB), fault
#: plan, guard.
_FLAG_GRID = [
    ([], ("mpi-io-test", 64, 64, "R", 32, 9, "cfq", None, None, False)),
    (
        ["--workload", "random", "--nprocs", "4", "--size-mb", "4", "--op", "w"],
        ("random", 4, 4, "w", 32, 9, "cfq", None, None, False),
    ),
    (
        ["--op", "read", "--nprocs", "8"],
        ("mpi-io-test", 8, 64, "read", 32, 9, "cfq", None, None, False),
    ),
    (
        ["--op", "WRITE", "--size-mb", "8"],
        ("mpi-io-test", 64, 8, "write", 32, 9, "cfq", None, None, False),
    ),
    (["--op", "r"], ("mpi-io-test", 64, 64, "r", 32, 9, "cfq", None, None, False)),
    (
        ["--compute-nodes", "2", "--data-servers", "3", "--elevator", "deadline"],
        ("mpi-io-test", 64, 64, "R", 2, 3, "deadline", None, None, False),
    ),
    (
        ["--elevator", "noop", "--quota-kb", "256"],
        ("mpi-io-test", 64, 64, "R", 32, 9, "noop", 256, None, False),
    ),
    (
        ["--workload", "noncontig", "--faults", _PLAN, "--guard"],
        ("noncontig", 64, 64, "R", 32, 9, "cfq", None, _PLAN, True),
    ),
    (
        ["--guard", "--quota-kb", "64"],
        ("mpi-io-test", 64, 64, "R", 32, 9, "cfq", 64, None, True),
    ),
]


def _literal_spec(cell, strategy, observe):
    """The cell as the CLI constructed it before it lowered its flags
    through the submission schema."""
    from repro.cluster import paper_spec
    from repro.core.config import DualParConfig
    from repro.faults import FaultPlan
    from repro.guard import GuardConfig
    from repro.runner import ExperimentSpec, JobSpec

    workload, nprocs, size_mb, op, nodes, servers, elevator, quota_kb, plan, guard = cell
    return ExperimentSpec(
        (JobSpec(workload, nprocs, build_workload(workload, size_mb, op, nprocs), strategy),),
        cluster_spec=paper_spec(
            n_compute_nodes=nodes, n_data_servers=servers, io_scheduler=elevator
        ),
        dualpar_config=None if quota_kb is None else DualParConfig(quota_bytes=quota_kb * 1024),
        observe=observe,
        fault_plan=FaultPlan.load(plan) if plan else None,
        guard=GuardConfig() if guard else None,
        label=strategy,
    )


@pytest.mark.parametrize("command", ["run", "report", "compare"])
@pytest.mark.parametrize("metrics", [False, True])
@pytest.mark.parametrize("flags, cell", _FLAG_GRID)
def test_cli_cells_keep_their_spec_and_fingerprint(command, metrics, flags, cell):
    from repro.cli import _lower
    from repro.runner.parallel import _canonical, experiment_fingerprint

    argv = [command, *flags, *(["--metrics", "m.json"] if metrics else [])]
    if command == "compare":
        argv += ["--strategies", "vanilla", "dualpar-forced"]
    else:
        argv += ["--strategy", "prefetch"]
    args = make_parser().parse_args(argv)
    strategies = args.strategies if command == "compare" else [args.strategy]
    _, specs = _lower(args, strategies, observe=metrics)
    assert len(specs) == len(strategies)
    for strategy, spec in zip(strategies, specs):
        want = _literal_spec(cell, strategy, metrics)
        assert _canonical(spec) == _canonical(want)
        assert experiment_fingerprint(spec) == experiment_fingerprint(want)


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--nprocs", "nprocs must be positive"),
        ("--size-mb", "size_mb must be positive"),
        ("--compute-nodes", "compute_nodes/data_servers must be positive"),
    ],
)
def test_bad_flag_exits_with_the_schema_message(flag, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "random", flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"repro run: error: {message}\n"
