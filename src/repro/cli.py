"""Command-line interface: run simulated experiments without writing code.

Examples::

    python -m repro run --workload mpi-io-test --strategy dualpar-forced \
        --nprocs 64 --size-mb 64
    python -m repro compare --workload noncontig --nprocs 64
    python -m repro lint src
    python -m repro list-workloads
    python -m repro list-strategies

``run`` executes one job and prints its measurements plus DualPar
internals when applicable; ``compare`` runs the same workload under every
strategy and prints a comparison table; ``lint`` runs the simlint
determinism rules (see docs/static_analysis.md).  ``run``/``report``/
``compare`` accept ``--sanitize`` to enable the runtime SimSanitizer for
every simulator the command creates (including parallel workers), and
``--metrics``/``--trace-out`` to attach the observability layer and dump
a metrics snapshot / Chrome-trace JSON (see docs/observability.md).
``--faults plan.json`` replays a deterministic fault schedule against the
simulated cluster (see docs/fault_injection.md), and ``--guard`` attaches
the safety governor -- memory budgets, benefit governor, circuit breaker,
and stall watchdog (see docs/degradation.md).

The service layer (docs/service.md) adds ``serve`` (run the experiment
coordinator), ``submit`` / ``status`` (talk to one), and ``catalog``
(inspect the content-addressed result catalog on disk).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Optional

from repro.analysis import dualpar_lines, job_table, summarize
from repro.faults import FaultPlan
from repro.guard import GuardConfig
from repro.iosched import SCHEDULERS
from repro.runner import STRATEGIES, ExperimentSpec, format_table, run_experiments, run_spec
from repro.workloads import WORKLOADS, build_workload

__all__ = ["main", "build_workload", "WORKLOADS"]


def _lower(args, strategies: list[str], observe: bool) -> tuple[list, list[ExperimentSpec]]:
    """The one-job :class:`~repro.service.ExperimentSubmission` the common
    flags describe under each strategy, and the cell it lowers to, as the
    service lowers one.  A flag left out takes the schema's default; a
    flag the schema or the workload rejects ends the command with exit
    status 2 and the reason, not a traceback, and so does a ``--faults``
    plan file that is missing or does not load as a
    :class:`~repro.faults.FaultPlan`; ``--guard`` attaches a default
    :class:`~repro.guard.GuardConfig`."""
    from repro.service.schemas import ClusterSubmission, ExperimentSubmission, JobSubmission

    def given(**flags):
        return {k: v for k, v in flags.items() if v is not None}

    def usage_error(reason: str) -> NoReturn:
        print(f"repro {args.command}: error: {reason}", file=sys.stderr)
        raise SystemExit(2)

    try:
        fault_plan = FaultPlan.load(args.faults) if args.faults else None
    except (OSError, ValueError, TypeError) as exc:
        usage_error(f"--faults {args.faults}: {exc}")
    try:
        submissions = [
            ExperimentSubmission(
                label=strategy,
                jobs=(
                    JobSubmission(
                        name=args.workload,
                        workload=args.workload,
                        strategy=strategy,
                        **given(nprocs=args.nprocs, size_mb=args.size_mb, op=args.op),
                    ),
                ),
                cluster=ClusterSubmission(
                    **given(
                        compute_nodes=args.compute_nodes,
                        data_servers=args.data_servers,
                        io_scheduler=args.elevator,
                    )
                ),
                quota_kb=args.quota_kb,
                observe=observe,
                fault_plan=fault_plan,
                guard=GuardConfig() if args.guard else None,
            )
            for strategy in strategies
        ]
        return submissions, [s.to_experiment_spec() for s in submissions]
    except ValueError as exc:
        usage_error(str(exc))


def _run_view(result) -> str:
    """``repro run``'s view: the job table, DualPar internals and the
    elevator's behaviour at server 0."""
    job = result.jobs[0]
    blk = result.cluster.data_servers[0].block_layer.stats
    dualpar = dualpar_lines(result)
    return "\n".join(
        [
            job_table(result, title=f"{job.name} under {job.strategy}"),
            *(["", *dualpar] if dualpar else []),
            f"server 0: mean elevator queue depth {blk.mean_queue_depth:.1f}, "
            f"mean disk request {blk.mean_unit_sectors * 512 / 1024:.0f} KB",
        ]
    )


def _print_guard_summary(result) -> None:
    summary = result.guard_summary
    if summary is None:
        return
    states = ", ".join(f"{job}={st}" for job, st in sorted(summary["states"].items()))
    print(f"\nguard: job states [{states or 'none'}]")
    for t, job, state, reason in result.guard_transitions:
        print(f"  t={t:10.3f}s  {job:<12}-> {state:<11}({reason})")
    b = summary["budget"]
    print(
        f"  budget: peak {b['peak_bytes'] / 1e6:.1f} MB, "
        f"shed {b['n_shed_store']} stores / {b['n_shed_plan']} planned chunks, "
        f"blocked {b['n_blocked']}, paced {b['n_paced']}"
    )
    br = summary["breaker"]
    print(f"  breaker: {br['state']} ({br['n_trips']} trips)")
    wd = summary.get("watchdog")
    if wd is not None and wd["n_reports"]:
        print(f"  watchdog: {wd['n_reports']} reports ({wd['n_deadlocks']} deadlocks)")


def _print_fault_summary(result) -> None:
    if not result.fault_log:
        return
    print(f"\nfaults injected ({len(result.fault_log)} events):")
    for t, kind, phase, target in result.fault_log:
        print(f"  t={t:10.3f}s  {phase:<7}{kind:<14}target={target}")
    if result.faults.n_timeouts:
        print(f"  client request timeouts: {result.faults.n_timeouts}")


def _export_obs(args, result) -> None:
    """Write the metrics snapshot and/or Chrome trace a command asked for."""
    obs = result.observe
    if obs is None:
        return
    from repro.obs import (
        chrome_trace_events,
        darshan_summary,
        write_chrome_trace,
        write_metrics,
    )

    if getattr(args, "metrics", None):
        write_metrics(args.metrics, result.metrics)
        print(f"metrics snapshot written to {args.metrics}")
    if getattr(args, "trace_out", None):
        events = chrome_trace_events(obs.tracer, registry_snapshot=result.metrics)
        write_chrome_trace(args.trace_out, events)
        print(
            f"trace written to {args.trace_out} "
            f"({len(events)} events; load in Perfetto / chrome://tracing)"
        )
    print()
    print(darshan_summary(result))


def _apply_sanitize(args) -> None:
    """Honour ``--sanitize`` by setting ``REPRO_SANITIZE`` for this process.

    Simulators are created deep inside the runner (and, for ``compare
    -j``, inside forked worker processes, which inherit the environment),
    so the environment variable is the one switch that reaches them all.
    """

    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def cmd_run(args) -> int:
    """``run`` and ``report``: one cell, shown by the command's ``view``
    (the job table or the full analysis), then its fault and guard
    summaries and the observability files asked for."""
    _apply_sanitize(args)
    _, (spec,) = _lower(args, [args.strategy], bool(args.metrics or args.trace_out))
    result = run_spec(spec)
    print(args.view(result))
    _print_fault_summary(result)
    _print_guard_summary(result)
    _export_obs(args, result)
    return 0


def cmd_compare(args) -> int:
    _apply_sanitize(args)
    submissions, specs = _lower(args, args.strategies, bool(args.metrics))
    results = run_experiments(specs, jobs=args.jobs, cache=not args.no_cache)
    job = submissions[0].jobs[0]
    print(
        format_table(
            ["strategy", "time (s)", "MB/s"],
            [[s, r.jobs[0].elapsed_s, r.jobs[0].throughput_mb_s]
             for s, r in zip(args.strategies, results)],
            title=f"{job.workload}, {job.nprocs} ranks, {job.size_mb} MB",
            float_fmt="{:.2f}",
        )
    )
    if args.metrics:
        from repro.obs import merge_metric_snapshots, write_metrics

        merged = merge_metric_snapshots(
            {
                strategy: result.metrics
                for strategy, result in zip(args.strategies, results)
                if result.metrics is not None
            }
        )
        write_metrics(args.metrics, merged)
        print(f"\nper-strategy metrics written to {args.metrics}")
    if args.trace_out:
        print(
            "note: --trace-out applies to `run`/`report` only "
            "(compare cells run in worker processes)",
            file=sys.stderr,
        )
    return 0


def cmd_lint(args) -> int:
    from repro.devtools import simlint

    lint_argv = list(args.paths) or ["src"]
    if args.format != "text":
        lint_argv += ["--format", args.format]
    if args.select:
        lint_argv += ["--select", args.select]
    if args.list_rules:
        lint_argv += ["--list-rules"]
    if args.changed:
        lint_argv += ["--changed"]
    return simlint.main(lint_argv)


def cmd_serve(args) -> int:
    """Run the experiment coordinator until SIGTERM/SIGINT, then drain.

    See docs/service.md: submissions arrive as line-JSON over TCP, are
    deduped by fingerprint, run on a local worker pool, and land in the
    content-addressed catalog with full provenance.
    """
    import asyncio
    import signal

    from repro.service import Coordinator

    async def serve_main() -> int:
        coordinator = Coordinator(
            catalog_dir=args.catalog,
            workers=args.workers,
            host=args.host,
            port=args.port,
            tenant_cap_bytes=args.tenant_cap_mb * 1024 * 1024,
            queue_cap_bytes=args.queue_cap_mb * 1024 * 1024,
            max_jobs=args.max_jobs,
            allow_chaos=args.allow_chaos,
        )
        await coordinator.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, coordinator.request_shutdown, True)
        print(
            f"coordinator listening on {coordinator.host}:{coordinator.port} "
            f"({args.workers} workers, catalog {coordinator.catalog.root})",
            flush=True,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{coordinator.port}\n")
        await coordinator.wait_stopped()
        status = coordinator.status()
        counters = status["counters"]
        print(
            f"drained: {counters['completed']} completed, "
            f"{counters['failed']} failed, "
            f"{status['catalog_entries']} catalog entries",
            flush=True,
        )
        return 0

    return asyncio.run(serve_main())


def cmd_submit(args) -> int:
    """Submit one experiment spec JSON to a running coordinator."""
    import json

    from repro.service import ExperimentSubmission, ServiceClient, ServiceError

    try:
        submission = ExperimentSubmission.load(args.spec)
    except (OSError, ValueError) as exc:
        print(f"bad submission {args.spec!r}: {exc}", file=sys.stderr)
        return 1
    if args.tenant:
        submission = ExperimentSubmission.from_dict(
            {**submission.to_dict(), "tenant": args.tenant}
        )
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.submit(submission, wait=args.wait)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def cmd_status(args) -> int:
    """Print a running coordinator's status as JSON."""
    import json

    from repro.service import ServiceClient, ServiceError

    try:
        status = ServiceClient(args.host, args.port).status()
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_catalog(args) -> int:
    """Inspect a result catalog on disk (no coordinator needed)."""
    import json

    from repro.service import ResultCatalog

    catalog = ResultCatalog(args.catalog)
    if args.action == "list":
        rows = []
        for record in catalog.records():
            prov = record.provenance
            sub = record.submission
            rows.append(
                [
                    record.fingerprint[:16],
                    prov.get("source", "serve"),
                    sub.get("tenant", "-"),
                    sub.get("label", "") or "-",
                    len(sub.get("jobs", [])),
                    f"{record.result.get('makespan_s', 0.0):.3f}",
                    f"{prov.get('wall_time_s', 0.0):.2f}",
                    prov.get("attempts", "?"),
                ]
            )
        print(
            format_table(
                ["fingerprint", "source", "tenant", "label", "jobs", "sim (s)",
                 "wall (s)", "tries"],
                rows,
                title=f"catalog {catalog.root} ({len(rows)} records)",
            )
        )
        return 0
    # action == "show"
    if not args.fingerprint:
        print("catalog show needs a fingerprint", file=sys.stderr)
        return 1
    record = catalog.get(args.fingerprint)
    if record is None:
        # Allow the abbreviated form `repro catalog show <prefix>`.
        matches = [
            fp for fp in catalog.fingerprints() if fp.startswith(args.fingerprint)
        ]
        if len(matches) == 1:
            record = catalog.get(matches[0])
    if record is None:
        print(f"no catalog record for {args.fingerprint!r}", file=sys.stderr)
        return 1
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_list_workloads(_args) -> int:
    print(
        format_table(
            ["name", "description"],
            [[name, desc] for name, (desc, _) in WORKLOADS.items()],
            title="available workloads",
        )
    )
    return 0


def cmd_list_strategies(_args) -> int:
    print(
        format_table(
            ["name", "description"],
            [[name, strategy.description] for name, strategy in STRATEGIES.items()],
            title="available strategies",
        )
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="mpi-io-test", help="see list-workloads")
    # Flags left out take the submission schema's defaults: 64 ranks,
    # 64 MB read, 32 compute nodes, 9 data servers, CFQ.
    p.add_argument("--nprocs", type=int, help="MPI ranks")
    p.add_argument("--size-mb", type=int, help="data volume (MB)")
    p.add_argument(
        "--op",
        type=str.lower,
        choices=["r", "w", "read", "write"],
        help="read or write (case-insensitive aliases accepted)",
    )
    p.add_argument("--compute-nodes", type=int)
    p.add_argument("--data-servers", type=int)
    p.add_argument("--elevator", choices=sorted(SCHEDULERS))
    p.add_argument(
        "--quota-kb", type=int, default=None, help="DualPar per-process cache quota"
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime SimSanitizer (sets REPRO_SANITIZE=1)",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="attach the observability layer; write a metrics-snapshot JSON",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace_event JSON of the run",
    )
    p.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="inject the fault plan JSON deterministically (docs/fault_injection.md)",
    )
    p.add_argument(
        "--guard",
        action="store_true",
        help="attach the safety governor: budgets, benefit governor, "
        "circuit breaker, stall watchdog (docs/degradation.md)",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DualPar reproduction: simulated MPI-IO experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, view in (
        ("run", "run one job under one strategy", _run_view),
        ("report", "run one job and print a full analysis", summarize),
    ):
        p_one = sub.add_parser(name, help=help_text)
        _add_common(p_one)
        p_one.add_argument("--strategy", choices=STRATEGIES, default="dualpar-forced")
        p_one.set_defaults(func=cmd_run, view=view)

    p_cmp = sub.add_parser("compare", help="same workload under several strategies")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--strategies",
        nargs="+",
        choices=STRATEGIES,
        default=["vanilla", "collective", "dualpar-forced"],
    )
    p_cmp.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the strategy fan-out (default: all CPUs)",
    )
    p_cmp.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell and catalog nothing (the catalog is "
        "$REPRO_SERVICE_CATALOG, default .service_catalog/)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_lint = sub.add_parser(
        "lint", help="run the simlint determinism rules (SL001-SL008)"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories (default: src)"
    )
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument(
        "--select", default=None, help="comma-separated rule ids to enable"
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    p_lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs the git merge-base (full tree "
        "outside a repository)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_srv = sub.add_parser(
        "serve",
        help="run the experiment coordinator (submissions over line-JSON "
        "TCP; results in a content-addressed catalog -- docs/service.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
    )
    p_srv.add_argument(
        "--workers", type=int, default=2, help="local worker processes"
    )
    p_srv.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="catalog root (default: REPRO_SERVICE_CATALOG or .service_catalog)",
    )
    p_srv.add_argument(
        "--tenant-cap-mb",
        type=int,
        default=4096,
        help="per-tenant quota on declared MB queued + running",
    )
    p_srv.add_argument(
        "--queue-cap-mb",
        type=int,
        default=16384,
        help="coordinator-wide backpressure cap on declared MB",
    )
    p_srv.add_argument(
        "--max-jobs", type=int, default=256, help="ceiling on in-flight jobs"
    )
    p_srv.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port to this file once listening",
    )
    p_srv.add_argument(
        "--allow-chaos",
        action="store_true",
        help="accept protocol-level chaos flags (crash-a-worker); test rigs only",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit an experiment spec JSON to a running coordinator"
    )
    p_sub.add_argument("spec", help="submission JSON file (docs/service.md)")
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, required=True)
    p_sub.add_argument(
        "--wait", action="store_true", help="block until the record is committed"
    )
    p_sub.add_argument(
        "--tenant", default=None, help="override the submission's tenant"
    )
    p_sub.add_argument(
        "--timeout", type=float, default=600.0, help="socket timeout (s)"
    )
    p_sub.set_defaults(func=cmd_submit)

    p_st = sub.add_parser("status", help="query a running coordinator's status")
    p_st.add_argument("--host", default="127.0.0.1")
    p_st.add_argument("--port", type=int, required=True)
    p_st.set_defaults(func=cmd_status)

    p_cat = sub.add_parser(
        "catalog", help="inspect an on-disk result catalog (list / show)"
    )
    p_cat.add_argument("action", choices=["list", "show"])
    p_cat.add_argument(
        "fingerprint",
        nargs="?",
        default=None,
        help="record fingerprint (or unique prefix) for `show`",
    )
    p_cat.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="catalog root (default: REPRO_SERVICE_CATALOG or .service_catalog)",
    )
    p_cat.set_defaults(func=cmd_catalog)

    p_lw = sub.add_parser("list-workloads", help="show available workloads")
    p_lw.set_defaults(func=cmd_list_workloads)

    p_ls = sub.add_parser("list-strategies", help="show available strategies")
    p_ls.set_defaults(func=cmd_list_strategies)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""

    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro ... | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
