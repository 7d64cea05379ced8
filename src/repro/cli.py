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
from typing import Callable, Optional

from repro.cluster import ClusterSpec, paper_spec
from repro.core.config import DualParConfig
from repro.runner import (
    ExperimentSpec,
    JobSpec,
    format_table,
    run_experiment,
    run_experiments,
)
from repro.runner.strategies import STRATEGY_NAMES
from repro.workloads import (
    Btio,
    Demo,
    DependentReads,
    Hpio,
    IorMpiIo,
    MpiIoTest,
    Noncontig,
    S3asim,
    SyntheticPattern,
    Workload,
)

__all__ = ["main", "build_workload", "WORKLOADS"]


def _mb(n: float) -> int:
    return int(n * 1024 * 1024)


#: name -> (description, builder(size_mb, op, nprocs) -> Workload)
WORKLOADS: dict[str, tuple[str, Callable[[int, str, int], Workload]]] = {
    "mpi-io-test": (
        "globally sequential 16 KB segments, frequent barriers (PVFS2 suite)",
        lambda size_mb, op, nprocs: MpiIoTest(file_size=_mb(size_mb), op=op),
    ),
    "hpio": (
        "regioned access, 32 KB regions (Northwestern/Sandia)",
        lambda size_mb, op, nprocs: Hpio(
            region_count=max(_mb(size_mb) // (32 * 1024), 1),
            region_bytes=32 * 1024,
            op=op,
        ),
    ),
    "ior-mpi-io": (
        "each rank streams its own 1/P of the file (ASCI Purple)",
        lambda size_mb, op, nprocs: IorMpiIo(file_size=_mb(size_mb), op=op),
    ),
    "noncontig": (
        "column access of a 2D array via vector datatype (ANL)",
        lambda size_mb, op, nprocs: Noncontig(
            elmtcount=256,
            n_rows=max(_mb(size_mb) // (64 * 1024), 64),
            op=op,
        ).with_ncols_hint(max(nprocs, 64)),
    ),
    "s3asim": (
        "fragmented sequence-database search, mixed read/write",
        lambda size_mb, op, nprocs: S3asim(db_bytes=_mb(size_mb)),
    ),
    "btio": (
        "NAS BT-IO checkpointing; request size shrinks with process count",
        lambda size_mb, op, nprocs: Btio(
            total_bytes=_mb(size_mb), n_steps=2, cell_scale=16384, op="W"
        ),
    ),
    "demo": (
        "the paper's Section-II motivating synthetic (16-segment vector reads)",
        lambda size_mb, op, nprocs: Demo(file_size=_mb(size_mb), nprocs_hint=nprocs),
    ),
    "dependent": (
        "Table-III adversary: addresses depend on previously read data",
        lambda size_mb, op, nprocs: DependentReads(file_size=_mb(size_mb)),
    ),
    "random": (
        "seeded random 16 KB blocks per rank (synthetic)",
        lambda size_mb, op, nprocs: SyntheticPattern(
            file_size=_mb(size_mb), pattern="random", op=op
        ),
    ),
}


def build_workload(name: str, size_mb: int, op: str, nprocs: int) -> Workload:
    """Construct a named workload scaled to size_mb/op/nprocs."""

    try:
        _, builder = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; see `python -m repro list-workloads`"
        ) from None
    return builder(size_mb, op, nprocs)


def _cluster_from_args(args) -> ClusterSpec:
    return paper_spec(
        n_compute_nodes=args.compute_nodes,
        n_data_servers=args.data_servers,
        io_scheduler=args.elevator,
    )


def _dualpar_from_args(args) -> Optional[DualParConfig]:
    if args.quota_kb is None:
        return None
    return DualParConfig(quota_bytes=args.quota_kb * 1024)


def _job_rows(result) -> list[list]:
    return [
        [
            j.name,
            j.strategy,
            j.nprocs,
            j.elapsed_s,
            j.throughput_mb_s,
            f"{j.io_ratio:.0%}",
        ]
        for j in result.jobs
    ]


def _faults_from_args(args):
    """A :class:`~repro.faults.FaultPlan` loaded from ``--faults``, or None."""
    path = getattr(args, "faults", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _guard_from_args(args):
    """A default :class:`~repro.guard.GuardConfig` when ``--guard`` was
    given, else None (guard-off runs stay bit-identical)."""
    if not getattr(args, "guard", False):
        return None
    from repro.guard import GuardConfig

    return GuardConfig()


def _print_guard_summary(result) -> None:
    guard = getattr(result, "guard", None)
    if guard is None:
        return
    summary = guard.summary()
    states = ", ".join(f"{job}={st}" for job, st in sorted(summary["states"].items()))
    print(f"\nguard: job states [{states or 'none'}]")
    for t, job, state, reason in guard.transitions:
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
    faults = getattr(result, "faults", None)
    if faults is None or not faults.log:
        return
    print(f"\nfaults injected ({len(faults.log)} events):")
    for t, kind, phase, target in faults.log:
        print(f"  t={t:10.3f}s  {phase:<7}{kind:<14}target={target}")
    if faults.n_timeouts:
        print(f"  client request timeouts: {faults.n_timeouts}")


def _observe_from_args(args):
    """An :class:`~repro.obs.Observability` when ``--metrics`` or
    ``--trace-out`` was given, else None (zero-overhead plain run)."""
    if getattr(args, "metrics", None) or getattr(args, "trace_out", None):
        from repro.obs import Observability

        return Observability()
    return None


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
    _apply_sanitize(args)
    workload = build_workload(args.workload, args.size_mb, args.op, args.nprocs)
    result = run_experiment(
        [JobSpec(args.workload, args.nprocs, workload, strategy=args.strategy)],
        cluster_spec=_cluster_from_args(args),
        dualpar_config=_dualpar_from_args(args),
        observe=_observe_from_args(args),
        fault_plan=_faults_from_args(args),
        guard=_guard_from_args(args),
    )
    print(
        format_table(
            ["job", "strategy", "ranks", "time (s)", "MB/s", "I/O ratio"],
            _job_rows(result),
            title=f"{args.workload} under {args.strategy}",
            float_fmt="{:.2f}",
        )
    )
    job = result.mpi_jobs[0]
    engine = job.engine
    if hasattr(engine, "pec"):
        print(
            f"\nDualPar: {engine.pec.n_cycles} prefetch cycles, "
            f"{engine.crm.prefetched_bytes / 1e6:.1f} MB prefetched, "
            f"{engine.crm.writeback_bytes / 1e6:.1f} MB written back, "
            f"cache hits/misses {engine.n_cache_hits}/{engine.n_cache_misses}"
        )
    blk = result.cluster.data_servers[0].block_layer.stats
    print(
        f"server 0: mean elevator queue depth "
        f"{blk.mean_queue_depth:.1f}, mean disk request "
        f"{blk.mean_unit_sectors * 512 / 1024:.0f} KB"
    )
    _print_fault_summary(result)
    _print_guard_summary(result)
    _export_obs(args, result)
    return 0


def cmd_compare(args) -> int:
    _apply_sanitize(args)
    specs = [
        ExperimentSpec(
            [
                JobSpec(
                    args.workload,
                    args.nprocs,
                    build_workload(args.workload, args.size_mb, args.op, args.nprocs),
                    strategy=strategy,
                )
            ],
            cluster_spec=_cluster_from_args(args),
            dualpar_config=_dualpar_from_args(args),
            observe=bool(args.metrics),
            fault_plan=_faults_from_args(args),
            guard=_guard_from_args(args),
            label=strategy,
        )
        for strategy in args.strategies
    ]
    results = run_experiments(specs, jobs=args.jobs, cache=not args.no_cache)
    rows = []
    for strategy, result in zip(args.strategies, results):
        j = result.jobs[0]
        rows.append([strategy, j.elapsed_s, j.throughput_mb_s])
    print(
        format_table(
            ["strategy", "time (s)", "MB/s"],
            rows,
            title=f"{args.workload}, {args.nprocs} ranks, {args.size_mb} MB",
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


def cmd_report(args) -> int:
    from repro.analysis import summarize

    _apply_sanitize(args)
    workload = build_workload(args.workload, args.size_mb, args.op, args.nprocs)
    result = run_experiment(
        [JobSpec(args.workload, args.nprocs, workload, strategy=args.strategy)],
        cluster_spec=_cluster_from_args(args),
        dualpar_config=_dualpar_from_args(args),
        observe=_observe_from_args(args),
        fault_plan=_faults_from_args(args),
        guard=_guard_from_args(args),
    )
    print(summarize(result))
    _print_fault_summary(result)
    _print_guard_summary(result)
    _export_obs(args, result)
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


def cmd_ownership(args) -> int:
    from repro.devtools import ownership

    own_argv = list(args.paths) or ["src/repro"]
    if args.format != "text":
        own_argv += ["--format", args.format]
    if args.out:
        own_argv += ["--out", args.out]
    if args.check:
        own_argv += ["--check"]
    return ownership.main(own_argv)


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
    descriptions = {
        "vanilla": "independent synchronous MPI-IO (Strategy 1)",
        "collective": "ROMIO-style two-phase collective I/O",
        "prefetch": "speculative pre-execution prefetching (Strategy 2)",
        "dualpar": "DualPar, mode chosen opportunistically by EMC",
        "dualpar-forced": "DualPar pinned in data-driven mode",
    }
    print(
        format_table(
            ["name", "description"],
            [[n, descriptions[n]] for n in STRATEGY_NAMES],
            title="available strategies",
        )
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="mpi-io-test", help="see list-workloads")
    p.add_argument("--nprocs", type=int, default=64, help="MPI ranks")
    p.add_argument("--size-mb", type=int, default=64, help="data volume (MB)")
    p.add_argument(
        "--op",
        type=str.lower,
        choices=["r", "w", "read", "write"],
        default="R",
        help="read or write (case-insensitive aliases accepted)",
    )
    p.add_argument("--compute-nodes", type=int, default=32)
    p.add_argument("--data-servers", type=int, default=9)
    p.add_argument(
        "--elevator",
        choices=["cfq", "deadline", "noop", "anticipatory"],
        default="cfq",
    )
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

    p_run = sub.add_parser("run", help="run one job under one strategy")
    _add_common(p_run)
    p_run.add_argument("--strategy", choices=STRATEGY_NAMES, default="dualpar-forced")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="run one job and print a full analysis")
    _add_common(p_rep)
    p_rep.add_argument("--strategy", choices=STRATEGY_NAMES, default="dualpar-forced")
    p_rep.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser("compare", help="same workload under several strategies")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--strategies",
        nargs="+",
        choices=STRATEGY_NAMES,
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

    p_own = sub.add_parser(
        "ownership",
        help="simown state-ownership report / partition map (see "
        "docs/static_analysis.md)",
    )
    p_own.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files/directories (default: src/repro)",
    )
    p_own.add_argument("--format", choices=["text", "json"], default="text")
    p_own.add_argument(
        "--out", default=None, help="write the JSON partition map to this path"
    )
    p_own.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on unannotated shared-hazard findings",
    )
    p_own.set_defaults(func=cmd_ownership)

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
