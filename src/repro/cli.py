"""Command-line interface: run and inspect task graphs.

The headless counterpart of the Triana GUI::

    python -m repro units --category signal     # browse the toolbox
    python -m repro policies                    # distribution policies
    python -m repro run fig1.xml -n 20 --probe Accum
    python -m repro run fig1.xml -n 20 --workers 4    # simulated grid
    python -m repro analyze run.jsonl                 # why was it slow?
    python -m repro sweep e4_galaxy                   # regenerate an experiment

A graph file is the XML task graph of Code Segment 1, the one format
every worker parses (:mod:`repro.core.xml_io`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis.tables import render_kv, render_table
from .core import LocalEngine, global_registry, graph_from_string
from .core.errors import WorkflowError
from .service.errors import ServiceError

__all__ = ["main"]


def _cmd_units(args) -> int:
    registry = global_registry()
    hits = registry.search(category=args.category, text=args.search or "")
    print(render_table(
        ["unit", "version", "category", "in", "out", "code bytes"],
        [
            (d.name, d.version, d.category, d.cls.NUM_INPUTS,
             d.cls.NUM_OUTPUTS, d.code_size)
            for d in hits
        ],
        title=f"{len(hits)} units registered",
    ))
    return 0


def _cmd_policies(args) -> int:
    from .service.placement import dispatch_policy_names
    from .service.policies import global_policy_registry

    registry = global_policy_registry()
    print(render_table(
        ["policy", "class", "summary"],
        [
            (d.name, d.cls.__name__, d.summary)
            for d in sorted(registry, key=lambda d: d.name)
        ],
        title=f"{len(registry)} distribution policies registered",
    ))
    print(f"farm dispatch ( --dispatch ): {', '.join(dispatch_policy_names())}")
    return 0


def _cmd_transports(args) -> int:
    from .transport import TRANSPORTS

    rows = []
    for name in TRANSPORTS.names():
        cls = TRANSPORTS.lookup(name)
        rows.append((name, cls.__name__, cls.__doc__.strip().splitlines()[0]))
    print(render_table(
        ["transport", "class", "summary"], rows,
        title=f"{len(rows)} transport backends registered",
    ))
    print("select with: repro run ... --workers N --transport {sim,tcp}")
    return 0


def _cmd_faults(args) -> int:
    from .faults import CHAOS_LEVELS, FAULT_KIND_DOCS, chaos

    print(render_table(
        ["kind", "what it does"],
        sorted(FAULT_KIND_DOCS.items()),
        title=f"{len(FAULT_KIND_DOCS)} fault kinds registered",
    ))
    print(render_table(
        ["level"] + sorted(next(iter(CHAOS_LEVELS.values()))),
        [
            (level, *[params[k] for k in sorted(params)])
            for level, params in CHAOS_LEVELS.items()
        ],
        title="chaos() preset levels",
    ))
    if args.level is not None:
        workers = [f"worker-{i}" for i in range(args.workers)]
        plan = chaos(args.level, seed=args.seed, workers=workers,
                     portal="portal")
        print(render_table(
            ["fault"],
            [(f.describe(),) for f in plan],
            title=(f"chaos({args.level!r}, seed={args.seed}, "
                   f"workers={args.workers}) → {len(plan)} faults"),
        ))
    return 0


def _cmd_validate(args) -> int:
    graph = graph_from_string(Path(args.graph).read_text())
    graph.validate()
    groups = graph.groups()
    print(render_kv(
        [
            ("graph", graph.name),
            ("tasks", len(graph.tasks)),
            ("connections", len(graph.connections)),
            ("groups", [f"{g.name}({g.policy})" for g in groups]),
            ("valid", True),
        ],
        title=f"validated {args.graph}",
    ))
    return 0


def _cmd_run(args) -> int:
    graph = graph_from_string(Path(args.graph).read_text())
    probes = tuple(args.probe or ())
    if args.workers == 0:
        grid_only = {
            "--transport": args.transport != "sim",
            "--verification": args.verification != "none",
            "--dispatch": args.dispatch != "round_robin",
            "--trace-out": args.trace_out,
            "--metrics-out": args.metrics_out,
            "--telemetry-out": args.telemetry_out,
        }
        flags = [flag for flag, given in grid_only.items() if given]
        if flags:
            print(f"error: {', '.join(flags)}: grid mode only, and --workers 0 "
                  "runs the local engine", file=sys.stderr)
            return 1
        engine = LocalEngine(graph)
        attached = [engine.attach_probe(p) for p in probes]
        engine.run(iterations=args.iterations)
        print(render_kv(
            [
                ("mode", "local engine"),
                ("iterations", engine.stats.iterations),
                ("unit firings", engine.stats.firings),
                ("modelled gflop", engine.stats.modelled_flops / 1e9),
            ],
            title=f"ran {graph.name}",
        ))
        for probe in attached:
            print(f"probe {probe.task}: {len(probe.values)} values, "
                  f"last = {type(probe.last).__name__}")
        return 0

    settings = dict(
        n_workers=args.workers, seed=args.seed, discovery=args.discovery
    )
    run_args = dict(
        iterations=args.iterations, probes=probes, dispatch=args.dispatch,
        verification=args.verification,
    )
    if args.transport == "tcp":
        if args.trace_out or args.metrics_out or args.telemetry_out:
            print("error: --trace-out/--metrics-out/--telemetry-out need the "
                  "sim transport (observability files describe one process)",
                  file=sys.stderr)
            return 1
        from .deployment import run_tcp_localhost

        report = run_tcp_localhost(graph, **run_args, **settings)
        mode = f"tcp localhost ({args.workers} worker processes + controller)"
        clock = "wall s"
    else:
        from .grid import ConsumerGrid

        grid = ConsumerGrid(telemetry=bool(args.telemetry_out), **settings)
        report = grid.run(
            graph, **run_args, trace_out=args.trace_out,
            metrics_out=args.metrics_out, telemetry_out=args.telemetry_out,
        )
        mode = (f"simulated grid ({args.workers} workers, "
                f"{args.discovery} discovery)")
        clock = "sim s"
    if args.trace_out:
        summary = report.tracing
        print(f"trace written to {args.trace_out} "
              f"({summary.get('spans', 0)} spans, {summary.get('events', 0)} events)")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.telemetry_out:
        print(f"telemetry written to {args.telemetry_out} "
              f"({report.health.get('sampler', {}).get('samples', 0)} samples, "
              f"{report.health.get('incidents', 0)} incident(s))")
    rows = [
        ("mode", mode),
        ("policy", report.policy),
        ("iterations", report.iterations),
        (f"deploy time ({clock})", report.deploy_time),
        (f"makespan ({clock})", report.makespan),
        ("re-dispatches", report.redispatches),
        ("placements", dict(report.placements)),
    ]
    if report.integrity:
        rows += [
            ("verification", report.integrity.get("verification")),
            ("replicas issued", report.integrity.get("replicas_issued")),
            ("overturned results", report.integrity.get("overturned")),
            ("convicted peers", report.integrity.get("convicted")),
        ]
    print(render_kv(rows, title=f"ran {graph.name}"))
    for name, values in report.probe_values.items():
        print(f"probe {name}: {len(values)} values")
    return 0


def _cmd_top(args) -> int:
    from .observe import render_top

    text = Path(args.target).read_text()
    if text.lstrip().startswith("<"):
        # A graph file: run it on a telemetered grid, then render the
        # dashboard over the live trace.
        from .grid import ConsumerGrid

        graph = graph_from_string(text)
        grid = ConsumerGrid(
            n_workers=args.workers,
            seed=args.seed,
            discovery=args.discovery,
            telemetry=True,
            telemetry_interval=args.interval,
        )
        report = grid.run(graph, iterations=args.iterations,
                          dispatch=args.dispatch)
        print(render_top(grid.sim.tracer), end="")
        print(f"makespan {report.makespan:.3f} sim s, "
              f"{report.health.get('incidents', 0)} incident(s)")
        return 0
    # Otherwise: a trace file written by --trace-out.
    print(render_top(args.target), end="")
    return 0


def _cmd_analyze(args) -> int:
    import json as _json

    from .observe import analyze, compare_runs, doctor, render_diff

    if args.diff is not None:
        diff = compare_runs(args.trace, args.diff, threshold_pct=args.threshold)
        if args.json:
            print(_json.dumps(diff, sort_keys=True, indent=2))
        else:
            print(render_diff(diff), end="")
        return 1 if (args.fail_on_regression and diff["regressions"]) else 0
    if args.json:
        print(_json.dumps(analyze(args.trace), sort_keys=True, indent=2))
    else:
        print(doctor(args.trace), end="")
    return 0


def _cmd_sweep(args) -> int:
    import json

    from .analysis.experiments import EXPERIMENTS
    from .analysis.runtable import diff, result_path, run_batch, store

    names = args.names or [exp.name for exp in EXPERIMENTS]
    failed = []
    for exp in [EXPERIMENTS.lookup(name) for name in names]:
        payload = run_batch(exp)
        print(payload["table"])
        problems = []
        for claim in payload["claims"]:
            print(f"  [{'ok' if claim['holds'] else 'FAILED'}] {claim['claim']}")
            if not claim["holds"]:
                problems.append(f"claim does not hold: {claim['claim']}")
        if args.check:
            committed = json.loads(result_path(args.out, exp.name).read_text())
            problems += diff(payload, committed)
        else:
            print(f"[saved to {store(payload, args.out)}]")
        for problem in problems:
            print(f"FAIL {exp.name}: {problem}", file=sys.stderr)
        if problems:
            failed.append(exp.name)
        print()
    print(f"sweep of {len(names)} experiment(s): "
          + (f"failed: {', '.join(failed)}" if failed else "ok"))
    return 1 if failed else 0


def _verification_spec(spec: str) -> str:
    """``--verification``'s type: a bad spec is a usage error, raised
    before any fabric or worker process exists."""
    from .service.errors import SchedulingError
    from .service.integrity import make_verifier

    try:
        make_verifier(spec)
    except SchedulingError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _fleet_size(text: str) -> int:
    """``faults --workers``'s type: a plan is drawn over at least one
    worker, so zero or a negative count is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _grid_args(workers: int) -> argparse.ArgumentParser:
    """What a grid is and how it deals: the flags ``run`` and ``top`` share.

    A fresh parent per sub-command — argparse shares a parent's actions
    by reference, so the one default that differs needs its own copy.
    """
    from .grid import DISCOVERY
    from .service.placement import dispatch_policy_names

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=workers,
                        help="fleet size of the Consumer Grid "
                             f"(default {workers}; run: 0 = local engine)")
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument("--discovery", default="central",
                        choices=tuple(DISCOVERY))
    parent.add_argument("--dispatch", default="round_robin",
                        choices=dispatch_policy_names())
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Consumer Grid reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_units = sub.add_parser("units", help="list the unit toolbox")
    p_units.add_argument("--category", default=None,
                         choices=sorted({d.category for d in global_registry()}))
    p_units.add_argument("--search", default=None)
    p_units.set_defaults(fn=_cmd_units)

    p_policies = sub.add_parser(
        "policies", help="list registered group distribution policies"
    )
    p_policies.set_defaults(fn=_cmd_policies)

    p_transports = sub.add_parser(
        "transports", help="list registered transport backends"
    )
    p_transports.set_defaults(fn=_cmd_transports)

    p_faults = sub.add_parser(
        "faults", help="list fault kinds and chaos() preset contents"
    )
    from .faults import CHAOS_LEVELS

    p_faults.add_argument("--level", default=None, choices=tuple(CHAOS_LEVELS),
                          help="expand one preset into its concrete plan")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="seed for the expanded plan (with --level)")
    p_faults.add_argument("--workers", type=_fleet_size, default=6,
                          help="fleet size for the expanded plan "
                               "(with --level)")
    p_faults.set_defaults(fn=_cmd_faults)

    p_validate = sub.add_parser("validate", help="type-check a task graph file")
    p_validate.add_argument("graph")
    p_validate.set_defaults(fn=_cmd_validate)

    from .transport import transport_names

    p_run = sub.add_parser("run", parents=[_grid_args(workers=0)],
                           help="execute a task graph")
    p_run.add_argument("graph")
    p_run.add_argument("-n", "--iterations", type=int, default=1)
    p_run.add_argument("--transport", default="sim", choices=transport_names(),
                       help="grid substrate: sim = deterministic simulated "
                            "network (default); tcp = real localhost "
                            "sockets, controller in-process + one OS "
                            "process per worker")
    p_run.add_argument("--verification", default="none", metavar="SPEC",
                       type=_verification_spec,
                       help="result-integrity strategy: none, replicate-<k> "
                            "(vote over k peers), or spot-<p> (recompute a "
                            "fraction p locally); grid mode only")
    p_run.add_argument("--probe", action="append",
                       help="task name to observe (repeatable)")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a run trace (.json = Chrome/Perfetto, "
                            ".jsonl = event log, .txt/.log = text "
                            "timeline); grid mode only")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the grid's cumulative counters at the "
                            "end of the run as JSON (does not switch "
                            "tracing on); grid mode only")
    p_run.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="enable live telemetry and write the sampled "
                            "timeseries as JSONL; grid mode only")
    p_run.set_defaults(fn=_cmd_run)

    p_top = sub.add_parser(
        "top",
        parents=[_grid_args(workers=4)],
        help="live-grid dashboard: per-peer utilization bars, incident "
             "timeline, worst offenders",
    )
    p_top.add_argument("target",
                       help="a trace file from --trace-out, or a graph file "
                            "to run on a telemetered grid")
    p_top.add_argument("-n", "--iterations", type=int, default=1,
                       help="iterations when target is a graph file")
    p_top.add_argument("--interval", type=float, default=5.0,
                       help="telemetry sample interval in sim seconds")
    p_top.set_defaults(fn=_cmd_top)

    p_analyze = sub.add_parser(
        "analyze",
        help="analyze a run trace: critical path, per-peer utilization, "
             "bottleneck attribution, run diffing",
    )
    p_analyze.add_argument("trace",
                           help="trace file from --trace-out "
                                "(.jsonl event log or .json Chrome trace)")
    p_analyze.add_argument("--diff", default=None, metavar="OTHER",
                           help="compare against a second trace "
                                "(trace = baseline, OTHER = candidate)")
    p_analyze.add_argument("--threshold", type=float, default=5.0,
                           help="regression threshold in %% for --diff "
                                "(default 5)")
    p_analyze.add_argument("--fail-on-regression", action="store_true",
                           help="exit 1 if --diff finds regressions over "
                                "the threshold")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the analysis as JSON instead of text")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_sweep = sub.add_parser(
        "sweep",
        help="run experiments from the run table (EXPERIMENTS.md): print each "
             "table and its paper claims, write BENCH_<name>.json",
    )
    p_sweep.add_argument("names", nargs="*", metavar="NAME",
                         help="experiments to run (default: all of them)")
    p_sweep.add_argument("--check", action="store_true",
                         help="write nothing; compare every field of every "
                              "cell with the stored files and exit 1 on a "
                              "difference")
    p_sweep.add_argument("--out", default="benchmarks/results", metavar="DIR",
                         help="directory of the BENCH_<name>.json files "
                              "(default benchmarks/results)")
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WorkflowError, ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
