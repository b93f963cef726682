"""The ``repro`` command-line interface.

Subcommands::

    repro traceroute --seed 7 --src 0 --dst 3     # demo traceroute
    repro build --dataset UW3 --scale 0.1 -o uw3.jsonl
    repro analyze uw3.jsonl --metric rtt          # alternate-path analysis
    repro suite --scale 1.0 --jobs 4              # (re)build the suite cache
    repro suite --scale 0.1 --trace out.json      # ... with a RunTrace
    repro reproduce --scale 1.0 --markdown report.md
    repro trace out.json --top 10                 # inspect a RunTrace
    repro check --strict                          # determinism static analysis
    repro bench --compare                         # perf vs BENCH_routing.json
    repro whatif --scenario 'link-down:6-11:at=600:for=900' -o whatif.jsonl

``analyze`` works on any dataset written by ``build`` (or by
:func:`repro.datasets.save_dataset`), prints the headline statistics, and
draws the improvement CDF as an ASCII plot.

File-taking subcommands accept the path either positionally or as a flag
(``repro analyze out.jsonl`` == ``repro analyze --dataset-file
out.jsonl``); the flag spelling is canonical, the positional is kept as
an alias for the old CLI surface.

Exit codes are consistent across subcommands (see docs/METHODOLOGY.md):

* 0 — success.
* 1 — operation failed (e.g. a dataset group build exhausted its
  retries, or an analysis found nothing to analyze).
* 2 — bad usage: unknown dataset, unreadable input file, malformed
  ``--fault-plan`` spec.
* 3 — partial success: ``--keep-going`` completed with some dataset
  groups missing.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

#: The subcommand-wide exit-code contract (documented in --help).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

#: The single authoritative statement of the exit-code contract; every
#: subcommand's --help carries it via :func:`_exit_codes_epilog`.
_EXIT_CODES_TEXT = """\
exit codes:
  0  success
  1  operation failed (build retries exhausted, nothing to analyze, ...)
  2  bad usage (unknown dataset or strategy, unreadable file, malformed
     --fault-plan or --scenario spec)
  3  partial success (--keep-going finished with datasets missing, or a
     scenario left N pairs permanently disconnected)
"""

_COMMAND_SURFACE = """\
command surface:
  traceroute   demo traceroute between two simulated hosts
  build        build one paper dataset and save it (--dataset, -o)
  analyze      alternate-path analysis of a dataset file
               (--dataset-file PATH, or positionally)
  summarize    diagnostic summary of a dataset file
               (--dataset-file PATH, or positionally)
  map          render a topology to an SVG map
  suite        build or load the full Table 1 dataset suite
               (--jobs, --no-cache, --trace out.json,
               robustness flags)
  reproduce    regenerate the paper's tables/figures
               (--only, -o report.md, --svg-dir, --trace out.json)
  trace        inspect a RunTrace written by --trace
               (--trace-file PATH or positionally; --top N, --validate)
  check        determinism-and-invariant static analysis
               (--deep whole-program ARCH/PAR/PERF; --changed diff scope)
  bench        record/compare a perf baseline (BENCH_routing.json,
               BENCH_measurement.json, BENCH_service.json,
               BENCH_topology.json)
  whatif       run a failure/what-if scenario and the disjoint-path
               availability analysis (--scenario SPEC | --scenario-file;
               --scale PRESET; see docs/SCENARIOS.md)
  serve        run the online Detour path-selection service and score
               strategies against the oracle (--strategy, --duration,
               --pairs, --scale PRESET; see docs/API.md)
"""


def _exit_codes_epilog() -> str:
    """The shared exit-code epilog attached to every subcommand parser."""
    return _EXIT_CODES_TEXT


def _add_seed_arg(p: argparse.ArgumentParser, default: int = 1999) -> None:
    """The uniform ``--seed`` flag (identical help text everywhere)."""
    p.add_argument(
        "--seed",
        type=int,
        default=default,
        help=f"master seed; every derived random stream and artifact is "
        f"deterministic in it (default {default})",
    )


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    """The uniform ``--trace PATH`` flag."""
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a RunTrace JSON (plus metrics.json alongside); "
        "inspect with `repro trace PATH`",
    )


def _add_output_arg(
    p: argparse.ArgumentParser,
    what: str,
    *,
    default: str | None = None,
    required: bool = False,
) -> None:
    """The uniform ``-o/--output PATH`` flag (per-command target text)."""
    p.add_argument(
        "-o",
        "--output",
        default=default,
        required=required,
        metavar="PATH",
        help=what,
    )


#: Sentinel returned by :func:`_resolve_optional_alias` on conflicting
#: values (both spellings given, different targets).
_ALIAS_CONFLICT = object()


def _resolve_optional_alias(
    a: str | None, b: str | None, a_flag: str, b_flag: str
):
    """Merge two optional alias flags; :data:`_ALIAS_CONFLICT` on clash."""
    if a is not None and b is not None and a != b:
        print(
            f"conflicting arguments: {a_flag} {a!r} vs {b_flag} {b!r}",
            file=sys.stderr,
        )
        return _ALIAS_CONFLICT
    return b if b is not None else a


def _resolve_path_arg(
    positional: str | None,
    flagged: str | None,
    what: str,
    flag: str,
) -> str | None:
    """One value from a positional/flag alias pair, or None on bad usage.

    The two spellings are interchangeable; giving both (with different
    values) is ambiguous and reported as a usage error by the caller.
    """
    if positional is not None and flagged is not None and positional != flagged:
        print(
            f"conflicting {what} arguments: positional {positional!r} "
            f"vs {flag} {flagged!r}",
            file=sys.stderr,
        )
        return None
    value = flagged if flagged is not None else positional
    if value is None:
        print(
            f"{what} required (positionally or via {flag})", file=sys.stderr
        )
        return None
    return value


def _cmd_traceroute(args: argparse.Namespace) -> int:
    from repro.measurement import TracerouteTool
    from repro.netsim import NetworkConditions, SECONDS_PER_DAY
    from repro.routing import PathResolver
    from repro.topology import TopologyConfig, generate_topology, place_hosts

    topo = generate_topology(TopologyConfig.for_era(args.era, seed=args.seed))
    place_hosts(
        topo, max(args.src, args.dst) + 1, seed=args.seed + 1,
        north_america_only=True, rate_limit_fraction=0.0,
    )
    names = topo.host_names()
    src, dst = names[args.src], names[args.dst]
    resolver = PathResolver(topo)
    conditions = NetworkConditions(topo, seed=args.seed + 2)
    from repro.topology import AddressPlan

    tool = TracerouteTool(topo, conditions)
    plan = AddressPlan(topo)
    rng = np.random.default_rng((args.seed, 3))
    result = tool.trace(
        resolver.resolve_round_trip(src, dst),
        t=args.day * SECONDS_PER_DAY + args.hour * 3600.0,
        rng=rng,
    )
    print(f"traceroute from {src} to {dst}")
    for hop in result.hops:
        samples = "  ".join(
            "      *" if math.isnan(r) else f"{r:7.1f}" for r in hop.rtt_ms
        )
        print(f"  {hop.ttl:2d}  {plan.format_hop(hop.router_id):<58} {samples}  ms")
    as_path = " -> ".join(f"AS{a}" for a in result.as_path(topo))
    print(f"AS path: {as_path}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.datasets import (
        BuildConfig,
        build_d2,
        build_n2,
        build_uw1,
        build_uw3,
        build_uw4,
        save_dataset,
    )

    cfg = BuildConfig(seed=args.seed, scale=args.scale)
    # Only run the builder that produces the requested dataset.
    builders = {
        "D2": lambda: build_d2(cfg)[0],
        "D2-NA": lambda: build_d2(cfg)[1],
        "N2": lambda: build_n2(cfg)[0],
        "N2-NA": lambda: build_n2(cfg)[1],
        "UW1": lambda: build_uw1(cfg),
        "UW3": lambda: build_uw3(cfg)[0],
        "UW4-A": lambda: build_uw4(cfg)[0],
        "UW4-B": lambda: build_uw4(cfg)[1],
    }
    if args.dataset not in builders:
        print(
            f"unknown dataset {args.dataset!r}; choose from {sorted(builders)}",
            file=sys.stderr,
        )
        return 2
    dataset = builders[args.dataset]()
    save_dataset(dataset, args.output)
    row = dataset.table1_row()
    print(
        f"wrote {args.output}: {row['hosts']} hosts, "
        f"{row['measurements']} measurements, "
        f"{row['paths_covered_pct']}% of paths covered"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core import LossComposition, Metric, analyze, analyze_bandwidth
    from repro.datasets import DatasetIOError, load_dataset
    from repro.viz import ascii_cdf

    dataset_file = _resolve_path_arg(
        args.dataset_file_pos, args.dataset_file, "dataset file", "--dataset-file"
    )
    if dataset_file is None:
        return EXIT_USAGE
    try:
        dataset = load_dataset(dataset_file)
    except DatasetIOError as exc:
        print(f"unreadable dataset: {exc}", file=sys.stderr)
        return 2
    metric = Metric(args.metric)
    if metric is Metric.BANDWIDTH:
        result = analyze_bandwidth(
            dataset, LossComposition(args.loss_composition)
        )
    else:
        result = analyze(dataset, metric, min_samples=args.min_samples)
    if not result.comparisons:
        print("no analyzable pairs (try a lower --min-samples)", file=sys.stderr)
        return 1
    print(
        f"{dataset.meta.name}: {len(result)} pairs analyzed under {metric.value}"
    )
    print(f"  alternate superior        : {result.fraction_improved():.1%}")
    improvements = result.improvements()
    print(f"  median improvement        : {np.median(improvements):+.2f}")
    print(f"  90th pct improvement      : {np.percentile(improvements, 90):+.2f}")
    best = max(result.comparisons, key=lambda c: c.improvement)
    print(
        f"  biggest win               : {best.src} -> {best.dst} "
        f"via {' -> '.join(best.via)} ({best.improvement:+.2f})"
    )
    print()
    print(ascii_cdf([result.improvement_cdf()], title="improvement CDF"))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.topology import TopologyConfig, generate_topology, place_hosts
    from repro.viz import save_topology_map

    topo = generate_topology(TopologyConfig.for_era(args.era, seed=args.seed))
    if args.hosts:
        place_hosts(
            topo, args.hosts, seed=args.seed + 1,
            north_america_only=args.era == "1999",
        )
    out = save_topology_map(
        topo, args.output,
        title=f"{args.era}-era topology (seed {args.seed})",
    )
    print(f"wrote {out}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.datasets import BuildConfig, BuildReport
    from repro.datasets.builders import table1_order
    from repro.experiments.runner import provision_datasets
    from repro.faults import BuildFailure, FaultPlanError
    from repro.obs import runtime as obs

    cfg = BuildConfig(seed=args.seed, scale=args.scale)
    report = BuildReport()
    capture_ctx = obs.capture() if args.trace else nullcontext()
    try:
        with capture_ctx as cap:
            datasets = provision_datasets(
                cfg,
                use_cache=not args.no_cache,
                jobs=args.jobs,
                report=report,
                progress=print,
                fault_plan=args.fault_plan,
                build_timeout=args.build_timeout,
                keep_going=args.keep_going,
                resume=args.resume,
            )
    except FaultPlanError as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BuildFailure as exc:
        print(f"dataset build failed: {exc}", file=sys.stderr)
        print(report.summary(), file=sys.stderr)
        return EXIT_FAILURE
    if args.trace:
        from repro.obs.artifact import write_run_trace

        meta = {
            "command": "suite",
            "seed": args.seed,
            "scale": args.scale,
            "jobs": args.jobs,
        }
        trace_path, metrics_path = write_run_trace(cap, meta, args.trace)
        print(f"wrote trace {trace_path} and {metrics_path}")
    lines = [report.summary()]
    for name in table1_order():
        if name not in datasets:
            lines.append(f"  {name:<6} MISSING (build failed; see report above)")
            continue
        row = datasets[name].table1_row()
        lines.append(
            f"  {name:<6} {row['hosts']:>3} hosts  "
            f"{row['measurements']:>8} measurements"
        )
    summary = "\n".join(lines)
    print(summary)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
        print(f"wrote {args.output}")
    if len(datasets) < len(table1_order()):
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.datasets import DatasetIOError, load_dataset, summarize

    dataset_file = _resolve_path_arg(
        args.dataset_file_pos, args.dataset_file, "dataset file", "--dataset-file"
    )
    if dataset_file is None:
        return EXIT_USAGE
    try:
        dataset = load_dataset(dataset_file)
    except DatasetIOError as exc:
        print(f"unreadable dataset: {exc}", file=sys.stderr)
        return 2
    print(summarize(dataset).render())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.quality.cli import run

    return run(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import run as bench_run

    return bench_run(args)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import main as reproduce_main

    markdown = _resolve_optional_alias(
        args.markdown, args.output, "--markdown", "-o/--output"
    )
    if markdown is _ALIAS_CONFLICT:
        return EXIT_USAGE
    forwarded = ["--scale", str(args.scale), "--seed", str(args.seed)]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if markdown:
        forwarded += ["--markdown", markdown]
    if args.svg_dir:
        forwarded += ["--svg-dir", args.svg_dir]
    if args.only:
        forwarded += ["--only", args.only]
    if args.scorecard:
        forwarded += ["--scorecard"]
    if args.fault_plan is not None:
        forwarded += ["--fault-plan", args.fault_plan]
    if args.build_timeout is not None:
        forwarded += ["--build-timeout", str(args.build_timeout)]
    if args.keep_going:
        forwarded += ["--keep-going"]
    if args.resume:
        forwarded += ["--resume"]
    if args.trace:
        forwarded += ["--trace", args.trace]
    return reproduce_main(forwarded)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import RunTrace, TraceError, render_trace

    trace_file = _resolve_path_arg(
        args.trace_file_pos, args.trace_file, "trace file", "--trace-file"
    )
    if trace_file is None:
        return EXIT_USAGE
    try:
        trace = RunTrace.load(trace_file)
    except OSError as exc:
        print(f"unreadable trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.validate:
        from repro.obs import TRACE_SCHEMA, validate

        errors = validate(trace.payload(), TRACE_SCHEMA)
        if errors:
            for err in errors:
                print(f"schema violation: {err}", file=sys.stderr)
            return EXIT_FAILURE
        print(f"{trace_file}: valid RunTrace (version {trace.VERSION})")
    print(render_trace(trace, top=args.top))
    return EXIT_OK


def _read_scenario_spec(args: argparse.Namespace) -> str | None:
    """The scenario spec from ``--scenario``/``--scenario-file``.

    Returns the spec text ("" for none given); None means bad usage (the
    error has been printed).
    """
    if args.scenario is not None and args.scenario_file is not None:
        print(
            "give --scenario or --scenario-file, not both", file=sys.stderr
        )
        return None
    spec = args.scenario
    if args.scenario_file is not None:
        try:
            with open(args.scenario_file, encoding="utf-8") as fh:
                spec = fh.read()
        except OSError as exc:
            print(f"unreadable scenario file: {exc}", file=sys.stderr)
            return None
    return spec or ""


def _cmd_whatif(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.obs import runtime as obs
    from repro.scenario import (
        ScenarioError,
        ScenarioPlan,
        ScenarioPlanError,
        ScenarioRun,
    )

    spec = _read_scenario_spec(args)
    if spec is None:
        return EXIT_USAGE
    try:
        plan = ScenarioPlan.parse(spec)
        capture_ctx = obs.capture() if args.trace else nullcontext()
        with capture_ctx as cap:
            run = ScenarioRun(
                plan, seed=args.seed, n_hosts=args.hosts, scale=args.scale
            )
            dataset, report = run.execute()
    except (ScenarioPlanError, ScenarioError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"bad usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        from repro.datasets import save_dataset

        save_dataset(dataset, args.output)
        print(f"wrote {args.output}")
    if args.trace:
        from repro.obs.artifact import write_run_trace

        meta = {
            "command": "whatif",
            "seed": args.seed,
            "scenario": plan.to_spec(),
        }
        trace_path, metrics_path = write_run_trace(cap, meta, args.trace)
        print(f"wrote trace {trace_path} and {metrics_path}")
    print(report.render())
    n_disconnected = len(report.permanently_disconnected)
    if n_disconnected:
        print(
            f"scenario left {n_disconnected} pairs permanently disconnected",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.obs import runtime as obs
    from repro.scenario import ScenarioError, ScenarioPlan, ScenarioPlanError
    from repro.service import (
        DetourService,
        ServiceError,
        StrategyError,
        evaluate_strategies,
        strategy_names,
    )

    spec = _read_scenario_spec(args)
    if spec is None:
        return EXIT_USAGE
    strategies = tuple(args.strategy) if args.strategy else strategy_names()
    if any(s == "all" for s in strategies):
        strategies = strategy_names()
    try:
        plan = ScenarioPlan.parse(spec)
        capture_ctx = obs.capture() if args.trace else nullcontext()
        with capture_ctx as cap:
            service = DetourService(
                plan,
                seed=args.seed,
                n_hosts=args.hosts,
                n_pairs=args.pairs,
                duration_s=args.duration,
                probe_interval_s=args.probe_interval,
                relays_per_pair=args.relays,
                scale=args.scale,
            )
            report = evaluate_strategies(service, strategies)
    except (ScenarioPlanError, ScenarioError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StrategyError, ServiceError, ValueError) as exc:
        # ValueError covers bad --scale presets (ScaleError) and the like.
        print(f"bad usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    table = report.render()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"wrote {args.output}")
    if args.trace:
        from repro.obs.artifact import write_run_trace

        meta = {
            "command": "serve",
            "seed": args.seed,
            "scenario": plan.to_spec(),
            "strategies": list(strategies),
        }
        trace_path, metrics_path = write_run_trace(cap, meta, args.trace)
        print(f"wrote trace {trace_path} and {metrics_path}")
    print(table)
    print()
    print("throughput (wall clock, not part of the deterministic table):")
    print("\n".join(report.timing_lines()))
    if report.pairs_down_at_end:
        print(
            f"service ended with {len(report.pairs_down_at_end)} pairs "
            "fully down (every candidate path unresolvable)",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _add_robustness_args(p: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by ``suite`` and ``reproduce``."""
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="deterministic fault-injection plan, e.g. 'crash:uw3;truncate:N2' "
        "(default: REPRO_FAULT_PLAN; see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--build-timeout",
        type=float,
        default=None,
        help="per-attempt deadline (seconds) for each dataset group build "
        "(default: REPRO_BUILD_TIMEOUT or unbounded)",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="on a group build failure, continue with the surviving datasets "
        "and exit 3 instead of aborting",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip dataset groups a prior interrupted run already completed "
        "(run-ledger.json)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The End-to-End Effects of Internet "
        "Path Selection' (SIGCOMM 1999)",
        epilog=_COMMAND_SURFACE + "\n" + _exit_codes_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        """A subparser carrying the shared exit-code epilog."""
        return sub.add_parser(
            name,
            epilog=_exit_codes_epilog(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
            **kwargs,
        )

    p = add_parser("traceroute", help="run a demo traceroute")
    _add_seed_arg(p, default=7)
    p.add_argument("--era", choices=["1995", "1999"], default="1999")
    p.add_argument("--src", type=int, default=0, help="source host index")
    p.add_argument("--dst", type=int, default=1, help="destination host index")
    p.add_argument("--day", type=int, default=2, help="simulation day")
    p.add_argument("--hour", type=float, default=18.0, help="UTC hour")
    p.set_defaults(func=_cmd_traceroute)

    p = add_parser("build", help="build one paper dataset and save it")
    p.add_argument("--dataset", default="UW3")
    _add_seed_arg(p)
    p.add_argument("--scale", type=float, default=0.1)
    _add_output_arg(p, "write the dataset here (jsonl)", required=True)
    p.set_defaults(func=_cmd_build)

    p = add_parser("analyze", help="alternate-path analysis of a dataset file")
    p.add_argument(
        "dataset_file_pos",
        nargs="?",
        default=None,
        metavar="dataset_file",
        help="dataset file to analyze (alias for --dataset-file)",
    )
    p.add_argument(
        "--dataset-file",
        default=None,
        metavar="PATH",
        help="dataset file to analyze (canonical flag form)",
    )
    p.add_argument(
        "--metric",
        choices=["rtt", "loss", "prop-delay", "bandwidth"],
        default="rtt",
    )
    p.add_argument("--min-samples", type=int, default=5)
    p.add_argument(
        "--loss-composition",
        choices=["optimistic", "pessimistic"],
        default="pessimistic",
        help="loss combination for the bandwidth metric",
    )
    p.set_defaults(func=_cmd_analyze)

    p = add_parser("map", help="render a topology to an SVG map")
    p.add_argument("--era", choices=["1995", "1999"], default="1999")
    _add_seed_arg(p, default=42)
    p.add_argument("--hosts", type=int, default=15)
    _add_output_arg(p, "write the SVG map here", default="topology.svg")
    p.set_defaults(func=_cmd_map)

    p = add_parser("summarize", help="diagnostic summary of a dataset file")
    p.add_argument(
        "dataset_file_pos",
        nargs="?",
        default=None,
        metavar="dataset_file",
        help="dataset file to summarize (alias for --dataset-file)",
    )
    p.add_argument(
        "--dataset-file",
        default=None,
        metavar="PATH",
        help="dataset file to summarize (canonical flag form)",
    )
    p.set_defaults(func=_cmd_summarize)

    p = add_parser(
        "suite",
        help="build or load the full Table 1 dataset suite (parallel, cached)",
    )
    _add_seed_arg(p)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="build worker processes (default: REPRO_BUILD_JOBS or one per CPU)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="force a rebuild without reading or writing the cache",
    )
    _add_trace_arg(p)
    _add_output_arg(p, "also write the suite summary text here")
    _add_robustness_args(p)
    p.set_defaults(func=_cmd_suite)

    p = add_parser("reproduce", help="regenerate the paper's tables/figures")
    p.add_argument("--scale", type=float, default=1.0)
    _add_seed_arg(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="dataset build worker processes (default: one per CPU)",
    )
    p.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="write the markdown report here (alias of -o/--output)",
    )
    p.add_argument("--svg-dir", default=None)
    p.add_argument("--only", default=None)
    p.add_argument(
        "--scorecard",
        action="store_true",
        help="grade the run against the paper's qualitative bands",
    )
    _add_trace_arg(p)
    _add_output_arg(p, "write the markdown report here (same as --markdown)")
    _add_robustness_args(p)
    p.set_defaults(func=_cmd_reproduce)

    p = add_parser(
        "trace",
        help="inspect a RunTrace written by `suite --trace` or "
        "`reproduce --trace`",
    )
    p.add_argument(
        "trace_file_pos",
        nargs="?",
        default=None,
        metavar="trace_file",
        help="RunTrace JSON to inspect (alias for --trace-file)",
    )
    p.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="RunTrace JSON to inspect (canonical flag form)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="number of slowest spans to show (default 10)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="validate the artifact against the RunTrace schema first",
    )
    p.set_defaults(func=_cmd_trace)

    p = add_parser(
        "check",
        help="determinism-and-invariant static analysis (see docs/STATIC_ANALYSIS.md)",
    )
    from repro.quality.cli import configure_parser as _configure_check_parser

    _configure_check_parser(p)
    p.set_defaults(func=_cmd_check)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            default=None,
            metavar="SPEC",
            help="scenario plan spec, e.g. 'link-down:6-11:at=600:for=900' "
            "(clauses joined with ';'; empty = calm network)",
        )
        p.add_argument(
            "--scenario-file",
            default=None,
            metavar="PATH",
            help="read the scenario spec from a file instead",
        )
        p.add_argument(
            "--scale",
            default=None,
            metavar="PRESET",
            help="topology scale preset (1k, 10k, 100k, paper-1995, "
            "paper-1999; default: the 1999-era paper topology)",
        )

    p = add_parser(
        "whatif",
        help="run a network failure/what-if scenario "
        "(see docs/SCENARIOS.md for the clause grammar)",
    )
    add_scenario_args(p)
    _add_seed_arg(p)
    p.add_argument(
        "--hosts", type=int, default=12, help="measurement host pool size"
    )
    _add_output_arg(p, "write the scenario dataset here (jsonl)")
    _add_trace_arg(p)
    p.set_defaults(func=_cmd_whatif)

    p = add_parser(
        "serve",
        help="run the online Detour path-selection service and score "
        "strategies against the oracle alternates",
    )
    p.add_argument(
        "--strategy",
        action="append",
        default=None,
        metavar="NAME",
        help="path-selection strategy to evaluate (repeatable; "
        "'all' or omitted = every registered strategy)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="simulated horizon (extended to cover the scenario's last "
        "transition; default 1800)",
    )
    p.add_argument(
        "--pairs",
        type=int,
        default=6,
        help="number of (src, dst) client pairs to serve (default 6)",
    )
    p.add_argument(
        "--hosts", type=int, default=12, help="measurement host pool size"
    )
    p.add_argument(
        "--probe-interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="seconds between active probe rounds (default 300, one "
        "congestion bucket)",
    )
    p.add_argument(
        "--relays",
        type=int,
        default=2,
        help="detour relays discovered per pair (default 2)",
    )
    add_scenario_args(p)
    _add_seed_arg(p)
    _add_output_arg(p, "write the strategy-vs-oracle table here")
    _add_trace_arg(p)
    p.set_defaults(func=_cmd_serve)

    p = add_parser(
        "bench",
        help="record or compare a perf baseline (BENCH_routing.json, "
        "BENCH_measurement.json, BENCH_service.json, BENCH_topology.json; "
        "see docs/PERFORMANCE.md)",
    )
    from repro.experiments.bench import configure_parser as _configure_bench_parser

    _configure_bench_parser(p)
    _add_seed_arg(p)
    _add_trace_arg(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
