"""Command-line reproduction driver: regenerate every table and figure.

Usage::

    python -m repro.experiments.reproduce [--scale 1.0] [--seed 1999]
        [--jobs 4] [--markdown out.md]
        [--svg-dir figures/] [--scorecard]
        [--only figure1,figure3,table2] [--fault-plan SPEC]
        [--build-timeout S] [--keep-going] [--resume] [--trace out.json]

Prints each table's rows and each figure's series summaries.  With
``--markdown`` additionally writes a paper-vs-measured report in the
EXPERIMENTS.md format; ``--svg-dir`` renders every figure to SVG;
``--scorecard`` grades the run against the paper's qualitative bands.

Robustness flags (see docs/ROBUSTNESS.md): ``--fault-plan`` injects a
deterministic failure schedule into the dataset build, ``--build-timeout``
bounds each group build attempt, ``--keep-going`` reproduces whatever the
surviving datasets support (marking the rest MISSING and exiting 3), and
``--resume`` skips groups a prior interrupted run already completed.

Exit codes: 0 success; 1 build/artifact failure; 2 bad usage (including a
malformed ``--fault-plan``); 3 partial success under ``--keep-going``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.datasets import BuildConfig, BuildReport
from repro.datasets.builders import BUILD_GROUPS
from repro.experiments.figures import ALL_FIGURES, FigureError, FigureResult
from repro.experiments.report import render_missing_datasets
from repro.experiments.runner import last_build_report, provision_datasets
from repro.experiments.tables import TableResult, table1, table2, table3
from repro.faults import BuildFailure, FaultPlanError
from repro.obs import clock
from repro.obs import runtime as obs

#: Headline expectations quoted from the paper's text, keyed by artifact.
PAPER_CLAIMS: dict[str, str] = {
    "table1": "8 datasets; 15-39 hosts; 86-100% paths covered",
    "table2": "better 20-32%, indeterminate 32-41%, worse 29-48%",
    "table3": "alternates rarely significantly worse on loss",
    "figure1": "30-55% of paths have a smaller-RTT alternate",
    "figure2": "~10% of paths: >=50% better latency (ratio > 1.5)",
    "figure3": "75-85% of paths have a lower-loss alternate",
    "figure4": "70-80% of paths have higher-bandwidth alternates",
    "figure5": ">=10-20% of paths: >=3x bandwidth improvement",
    "figure6": "mean-vs-median difference negligible",
    "figure7": "most paths have relatively tight RTT error bounds",
    "figure8": "loss error bounds are wider (binary samples)",
    "figure9": "effect at all times of day; strongest 06-12 PST",
    "figure10": "same for loss",
    "figure11": "simultaneous measurement: slightly more improvable pairs; unaveraged tail much broader",
    "figure12": "removing top-ten hosts does not collapse the effect",
    "figure13": "contribution distribution lacks a heavy tail",
    "figure14": "no AS class dominates defaults or alternates",
    "figure15": "propagation-only alternates still better for ~50%",
    "figure16": "group 6 >> group 3: many alternates avoid congestion",
}


def _figure_args(scale: float) -> dict[str, dict]:
    min_samples = max(4, int(round(30 * scale)))
    base = dict(min_samples=min_samples)
    return {
        "figure4": {},
        "figure5": {},
        "figure9": dict(min_samples=max(3, min_samples // 5)),
        "figure10": dict(min_samples=max(3, min_samples // 5)),
        "_default": base,
    }


def missing_datasets(report: BuildReport) -> list[str]:
    """Dataset names a partial (keep-going) build failed to provide."""
    names: set[str] = set()
    for group in report.failed_datasets:
        names.update(BUILD_GROUPS.get(group, (group,)))
    return sorted(names)


def run_all(
    scale: float,
    seed: int,
    only: set[str] | None = None,
    jobs: int | None = None,
    *,
    fault_plan: str | None = None,
    build_timeout: float | None = None,
    keep_going: bool = False,
    resume: bool = False,
) -> dict[str, TableResult | FigureResult]:
    """Build (or load) the suite and run every selected artifact.

    With ``keep_going=True`` dataset groups that fail to build are left
    out: artifacts that tolerate a subset run on what survived, the rest
    are skipped with a MISSING banner, and the caller decides the exit
    code from :func:`repro.experiments.runner.last_build_report`.
    """
    with obs.span("experiments.reproduce") as rsp:
        rsp.set("seed", seed)
        rsp.set("scale", scale)
        report = BuildReport()
        datasets = provision_datasets(
            BuildConfig(seed=seed, scale=scale),
            jobs=jobs,
            report=report,
            fault_plan=fault_plan,
            build_timeout=build_timeout,
            keep_going=keep_going,
            resume=resume,
        )
        print(report.summary())
        missing = missing_datasets(report)
        if missing:
            print(render_missing_datasets(missing))
        min_samples = max(4, int(round(30 * scale)))
        artifacts: dict[str, TableResult | FigureResult] = {}
        artifact_jobs: list[tuple[str, object]] = [
            ("table1", lambda: table1(datasets)),
            ("table2", lambda: table2(datasets, min_samples=min_samples)),
            ("table3", lambda: table3(datasets, min_samples=min_samples)),
        ]
        fig_args = _figure_args(scale)
        for name, fn in ALL_FIGURES.items():
            kwargs = fig_args.get(name, fig_args["_default"])
            artifact_jobs.append(
                (name, lambda fn=fn, kwargs=kwargs: fn(datasets, **kwargs))
            )
        for name, job in artifact_jobs:
            if only and name not in only:
                continue
            start = clock.now()
            try:
                with obs.span("experiments.artifact") as sp:
                    sp.set("name", name)
                    artifacts[name] = job()
            except (FigureError, KeyError) as exc:
                if not missing:
                    raise
                print(f"\n=== {name} SKIPPED ({exc}) ===")
                continue
            obs.count("experiments.artifacts")
            print(f"\n=== {name} ({clock.now() - start:.1f}s) ===")
            print(artifacts[name].text)
        rsp.set("artifacts", len(artifacts))
    return artifacts


def write_markdown(
    artifacts: dict[str, TableResult | FigureResult],
    path: str,
    scale: float,
    seed: int,
    missing: Sequence[str] = (),
) -> None:
    """Write a paper-vs-measured markdown report."""
    lines = [
        "# Reproduction run",
        "",
        f"Generated by `python -m repro.experiments.reproduce --scale {scale:g} "
        f"--seed {seed}`.",
        "",
    ]
    if missing:
        lines += ["```", render_missing_datasets(missing), "```", ""]
    for name, artifact in artifacts.items():
        lines.append(f"## {name}")
        lines.append("")
        claim = PAPER_CLAIMS.get(name)
        if claim:
            lines.append(f"*Paper:* {claim}")
            lines.append("")
        lines.append("```")
        lines.append(artifact.text)
        lines.append("```")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"\nwrote {path}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="dataset build worker processes (default: one per CPU)",
    )
    parser.add_argument("--markdown", type=str, default=None)
    parser.add_argument(
        "--svg-dir",
        type=str,
        default=None,
        help="render every reproduced figure to SVG files in this directory",
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help="comma-separated artifact names, e.g. figure1,table2",
    )
    parser.add_argument(
        "--scorecard",
        action="store_true",
        help="grade the run against the paper's qualitative bands",
    )
    parser.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="deterministic fault-injection plan for the dataset build "
        "(spec string; see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--build-timeout",
        type=float,
        default=None,
        help="per-attempt deadline (seconds) for each dataset group build "
        "(default: REPRO_BUILD_TIMEOUT or unbounded)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="on a group build failure, reproduce what the surviving "
        "datasets support (exit 3) instead of aborting",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip dataset groups a prior interrupted run already completed "
        "(run ledger)",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write a RunTrace JSON (plus metrics.json alongside) for the "
        "run; inspect with `repro trace PATH`",
    )
    args = parser.parse_args(argv)
    only = set(args.only.split(",")) if args.only else None
    try:
        if args.trace:
            from repro.obs.artifact import write_run_trace

            with obs.capture() as cap:
                artifacts = run_all(
                    args.scale,
                    args.seed,
                    only,
                    jobs=args.jobs,
                    fault_plan=args.fault_plan,
                    build_timeout=args.build_timeout,
                    keep_going=args.keep_going,
                    resume=args.resume,
                )
            meta = {
                "command": "reproduce",
                "seed": args.seed,
                "scale": args.scale,
                "jobs": args.jobs,
            }
            trace_path, metrics_path = write_run_trace(cap, meta, args.trace)
            print(f"wrote trace {trace_path} and {metrics_path}")
        else:
            artifacts = run_all(
                args.scale,
                args.seed,
                only,
                jobs=args.jobs,
                fault_plan=args.fault_plan,
                build_timeout=args.build_timeout,
                keep_going=args.keep_going,
                resume=args.resume,
            )
    except FaultPlanError as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    except BuildFailure as exc:
        print(f"dataset build failed: {exc}", file=sys.stderr)
        return 1
    build_report = last_build_report()
    missing = missing_datasets(build_report) if build_report is not None else []
    if args.markdown:
        write_markdown(
            artifacts, args.markdown, args.scale, args.seed, missing=missing
        )
    if args.svg_dir:
        from repro.experiments.figures import FigureResult
        from repro.experiments.render import render_all

        figures = {
            name: art
            for name, art in artifacts.items()
            if isinstance(art, FigureResult)
        }
        written = render_all(figures, args.svg_dir)
        print(f"rendered {len(written)} SVG figures to {args.svg_dir}")
    if args.scorecard:
        from repro.experiments.scorecard import grade, render_scorecard

        print()
        print(render_scorecard(grade(artifacts)))
    if missing:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
