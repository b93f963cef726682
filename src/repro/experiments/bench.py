"""Perf-baseline recorder: run benchmark suites, track committed baselines.

The repo's perf trajectory is tracked in committed baseline files at the
repository root — ``BENCH_routing.json`` (the core routing benchmarks,
the default) and ``BENCH_measurement.json`` (the measurement pipeline,
via ``--output BENCH_measurement.json --bench-file
benchmarks/test_perf_measurement.py``): median/min wall-clock per
benchmark plus a machine-calibration constant so numbers recorded on
different hardware remain roughly comparable (see docs/PERFORMANCE.md).

Two entry points drive this module:

* ``repro bench`` — the CLI subcommand.
* ``python benchmarks/record.py`` — a thin wrapper kept next to the
  benchmarks themselves.

Recording runs the benchmark module under pytest-benchmark in a
subprocess, parses the exported JSON, and writes the baseline file.
``--compare`` reports speedup/regression ratios against the committed
baseline instead of overwriting it (CI's perf-smoke job uses this to spot
order-of-magnitude regressions without rerunning statistics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.obs import clock

#: Default location of the committed perf baseline (repo root).
DEFAULT_BASELINE = "BENCH_routing.json"

#: The benchmark module whose results are recorded.
CORE_BENCH_FILE = "benchmarks/test_perf_core.py"

#: Bumped when the baseline file's layout changes.
SCHEMA_VERSION = 1


class BenchError(RuntimeError):
    """Raised when recording or comparing a perf baseline fails."""


def calibrate(repeats: int = 5) -> float:
    """Median seconds for a fixed pure-Python workload.

    The workload is deliberately interpreter-bound (integer arithmetic in
    a tight loop): it tracks the single-core speed that dominates the
    routing hot paths, so ``median_s / calibration_s`` is a unitless
    "machine-normalized" cost comparable across hosts.
    """
    def workload() -> int:
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) & 0xFFFFFFFF
        return acc

    times: list[float] = []
    for _ in range(repeats):
        start = clock.now()
        workload()
        times.append(clock.now() - start)
    return statistics.median(times)


def _pytest_env() -> dict[str, str]:
    """Subprocess environment with this repro package importable."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


def run_benchmarks(
    bench_file: str = CORE_BENCH_FILE,
    *,
    keyword: str | None = None,
    quick: bool = False,
    env_overrides: dict[str, str] | None = None,
) -> dict[str, dict[str, float]]:
    """Run ``bench_file`` under pytest-benchmark; return stats per test.

    Returns a mapping ``test_name -> {"median_s": ..., "min_s": ...,
    "rounds": ...}``.  ``quick`` caps benchmarking at one round per test
    (CI smoke mode: detects order-of-magnitude regressions only).
    ``env_overrides`` is merged into the subprocess environment (how the
    unified ``--seed`` flag reaches the benchmarks).

    Raises:
        BenchError: if pytest fails or exports no benchmark data.
    """
    with tempfile.TemporaryDirectory() as tmp:
        export = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            bench_file,
            "--benchmark-only",
            f"--benchmark-json={export}",
            "-q",
            "-p",
            "no:cacheprovider",
        ]
        if quick:
            cmd += [
                "--benchmark-min-rounds=1",
                "--benchmark-max-time=0.1",
                "--benchmark-warmup=off",
            ]
        if keyword:
            cmd += ["-k", keyword]
        env = _pytest_env()
        if env_overrides:
            env.update(env_overrides)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(
                f"benchmark run failed (exit {proc.returncode}):\n"
                f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
            )
        try:
            payload = json.loads(export.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BenchError(f"benchmark export unreadable: {exc}") from exc
    results: dict[str, dict[str, float]] = {}
    for entry in payload.get("benchmarks", []):
        stats = entry["stats"]
        results[entry["name"]] = {
            "median_s": float(stats["median"]),
            "min_s": float(stats["min"]),
            "rounds": int(stats["rounds"]),
        }
    if not results:
        raise BenchError(f"no benchmarks collected from {bench_file}")
    return results


def record_baseline(
    output: str | Path = DEFAULT_BASELINE,
    *,
    bench_file: str = CORE_BENCH_FILE,
    keyword: str | None = None,
    note: str = "",
    env_overrides: dict[str, str] | None = None,
) -> dict:
    """Run the core benchmarks and write the baseline file; return it."""
    calibration = calibrate()
    results = run_benchmarks(
        bench_file, keyword=keyword, env_overrides=env_overrides
    )
    baseline = {
        "version": SCHEMA_VERSION,
        "bench_file": bench_file,
        "note": note,
        "machine": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
            "calibration_s": calibration,
        },
        "benchmarks": {
            name: {
                **stats,
                "normalized_median": stats["median_s"] / calibration,
            }
            for name, stats in sorted(results.items())
        },
    }
    path = Path(output)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return baseline


def load_baseline(path: str | Path = DEFAULT_BASELINE) -> dict:
    """Read a committed baseline file.

    Raises:
        BenchError: if the file is missing or malformed.
    """
    try:
        baseline = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"unreadable baseline {path}: {exc}") from exc
    if baseline.get("version") != SCHEMA_VERSION:
        raise BenchError(
            f"baseline {path} has version {baseline.get('version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    return baseline


def compare_to_baseline(
    baseline: dict,
    *,
    bench_file: str | None = None,
    keyword: str | None = None,
    quick: bool = False,
    env_overrides: dict[str, str] | None = None,
) -> list[tuple[str, float, float, float]]:
    """Re-run the benchmarks and compare against ``baseline``.

    Returns rows ``(name, baseline_norm, current_norm, speedup)`` where
    ``speedup`` > 1 means the current tree is faster than the baseline
    (machine-normalized medians on both sides).  Benchmarks present on
    only one side are skipped.
    """
    calibration = calibrate()
    results = run_benchmarks(
        bench_file or baseline.get("bench_file", CORE_BENCH_FILE),
        keyword=keyword,
        quick=quick,
        env_overrides=env_overrides,
    )
    rows: list[tuple[str, float, float, float]] = []
    for name, stats in sorted(results.items()):
        base = baseline["benchmarks"].get(name)
        if base is None:
            continue
        current_norm = stats["median_s"] / calibration
        base_norm = base["normalized_median"]
        speedup = base_norm / current_norm if current_norm > 0 else float("inf")
        rows.append((name, base_norm, current_norm, speedup))
    return rows


def render_comparison(rows: list[tuple[str, float, float, float]]) -> str:
    """Human-readable table for :func:`compare_to_baseline` output."""
    lines = [
        f"{'benchmark':<40} {'baseline':>10} {'current':>10} {'speedup':>8}"
    ]
    for name, base_norm, current_norm, speedup in rows:
        lines.append(
            f"{name:<40} {base_norm:>10.2f} {current_norm:>10.2f} "
            f"{speedup:>7.2f}x"
        )
    return "\n".join(lines)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to ``parser`` (shared with ``repro bench``)."""
    parser.add_argument(
        "-o",
        "--output",
        default=DEFAULT_BASELINE,
        help=f"baseline file to write or compare against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--bench-file",
        default=CORE_BENCH_FILE,
        help=f"benchmark module to run (default {CORE_BENCH_FILE})",
    )
    parser.add_argument(
        "-k",
        "--keyword",
        default=None,
        help="pytest -k filter restricting which benchmarks run",
    )
    parser.add_argument(
        "--note",
        default="",
        help="free-form note stored in the baseline file",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare the current tree against the committed baseline "
        "instead of overwriting it",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --compare: single-round smoke run (no statistics)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="with --compare: exit 1 if any benchmark's speedup vs the "
        "baseline falls below RATIO (e.g. 0.5 = tolerate 2x regression)",
    )


def _unified_env(args: argparse.Namespace) -> dict[str, str]:
    """Subprocess env overrides from the unified CLI flags.

    ``repro bench`` registers ``--seed`` with the same spelling as the
    other subcommands; the standalone ``benchmarks/record.py`` parser
    does not, so it is read with a ``getattr`` default.
    """
    overrides: dict[str, str] = {}
    seed = getattr(args, "seed", None)
    if seed is not None:
        overrides["REPRO_BENCH_SEED"] = str(seed)
    return overrides


def run(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation; returns a process exit code."""
    from contextlib import nullcontext

    from repro.obs import runtime as obs

    trace = getattr(args, "trace", None)
    env_overrides = _unified_env(args)
    capture_ctx = obs.capture() if trace else nullcontext()
    try:
        with capture_ctx as cap, obs.span("bench.run") as sp:
            sp.set("bench_file", args.bench_file)
            sp.set("compare", bool(args.compare))
            if args.compare:
                baseline = load_baseline(args.output)
                rows = compare_to_baseline(
                    baseline,
                    bench_file=args.bench_file,
                    keyword=args.keyword,
                    quick=args.quick,
                    env_overrides=env_overrides,
                )
                print(render_comparison(rows))
                if args.fail_below is not None:
                    slow = [r for r in rows if r[3] < args.fail_below]
                    if slow:
                        names = ", ".join(r[0] for r in slow)
                        print(
                            f"perf regression: {names} below "
                            f"{args.fail_below}x of baseline",
                            file=sys.stderr,
                        )
                        return 1
                return 0
            baseline = record_baseline(
                args.output,
                bench_file=args.bench_file,
                keyword=args.keyword,
                note=args.note,
                env_overrides=env_overrides,
            )
            machine = baseline["machine"]
            print(
                f"wrote {args.output} "
                f"({len(baseline['benchmarks'])} benchmarks, "
                f"calibration {machine['calibration_s'] * 1e3:.1f} ms)"
            )
            return 0
    except BenchError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace:
            from repro.obs.artifact import write_run_trace

            meta = {
                "command": "bench",
                "bench_file": args.bench_file,
                "compare": bool(args.compare),
            }
            seed = getattr(args, "seed", None)
            if seed is not None:
                meta["seed"] = seed
            trace_path, metrics_path = write_run_trace(cap, meta, trace)
            print(f"wrote trace {trace_path} and {metrics_path}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro bench`` / ``benchmarks/record.py``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Record or compare the routing perf baseline "
        "(BENCH_routing.json; see docs/PERFORMANCE.md)",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
