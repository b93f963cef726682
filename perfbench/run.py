"""Performance ledger: end-to-end and per-layer numbers for four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-build --seed 1999 --seconds 20 --trace 0
    python3 perfbench/run.py --record        # rewrite references.json

Each sample is a fresh ``python3 perfbench/child.py`` process that runs
the workload once, serially; samples repeat until ``--seconds`` is
spent, each on the next program seed of the run's rotation.  With
``--trace 0`` the end-to-end metrics are the medians of the samples.
With ``--trace 1`` untraced and traced samples alternate; the traced
ones wrap every callable in ``layers.LAYER_CALLABLES`` and turn on the
program's own ``repro.obs`` counters, and report the per-layer split.
Every sample's outputs are checked against ``references.json``.
See LEDGER.md for the workloads, the metrics and the first ledger.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it print every metric with its unit, the failed fraction and, for
``detour-serve``, the ``repro serve`` throughput.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

#: Seeds tried, in order, when recording references; ``--record`` keeps
#: those on which all four workloads run without error.
CANDIDATE_SEEDS: tuple[int, ...] = (1999, 2024, *range(1, 41))
N_REFERENCE_SEEDS = 10

#: A run starts no sample once this much wall time has gone, so that it
#: ends within three minutes even when a sample runs slow.
RUN_LIMIT_S = 150.0
MIN_SETUP_SAMPLES = 3

sys.path.insert(0, str(HERE))
import plans  # noqa: E402
from layers import LAYERS, derived_counts  # noqa: E402
from workloads import ARTIFACTS, SERVE_DURATION_S, WHATIF_HOSTS, WORKLOADS  # noqa: E402

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad seed, bad plan)."""


def rotation(seed: int, seeds: list[int]) -> list[int]:
    """The program seeds a benchmark seed selects, in the order run.

    The rotation starts at the seed itself when it has recorded
    references, and otherwise at ``seeds[seed % len(seeds)]``, so every
    sample is checked against a reference.
    """
    i = seeds.index(seed) if seed in seeds else seed % len(seeds)
    return seeds[i:] + seeds[:i]


def derive_plan(workload: str, seed: int) -> str:
    """The scenario plan of ``workload`` for ``seed`` ("" if it needs none)."""
    if workload == "detour-serve":
        return plans.serve_plan(seed, SERVE_DURATION_S)
    if workload == "whatif-replay":
        return plans.whatif_plan(seed, WHATIF_HOSTS)
    return ""


def child_env(workdir: Path) -> dict[str, str]:
    """The child's environment: serial, fault-free, scratch in ``workdir``.

    No bytecode cache is read or written, so set-up always compiles the
    package from source whatever the caller's environment or checkout
    holds.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(workdir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts child samples for one workload in one scratch directory."""

    def __init__(self, workload: str, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.started = time.perf_counter()
        self._n = 0
        self.plans: dict[int, str] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def plan(self, seed: int) -> str:
        if seed not in self.plans:
            self.plans[seed] = derive_plan(self.workload, seed)
        return self.plans[seed]

    def sample(self, mode: str, seed: int) -> dict:
        self._n += 1
        sample_dir = self.workdir / f"sample{self._n:03d}"
        out = self.workdir / f"sample{self._n:03d}.json"
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            self.workload,
            str(seed),
            self.plan(seed),
            str(sample_dir),
            str(self.workdir / f"cache-{seed}"),
            str(out),
        ]
        timeout = max(5.0, 170.0 - self.elapsed())
        try:
            proc = subprocess.run(
                argv,
                env=child_env(self.workdir),
                cwd=self.workdir,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            proc = None
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
        if proc is None:
            result = {"error": f"sample timed out after {timeout:.0f} s"}
        elif proc.returncode != 0 or not out.is_file():
            result = {"error": proc.stderr[-2000:] or "child crashed"}
        else:
            result = json.loads(out.read_text("utf-8"))
            out.unlink()
        return {**result, "mode": mode, "seed": seed}


def collect(
    runner: Runner, seeds: list[int], seconds: float, trace: bool
) -> list[dict]:
    """Samples until ``seconds`` are spent (at least one of each kind).

    Untraced runs give each sample the next program seed of ``seeds``
    (a :func:`rotation`), so one run's median spans several seeds' inputs rather
    than resting on one.  Traced runs keep the first seed, so their
    counts are exact for it and each traced sample has an untraced twin.
    """
    samples: list[dict] = []
    filled: set[int] = set()
    modes = ("measure", "trace") if trace else ("measure",)
    loop_start = time.perf_counter()
    durations: list[float] = []
    for k in itertools.count():
        seed = seeds[0 if trace else k % len(seeds)]
        if runner.workload == "paper-reproduce" and seed not in filled:
            fill = runner.sample("fill", seed)
            if "error" in fill:
                raise BenchError(f"cache fill failed:\n{fill['error']}")
            samples.append(fill)
            filled.add(seed)
        t = time.perf_counter()
        for mode in modes:
            samples.append(runner.sample(mode, seed))
        durations.append(time.perf_counter() - t)
        # Start another sample only if it should end by half a sample past
        # ``seconds``: a run then has three samples where two and a bit fit.
        spent = time.perf_counter() - loop_start
        if spent + statistics.median(durations) / 2 > seconds:
            break
        if runner.elapsed() + max(durations) > RUN_LIMIT_S:
            break
    if not trace:
        while (
            sum(1 for s in samples if "setup_s" in s) < MIN_SETUP_SAMPLES
            and runner.elapsed() < RUN_LIMIT_S
        ):
            samples.append(runner.sample("setup", seed))
    return samples


def check_units(
    samples: list[dict], references: dict[str, dict[str, str]]
) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every sample that ran the body.

    ``references`` maps a program seed (as a string) to its fingerprints.
    """
    attempted = failed = 0
    messages: list[str] = []
    for s in samples:
        if s["mode"] not in ("measure", "trace"):
            continue
        reference = references.get(str(s["seed"]))
        if reference is None:
            messages.append(f"no reference fingerprints recorded for seed {s['seed']}")
            reference = {}
        if "error" in s:
            n = max(len(reference), 1)
            attempted += n
            failed += n
            messages.append(f"{s['mode']} sample failed: {s['error'].strip()}")
            continue
        units: dict[str, str | None] = s["units"]
        for name in sorted(set(units) | set(reference)):
            attempted += 1
            got = units.get(name)
            if got is None or got != reference.get(name):
                failed += 1
                messages.append(
                    f"{s['mode']} sample, seed {s['seed']}: unit {name} "
                    "differs from its reference"
                )
    return attempted, failed, messages


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[dict]) -> dict[str, float]:
    measured = [s for s in samples if s["mode"] == "measure" and "error" not in s]
    setups = [s["setup_s"] for s in samples if "setup_s" in s and "error" not in s]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median([s["wall_s"] for s in measured]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in measured]),
    }
    extras = [s["extras"] for s in measured if s.get("extras")]
    for key in sorted({k for e in extras for k in e}):
        metrics[key] = _median([e[key] for e in extras if key in e])
    return metrics


def per_layer(samples: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, self seconds by layer) from the traced samples."""
    traced = [s["trace"] for s in samples if s["mode"] == "trace" and "error" not in s]
    untraced = [
        s["wall_s"] for s in samples if s["mode"] == "measure" and "error" not in s
    ]
    if not traced or not untraced:
        raise BenchError("no traced or no untraced sample completed")
    rows: list[dict[str, float]] = []
    for t in traced:
        total = t["traced_s"]
        row: dict[str, float] = {}
        for layer in LAYERS:
            row[f"{layer}.self_pct"] = 100.0 * t["self_s"].get(layer, 0.0) / total
            row[f"{layer}.calls"] = float(t["calls"].get(layer, 0))
        row["datasets.wait_pct"] = 100.0 * t["wait_s"].get("datasets", 0.0) / total
        for name in ARTIFACTS:
            module = "tables" if name.startswith("table") else "figures"
            spec = f"repro.experiments.{module}:{name}"
            row[f"experiments.{name}_pct"] = (
                100.0 * t["inclusive_s"].get(spec, 0.0) / total
            )
        row.update(derived_counts(t["spec_calls"], t["counts"], t["obs_counters"]))
        rows.append(row)
    metrics = {k: _median([r[k] for r in rows]) for k in rows[0]}
    traced_wall = _median([t["wall_s"] for t in traced])
    metrics["obs.trace_overhead_frac"] = traced_wall / _median(untraced) - 1.0
    self_seconds = {
        layer: _median([t["self_s"].get(layer, 0.0) for t in traced])
        for layer in LAYERS
    }
    self_seconds["(unattributed)"] = _median(
        [t["traced_s"] - sum(t["self_s"].values()) for t in traced]
    )
    self_seconds["(traced total)"] = _median([t["traced_s"] for t in traced])
    return metrics, self_seconds


def metric_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    if name.endswith("_qps"):
        return "1/s"
    if name.startswith("datasets.bytes_"):
        return "B"
    return "count"


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {"seeds": [], "workloads": {}}
    return json.loads(REFERENCES.read_text("utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    refs = load_references()
    if not refs["seeds"]:
        raise BenchError(f"{REFERENCES} holds no reference seeds")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        runner = Runner(workload, workdir)
        samples = collect(runner, rotation(seed, refs["seeds"]), seconds, trace)
        seed_plans = runner.plans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Traced and untraced samples meet the same reference, so a traced
    # run that perturbs an output fails here too.
    attempted, failed, messages = check_units(
        samples, refs["workloads"].get(workload, {})
    )
    body = [s for s in samples if s["mode"] in ("measure", "trace")]
    print(f"workload {workload}  seed {seed}  samples {len(body)}  trace {int(trace)}")
    print("  program seeds: " + " ".join(str(s["seed"]) for s in body))
    for plan_seed, plan in seed_plans.items():
        if plan:
            print(f"  plan for seed {plan_seed}: {plan}")
    e2e = end_to_end(samples)
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {metric_unit(name)}")
    walls = [s["wall_s"] for s in samples if "wall_s" in s]
    print("  wall_s of each untraced sample: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  {'failed_frac':<14} {failed / max(attempted, 1):12.4f} "
          f"frac ({failed}/{attempted} units)")
    for message in messages:
        print(f"  ! {message}")
    if trace:
        metrics, self_seconds = per_layer(samples)
        print("  layer          self_s  self %   calls")
        total = self_seconds["(traced total)"]
        for layer, value in sorted(self_seconds.items(), key=lambda kv: -kv[1]):
            calls = metrics.get(f"{layer}.calls", 0.0)
            share = 100.0 * value / total
            print(f"  {layer:<16} {value:8.3f} {share:6.1f} {calls:8.0f}")
        for name, value in metrics.items():
            if not name.endswith((".self_pct", ".calls")):
                print(f"  {name:<40} {value:14.4f} {metric_unit(name)}")
    else:
        metrics = {k: v for k, v in e2e.items() if k in UNITS}
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metric_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def record() -> int:
    """Record reference fingerprints with the code in this tree."""
    seeds: list[int] = []
    table: dict[str, dict[str, dict]] = {name: {} for name in WORKLOADS}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for seed in CANDIDATE_SEEDS:
        if len(seeds) == N_REFERENCE_SEEDS:
            break
        found: dict[str, dict] = {}
        problem = None
        for name in WORKLOADS:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=work_root))
            try:
                runner = Runner(name, workdir)
                try:
                    runner.plan(seed)
                except plans.PlanError as exc:
                    problem = f"{name}: plan: {exc}"
                    break
                if name == "paper-reproduce":
                    fill = runner.sample("fill", seed)
                    if "error" in fill:
                        last_line = fill["error"].strip().splitlines()[-1]
                        problem = f"{name}: fill: {last_line}"
                        break
                first = runner.sample("measure", seed)
                second = runner.sample("measure", seed)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for s in (first, second):
                if "error" in s:
                    problem = f"{name}: {s['error'].strip().splitlines()[-1]}"
            if problem:
                break
            if first["units"] != second["units"]:
                unstable = sorted(
                    k
                    for k in first["units"]
                    if first["units"][k] != second["units"].get(k)
                )
                problem = f"{name}: outputs differ between two runs: {unstable}"
                break
            found[name] = first["units"]
        if problem:
            print(f"seed {seed}: rejected ({problem})", flush=True)
            continue
        seeds.append(seed)
        for name, units in found.items():
            table[name][str(seed)] = units
        print(f"seed {seed}: recorded", flush=True)
    REFERENCES.write_text(
        json.dumps({"seeds": seeds, "workloads": table}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCES} ({len(seeds)} seeds)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="record references.json from this tree"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, plans.PlanError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
