"""The four workloads: set-up, timed body and output units of each.

Each workload runs inside a fresh child process (see ``child.py``).
Nothing here imports ``repro`` at module level, so the child's set-up
time covers the program's own import.  Every workload runs serially:
``jobs=1`` and no routing worker pool.

A workload's *units* are the outputs checked against the reference
fingerprints in ``references.json``: the 8 Table 1 datasets, the 19
paper artifacts, the 4 strategy rows, or the what-if segments plus the
availability section.  A unit fails if it is missing, raised, or its
sha256 differs from the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ARTIFACTS: tuple[str, ...] = (
    "table1",
    "table2",
    "table3",
    *(f"figure{i}" for i in range(1, 17)),
)

#: Sizes of one unit of work.  Changing any of them changes the outputs,
#: so references.json must be recorded again (``run.py --record``).
PAPER_BUILD_SCALE = 0.03
PAPER_REPRODUCE_SCALE = 0.05
SERVE_HOSTS = 24
SERVE_PAIRS = 40
SERVE_DURATION_S = 7200.0
WHATIF_HOSTS = 40


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Workload:
    """One named workload.

    ``construct`` builds the environment (part of set-up), ``body`` is
    the timed unit of work, ``units`` fingerprints what the body made.
    """

    name: str
    modules: tuple[str, ...]
    body: Callable[[object, "Context"], object]
    units: Callable[[object, "Context"], dict[str, str | None]]
    construct: Callable[["Context"], object] = lambda ctx: None
    #: Extra end-to-end numbers the body's result carries.
    extras: Callable[[object], dict[str, float]] = field(
        default=lambda result: {}
    )


@dataclass
class Context:
    """What the parent hands one child: seed, derived inputs, scratch dir."""

    seed: int
    plan: str
    workdir: Path
    cache: Path


@contextlib.contextmanager
def _quiet():
    """Send the program's console output nowhere, as a batch job would."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            yield


# -- paper-build --------------------------------------------------------


def _build_body(env: object, ctx: Context) -> object:
    from repro.datasets import BuildConfig
    from repro.experiments.runner import provision_datasets

    os.environ["REPRO_CACHE_DIR"] = str(ctx.workdir / "cache")
    return provision_datasets(
        BuildConfig(seed=ctx.seed, scale=PAPER_BUILD_SCALE), jobs=1
    )


def dataset_units(cache: Path, seed: int, scale: float) -> dict[str, str | None]:
    """sha256 of each Table 1 dataset file, as CI's traced-vs-untraced step."""
    from repro.datasets import BuildConfig
    from repro.datasets.builders import table1_order
    from repro.experiments.runner import dataset_cache_path

    os.environ["REPRO_CACHE_DIR"] = str(cache)
    cfg = BuildConfig(seed=seed, scale=scale)
    out: dict[str, str | None] = {}
    for name in table1_order():
        path = dataset_cache_path(name, cfg)
        out[name] = sha256(path.read_bytes()) if path.is_file() else None
    return out


def _build_units(result: object, ctx: Context) -> dict[str, str | None]:
    return dataset_units(ctx.workdir / "cache", ctx.seed, PAPER_BUILD_SCALE)


def fill_cache(ctx: Context) -> None:
    """Provision the paper-reproduce cache with the code under test."""
    from repro.datasets import BuildConfig
    from repro.experiments.runner import provision_datasets

    os.environ["REPRO_CACHE_DIR"] = str(ctx.cache)
    provision_datasets(
        BuildConfig(seed=ctx.seed, scale=PAPER_REPRODUCE_SCALE), jobs=1
    )


# -- paper-reproduce ----------------------------------------------------


def _reproduce_body(env: object, ctx: Context) -> object:
    from repro.cli import main

    os.environ["REPRO_CACHE_DIR"] = str(ctx.cache)
    out = ctx.workdir / "reproduce"
    out.mkdir(parents=True, exist_ok=True)
    argv = [
        "reproduce",
        "--scale", str(PAPER_REPRODUCE_SCALE),
        "--seed", str(ctx.seed),
        "--jobs", "1",
        "-o", str(out / "report.md"),
        "--svg-dir", str(out / "svg"),
    ]
    with _quiet():
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro reproduce exited {code}")
    return out


def report_sections(text: str) -> dict[str, str]:
    """The ``## <artifact>`` sections of a reproduce report, by name."""
    sections: dict[str, str] = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith("## "):
            name = line[3:].strip()
            sections[name] = ""
        if name is not None:
            sections[name] += line
    return sections


def _reproduce_units(out: object, ctx: Context) -> dict[str, str | None]:
    assert isinstance(out, Path)
    report = out / "report.md"
    sections = report_sections(report.read_text("utf-8")) if report.is_file() else {}
    units: dict[str, str | None] = {}
    for name in ARTIFACTS:
        section = sections.get(name)
        if section is None or "MISSING" in section:
            units[name] = None
            continue
        svg = out / "svg" / f"{name}.svg"
        if name.startswith("figure") and not svg.is_file():
            units[name] = None
            continue
        blob = section.encode("utf-8")
        if svg.is_file():
            blob += svg.read_bytes()
        units[name] = sha256(blob)
    return units


# -- detour-serve -------------------------------------------------------


def _serve_construct(ctx: Context) -> object:
    from repro.scenario import ScenarioPlan
    from repro.service import DetourService

    return DetourService(
        ScenarioPlan.parse(ctx.plan),
        seed=ctx.seed,
        n_hosts=SERVE_HOSTS,
        n_pairs=SERVE_PAIRS,
        duration_s=SERVE_DURATION_S,
    )


def _serve_body(service: object, ctx: Context) -> object:
    from repro.service import evaluate_strategies, strategy_names

    report = evaluate_strategies(service, strategy_names())
    (ctx.workdir / "serve.txt").write_text(report.render() + "\n", "utf-8")
    return report


def _serve_units(report, ctx: Context) -> dict[str, str | None]:
    from repro.service import strategy_names

    if report.pairs_down_at_end:
        raise RuntimeError(
            f"{len(report.pairs_down_at_end)} pairs fully down at the end"
        )
    lines = report.render().splitlines()
    header, rows = lines[:4], lines[4:]
    units: dict[str, str | None] = {}
    for name in strategy_names():
        row = [r for r in rows if r.split()[:1] == [name]]
        units[name] = sha256("\n".join(header + row)) if len(row) == 1 else None
    return units


def _serve_extras(report) -> dict[str, float]:
    requests = sum(s.requests for s in report.scores)
    loop_s = sum(s.requests / s.queries_per_second for s in report.scores)
    return {"serve_qps": requests / loop_s}


# -- whatif-replay ------------------------------------------------------


def _whatif_construct(ctx: Context) -> object:
    from repro.scenario import ScenarioPlan, ScenarioRun

    return ScenarioRun(
        ScenarioPlan.parse(ctx.plan), seed=ctx.seed, n_hosts=WHATIF_HOSTS
    )


def _whatif_body(run: object, ctx: Context) -> object:
    from repro.datasets import save_dataset

    dataset, report = run.execute()  # type: ignore[attr-defined]
    save_dataset(dataset, ctx.workdir / "whatif.jsonl")
    return dataset, report, report.render()


def _whatif_units(result, ctx: Context) -> dict[str, str | None]:
    dataset, report, text = result
    if report.permanently_disconnected:
        raise RuntimeError(
            f"{len(report.permanently_disconnected)} pairs permanently disconnected"
        )
    units: dict[str, str | None] = {}
    for k, seg in enumerate(report.segments):
        records = [
            repr(r) for r in dataset.traceroutes if seg.start_s <= r.t < seg.end_s
        ]
        units[f"segment{k:02d}"] = sha256(repr(seg) + "\n".join(records))
    jsonl = (ctx.workdir / "whatif.jsonl").read_bytes()
    units["availability"] = sha256(text + sha256(jsonl))
    return units


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-build",
            modules=("repro", "repro.experiments.runner"),
            body=_build_body,
            units=_build_units,
        ),
        Workload(
            name="paper-reproduce",
            modules=("repro", "repro.cli", "repro.experiments.reproduce",
                     "repro.experiments.render"),
            body=_reproduce_body,
            units=_reproduce_units,
        ),
        Workload(
            name="detour-serve",
            modules=("repro", "repro.scenario", "repro.service"),
            construct=_serve_construct,
            body=_serve_body,
            units=_serve_units,
            extras=_serve_extras,
        ),
        Workload(
            name="whatif-replay",
            modules=("repro", "repro.scenario", "repro.datasets"),
            construct=_whatif_construct,
            body=_whatif_body,
            units=_whatif_units,
        ),
    )
}
