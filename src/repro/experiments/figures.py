"""Reproduction of the paper's Figures 1–16.

Every function takes the dataset suite and returns a
:class:`FigureResult`: the CDF curves / scatter points the paper plots,
headline statistics quoted in the paper's prose, and a rendered text
block.  Nothing here plots pixels — the *series* are the reproduction;
rendering them with any plotting tool reproduces the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis import analyze, analyze_bandwidth, analyze_graph
from repro.core.ases import as_popularity, popularity_correlation
from repro.core.bandwidth import LossComposition
from repro.core.episodes import analyze_episodes
from repro.core.graph import Metric, build_graph
from repro.core.hosts import (
    contribution_cdf,
    greedy_host_removal,
    improvement_contributions,
    removal_cdfs,
    tail_heaviness,
)
from repro.core.medians import compare_mean_vs_median, max_cdf_discrepancy, mean_median_cdfs
from repro.core.propagation import (
    decompose_improvements,
    group_counts,
    propagation_cdfs,
)
from repro.core.stats import CDFSeries, make_cdf
from repro.core.timeofday import analyze_by_time_of_day
from repro.datasets.dataset import Dataset
from repro.experiments.report import render_cdf_summaries

#: Datasets plotted in Figures 1-3.
RTT_FIGURE_DATASETS = ["UW1", "UW3", "D2-NA", "D2"]


class FigureError(RuntimeError):
    """Raised when a figure's required datasets are missing."""


@dataclass
class FigureResult:
    """One reproduced figure.

    Attributes:
        name: Identifier, e.g. ``"figure1"``.
        title: The paper's caption, abbreviated.
        series: The figure's CDF curves (empty for pure scatters).
        data: Extra structured results (scatter points, group counts,
            headline fractions) keyed by name.
        text: Rendered summary for terminal output.
    """

    name: str
    title: str
    series: list[CDFSeries] = field(default_factory=list)
    data: dict[str, object] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _require(datasets: dict[str, Dataset], names: list[str]) -> None:
    missing = [n for n in names if n not in datasets]
    if missing:
        raise FigureError(f"missing datasets: {missing}")


def _improvement_figure(
    datasets: dict[str, Dataset],
    metric: Metric,
    *,
    name: str,
    title: str,
    min_samples: int,
    ratio: bool,
    unit: str,
) -> FigureResult:
    series: list[CDFSeries] = []
    data: dict[str, object] = {}
    for ds_name in RTT_FIGURE_DATASETS:
        if ds_name not in datasets:
            continue
        result = analyze(datasets[ds_name], metric, min_samples=min_samples)
        if not result.comparisons:
            continue  # too sparse at this scale to draw a curve
        curve = result.ratio_cdf(ds_name) if ratio else result.improvement_cdf(ds_name)
        series.append(curve)
        data[f"{ds_name}_fraction_improved"] = result.fraction_improved()
        data[f"{ds_name}_result"] = result
    text = render_cdf_summaries(series, title, unit=unit)
    return FigureResult(name=name, title=title, series=series, data=data, text=text)


def figure1(datasets: dict[str, Dataset], *, min_samples: int = 30) -> FigureResult:
    """Figure 1: CDF of mean-RTT improvement (default − best alternate)."""
    return _improvement_figure(
        datasets,
        Metric.RTT,
        name="figure1",
        title="Figure 1: RTT difference, default vs best alternate (ms)",
        min_samples=min_samples,
        ratio=False,
        unit="ms",
    )


def figure2(datasets: dict[str, Dataset], *, min_samples: int = 30) -> FigureResult:
    """Figure 2: CDF of the RTT ratio (default / best alternate)."""
    return _improvement_figure(
        datasets,
        Metric.RTT,
        name="figure2",
        title="Figure 2: relative RTT (default / best alternate)",
        min_samples=min_samples,
        ratio=True,
        unit="x",
    )


def figure3(datasets: dict[str, Dataset], *, min_samples: int = 30) -> FigureResult:
    """Figure 3: CDF of mean loss-rate improvement."""
    return _improvement_figure(
        datasets,
        Metric.LOSS,
        name="figure3",
        title="Figure 3: loss-rate difference, default vs best alternate",
        min_samples=min_samples,
        ratio=False,
        unit="",
    )


def _bandwidth_figure(
    datasets: dict[str, Dataset], *, name: str, title: str, ratio: bool
) -> FigureResult:
    _require(datasets, ["N2", "N2-NA"])
    series: list[CDFSeries] = []
    data: dict[str, object] = {}
    for ds_name in ["N2", "N2-NA"]:
        for comp in (LossComposition.PESSIMISTIC, LossComposition.OPTIMISTIC):
            result = analyze_bandwidth(datasets[ds_name], comp)
            if not result.comparisons:
                continue  # too sparse at this scale to draw a curve
            label = f"{ds_name} {comp.value}"
            curve = result.ratio_cdf(label) if ratio else result.improvement_cdf(label)
            series.append(curve)
            data[f"{label}_fraction_improved"] = result.fraction_improved()
            data[f"{label}_result"] = result
    text = render_cdf_summaries(series, title, unit="x" if ratio else "kB/s")
    return FigureResult(name=name, title=title, series=series, data=data, text=text)


def figure4(datasets: dict[str, Dataset]) -> FigureResult:
    """Figure 4: CDF of bandwidth improvement (one-hop alternates)."""
    return _bandwidth_figure(
        datasets,
        name="figure4",
        title="Figure 4: bandwidth difference, best one-hop alternate vs default (kB/s)",
        ratio=False,
    )


def figure5(datasets: dict[str, Dataset]) -> FigureResult:
    """Figure 5: CDF of the bandwidth ratio."""
    return _bandwidth_figure(
        datasets,
        name="figure5",
        title="Figure 5: relative bandwidth (best one-hop alternate / default)",
        ratio=True,
    )


def figure6(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "D2-NA"
) -> FigureResult:
    """Figure 6: mean vs median (convolution) improvements, one hop."""
    _require(datasets, [dataset])
    comparisons = compare_mean_vs_median(datasets[dataset], min_samples=min_samples)
    means, medians = mean_median_cdfs(comparisons)
    gap = max_cdf_discrepancy(comparisons)
    title = f"Figure 6: mean vs median one-hop RTT improvement ({dataset})"
    text = render_cdf_summaries([means, medians], title, unit="ms")
    text += f"\nmax CDF discrepancy (KS distance): {gap:.3f}"
    return FigureResult(
        name="figure6",
        title=title,
        series=[means, medians],
        data={"comparisons": comparisons, "max_discrepancy": gap},
        text=text,
    )


def _ci_figure(
    datasets: dict[str, Dataset],
    metric: Metric,
    *,
    name: str,
    title: str,
    dataset: str,
    min_samples: int,
    unit: str,
) -> FigureResult:
    _require(datasets, [dataset])
    result = analyze(datasets[dataset], metric, min_samples=min_samples)
    if not result.comparisons:
        raise FigureError(
            f"{dataset} has no analyzable pairs at min_samples={min_samples}"
        )
    comps = sorted(result.comparisons, key=lambda c: c.improvement)
    x = np.array([c.improvement for c in comps])
    intervals = np.array(
        [c.estimate.confidence_interval() for c in comps if c.estimate is not None]
    )
    curve = make_cdf(x, dataset)
    data = {
        "result": result,
        "ci_low": intervals[:, 0],
        "ci_high": intervals[:, 1],
        "mean_halfwidth": float(np.mean((intervals[:, 1] - intervals[:, 0]) / 2.0)),
    }
    text = render_cdf_summaries([curve], title, unit=unit)
    text += f"\nmean 95% CI half-width: {data['mean_halfwidth']:.3f}{unit}"
    return FigureResult(name=name, title=title, series=[curve], data=data, text=text)


def figure7(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW3"
) -> FigureResult:
    """Figure 7: UW3 RTT improvement CDF with 95 % confidence intervals."""
    return _ci_figure(
        datasets,
        Metric.RTT,
        name="figure7",
        title="Figure 7: RTT improvement with 95% CIs (UW3)",
        dataset=dataset,
        min_samples=min_samples,
        unit="ms",
    )


def figure8(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW3"
) -> FigureResult:
    """Figure 8: UW3 loss improvement CDF with 95 % confidence intervals."""
    return _ci_figure(
        datasets,
        Metric.LOSS,
        name="figure8",
        title="Figure 8: loss improvement with 95% CIs (UW3)",
        dataset=dataset,
        min_samples=min_samples,
        unit="",
    )


def _timeofday_figure(
    datasets: dict[str, Dataset],
    metric: Metric,
    *,
    name: str,
    title: str,
    dataset: str,
    min_samples: int,
    unit: str,
) -> FigureResult:
    _require(datasets, [dataset])
    results = analyze_by_time_of_day(datasets[dataset], metric, min_samples=min_samples)
    series = [
        r.improvement_cdf(label)
        for label, r in results.items()
        if r.comparisons
    ]
    data: dict[str, object] = {"results": results}
    for label, r in results.items():
        data[f"{label}_fraction_improved"] = r.fraction_improved()
    text = render_cdf_summaries(series, title, unit=unit)
    return FigureResult(name=name, title=title, series=series, data=data, text=text)


def figure9(
    datasets: dict[str, Dataset], *, min_samples: int = 5, dataset: str = "UW3"
) -> FigureResult:
    """Figure 9: RTT improvement by time of day / weekend (UW3)."""
    return _timeofday_figure(
        datasets,
        Metric.RTT,
        name="figure9",
        title="Figure 9: RTT improvement by time of day (UW3, PST bins)",
        dataset=dataset,
        min_samples=min_samples,
        unit="ms",
    )


def figure10(
    datasets: dict[str, Dataset], *, min_samples: int = 5, dataset: str = "UW3"
) -> FigureResult:
    """Figure 10: loss improvement by time of day / weekend (UW3)."""
    return _timeofday_figure(
        datasets,
        Metric.LOSS,
        name="figure10",
        title="Figure 10: loss improvement by time of day (UW3, PST bins)",
        dataset=dataset,
        min_samples=min_samples,
        unit="",
    )


def figure11(
    datasets: dict[str, Dataset],
    *,
    min_samples: int = 30,
    max_episodes: int | None = None,
) -> FigureResult:
    """Figure 11: long-term average (UW4-B) vs simultaneous (UW4-A)."""
    _require(datasets, ["UW4-A", "UW4-B"])
    b_result = analyze(datasets["UW4-B"], Metric.RTT, min_samples=min_samples)
    episode_analysis = analyze_episodes(datasets["UW4-A"], max_episodes=max_episodes)
    series = [
        b_result.improvement_cdf("UW4-B"),
        episode_analysis.pair_averaged_cdf("pair-averaged UW4-A"),
        episode_analysis.unaveraged_cdf("unaveraged UW4-A"),
    ]
    title = "Figure 11: long-term average vs simultaneous measurement"
    text = render_cdf_summaries(series, title, unit="ms")
    return FigureResult(
        name="figure11",
        title=title,
        series=series,
        data={
            "uw4b_result": b_result,
            "episode_analysis": episode_analysis,
        },
        text=text,
    )


def figure12(
    datasets: dict[str, Dataset],
    *,
    min_samples: int = 30,
    dataset: str = "UW3",
    k: int = 10,
) -> FigureResult:
    """Figure 12: greedy removal of the 'top ten' hosts (UW3 RTT)."""
    _require(datasets, [dataset])
    graph = build_graph(datasets[dataset], Metric.RTT, min_samples=min_samples)
    baseline = analyze_graph(graph, dataset_name=dataset)
    steps = greedy_host_removal(graph, k=k, dataset_name=dataset)
    full, pruned = removal_cdfs(baseline, steps)
    title = f"Figure 12: improvement CDF before/after removing top {k} hosts ({dataset})"
    text = render_cdf_summaries([full, pruned], title, unit="ms")
    text += "\nremoved: " + ", ".join(s.removed for s in steps)
    return FigureResult(
        name="figure12",
        title=title,
        series=[full, pruned],
        data={
            "steps": steps,
            "baseline_fraction": baseline.fraction_improved(),
            "pruned_fraction": (
                steps[-1].result.fraction_improved() if steps else None
            ),
        },
        text=text,
    )


def figure13(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW3"
) -> FigureResult:
    """Figure 13: CDF of per-host normalized improvement contribution."""
    _require(datasets, [dataset])
    graph = build_graph(datasets[dataset], Metric.RTT, min_samples=min_samples)
    contributions = improvement_contributions(graph)
    curve = contribution_cdf(contributions, label=dataset)
    heaviness = tail_heaviness(contributions)
    title = "Figure 13: normalized improvement contribution per host"
    text = render_cdf_summaries([curve], title)
    text += f"\ntop-10% hosts hold {100.0 * heaviness:.0f}% of total contribution"
    return FigureResult(
        name="figure13",
        title=title,
        series=[curve],
        data={"contributions": contributions, "tail_heaviness": heaviness},
        text=text,
    )


def figure14(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW1"
) -> FigureResult:
    """Figure 14: AS appearances in default vs best-alternate paths."""
    _require(datasets, [dataset])
    result = analyze(datasets[dataset], Metric.RTT, min_samples=min_samples)
    points = as_popularity(datasets[dataset], result)
    corr = popularity_correlation(points)
    title = "Figure 14: per-AS default vs alternate path appearances"
    lines = [title]
    lines.append(f"ASes plotted: {len(points)}; log-log correlation: {corr:.2f}")
    top = sorted(points, key=lambda p: -(p.direct + p.alternate))[:8]
    for p in top:
        lines.append(f"  AS{p.asn}: direct={p.direct} alternate={p.alternate}")
    return FigureResult(
        name="figure14",
        title=title,
        series=[],
        data={"points": points, "correlation": corr},
        text="\n".join(lines),
    )


def figure15(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW3"
) -> FigureResult:
    """Figure 15: propagation-delay vs mean-RTT improvement CDFs (UW3)."""
    _require(datasets, [dataset])
    prop_curve, rtt_curve = propagation_cdfs(
        datasets[dataset], min_samples=min_samples
    )
    title = "Figure 15: propagation-delay vs mean-RTT improvement (UW3)"
    text = render_cdf_summaries([prop_curve, rtt_curve], title, unit="ms")
    return FigureResult(
        name="figure15",
        title=title,
        series=[prop_curve, rtt_curve],
        data={
            "prop_fraction_improved": prop_curve.fraction_above(0.0),
            "rtt_fraction_improved": rtt_curve.fraction_above(0.0),
        },
        text=text,
    )


def figure16(
    datasets: dict[str, Dataset], *, min_samples: int = 30, dataset: str = "UW3"
) -> FigureResult:
    """Figure 16: decomposition of RTT improvements into propagation vs
    queuing components, with the six-group classification (UW3)."""
    _require(datasets, [dataset])
    points = decompose_improvements(datasets[dataset], min_samples=min_samples)
    counts = group_counts(points)
    title = "Figure 16: propagation vs total RTT improvement decomposition (UW3)"
    lines = [title, f"points: {len(points)}"]
    for group, count in sorted(counts.items(), key=lambda kv: kv[0].value):
        lines.append(f"  group {group.value}: {count}")
    return FigureResult(
        name="figure16",
        title=title,
        series=[],
        data={"points": points, "group_counts": counts},
        text="\n".join(lines),
    )


#: All figure entry points keyed by name, for the benchmark harness.
ALL_FIGURES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "figure16": figure16,
}
