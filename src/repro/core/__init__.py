"""The paper's core contribution: alternate-path quality analysis.

Typical usage::

    from repro.datasets import build_uw3
    from repro.core import Metric, analyze

    uw3, _ = build_uw3()
    result = analyze(uw3, Metric.RTT)
    print(result.fraction_improved())      # ~0.3-0.55 per the paper
    cdf = result.improvement_cdf()         # Figure 1's UW3 curve
"""

from repro.core.altpath import (
    AlternatePath,
    AlternatePathFinder,
    best_one_hop_alternates,
    loss_weight,
)
from repro.core.analysis import (
    AnalysisError,
    AnalysisResult,
    PairComparison,
    analyze,
    analyze_bandwidth,
    analyze_graph,
)
from repro.core.ases import (
    ASAnalysisError,
    ASPoint,
    as_popularity,
    outlier_ases,
    popularity_correlation,
)
from repro.core.bandwidth import LossComposition, best_bandwidth_alternates
from repro.core.episodes import EpisodeAnalysis, EpisodeError, analyze_episodes
from repro.core.graph import (
    EdgeData,
    GraphError,
    Metric,
    MetricGraph,
    PROPAGATION_PERCENTILE,
    build_graph,
)
from repro.core.hosts import (
    RemovalStep,
    contribution_cdf,
    greedy_host_removal,
    improvement_contributions,
    removal_cdfs,
    tail_heaviness,
)
from repro.core.hopdepth import (
    DepthSweepRow,
    HopDepthError,
    depth_sweep,
    k_hop_alternate_values,
)
from repro.core.medians import (
    MeanMedianComparison,
    MedianAnalysisError,
    compare_mean_vs_median,
    max_cdf_discrepancy,
    mean_median_cdfs,
)
from repro.core.propagation import (
    DelayDecomposition,
    DelayGroup,
    analyze_propagation,
    decompose_improvements,
    group_counts,
    prop_improvement_cdf,
    propagation_cdfs,
    propagation_share,
)
from repro.core.stats import (
    CDFSeries,
    Comparison,
    DelayDistribution,
    DiffEstimate,
    SampleStats,
    StatsError,
    compose_loss,
    diff_of_loss_rates,
    diff_of_means,
    make_cdf,
    median_of_composed,
    welch_satterthwaite,
)
from repro.core.bootstrap import (
    AgreementReport,
    BootstrapError,
    BootstrapInterval,
    bootstrap_improvements,
    compare_with_analytic,
)
from repro.core.crossmetric import (
    CrossMetricError,
    CrossMetricPoint,
    CrossMetricSummary,
    cross_metric_analysis,
    summarize_cross_metric,
)
from repro.core.triangulation import (
    PredictionQuality,
    TrianglePoint,
    TriangulationError,
    prediction_quality,
    triangulate,
    triangulate_dataset,
    violation_rate,
)
from repro.core.timeofday import (
    TimeBin,
    analyze_by_time_of_day,
    paper_time_bins,
    peak_vs_offpeak_gap,
)

__all__ = [
    "ASAnalysisError",
    "ASPoint",
    "AgreementReport",
    "AlternatePath",
    "AlternatePathFinder",
    "AnalysisError",
    "AnalysisResult",
    "BootstrapError",
    "BootstrapInterval",
    "CDFSeries",
    "Comparison",
    "CrossMetricError",
    "CrossMetricPoint",
    "CrossMetricSummary",
    "DelayDecomposition",
    "DelayDistribution",
    "DelayGroup",
    "DepthSweepRow",
    "DiffEstimate",
    "EdgeData",
    "EpisodeAnalysis",
    "EpisodeError",
    "GraphError",
    "HopDepthError",
    "LossComposition",
    "MeanMedianComparison",
    "MedianAnalysisError",
    "Metric",
    "MetricGraph",
    "PROPAGATION_PERCENTILE",
    "PairComparison",
    "PredictionQuality",
    "RemovalStep",
    "SampleStats",
    "StatsError",
    "TimeBin",
    "TrianglePoint",
    "TriangulationError",
    "analyze",
    "analyze_bandwidth",
    "analyze_by_time_of_day",
    "analyze_episodes",
    "analyze_graph",
    "analyze_propagation",
    "as_popularity",
    "best_bandwidth_alternates",
    "best_one_hop_alternates",
    "bootstrap_improvements",
    "build_graph",
    "compare_mean_vs_median",
    "compare_with_analytic",
    "compose_loss",
    "contribution_cdf",
    "cross_metric_analysis",
    "decompose_improvements",
    "depth_sweep",
    "diff_of_loss_rates",
    "diff_of_means",
    "greedy_host_removal",
    "group_counts",
    "improvement_contributions",
    "k_hop_alternate_values",
    "loss_weight",
    "make_cdf",
    "max_cdf_discrepancy",
    "mean_median_cdfs",
    "median_of_composed",
    "outlier_ases",
    "paper_time_bins",
    "peak_vs_offpeak_gap",
    "popularity_correlation",
    "prediction_quality",
    "prop_improvement_cdf",
    "propagation_cdfs",
    "propagation_share",
    "removal_cdfs",
    "summarize_cross_metric",
    "tail_heaviness",
    "triangulate",
    "triangulate_dataset",
    "violation_rate",
    "welch_satterthwaite",
]
