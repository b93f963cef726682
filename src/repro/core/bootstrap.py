"""Bootstrap validation of the analytic confidence intervals.

The paper's Tables 2/3 rest on t-based confidence intervals whose
variance term assumes independent samples and sums of means (§4.1).
This module provides a nonparametric check: resample each constituent
path's samples with replacement, recompute the composed improvement, and
take percentile intervals.  Agreement between the bootstrap and analytic
intervals supports the paper's (and our) use of the cheaper analytic
form; where they disagree, the bootstrap is the more defensible of the
two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analysis import AnalysisResult
from repro.core.graph import Metric, Pair
from repro.core.stats import compose_loss, left_sum
from repro.datasets.dataset import Dataset


class BootstrapError(RuntimeError):
    """Raised on invalid bootstrap configuration."""


@dataclass(frozen=True, slots=True)
class BootstrapInterval:
    """Bootstrap percentile interval for one pair's improvement.

    Attributes:
        src: Source host.
        dst: Destination host.
        point: The observed improvement (default − composed alternate).
        lo: Lower percentile bound.
        hi: Upper percentile bound.
    """

    src: str
    dst: str
    point: float
    lo: float
    hi: float

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi


def _resample_mean(samples: np.ndarray, rng: np.random.Generator) -> float:
    idx = rng.integers(0, samples.size, size=samples.size)
    return float(samples[idx].mean())


def bootstrap_improvements(
    dataset: Dataset,
    result: AnalysisResult,
    *,
    n_resamples: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
    max_pairs: int | None = None,
) -> list[BootstrapInterval]:
    """Bootstrap the improvement of each comparison in ``result``.

    The alternate path's composition (RTT sum / loss independence) is
    recomputed per resample from the raw samples, so the interval
    reflects the full nonlinearity of the statistic.

    Args:
        dataset: The dataset the analysis was computed from.
        result: An RTT or LOSS analysis over that dataset.
        n_resamples: Bootstrap replicates per pair.
        confidence: Central interval mass.
        seed: RNG seed.
        max_pairs: Optionally cap the number of pairs (cost control).

    Raises:
        BootstrapError: on unsupported metrics or bad parameters.
    """
    if result.metric not in (Metric.RTT, Metric.LOSS):
        raise BootstrapError("bootstrap supports the RTT and LOSS metrics")
    if n_resamples < 10:
        raise BootstrapError("n_resamples must be at least 10")
    if not 0.0 < confidence < 1.0:
        raise BootstrapError("confidence must be in (0, 1)")
    rng = np.random.default_rng((seed, 0xB0075))
    sampler = (
        dataset.rtt_samples if result.metric is Metric.RTT else dataset.loss_samples
    )
    alpha = (1.0 - confidence) / 2.0
    out: list[BootstrapInterval] = []
    comparisons = result.comparisons
    if max_pairs is not None:
        comparisons = comparisons[:max_pairs]
    for comp in comparisons:
        pair: Pair = (comp.src, comp.dst)
        legs = list(zip((comp.src, *comp.via), (*comp.via, comp.dst)))
        default_samples = sampler(pair)
        leg_samples = [sampler(leg) for leg in legs]
        if default_samples.size == 0 or any(s.size == 0 for s in leg_samples):
            continue
        replicates = np.empty(n_resamples)
        for b in range(n_resamples):
            default_mean = _resample_mean(default_samples, rng)
            leg_means = [_resample_mean(s, rng) for s in leg_samples]
            if result.metric is Metric.RTT:
                alt = left_sum(leg_means)
            else:
                alt = compose_loss([min(max(m, 0.0), 1.0) for m in leg_means])
            replicates[b] = default_mean - alt
        lo, hi = np.quantile(replicates, [alpha, 1.0 - alpha])
        out.append(
            BootstrapInterval(
                src=comp.src,
                dst=comp.dst,
                point=comp.improvement,
                lo=float(lo),
                hi=float(hi),
            )
        )
    return out


@dataclass(frozen=True, slots=True)
class AgreementReport:
    """How well bootstrap and analytic intervals agree."""

    n: int
    sign_agreement: float
    point_coverage: float
    median_width_ratio: float


def compare_with_analytic(
    result: AnalysisResult,
    intervals: list[BootstrapInterval],
    *,
    confidence: float = 0.95,
) -> AgreementReport:
    """Compare bootstrap intervals against the analysis' analytic CIs.

    ``sign_agreement`` is the fraction of pairs where both methods give
    the same better/indeterminate/worse verdict; ``point_coverage`` the
    fraction of bootstrap intervals containing the point estimate;
    ``median_width_ratio`` the bootstrap width over the analytic width.

    Raises:
        BootstrapError: when nothing can be compared.
    """
    by_pair = {(c.src, c.dst): c for c in result.comparisons}
    agree = 0
    cover = 0
    ratios: list[float] = []
    n = 0
    for interval in intervals:
        comp = by_pair.get((interval.src, interval.dst))
        if comp is None or comp.estimate is None:
            continue
        n += 1
        a_lo, a_hi = comp.estimate.confidence_interval(confidence)

        def verdict(lo: float, hi: float) -> int:
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            return 0

        if verdict(a_lo, a_hi) == verdict(interval.lo, interval.hi):
            agree += 1
        if interval.contains(interval.point):
            cover += 1
        analytic_width = a_hi - a_lo
        if analytic_width > 0:
            ratios.append((interval.hi - interval.lo) / analytic_width)
    if n == 0:
        raise BootstrapError("no comparable pairs")
    return AgreementReport(
        n=n,
        sign_agreement=agree / n,
        point_coverage=cover / n,
        median_width_ratio=float(np.median(ratios)) if ratios else float("nan"),
    )
