"""Statistical machinery for path comparisons.

The paper (§4.1, §6) rests on a small statistical toolkit:

* **sample means** as the characteristic statistic of each path, chosen
  for the additive property "the sum of the means is equal to the mean of
  the sums";
* **95 % confidence intervals** on the difference between a default path's
  mean and a synthetic alternate's composed mean, computed as
  ``d̄ ± t[.975; ν] · s`` following Jain's formulation, with the variance
  of the composed mean summed across constituent edges (independence
  assumption) and degrees of freedom by Welch–Satterthwaite;
* **t-test classification** of each pair as better / worse /
  indeterminate (Tables 2 and 3);
* **medians by convolution** — the median of a composed path requires
  convolving the per-edge sample distributions and taking the median of
  the result (Figure 6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special


class StatsError(ValueError):
    """Raised on invalid statistical inputs."""


@dataclass(frozen=True, slots=True)
class SampleStats:
    """Summary of one path's measurement samples.

    Attributes:
        n: Number of samples.
        mean: Sample mean.
        var: Unbiased sample variance (ddof=1); 0.0 when n < 2.
    """

    n: int
    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise StatsError(f"need at least one sample, got n={self.n}")
        if self.var < 0:
            raise StatsError(f"variance cannot be negative, got {self.var}")

    @classmethod
    def from_samples(cls, samples: np.ndarray | Sequence[float]) -> "SampleStats":
        """Build from raw samples.

        Raises:
            StatsError: if ``samples`` is empty.
        """
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise StatsError("cannot summarize zero samples")
        var = float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0
        return cls(n=int(arr.size), mean=float(arr.mean()), var=var)

    @property
    def sem_sq(self) -> float:
        """Squared standard error of the mean, ``var / n``."""
        return self.var / self.n


def left_sum(values: Iterable[float]) -> float:
    """Sum ``values`` one addition at a time, first to last.

    Builtin ``sum`` compensates float rounding since Python 3.12, so its
    result depends on the interpreter; this is Python 3.11's ``sum``,
    bit for bit, on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def row_stats(  # hotpath
    samples: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 variance of every row of a ragged sample array.

    Row ``i`` is the next ``counts[i]`` entries of ``samples`` and gets
    exactly the ``mean`` and ``var`` that ``SampleStats.from_samples``
    computes for it.  Rows of equal length are gathered into one
    C-contiguous ``(m, k)`` block and reduced along ``axis=1``, which
    runs numpy's pairwise sum over each row as a one-row call does; rows
    are never padded, since padding would change that sum's grouping.
    Every row needs at least one sample.
    """
    means = np.empty(len(counts))
    variances = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    width = np.arange(counts.max(initial=0))
    for k in np.unique(counts).tolist():
        members = np.flatnonzero(counts == k)
        block = samples[starts[members][:, None] + width[:k]]
        means[members] = block.mean(axis=1)
        if k > 1:
            variances[members] = block.var(axis=1, ddof=1)
    return means, variances


class Comparison(enum.Enum):
    """t-test classification of a default-vs-alternate difference."""

    BETTER = "better"            # alternate significantly better
    WORSE = "worse"              # alternate significantly worse
    INDETERMINATE = "indeterminate"  # CI crosses zero
    ZERO = "zero"                # no measured signal on either path (loss)


@dataclass(frozen=True, slots=True)
class DiffEstimate:
    """A difference of means with its uncertainty.

    ``diff`` is oriented so positive means *the alternate is better*.

    Attributes:
        diff: Point estimate of the improvement.
        se: Standard error of ``diff``; 0 when no variance information.
        dof: Welch–Satterthwaite degrees of freedom (>= 1).
    """

    diff: float
    se: float
    dof: float

    def confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Two-sided CI on the improvement.

        With no variance information (se == 0) the interval collapses to
        the point estimate.
        """
        if not 0.0 < confidence < 1.0:
            raise StatsError(f"confidence must be in (0,1), got {confidence}")
        if self.se == 0.0:
            return (self.diff, self.diff)
        # Student's t quantile (scipy.stats.t.ppf) without importing
        # scipy.stats, which dominates the package's import time.
        tq = float(special.stdtrit(max(self.dof, 1.0), 0.5 + confidence / 2.0))
        return (self.diff - tq * self.se, self.diff + tq * self.se)

    def classify(self, confidence: float = 0.95) -> Comparison:
        """Table 2/3 classification at the given confidence level."""
        lo, hi = self.confidence_interval(confidence)
        if lo > 0.0:
            return Comparison.BETTER
        if hi < 0.0:
            return Comparison.WORSE
        if lo == hi == 0.0:
            return Comparison.ZERO
        return Comparison.INDETERMINATE


def welch_satterthwaite(components: Sequence[SampleStats]) -> float:
    """Welch–Satterthwaite effective degrees of freedom for a sum of
    independent sample means.

    Components with zero variance contribute nothing; if all are
    degenerate the dof defaults to the summed sample sizes minus count.
    """
    if not components:
        raise StatsError("need at least one component")
    num = 0.0
    den = 0.0
    for comp in components:
        v = comp.sem_sq
        num += v
        if v > 0 and comp.n > 1:
            den += (v * v) / (comp.n - 1)
    if den == 0.0:
        return float(max(sum(c.n for c in components) - len(components), 1))
    return max((num * num) / den, 1.0)


def diff_of_means(
    default: SampleStats, alternate_components: Sequence[SampleStats]
) -> DiffEstimate:
    """Estimate (default mean − sum of alternate component means).

    This is the paper's additive composition: an alternate path's mean is
    the sum of its constituent edges' means, its variance the sum of their
    squared standard errors (independence).

    Returns a :class:`DiffEstimate` oriented positive-is-better for
    smaller-is-better metrics (RTT, loss, propagation delay).
    """
    if not alternate_components:
        raise StatsError("alternate path needs at least one component")
    alt_mean = left_sum(c.mean for c in alternate_components)
    var = default.sem_sq + left_sum(c.sem_sq for c in alternate_components)
    dof = welch_satterthwaite([default, *alternate_components])
    return DiffEstimate(diff=default.mean - alt_mean, se=math.sqrt(var), dof=dof)


def diff_of_loss_rates(
    default: SampleStats, alternate_components: Sequence[SampleStats]
) -> DiffEstimate:
    """Estimate (default loss − composed alternate loss).

    The alternate's loss under the independence assumption is
    ``1 − ∏(1 − p_i)``; its standard error follows from the delta method,
    where ``∂/∂p_i [1 − ∏(1 − p_j)] = ∏_{j≠i}(1 − p_j)``.
    """
    if not alternate_components:
        raise StatsError("alternate path needs at least one component")
    survive = 1.0
    for comp in alternate_components:
        survive *= max(0.0, 1.0 - comp.mean)
    alt_loss = 1.0 - survive
    var = default.sem_sq
    for comp in alternate_components:
        one_minus = max(1.0 - comp.mean, 1e-12)
        grad = survive / one_minus  # product of the *other* factors
        var += (grad * grad) * comp.sem_sq
    dof = welch_satterthwaite([default, *alternate_components])
    return DiffEstimate(diff=default.mean - alt_loss, se=math.sqrt(var), dof=dof)


def compose_loss(means: Sequence[float]) -> float:
    """Loss of a composed path under per-hop independence."""
    survive = 1.0
    for p in means:
        if not 0.0 <= p <= 1.0:
            raise StatsError(f"loss rate out of range: {p}")
        survive *= 1.0 - p
    return 1.0 - survive


# ---------------------------------------------------------------------------
# Medians of composed paths, by convolution (Figure 6).
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DelayDistribution:
    """A discretized empirical delay distribution.

    Probability mass at ``origin + k * bin_width`` for each index ``k``.
    """

    origin: float
    bin_width: float
    pmf: np.ndarray

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise StatsError(f"bin_width must be positive, got {self.bin_width}")
        total = float(self.pmf.sum())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise StatsError(f"pmf must sum to 1, got {total}")

    @classmethod
    def from_samples(
        cls, samples: np.ndarray | Sequence[float], bin_width: float = 1.0
    ) -> "DelayDistribution":
        """Histogram raw samples into a normalized PMF."""
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise StatsError("cannot build a distribution from zero samples")
        origin = math.floor(float(arr.min()) / bin_width) * bin_width
        idx = np.floor((arr - origin) / bin_width).astype(int)
        pmf = np.bincount(idx).astype(float)
        pmf /= pmf.sum()
        return cls(origin=origin, bin_width=bin_width, pmf=pmf)

    def convolve(self, other: "DelayDistribution") -> "DelayDistribution":
        """Distribution of the sum of two independent delays.

        Raises:
            StatsError: on mismatched bin widths.
        """
        if not math.isclose(self.bin_width, other.bin_width):
            raise StatsError("bin widths must match for convolution")
        pmf = np.convolve(self.pmf, other.pmf)
        pmf /= pmf.sum()  # guard tiny float drift
        return DelayDistribution(
            origin=self.origin + other.origin,
            bin_width=self.bin_width,
            pmf=pmf,
        )

    def quantile(self, q: float) -> float:
        """The q-quantile of the distribution (0 < q < 1)."""
        if not 0.0 < q < 1.0:
            raise StatsError(f"q must be in (0,1), got {q}")
        cum = np.cumsum(self.pmf)
        k = int(np.searchsorted(cum, q))
        return self.origin + k * self.bin_width

    @property
    def median(self) -> float:
        """The distribution's median."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """The distribution's mean."""
        ks = np.arange(len(self.pmf))
        return float(self.origin + self.bin_width * (ks * self.pmf).sum())


def median_of_composed(
    distributions: Sequence[DelayDistribution],
) -> float:
    """Median of a sum of independent delays: convolve then take the median.

    This is the computation the paper calls "substantially more expensive"
    than summing means — the cost is in the repeated convolutions.
    """
    if not distributions:
        raise StatsError("need at least one distribution")
    acc = distributions[0]
    for dist in distributions[1:]:
        acc = acc.convolve(dist)
    return acc.median


# ---------------------------------------------------------------------------
# CDF utilities.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CDFSeries:
    """An empirical CDF ready for plotting or tabulation.

    Attributes:
        x: Sorted values.
        y: Cumulative fraction at each value (in (0, 1]).
        label: Display label (dataset name etc.).
    """

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def fraction_above(self, threshold: float) -> float:
        """Fraction of the distribution strictly above ``threshold``."""
        return float(np.mean(self.x > threshold))

    def fraction_below(self, threshold: float) -> float:
        """Fraction of the distribution strictly below ``threshold``."""
        return float(np.mean(self.x < threshold))

    def value_at_fraction(self, q: float) -> float:
        """The q-quantile of the underlying values."""
        if not 0.0 <= q <= 1.0:
            raise StatsError(f"q must be in [0,1], got {q}")
        return float(np.quantile(self.x, q))

    def trimmed(self, lo: float, hi: float) -> "CDFSeries":
        """Restrict the series to x in [lo, hi].

        The paper trims its graphs "to eliminate visual scaling artifacts
        resulting from very long tails", which is why some of its CDFs do
        not reach 100 %.  The y values are preserved (not renormalized).
        """
        mask = (self.x >= lo) & (self.x <= hi)
        return CDFSeries(x=self.x[mask], y=self.y[mask], label=self.label)


def make_cdf(values: Sequence[float] | np.ndarray, label: str = "") -> CDFSeries:
    """Build an empirical CDF from raw values.

    Raises:
        StatsError: if ``values`` is empty.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise StatsError("cannot build a CDF from zero values")
    y = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return CDFSeries(x=arr, y=y, label=label)
