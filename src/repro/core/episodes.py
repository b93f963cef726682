"""Simultaneous-episode analysis of UW4-A (§6.4, Figure 11).

UW4-A measures every ordered pair within a several-minute "episode"; the
analysis then finds the best alternate *within each episode*, so no
long-term averaging is involved.  Figure 11 plots three curves:

* **UW4-B** — the companion dataset analyzed the ordinary (long-term
  time average) way;
* **pair-averaged UW4-A** — per (pair, episode) improvement, averaged
  over episodes for each pair;
* **unaveraged UW4-A** — every (pair, episode) improvement as its own
  CDF point, exposing the huge short-timescale variability the paper
  describes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.core.altpath import alternate_values, graphs_per_search
from repro.core.graph import Metric, Pair
from repro.core.stats import CDFSeries, make_cdf, row_stats
from repro.datasets.dataset import Dataset
from repro.measurement.records import TracerouteRecord


class EpisodeError(RuntimeError):
    """Raised when episode analysis preconditions fail."""


@dataclass
class EpisodeAnalysis:
    """Per-episode improvements for a simultaneous dataset.

    Attributes:
        diffs: Per ordered pair, the list of (episode, improvement)
            observations.
        episodes_analyzed: Number of episodes with at least one usable
            comparison.
    """

    diffs: dict[Pair, list[tuple[int, float]]]
    episodes_analyzed: int

    def pair_averaged(self) -> dict[Pair, float]:
        """Mean improvement per pair across episodes."""
        return {
            pair: float(np.mean([d for _, d in obs]))
            for pair, obs in self.diffs.items()
            if obs
        }

    def pair_averaged_cdf(self, label: str = "pair-averaged") -> CDFSeries:
        """Figure 11's "pair-averaged" curve."""
        values = list(self.pair_averaged().values())
        return make_cdf(values, label)

    def unaveraged_cdf(self, label: str = "unaveraged") -> CDFSeries:
        """Figure 11's "unaveraged" curve: one point per (pair, episode)."""
        values = [d for obs in self.diffs.values() for _, d in obs]
        return make_cdf(values, label)

    def best_alternate_variability(self) -> dict[Pair, float]:
        """Per-pair standard deviation of the episode improvements.

        Quantifies the paper's "huge amount of variability in the
        performance of the best alternate paths in UW4-A".
        """
        return {
            pair: float(np.std([d for _, d in obs]))
            for pair, obs in self.diffs.items()
            if len(obs) >= 2
        }


def _episode_improvements(
    by_episode: dict[int, list[TracerouteRecord]],
    episode_ids: list[int],
    hosts: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-pair improvements of a run of episodes, in analyze_graph's order.

    Episode ``episode_ids[slot]`` forms one RTT graph whose edge
    ``(src, dst)`` is the mean RTT of the episode's first traceroute of
    that pair with an answered probe.  The graphs are searched together
    (:func:`~repro.core.altpath.alternate_values`).  Returns the slot,
    pair id ``src * n + dst`` and ``default − alternate`` of every finite
    improvement, episodes ascending and pairs sorted by name, and the
    number of episodes in which some pair has an alternate.
    """
    n = len(hosts)
    index = {h: i for i, h in enumerate(hosts)}
    # Edge key (slot * n + src) * n + dst, sample count and samples.
    edges, counts, samples = array("q"), array("q"), array("d")
    for slot, ep in enumerate(episode_ids):
        seen: set[int] = set()
        for rec in by_episode[ep]:
            pair = index[rec.src] * n + index[rec.dst]
            if pair in seen:
                continue  # keep the first measurement if duplicated
            rtts = rec.successful_rtts
            if rtts:
                seen.add(pair)
                edges.append(slot * n * n + pair)
                counts.append(len(rtts))
                samples.extend(rtts)
    means, _ = row_stats(np.frombuffer(samples), np.frombuffer(counts, dtype=np.int64))
    edge = np.frombuffer(edges, dtype=np.int64)
    # Episodes without edges form no graph; the rest are renumbered.
    slots, graph_of = np.unique(edge // (n * n), return_inverse=True)
    src, dst = edge // n % n, edge % n
    values = np.full((len(slots), n, n), np.inf)
    values[graph_of, src, dst] = means
    by_name = {h: r for r, h in enumerate(sorted(hosts))}
    rank = np.array([by_name[h] for h in hosts], dtype=np.int64)
    order = np.lexsort((rank[dst], rank[src], graph_of))
    pairs = np.column_stack([graph_of, src, dst])[order]
    improvement = means[order] - alternate_values(values, Metric.RTT, pairs)
    found = ~np.isnan(improvement)
    kept = found & np.isfinite(improvement)
    return (
        slots[pairs[kept, 0]],
        pairs[kept, 1] * n + pairs[kept, 2],
        improvement[kept],
        len(np.unique(pairs[found, 0])),
    )


def analyze_episodes(dataset: Dataset, *, max_episodes: int | None = None) -> EpisodeAnalysis:
    """Compute within-episode best-alternate improvements for UW4-A.

    "In analyzing UW4-A, we compute the best alternate path using only
    measurements taken from the same episode; we then calculate the
    difference between the measurement of the default path and the best
    alternate path within the episode."  Each improvement equals the one
    ``analyze_graph`` computes for the pair on its episode's graph
    (see :func:`_episode_improvements`).  Episodes are searched as many
    at a time as :func:`~repro.core.altpath.graphs_per_search` allows.

    Args:
        dataset: A dataset collected with episode scheduling.
        max_episodes: Optional cap for quick runs.

    Raises:
        EpisodeError: if the dataset has no episodes.
    """
    by_episode = dataset.records_by_episode()
    if not by_episode:
        raise EpisodeError(f"{dataset.meta.name} has no episode-scheduled records")
    episode_ids = list(by_episode)[:max_episodes]
    hosts = dataset.hosts
    n = len(hosts)
    per_search = graphs_per_search(n)
    diffs: dict[Pair, list[tuple[int, float]]] = {}
    analyzed = 0
    for first in range(0, len(episode_ids), per_search):
        batch = episode_ids[first : first + per_search]
        slot, pair, value, count = _episode_improvements(by_episode, batch, hosts)
        analyzed += count
        # Extend each pair's observations in episode order, adding new
        # pairs in order of first appearance.  An object array hands back
        # the episode ids themselves, not copies.
        episode_of = np.array(batch, dtype=object)[slot]
        by_pair = np.argsort(pair, kind="stable")
        ids, first_seen, sizes = np.unique(pair, return_index=True, return_counts=True)
        starts = np.cumsum(sizes) - sizes
        for i in np.argsort(first_seen).tolist():
            at = by_pair[starts[i] : starts[i] + sizes[i]]
            s, d = divmod(int(ids[i]), n)
            diffs.setdefault((hosts[s], hosts[d]), []).extend(
                zip(episode_of[at].tolist(), value[at].tolist())
            )
    return EpisodeAnalysis(diffs=diffs, episodes_analyzed=analyzed)
