"""The :class:`Dataset` container and its filtering operations.

A dataset is an immutable bag of measurement records between a set of
hosts, plus the static routing facts (:class:`~repro.measurement.records.PathInfo`)
for every measured ordered pair, plus collection metadata.  All the
corrections the paper applies to its raw data are implemented as methods
that return *new* datasets:

* :meth:`Dataset.with_min_samples` — "we removed paths for which there
  were fewer than 30 measurements" (§4.2);
* :meth:`Dataset.without_hosts` — filtering ICMP rate limiters (UW3/UW4);
* :meth:`Dataset.with_reverse_substitution` — UW1's use of
  opposite-direction traceroutes toward rate limiters;
* :meth:`Dataset.with_first_probe_loss_heuristic` — D2's "only the first
  traceroute sample was counted against losses";
* :meth:`Dataset.restricted_to_times` — time-of-day / weekend splits (§6.3).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from repro.measurement.records import (
    CollectionStats,
    PathInfo,
    TracerouteRecord,
    TransferRecord,
)

Pair = tuple[str, str]


class DatasetError(RuntimeError):
    """Raised on invalid dataset operations."""


@dataclass(slots=True)
class DatasetMeta:
    """Descriptive metadata, mirroring the columns of the paper's Table 1."""

    name: str
    method: str               # "traceroute" or "tcpanaly"
    year: int
    duration_days: float
    location: str             # "North America" or "World"
    era: str = "1999"
    description: str = ""


@dataclass
class Dataset:
    """Measurements between a host pool, ready for alternate-path analysis."""

    meta: DatasetMeta
    hosts: list[str]
    traceroutes: list[TracerouteRecord] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    path_info: dict[Pair, PathInfo] = field(default_factory=dict)
    stats: CollectionStats = field(default_factory=CollectionStats)
    #: When True, only each traceroute's first probe counts toward loss
    #: (the D2 correction for now-undetectable ICMP rate limiting).
    loss_first_probe_only: bool = False

    def __post_init__(self) -> None:
        if self.traceroutes and self.transfers:
            raise DatasetError("a dataset holds traceroutes or transfers, not both")
        self._pair_index: dict[Pair, list[int]] | None = None
        self._rtt_cache: dict[Pair, np.ndarray] = {}
        self._loss_cache: dict[Pair, np.ndarray] = {}

    # -- basic facts ---------------------------------------------------------

    @property
    def is_bandwidth(self) -> bool:
        """Whether this is an npd-style (transfer) dataset."""
        return bool(self.transfers) or (not self.traceroutes and self.meta.method == "tcpanaly")

    @property
    def records(self) -> list:
        """The records, whichever family this dataset holds."""
        return self.transfers if self.is_bandwidth else self.traceroutes

    @property
    def n_measurements(self) -> int:
        """Number of measurement records (Table 1's "Number of measurements")."""
        return len(self.records)

    def _index(self) -> dict[Pair, list[int]]:
        if self._pair_index is None:
            index: dict[Pair, list[int]] = defaultdict(list)
            for i, rec in enumerate(self.records):
                index[(rec.src, rec.dst)].append(i)
            self._pair_index = dict(index)
        return self._pair_index

    def pairs(self) -> list[Pair]:
        """Ordered host pairs with at least one measurement, sorted."""
        return sorted(self._index())

    def n_pairs_possible(self) -> int:
        """Number of ordered pairs the host pool could produce."""
        n = len(self.hosts)
        return n * (n - 1)

    def coverage(self) -> float:
        """Fraction of potential ordered paths actually measured.

        This is Table 1's "Percent of paths covered" (as a fraction).
        """
        possible = self.n_pairs_possible()
        return len(self._index()) / possible if possible else 0.0

    def measurements_for(self, pair: Pair) -> list:
        """All records for one ordered pair, in collection order."""
        return [self.records[i] for i in self._index().get(pair, [])]

    def n_measurements_for(self, pair: Pair) -> int:
        """Number of records for one ordered pair."""
        return len(self._index().get(pair, []))

    # -- sample accessors ----------------------------------------------------

    def rtt_samples(self, pair: Pair) -> np.ndarray:
        """Successful RTT samples (ms) for an ordered pair.

        For traceroute datasets each answered probe is one sample; for
        transfer datasets each transfer's mean RTT is one sample.
        """
        if pair not in self._rtt_cache:
            values: list[float] = []
            for rec in self.measurements_for(pair):
                if isinstance(rec, TracerouteRecord):
                    values.extend(rec.successful_rtts)
                else:
                    values.append(rec.rtt_ms)
            self._rtt_cache[pair] = np.array(values)
        return self._rtt_cache[pair]

    def loss_samples(self, pair: Pair) -> np.ndarray:
        """Per-probe loss indicators (1.0 = lost) for an ordered pair.

        Under :attr:`loss_first_probe_only`, only each invocation's first
        probe contributes (the D2 heuristic); otherwise every probe does.
        For transfer datasets, each transfer's measured loss rate is one
        sample.
        """
        if pair not in self._loss_cache:
            values: list[float] = []
            for rec in self.measurements_for(pair):
                if isinstance(rec, TracerouteRecord):
                    if self.loss_first_probe_only:
                        values.append(1.0 if rec.first_sample_lost() else 0.0)
                    else:
                        values.extend(
                            1.0 if math.isnan(r) else 0.0 for r in rec.rtt_samples
                        )
                else:
                    values.append(rec.loss_rate)
            self._loss_cache[pair] = np.array(values)
        return self._loss_cache[pair]

    def bandwidth_samples(self, pair: Pair) -> np.ndarray:
        """Measured throughputs (kB/s) for an ordered pair.

        Raises:
            DatasetError: for traceroute datasets.
        """
        if not self.is_bandwidth:
            raise DatasetError(f"{self.meta.name} is not a bandwidth dataset")
        return np.array([rec.bandwidth_kbps for rec in self.measurements_for(pair)])

    def timestamps(self, pair: Pair) -> np.ndarray:
        """Record timestamps for an ordered pair."""
        return np.array([rec.t for rec in self.measurements_for(pair)])

    # -- episodes (UW4-A) ----------------------------------------------------

    def episodes(self) -> list[int]:
        """Sorted distinct episode ids (excluding -1)."""
        ids = {rec.episode for rec in self.traceroutes if rec.episode >= 0}
        return sorted(ids)

    def records_by_episode(self) -> dict[int, list[TracerouteRecord]]:
        """Every episode's traceroute records, in collection order.

        One pass over the records; keys are the episode ids of
        :meth:`episodes`, ascending.
        """
        grouped: dict[int, list[TracerouteRecord]] = defaultdict(list)
        for rec in self.traceroutes:
            if rec.episode >= 0:
                grouped[rec.episode].append(rec)
        return {ep: grouped[ep] for ep in sorted(grouped)}

    # -- derived datasets ------------------------------------------------------

    def _rebuild(
        self,
        *,
        hosts: list[str] | None = None,
        traceroutes: list[TracerouteRecord] | None = None,
        transfers: list[TransferRecord] | None = None,
        path_info: dict[Pair, PathInfo] | None = None,
        loss_first_probe_only: bool | None = None,
        name_suffix: str = "",
    ) -> "Dataset":
        meta = replace(self.meta)
        if name_suffix:
            meta = replace(meta, name=f"{meta.name}{name_suffix}")
        return Dataset(
            meta=meta,
            hosts=list(self.hosts) if hosts is None else hosts,
            traceroutes=list(self.traceroutes) if traceroutes is None else traceroutes,
            transfers=list(self.transfers) if transfers is None else transfers,
            path_info=dict(self.path_info) if path_info is None else path_info,
            stats=self.stats,
            loss_first_probe_only=(
                self.loss_first_probe_only
                if loss_first_probe_only is None
                else loss_first_probe_only
            ),
        )

    def with_min_samples(self, minimum: int = 30) -> "Dataset":
        """Drop ordered pairs with fewer than ``minimum`` measurements."""
        keep_pairs = {
            pair for pair, idxs in self._index().items() if len(idxs) >= minimum
        }
        if self.is_bandwidth:
            transfers = [r for r in self.transfers if (r.src, r.dst) in keep_pairs]
            return self._rebuild(transfers=transfers)
        traceroutes = [r for r in self.traceroutes if (r.src, r.dst) in keep_pairs]
        return self._rebuild(traceroutes=traceroutes)

    def without_hosts(self, names: Iterable[str]) -> "Dataset":
        """Remove hosts and every record touching them."""
        drop = set(names)
        hosts = [h for h in self.hosts if h not in drop]
        if self.is_bandwidth:
            transfers = [
                r for r in self.transfers if r.src not in drop and r.dst not in drop
            ]
            return self._rebuild(hosts=hosts, transfers=transfers)
        traceroutes = [
            r for r in self.traceroutes if r.src not in drop and r.dst not in drop
        ]
        path_info = {
            p: info
            for p, info in self.path_info.items()
            if p[0] not in drop and p[1] not in drop
        }
        return self._rebuild(hosts=hosts, traceroutes=traceroutes, path_info=path_info)

    def with_reverse_substitution(self, rate_limited: Iterable[str]) -> "Dataset":
        """Replace measurements *toward* rate limiters with the reverse
        direction's measurements (the UW1 correction).

        For each ordered pair (A, B) with B rate-limited and A not, the
        pair's records are replaced by re-labeled copies of the (B, A)
        records.  Pairs between two rate limiters are dropped.
        """
        limited = set(rate_limited)
        if self.is_bandwidth:
            raise DatasetError("reverse substitution applies to traceroute datasets")
        by_pair: dict[Pair, list[TracerouteRecord]] = defaultdict(list)
        for rec in self.traceroutes:
            by_pair[(rec.src, rec.dst)].append(rec)
        out: list[TracerouteRecord] = []
        for (src, dst), recs in sorted(by_pair.items()):
            if dst not in limited:
                out.extend(recs)
            elif src not in limited:
                # Use the opposite direction's measurements, relabeled.
                for rec in by_pair.get((dst, src), []):
                    out.append(
                        TracerouteRecord(
                            t=rec.t,
                            src=src,
                            dst=dst,
                            rtt_samples=rec.rtt_samples,
                            episode=rec.episode,
                        )
                    )
            # else: both endpoints rate-limited; drop the pair.
        return self._rebuild(traceroutes=out)

    def with_first_probe_loss_heuristic(self) -> "Dataset":
        """Apply the D2 correction: losses counted from first probes only."""
        return self._rebuild(loss_first_probe_only=True)

    def restricted_to_times(
        self, predicate: Callable[[float], bool], *, name_suffix: str = ""
    ) -> "Dataset":
        """Keep records whose timestamp satisfies ``predicate``."""
        if self.is_bandwidth:
            transfers = [r for r in self.transfers if predicate(r.t)]
            return self._rebuild(transfers=transfers, name_suffix=name_suffix)
        traceroutes = [r for r in self.traceroutes if predicate(r.t)]
        return self._rebuild(traceroutes=traceroutes, name_suffix=name_suffix)

    # -- reporting -------------------------------------------------------------

    def table1_row(self) -> dict[str, object]:
        """This dataset's row of the paper's Table 1."""
        return {
            "dataset": self.meta.name,
            "method": self.meta.method,
            "year": self.meta.year,
            "duration": f"{self.meta.duration_days:g} days",
            "location": self.meta.location,
            "hosts": len(self.hosts),
            "measurements": self.n_measurements,
            "paths_covered_pct": round(100.0 * self.coverage()),
        }
