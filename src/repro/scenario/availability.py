"""Disjoint-path availability: who survives the worst single link failure.

The paper's alternate-path result (§4) is about *performance*: composed
host-to-host detours often beat the default route.  This module asks the
robustness version of the same question: when the most heavily shared AS
adjacency fails, which host pairs keep connectivity — and how fast?

Two recovery channels are compared per pair:

* **BGP reroute** — the network heals itself.  Reconvergence is not
  instant: BGP's MRAI timer paces advertisements, so time-to-repair is
  estimated as ``convergence_rounds(dest) * MRAI_S``, where the round
  count is the node count of the longest AS path in the destination's
  stable state (:meth:`repro.routing.bgp.BGPTable.convergence_rounds`).
* **Disjoint detour** — the overlay routes around the failure through
  another measurement host (:mod:`repro.core.altpath`).  A detour whose
  constituent hops avoid the failed adjacency fails over instantly (the
  endpoints notice and switch), but only an *AS-disjoint* alternate is
  guaranteed not to share the broken infrastructure.

The analyzer produces the paper-style availability table: "X% of pairs
retain connectivity via an AS-disjoint alternate during the worst
single-link failure".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.altpath import AlternatePathFinder
from repro.core.graph import Metric, build_graph
from repro.datasets.dataset import Dataset
from repro.obs import runtime as obs
from repro.routing.bgp import BGPTable
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.topology.network import Topology

#: BGP Minimum Route Advertisement Interval, seconds (RFC 4271 default).
#: One reconvergence "round" corresponds to every AS re-advertising once,
#: so rounds * MRAI_S estimates time-to-repair.
MRAI_S = 30.0


def _adjacencies(as_path: tuple[int, ...]) -> set[frozenset[int]]:
    """The inter-AS edges a path crosses, as unordered pairs."""
    return {
        frozenset(pair) for pair in zip(as_path, as_path[1:])
        if pair[0] != pair[1]
    }


@dataclass(frozen=True, slots=True)
class PairAvailability:
    """Availability verdict for one ordered host pair.

    Attributes:
        src: Source host name.
        dst: Destination host name.
        alternate_via: Intermediate hosts of the best alternate path, or
            None when the measurement graph offers no alternate.
        as_disjoint: Whether the alternate's intermediate ASes are
            disjoint from the default path's intermediate ASes.
        uses_worst_link: Whether the default path crosses the worst link.
        survives_bgp: Whether BGP still finds *some* route between the
            endpoint ASes with the worst link removed.
        survives_detour: Whether the best alternate's constituent hops
            all avoid the worst link.
        repair_s: Estimated BGP time-to-repair (rounds * MRAI) for pairs
            whose default path used the worst link and still have a
            route; 0.0 for unaffected pairs; None when BGP cannot
            reconnect the pair at all.
    """

    src: str
    dst: str
    alternate_via: tuple[str, ...] | None
    as_disjoint: bool
    uses_worst_link: bool
    survives_bgp: bool
    survives_detour: bool
    repair_s: float | None


@dataclass(frozen=True, slots=True)
class AvailabilityReport:
    """The availability table for one dataset + topology.

    Percentages are over :attr:`n_pairs` (the reachable, measured pairs).
    """

    worst_link: tuple[int, int]
    worst_link_share: int
    n_pairs: int
    n_with_alternate: int
    n_as_disjoint: int
    n_survive_bgp: int
    n_survive_detour: int
    n_survive_disjoint_detour: int
    mean_repair_s: float
    pairs: tuple[PairAvailability, ...]

    def _pct(self, n: int) -> float:
        return 100.0 * n / self.n_pairs if self.n_pairs else 0.0

    @property
    def headline(self) -> str:
        """The paper-style one-line availability claim."""
        return (
            f"{self._pct(self.n_survive_disjoint_detour):.1f}% of pairs "
            "retain connectivity via an AS-disjoint alternate during the "
            "worst single-link failure"
        )

    def render(self) -> str:
        """Plain-text availability table (report section body)."""
        a, b = self.worst_link
        reconnects = sum(
            1 for p in self.pairs if p.uses_worst_link and p.survives_bgp
        )
        repair = (
            f"   time-to-repair ~{self.mean_repair_s:.0f} s (MRAI {MRAI_S:g} s)"
            if reconnects
            else "   (no affected pair reconnects)"
        )
        lines = [
            "Disjoint-path availability under the worst single-link failure",
            f"  worst link: AS{a}-AS{b} "
            f"(on the default path of {self.worst_link_share} of "
            f"{self.n_pairs} pairs)",
            f"  {'pairs measured':44s}{self.n_pairs:6d}",
            f"  {'with any alternate path':44s}{self.n_with_alternate:6d}"
            f"  ({self._pct(self.n_with_alternate):5.1f}%)",
            f"  {'with an AS-disjoint alternate':44s}{self.n_as_disjoint:6d}"
            f"  ({self._pct(self.n_as_disjoint):5.1f}%)",
            f"  {'retain connectivity via BGP reroute':44s}"
            f"{self.n_survive_bgp:6d}  ({self._pct(self.n_survive_bgp):5.1f}%)"
            f"{repair}",
            f"  {'retain connectivity via instant detour':44s}"
            f"{self.n_survive_detour:6d}  ({self._pct(self.n_survive_detour):5.1f}%)"
            "   failover 0 s",
            f"  {'... via an AS-disjoint detour':44s}"
            f"{self.n_survive_disjoint_detour:6d}"
            f"  ({self._pct(self.n_survive_disjoint_detour):5.1f}%)",
            "",
            f"  => {self.headline}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly summary (per-pair detail omitted)."""
        return {
            "worst_link": list(self.worst_link),
            "worst_link_share": self.worst_link_share,
            "n_pairs": self.n_pairs,
            "n_with_alternate": self.n_with_alternate,
            "n_as_disjoint": self.n_as_disjoint,
            "n_survive_bgp": self.n_survive_bgp,
            "n_survive_detour": self.n_survive_detour,
            "n_survive_disjoint_detour": self.n_survive_disjoint_detour,
            "mean_repair_s": self.mean_repair_s,
            "headline": self.headline,
        }


def analyze_availability(
    dataset: Dataset,
    topo: Topology,
    *,
    min_samples: int = 1,
) -> AvailabilityReport:
    """Availability analysis of a traceroute dataset over its topology.

    The topology must be the *pristine* one the dataset's path_info was
    resolved against (a :class:`~repro.scenario.run.ScenarioRun` resets
    its timeline before calling this).  The worst single link is the AS
    adjacency crossed by the most default paths; its failure is applied
    through a one-event :class:`~repro.scenario.timeline.ScenarioTimeline`
    and reverted afterwards, leaving the topology unchanged.

    Raises:
        repro.core.graph.GraphError: if the dataset has no usable
            traceroute samples.
    """
    with obs.span("scenario.availability") as sp:
        report = _analyze(dataset, topo, min_samples)
        sp.set("n_pairs", report.n_pairs)
        sp.set("worst_link", f"{report.worst_link[0]}-{report.worst_link[1]}")
    return report


def _analyze(dataset: Dataset, topo: Topology, min_samples: int) -> AvailabilityReport:
    path_info = dataset.path_info
    graph = build_graph(dataset, Metric.RTT, min_samples=min_samples)
    alternates = AlternatePathFinder(graph).best_all()

    # The worst single link: the AS adjacency most default paths share.
    shared: Counter[frozenset[int]] = Counter()
    for info in path_info.values():
        for adj in _adjacencies(info.as_path):
            shared[adj] += 1
    if not shared:
        raise ValueError(
            "availability analysis needs at least one inter-AS default path"
        )
    # Deterministic argmax: highest count, then lowest (a, b).
    worst = min(shared, key=lambda adj: (-shared[adj], sorted(adj)))
    worst_pair = tuple(sorted(worst))

    # Fail it, reconverge, and test AS-level reachability + repair time.
    plan = ScenarioPlan.parse(f"link-down:{worst_pair[0]}-{worst_pair[1]}:at=0")
    timeline = ScenarioTimeline(topo, plan)
    timeline.advance_to(0.0)
    try:
        table = BGPTable(topo)
        endpoint_asns = {
            (src, dst): (topo.host(src).asn, topo.host(dst).asn)
            for (src, dst) in path_info
        }
        dests = sorted({asns[1] for asns in endpoint_asns.values()})
        table.converge_all(dests)
        reachable: dict[tuple[str, str], bool] = {}
        rounds: dict[int, int] = {}
        for pair, (src_asn, dst_asn) in endpoint_asns.items():
            reachable[pair] = (
                src_asn == dst_asn or table.route(src_asn, dst_asn) is not None
            )
        for dst_asn in dests:
            rounds[dst_asn] = table.convergence_rounds(dst_asn)
    finally:
        timeline.reset()

    pairs: list[PairAvailability] = []
    repair_times: list[float] = []
    for pair in sorted(path_info):
        info = path_info[pair]
        src_asn, dst_asn = endpoint_asns[pair]
        endpoint_set = {src_asn, dst_asn}
        default_intermediate = set(info.as_path) - endpoint_set
        uses_worst = worst in _adjacencies(info.as_path)
        alt = alternates.get(pair)
        alternate_via: tuple[str, ...] | None = None
        as_disjoint = False
        survives_detour = False
        if alt is not None:
            alternate_via = alt.via
            alt_ases: set[int] = set()
            alt_adjacencies: set[frozenset[int]] = set()
            for hop in alt.hops:
                hop_info = path_info.get(hop)
                if hop_info is None:
                    continue  # hop measured but unresolved; be conservative
                alt_ases |= set(hop_info.as_path)
                alt_adjacencies |= _adjacencies(hop_info.as_path)
            as_disjoint = not (alt_ases - endpoint_set) & default_intermediate
            survives_detour = worst not in alt_adjacencies
        survives_bgp = reachable[pair]
        repair_s: float | None
        if not uses_worst:
            repair_s = 0.0
        elif survives_bgp:
            repair_s = rounds[dst_asn] * MRAI_S
            repair_times.append(repair_s)
        else:
            repair_s = None
        pairs.append(
            PairAvailability(
                src=pair[0],
                dst=pair[1],
                alternate_via=alternate_via,
                as_disjoint=as_disjoint,
                uses_worst_link=uses_worst,
                survives_bgp=survives_bgp,
                survives_detour=survives_detour,
                repair_s=repair_s,
            )
        )

    return AvailabilityReport(
        worst_link=worst_pair,
        worst_link_share=sum(1 for p in pairs if p.uses_worst_link),
        n_pairs=len(pairs),
        n_with_alternate=sum(1 for p in pairs if p.alternate_via is not None),
        n_as_disjoint=sum(1 for p in pairs if p.as_disjoint),
        n_survive_bgp=sum(1 for p in pairs if p.survives_bgp),
        n_survive_detour=sum(1 for p in pairs if p.survives_detour),
        n_survive_disjoint_detour=sum(
            1 for p in pairs if p.survives_detour and p.as_disjoint
        ),
        mean_repair_s=(
            sum(repair_times) / len(repair_times) if repair_times else 0.0
        ),
        pairs=tuple(pairs),
    )
