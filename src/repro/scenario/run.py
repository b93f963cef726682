"""Scenario driver: thread a what-if timeline through the measurement pipeline.

A :class:`ScenarioRun` stands up a deterministic 1999-era environment,
splits the simulated horizon into *segments* at the scenario's topology
boundaries, and runs one measurement :class:`~repro.measurement.collector.Campaign`
per segment against the mutated topology — so probes during an outage see
the rerouted (or absent) paths, and probes after a revert see the healed
network.  The baseline and every segment share one
:class:`~repro.routing.forwarding.PathResolver`, which re-resolves only
the paths each mutation changed.  Flap storms never touch the topology;
they ride along as a :class:`StormFlapModel` wrapped around the ordinary
route-flap process.

The whole run is a pure function of ``(plan, seed)``: the same plan
replayed, traced or not, yields a byte-identical dataset (asserted by
CI's ``whatif-replay`` step).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.datasets.dataset import Dataset, DatasetMeta
from repro.measurement.collector import Campaign
from repro.measurement.records import CollectionStats, PathInfo, TracerouteRecord
from repro.measurement.schedulers import poisson_episodes
from repro.netsim.clock import SECONDS_PER_DAY
from repro.netsim.conditions import BUCKET_SECONDS, NetworkConditions
from repro.obs import runtime as obs
from repro.routing.dynamics import RouteFlapModel
from repro.routing.forwarding import PathResolver
from repro.scenario.availability import AvailabilityReport, analyze_availability
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.topology.generator import build_topology, place_hosts


class StormFlapModel:
    """A route-flap process with plan-driven flap storms layered on top.

    Outside any storm interval, decisions delegate to the wrapped base
    model.  During a storm, every member pair oscillates between its
    primary and secondary route each congestion bucket — the classic
    persistent-oscillation signature of pathological BGP churn.

    Storm membership comes from the plan's ``flap-storm`` clauses, whose
    keys are :func:`fnmatch.fnmatchcase` globs over ``src->dst`` pair
    names.  Because storms switch per bucket, this model declares
    ``window_s`` equal to the congestion bucket; the base model's
    coarser window still divides evenly into it (its decisions floor
    time internally), so base behaviour is unchanged.
    """

    def __init__(
        self,
        base: RouteFlapModel,
        plan: ScenarioPlan,
        pair_names: list[str],
    ) -> None:
        """
        Args:
            base: The background flap process.
            plan: Scenario whose ``flap-storm`` clauses define storms.
            pair_names: ``"src->dst"`` names in campaign pair order
                (index-aligned with the sampler's pair list).
        """
        self._base = base
        self._storms: list[tuple[frozenset[int], float, float]] = []
        for event in plan.storms():
            members = frozenset(
                i
                for i, name in enumerate(pair_names)
                if fnmatchcase(name, event.key)
            )
            end_s = event.end_s
            assert end_s is not None  # flap-storm requires for=
            self._storms.append((members, event.at_s, end_s))

    @property
    def window_s(self) -> float:
        """Storms switch per congestion bucket (finer than the base)."""
        return BUCKET_SECONDS

    def is_flappy(self, pair_index: int) -> bool:
        """Storm members flap by decree; others per the base model."""
        if any(pair_index in members for members, _, _ in self._storms):
            return True
        return self._base.is_flappy(pair_index)

    def on_secondary(self, pair_index: int, t: float) -> bool:
        """Secondary-route decision at time ``t`` (pure function)."""
        for members, at_s, end_s in self._storms:
            if pair_index in members and at_s <= t < end_s:
                return int(t // BUCKET_SECONDS) % 2 == 1
        return self._base.on_secondary(pair_index, t)


@dataclass(frozen=True, slots=True)
class SegmentSummary:
    """What one topology segment of the run observed."""

    start_s: float
    end_s: float
    requested: int
    completed: int
    unreachable_pairs: tuple[tuple[str, str], ...]
    pairs_rerouted: int


@dataclass(frozen=True, slots=True)
class ScenarioReport:
    """Human-readable outcome of a scenario run."""

    plan_spec: str
    seed: int
    n_hosts: int
    horizon_s: float
    segments: tuple[SegmentSummary, ...]
    permanently_disconnected: tuple[tuple[str, str], ...]
    availability: AvailabilityReport

    def render(self) -> str:
        """The report section body for ``repro whatif``."""
        lines = [
            "What-if scenario report",
            f"  plan:    {self.plan_spec or '(no events)'}",
            f"  seed:    {self.seed}   hosts: {self.n_hosts}   "
            f"horizon: {self.horizon_s:g} s",
            "",
            "  segment            requests  completed  unreachable  rerouted",
        ]
        for seg in self.segments:
            lines.append(
                f"  [{seg.start_s:7g}, {seg.end_s:7g})"
                f"  {seg.requested:8d}  {seg.completed:9d}"
                f"  {len(seg.unreachable_pairs):11d}  {seg.pairs_rerouted:8d}"
            )
        if self.permanently_disconnected:
            lines.append("")
            lines.append(
                f"  permanently disconnected pairs "
                f"({len(self.permanently_disconnected)}):"
            )
            for src, dst in self.permanently_disconnected:
                lines.append(f"    {src} -> {dst}")
        else:
            lines.append("")
            lines.append("  no pair is left permanently disconnected")
        lines.append("")
        lines.append(self.availability.render())
        return "\n".join(lines)


class ScenarioRun:
    """Executes one scenario end to end: dataset out, report out.

    Construction builds the environment (topology, hosts, timeline,
    conditions — in that order, since ``new-transit`` events must
    materialize their substrate link before netsim sizes its arrays);
    :meth:`execute` runs the campaign segments and the availability
    analysis, then resets the timeline so the topology ends pristine.
    """

    def __init__(
        self,
        plan: ScenarioPlan,
        *,
        seed: int = 1999,
        n_hosts: int = 12,
        mean_interval_s: float = 600.0,
        trailing_buckets: int = 2,
        scale: str | None = None,
    ) -> None:
        """
        Args:
            plan: The scenario to run (an empty plan is a plain
                measurement run).
            seed: Master seed; every stream below derives from it.
            n_hosts: Measurement host pool size.
            scale: Topology scale preset name (see
                :data:`repro.topology.scale.SCALE_PRESETS`); None means
                ``"paper-1999"``, the default 1999-era paper topology.
            mean_interval_s: Poisson mean between measurement episodes
                (each episode requests every ordered pair, UW4-A style,
                so the availability graph gets full pair coverage).
            trailing_buckets: Congestion buckets of quiet time appended
                after the last transition, so the healed (or broken)
                end state is actually observed.
        """
        if trailing_buckets < 1:
            raise ValueError("trailing_buckets must be >= 1")
        self.plan = plan
        self.seed = seed
        scale = scale or "paper-1999"
        self.topo, capacity_scale = build_topology(scale, seed=seed)
        hosts = place_hosts(
            self.topo,
            n_hosts,
            seed=seed + 7,
            north_america_only=scale.startswith("paper-"),
            rate_limit_fraction=0.0,
            name_prefix="whatif",
            capacity_scale=capacity_scale,
        )
        self.hosts = [h.name for h in hosts]
        self.timeline = ScenarioTimeline(self.topo, plan)
        self.conditions = NetworkConditions(self.topo, seed=seed + 13)
        self.horizon_s = (
            max(plan.last_transition_s, self.timeline.last_transition_s)
            + trailing_buckets * BUCKET_SECONDS
        )
        self._mean_interval_s = mean_interval_s

    def _segment_edges(self) -> list[float]:
        edges = {0.0, self.horizon_s}
        edges.update(
            b for b in self.timeline.boundaries() if 0.0 < b < self.horizon_s
        )
        return sorted(edges)

    def _baseline_paths(
        self, resolver: PathResolver
    ) -> dict[tuple[str, str], PathInfo]:
        """Default-route facts on the pristine topology (pre-scenario)."""
        pairs = [(a, b) for a in self.hosts for b in self.hosts if a != b]
        # Pristine disconnections are left out of the baselines.
        return {
            (a, b): PathInfo(
                src=a,
                dst=b,
                as_path=rt.forward.as_path,
                hop_count=rt.forward.hop_count,
                prop_delay_ms=rt.rtt_prop_ms,
            )
            for (a, b), rt in resolver.round_trips(pairs).items()
        }

    def execute(self) -> tuple[Dataset, ScenarioReport]:
        """Run the scenario; returns the dataset and the report.

        The dataset's ``path_info`` holds the *pristine* default routes
        (the baseline every segment is compared against); per-segment
        routing lives in the report.
        """
        with obs.span("scenario.run") as sp:
            sp.set("plan", self.plan.to_spec())
            sp.set("seed", self.seed)
            result = self._execute()
        return result

    def _execute(self) -> tuple[Dataset, ScenarioReport]:
        resolver = PathResolver(self.topo)
        baseline = self._baseline_paths(resolver)
        pair_names = [
            f"{a}->{b}" for a in self.hosts for b in self.hosts if a != b
        ]
        flap_model = StormFlapModel(
            RouteFlapModel(seed=self.seed), self.plan, pair_names
        )
        requests = list(
            poisson_episodes(
                self.hosts,
                self.horizon_s,
                self._mean_interval_s,
                seed=self.seed + 5,
            )
        )
        edges = self._segment_edges()
        records: list[TracerouteRecord] = []
        stats = CollectionStats()
        segments: list[SegmentSummary] = []
        last_unreachable: tuple[tuple[str, str], ...] = ()
        try:
            for k, (t0, t1) in enumerate(zip(edges, edges[1:])):
                self.timeline.advance_to(t0)
                campaign = Campaign(
                    self.topo,
                    self.conditions,
                    self.hosts,
                    resolver=resolver,
                    seed=self.seed + 7919 * (k + 1),
                    control_failure_prob=0.0,
                    flap_model=flap_model,
                    allow_unreachable=True,
                )
                seg_requests = [r for r in requests if t0 <= r.t < t1]
                seg_records, seg_stats = campaign.run_traceroutes(seg_requests)
                records.extend(seg_records)
                stats.requested += seg_stats.requested
                stats.completed += seg_stats.completed
                stats.control_failures += seg_stats.control_failures
                stats.rate_limited_probes += seg_stats.rate_limited_probes
                stats.blacked_out += seg_stats.blacked_out
                stats.unreachable += seg_stats.unreachable
                seg_paths = campaign.path_info()
                rerouted = sum(
                    1
                    for pair, info in seg_paths.items()
                    if pair in baseline
                    and info.as_path != baseline[pair].as_path
                )
                obs.count("whatif.pairs_rerouted", rerouted)
                last_unreachable = tuple(campaign.unreachable_pairs)
                segments.append(
                    SegmentSummary(
                        start_s=t0,
                        end_s=t1,
                        requested=seg_stats.requested,
                        completed=seg_stats.completed,
                        unreachable_pairs=last_unreachable,
                        pairs_rerouted=rerouted,
                    )
                )
        finally:
            self.timeline.reset()
        dataset = Dataset(
            meta=DatasetMeta(
                name="WHATIF",
                method="traceroute",
                year=1999,
                duration_days=self.horizon_s / SECONDS_PER_DAY,
                location="North America",
                era="1999",
                description=(
                    f"what-if scenario run: {self.plan.to_spec() or 'no events'}"
                ),
            ),
            hosts=list(self.hosts),
            traceroutes=records,
            path_info=baseline,
            stats=stats,
        )
        availability = analyze_availability(dataset, self.topo)
        report = ScenarioReport(
            plan_spec=self.plan.to_spec(),
            seed=self.seed,
            n_hosts=len(self.hosts),
            horizon_s=self.horizon_s,
            segments=tuple(segments),
            permanently_disconnected=last_unreachable,
            availability=availability,
        )
        return dataset, report
