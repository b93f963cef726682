"""Reference forms the scenario layer's shortcuts are checked against.

:func:`dest_affected` is the per-path salvage rule: it walks every
surviving holder's full AS path and asks whether it crosses a removed
AS or a removed adjacency.  ``ScenarioTimeline`` decides the same
question from each destination's next-hop column: the first removed AS
or adjacency on any such path sits one hop after a surviving routed
holder.  The differential tests in ``test_salvage_equivalence.py``
require both to pick the same destinations.

:func:`execute_fresh_per_segment` is the scenario walk with a fresh
path resolver per segment; ``test_resolver_carry_equivalence.py``
requires ``ScenarioRun.execute``, whose one resolver carries paths
across segments, to produce the same dataset and report.
"""

from __future__ import annotations

from repro.datasets.dataset import Dataset, DatasetMeta
from repro.measurement.collector import Campaign
from repro.measurement.records import CollectionStats, PathInfo, TracerouteRecord
from repro.measurement.schedulers import poisson_episodes
from repro.netsim.clock import SECONDS_PER_DAY
from repro.routing.columnar import BGPRoute
from repro.routing.dynamics import RouteFlapModel
from repro.routing.forwarding import PathResolver
from repro.scenario.availability import analyze_availability
from repro.scenario.run import (
    ScenarioReport,
    ScenarioRun,
    SegmentSummary,
    StormFlapModel,
)


def dest_affected(
    dest: int,
    table: dict[int, BGPRoute],
    removed_pairs: set[frozenset[int]],
    removed_asns: set[int],
) -> bool:
    """Whether a destination's stable state can change.

    ``table`` maps each holder to its route toward ``dest`` before the
    removal.  The Gao–Rexford stable state is unique; removing an
    adjacency (or isolating an AS) only shrinks candidate sets, so a
    destination is unaffected exactly when no installed route at a
    surviving AS traverses what was removed.
    """
    if dest in removed_asns:
        return True
    for holder, route in table.items():
        if holder in removed_asns:
            continue  # the isolated AS's own entries are just dropped
        path = route.as_path
        if removed_asns and any(asn in removed_asns for asn in path):
            return True
        if removed_pairs and any(
            frozenset(pair) in removed_pairs
            for pair in zip(path, path[1:])
        ):
            return True
    return False


def execute_fresh_per_segment(run: ScenarioRun) -> tuple[Dataset, ScenarioReport]:
    """``run.execute()`` with a fresh resolver for every resolution step.

    The walk ``ScenarioRun`` made before one
    :class:`~repro.routing.forwarding.PathResolver` carried paths across
    segments: the pristine baseline and each segment's campaign resolve
    every pair from scratch, so no path can outlive the mutation that
    changed it.  The timeline is reset however the walk ends.
    """
    pairs = [(a, b) for a in run.hosts for b in run.hosts if a != b]
    baseline = {
        (a, b): PathInfo(
            src=a,
            dst=b,
            as_path=rt.forward.as_path,
            hop_count=rt.forward.hop_count,
            prop_delay_ms=rt.rtt_prop_ms,
        )
        for (a, b), rt in PathResolver(run.topo).round_trips(pairs).items()
    }
    flap_model = StormFlapModel(
        RouteFlapModel(seed=run.seed), run.plan, [f"{a}->{b}" for a, b in pairs]
    )
    requests = list(
        poisson_episodes(
            run.hosts, run.horizon_s, run._mean_interval_s, seed=run.seed + 5
        )
    )
    edges = run._segment_edges()
    records: list[TracerouteRecord] = []
    stats = CollectionStats()
    segments: list[SegmentSummary] = []
    last_unreachable: tuple[tuple[str, str], ...] = ()
    try:
        for k, (t0, t1) in enumerate(zip(edges, edges[1:])):
            run.timeline.advance_to(t0)
            campaign = Campaign(
                run.topo,
                run.conditions,
                run.hosts,
                resolver=PathResolver(run.topo),
                seed=run.seed + 7919 * (k + 1),
                control_failure_prob=0.0,
                flap_model=flap_model,
                allow_unreachable=True,
            )
            seg_records, seg_stats = campaign.run_traceroutes(
                [r for r in requests if t0 <= r.t < t1]
            )
            records.extend(seg_records)
            for name in (
                "requested", "completed", "control_failures",
                "rate_limited_probes", "blacked_out", "unreachable",
            ):
                setattr(stats, name, getattr(stats, name) + getattr(seg_stats, name))
            rerouted = sum(
                1
                for pair, info in campaign.path_info().items()
                if pair in baseline and info.as_path != baseline[pair].as_path
            )
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
        run.timeline.reset()
    dataset = Dataset(
        meta=DatasetMeta(
            name="WHATIF",
            method="traceroute",
            year=1999,
            duration_days=run.horizon_s / SECONDS_PER_DAY,
            location="North America",
            era="1999",
            description=f"what-if scenario run: {run.plan.to_spec() or 'no events'}",
        ),
        hosts=list(run.hosts),
        traceroutes=records,
        path_info=baseline,
        stats=stats,
    )
    report = ScenarioReport(
        plan_spec=run.plan.to_spec(),
        seed=run.seed,
        n_hosts=len(run.hosts),
        horizon_s=run.horizon_s,
        segments=tuple(segments),
        permanently_disconnected=last_unreachable,
        availability=analyze_availability(dataset, run.topo),
    )
    return dataset, report
