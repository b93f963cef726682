"""Performance benchmarks for the core primitives.

Unlike the table/figure benches (one-shot reproductions), these measure
steady-state throughput of the library's hot paths with multiple rounds.
"""

import itertools

import numpy as np
import pytest

from repro.core import AlternatePathFinder, Metric, build_graph, greedy_host_removal
from repro.measurement import Campaign, poisson_pairs
from repro.netsim import NetworkConditions, PathSampler, SECONDS_PER_DAY
from repro.routing import BGPTable, PathResolver
from repro.routing.columnar import VIA_NONE
from repro.topology import TopologyConfig, generate_topology, place_hosts


@pytest.fixture(scope="module")
def env():
    topo = generate_topology(TopologyConfig.for_era("1999", seed=41))
    place_hosts(topo, 20, seed=42, north_america_only=True, rate_limit_fraction=0.0)
    conditions = NetworkConditions(topo, seed=43)
    return topo, conditions


def test_perf_bgp_convergence(benchmark, env):
    topo, _ = env

    def converge():
        table = BGPTable(topo)
        dests = sorted(topo.ases)[:20]
        return sum(table.route(1, d) is not None for d in dests if d != 1)

    count = benchmark(converge)
    assert count > 0


def test_perf_path_resolution(benchmark, env):
    topo, _ = env
    names = topo.host_names()[:10]
    pairs = list(itertools.permutations(names, 2))

    def resolve_all():
        resolver = PathResolver(topo)
        return [resolver.resolve_round_trip(a, b) for a, b in pairs]

    paths = benchmark(resolve_all)
    assert len(paths) == len(pairs)


def test_perf_probe_throughput(benchmark, env):
    topo, conditions = env
    resolver = PathResolver(topo)
    names = topo.host_names()
    pairs = list(itertools.permutations(names, 2))
    sampler = PathSampler(
        conditions, [resolver.resolve_round_trip(a, b) for a, b in pairs]
    )
    rng = np.random.default_rng(7)

    def probe_thousand():
        total = 0
        for i in range(1000):
            batch = sampler.probe(SECONDS_PER_DAY + i * 17.0, rng)
            total += int(batch.lost.sum())
        return total

    benchmark(probe_thousand)


def test_perf_alternate_search(benchmark, env):
    topo, conditions = env
    hosts = topo.host_names()
    campaign = Campaign(topo, conditions, hosts, seed=44)
    requests = poisson_pairs(hosts, SECONDS_PER_DAY, 60.0, seed=45)
    records, _ = campaign.run_traceroutes(requests)
    from repro.datasets import Dataset, DatasetMeta

    dataset = Dataset(
        meta=DatasetMeta(
            name="perf", method="traceroute", year=1999,
            duration_days=1, location="North America",
        ),
        hosts=hosts,
        traceroutes=records,
    )
    graph = build_graph(dataset, Metric.RTT, min_samples=3)

    def search():
        return AlternatePathFinder(graph).best_all()

    alternates = benchmark(search)
    assert alternates


@pytest.fixture(scope="module")
def complete_graph():
    """A complete 40-host RTT graph whose direct edges are almost always
    the unconstrained shortest path (the worst case for re-runs)."""
    from repro.core.graph import EdgeData, MetricGraph
    from repro.core.stats import SampleStats

    rng = np.random.default_rng(9)
    hosts = [f"h{i}" for i in range(40)]
    graph = MetricGraph(Metric.RTT, hosts)
    for a in hosts:
        for b in hosts:
            if a == b:
                continue
            value = float(rng.uniform(1.0, 2.0))
            graph.add_edge(
                (a, b),
                EdgeData(value=value, stats=SampleStats(n=9, mean=value, var=0.1)),
            )
    return graph


def test_perf_direct_edge_rerun_path(benchmark, complete_graph):
    """Worst case for the exclusion re-run: nearly every pair needs an
    excluded-edge search (exercises the stacked re-run that replaced one
    Dijkstra call per pair, itself the replacement of a per-pair dense
    rebuild)."""

    def search():
        return AlternatePathFinder(complete_graph).best_all()

    alternates = benchmark(search)
    hosts = complete_graph.hosts
    assert len(alternates) == len(hosts) * (len(hosts) - 1)


def test_perf_greedy_host_removal(benchmark, complete_graph):
    """Figure 12's greedy loop on the complete graph: every step prices
    all remaining hosts, re-solving only the pairs routed via each."""
    steps = benchmark(greedy_host_removal, complete_graph, k=2)
    assert len(steps) == 2


@pytest.fixture(scope="module")
def episode_dataset():
    """200 UW4-A-shaped episodes: 15 hosts, every ordered pair measured
    once per episode by a three-probe traceroute, about 5 % of probes
    lost."""
    from repro.datasets import Dataset, DatasetMeta
    from repro.measurement.records import TracerouteRecord

    rng = np.random.default_rng(11)
    hosts = [f"ep{i:02d}" for i in range(15)]
    base = rng.uniform(20.0, 200.0, size=(15, 15))
    records = []
    for ep in range(200):
        for i, j in itertools.permutations(range(15), 2):
            rtts = base[i, j] + rng.exponential(5.0, size=3)
            rtts[rng.random(3) < 0.05] = np.nan
            records.append(
                TracerouteRecord(
                    600.0 * ep, hosts[i], hosts[j], tuple(rtts.tolist()), ep
                )
            )
    meta = DatasetMeta(
        name="perf-episodes", method="traceroute", year=1999,
        duration_days=1, location="North America",
    )
    return Dataset(meta=meta, hosts=hosts, traceroutes=records)


def test_perf_episode_analysis(benchmark, episode_dataset):
    """Figure 11's within-episode search over 200 episode graphs."""
    from repro.core import analyze_episodes

    analysis = benchmark(analyze_episodes, episode_dataset)
    assert analysis.episodes_analyzed == 200


@pytest.fixture(scope="module")
def scenario_env():
    """A topology of its own (the timeline mutates AS structure)."""
    from repro.scenario import ScenarioPlan

    topo = generate_topology(TopologyConfig.for_era("1999", seed=41))
    al = topo.as_links[0]
    plan = ScenarioPlan.parse(f"link-down:{al.a}-{al.b}:at=300:for=300")
    return topo, plan


def _failure_cycle(topo, plan, full):
    """One scenario round: warm tables, fail the link, reconverge, heal.

    ``full`` drops the salvaged route store after the failure, so every
    destination reconverges.
    """
    from repro.scenario import ScenarioTimeline

    timeline = ScenarioTimeline(topo, plan)
    BGPTable(topo).converge_all()
    timeline.advance_to(300.0)
    if full:
        topo.routing_cache("bgp").clear()
    BGPTable(topo).converge_all()
    n = sum(
        int((column.via != VIA_NONE).sum())
        for column in topo.routing_cache("bgp")["routes"].values()
    )
    timeline.reset()
    return n


def test_perf_scenario_reconverge(benchmark, scenario_env):
    """Selective reconvergence: unaffected destinations are salvaged."""
    topo, plan = scenario_env
    routes = benchmark(lambda: _failure_cycle(topo, plan, False))
    assert routes > 0


def test_perf_scenario_reconverge_full(benchmark, scenario_env):
    """Reference cost: every destination reconverges."""
    topo, plan = scenario_env
    routes = benchmark(lambda: _failure_cycle(topo, plan, True))
    assert routes > 0
