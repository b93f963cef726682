"""Shared fixtures: small topologies and datasets built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Dataset, DatasetMeta
from repro.measurement import Campaign, poisson_episodes, poisson_pairs
from repro.netsim import NetworkConditions, SECONDS_PER_DAY
from repro.routing import PathResolver
from repro.topology import TopologyConfig, generate_topology, place_hosts


@pytest.fixture(scope="session")
def topo1999():
    """A 1999-era topology with 12 NA hosts (25% ICMP rate limiters)."""
    topo = generate_topology(TopologyConfig.for_era("1999", seed=42))
    place_hosts(
        topo, 12, seed=7, north_america_only=True, rate_limit_fraction=0.25
    )
    return topo


@pytest.fixture(scope="session")
def topo1995():
    """A 1995-era topology with 10 worldwide hosts."""
    topo = generate_topology(TopologyConfig.for_era("1995", seed=43))
    place_hosts(topo, 10, seed=9, rate_limit_fraction=0.0)
    return topo


@pytest.fixture(scope="session")
def conditions(topo1999):
    return NetworkConditions(topo1999, seed=5)


@pytest.fixture(scope="session")
def resolver(topo1999):
    return PathResolver(topo1999)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)


def _meta(name: str, method: str = "traceroute") -> DatasetMeta:
    return DatasetMeta(
        name=name,
        method=method,
        year=1999,
        duration_days=2,
        location="North America",
    )


@pytest.fixture(scope="session")
def mini_dataset(topo1999, conditions, resolver) -> Dataset:
    """Two simulated days of Poisson traceroutes between 12 hosts."""
    hosts = topo1999.host_names()
    campaign = Campaign(topo1999, conditions, hosts, resolver=resolver, seed=11)
    requests = poisson_pairs(hosts, 2 * SECONDS_PER_DAY, 60.0, seed=11)
    records, stats = campaign.run_traceroutes(requests)
    return Dataset(
        meta=_meta("MINI"),
        hosts=hosts,
        traceroutes=records,
        path_info=campaign.path_info(),
        stats=stats,
    )


@pytest.fixture(scope="session")
def mini_transfers(topo1999, conditions, resolver) -> Dataset:
    """Two simulated days of TCP transfers between 12 hosts."""
    hosts = topo1999.host_names()
    campaign = Campaign(topo1999, conditions, hosts, resolver=resolver, seed=13)
    requests = poisson_pairs(hosts, 2 * SECONDS_PER_DAY, 120.0, seed=13)
    records, stats = campaign.run_transfers(requests)
    return Dataset(
        meta=_meta("MINI-BW", method="tcpanaly"),
        hosts=hosts,
        transfers=records,
        path_info=campaign.path_info(),
        stats=stats,
    )


@pytest.fixture(scope="session")
def episode_dataset(topo1999, conditions, resolver) -> Dataset:
    """One simulated day of all-pairs episodes between 8 hosts."""
    hosts = topo1999.host_names()[:8]
    campaign = Campaign(topo1999, conditions, hosts, resolver=resolver, seed=17)
    requests = poisson_episodes(hosts, SECONDS_PER_DAY, 2400.0, seed=17)
    records, stats = campaign.run_traceroutes(requests)
    return Dataset(
        meta=_meta("MINI-EP"),
        hosts=hosts,
        traceroutes=records,
        path_info=campaign.path_info(),
        stats=stats,
    )


@pytest.fixture(scope="session")
def suite():
    """All eight paper datasets at 12% scale (shared across test modules)."""
    from repro.datasets import BuildConfig
    from repro.experiments.runner import provision_datasets

    return provision_datasets(
        BuildConfig(seed=2024, scale=0.12), use_cache=False, jobs=1
    )


@pytest.fixture(scope="session")
def min_samples():
    """min_samples appropriate for the reduced-scale suite."""
    return 4
