"""Builders for analogs of the paper's eight datasets (Table 1).

Each builder stands up an era-appropriate topology, places hosts the way
the corresponding experiment did, schedules requests with the published
law, runs the collection campaign, and applies the paper's per-dataset
corrections:

========  ======================================================================
Dataset   Construction
========  ======================================================================
D2        1995-era topology, 33 worldwide npd hosts, Poisson traceroutes over
          48 days; ICMP rate limiting cannot be detected after the fact, so
          the **first-probe loss heuristic** is applied (§4.2 footnote 2).
D2-NA     The D2 records restricted to D2's North American hosts.
N2        Same era, 31 worldwide hosts, 44 days of npd TCP transfers
          (bandwidth dataset; RTT/loss are in-TCP measurements).
N2-NA     N2 restricted to its North American hosts.
UW1       1999-era topology, 36 NA public traceroute servers, per-server
          uniform scheduling (mean 15 min) over 34 days.  Rate limiters are
          detected by a pre-scan and removed **from the target pool only**;
          paths toward them are filled by **reverse substitution**.
UW3       39 NA traceroute servers (post-filter), Poisson pair scheduling
          over 7 days; rate limiters detected by pre-scan and removed.
UW4-A     15 hosts drawn from a 35-host pool of UW3's hosts; Poisson
          "episodes" (mean 1000 s) measuring all pairs simultaneously,
          14 days.
UW4-B     The same 15 hosts, independent Poisson pair scheduling (long-term
          averages), concurrent with UW4-A.
========  ======================================================================

Mean request intervals are tuned so completed-measurement counts land on
Table 1's values; where that implies a different nominal interval than the
paper quotes (UW3's 9 s, UW1's 15 min), the paper's own counts win, since
they are what the figures are computed from.  See EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.datasets.dataset import Dataset, DatasetMeta
from repro.faults import injection
from repro.faults.plan import SITE_BUILD
from repro.measurement.collector import Campaign
from repro.measurement.ratelimit import detect_rate_limiters, flagged_hosts
from repro.measurement.schedulers import (
    poisson_episodes,
    poisson_pairs,
    round_robin_pairs,
    uniform_per_server,
)
from repro.netsim.clock import SECONDS_PER_DAY
from repro.netsim.conditions import NetworkConditions
from repro.routing.forwarding import PathResolver
from repro.topology.generator import TopologyConfig, generate_topology, place_hosts
from repro.topology.network import Topology

#: Default master seed for the full reproduction.
DEFAULT_SEED = 1999


@dataclass(slots=True)
class BuildConfig:
    """Knobs shared by all dataset builders.

    Attributes:
        seed: Master seed; all topology/scheduling/collection randomness
            derives from it.
        scale: Multiplier on collection durations in (0, 1].  Scaled-down
            builds (for tests and quick benchmarks) keep the same hosts
            and rates but measure for a shorter simulated period.
    """

    seed: int = DEFAULT_SEED
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")

    def days(self, nominal_days: float) -> float:
        """Scaled duration in seconds for a nominal number of days."""
        return nominal_days * self.scale * SECONDS_PER_DAY


@dataclass
class Environment:
    """A topology with hosts placed plus its dynamic conditions."""

    topo: Topology
    conditions: NetworkConditions
    resolver: PathResolver
    hosts: list[str] = field(default_factory=list)

    def na_hosts(self, names: list[str] | None = None) -> list[str]:
        """The subset of hosts located in North America."""
        pool = self.hosts if names is None else names
        return [h for h in pool if self.topo.host(h).city.is_north_america]


def _make_environment(
    *,
    era: str,
    seed: int,
    n_hosts: int,
    north_america_only: bool,
    rate_limit_fraction: float,
    name_prefix: str,
) -> Environment:
    """Generate a topology, place hosts, and wrap the pieces."""
    topo_cfg = TopologyConfig.for_era(era, seed=seed)
    topo = generate_topology(topo_cfg)
    hosts = place_hosts(
        topo,
        n_hosts,
        seed=seed + 7,
        north_america_only=north_america_only,
        rate_limit_fraction=rate_limit_fraction,
        name_prefix=name_prefix,
        capacity_scale=topo_cfg.capacity_scale,
    )
    conditions = NetworkConditions(topo, seed=seed + 13)
    resolver = PathResolver(topo)
    return Environment(
        topo=topo,
        conditions=conditions,
        resolver=resolver,
        hosts=[h.name for h in hosts],
    )


def _prescan_filter(env: Environment, hosts: list[str], *, seed: int) -> list[str]:
    """Detect ICMP rate limiters with a one-day round-robin pre-scan.

    Returns the hosts judged clean, preserving order.
    """
    campaign = Campaign(
        env.topo,
        env.conditions,
        hosts,
        resolver=env.resolver,
        seed=seed,
        control_failure_prob=0.02,
    )
    requests = round_robin_pairs(hosts, repetitions=6, duration_s=SECONDS_PER_DAY, seed=seed)
    records, stats = campaign.run_traceroutes(requests)
    probe = Dataset(
        meta=DatasetMeta(
            name="prescan",
            method="traceroute",
            year=1999,
            duration_days=1,
            location="North America",
        ),
        hosts=hosts,
        traceroutes=records,
        stats=stats,
    )
    flagged = set(flagged_hosts(detect_rate_limiters(probe)))
    return [h for h in hosts if h not in flagged]


# ---------------------------------------------------------------------------
# UW datasets (1999 era).
# ---------------------------------------------------------------------------

def build_uw1(config: BuildConfig | None = None) -> Dataset:
    """Build the UW1 analog: 36 NA hosts, uniform per-server scheduling.

    Rate limiters stay in the pool as *sources*; the target pool excludes
    them, and paths toward them are filled by reverse substitution.
    """
    cfg = config or BuildConfig()
    env = _make_environment(
        era="1999",
        seed=cfg.seed + 101,
        n_hosts=36,
        north_america_only=True,
        rate_limit_fraction=0.18,
        name_prefix="uw1",
    )
    clean = _prescan_filter(env, env.hosts, seed=cfg.seed + 102)
    limiters = [h for h in env.hosts if h not in clean]
    campaign = Campaign(
        env.topo,
        env.conditions,
        env.hosts,
        resolver=env.resolver,
        seed=cfg.seed + 103,
        control_failure_prob=0.54,
        pair_blackout_prob=0.0,
    )
    requests = uniform_per_server(
        env.hosts,
        cfg.days(34),
        mean_interval_s=900.0,
        seed=cfg.seed + 104,
        targets=clean,
    )
    records, stats = campaign.run_traceroutes(requests)
    dataset = Dataset(
        meta=DatasetMeta(
            name="UW1",
            method="traceroute",
            year=1998,
            duration_days=34 * cfg.scale,
            location="North America",
            era="1999",
            description="public traceroute servers, per-server uniform scheduling",
        ),
        hosts=list(env.hosts),
        traceroutes=records,
        path_info=campaign.path_info(),
        stats=stats,
    )
    return dataset.with_reverse_substitution(limiters)


def build_uw3(
    config: BuildConfig | None = None,
) -> tuple[Dataset, Environment]:
    """Build the UW3 analog: 39 NA hosts (post-filter), Poisson pairs, 7 days.

    Also returns the environment so UW4 can reuse the same hosts and
    network, as the paper did.
    """
    cfg = config or BuildConfig()
    env = _make_environment(
        era="1999",
        seed=cfg.seed + 301,
        n_hosts=54,
        north_america_only=True,
        rate_limit_fraction=0.15,
        name_prefix="uw3",
    )
    clean = _prescan_filter(env, env.hosts, seed=cfg.seed + 302)
    hosts = clean[:39]
    campaign = Campaign(
        env.topo,
        env.conditions,
        hosts,
        resolver=env.resolver,
        seed=cfg.seed + 303,
        control_failure_prob=0.01,
        pair_blackout_prob=0.13,
    )
    requests = poisson_pairs(
        hosts, cfg.days(7), mean_interval_s=5.52, seed=cfg.seed + 304
    )
    records, stats = campaign.run_traceroutes(requests)
    dataset = Dataset(
        meta=DatasetMeta(
            name="UW3",
            method="traceroute",
            year=1999,
            duration_days=7 * cfg.scale,
            location="North America",
            era="1999",
            description="Altavista-found traceroute servers, Poisson pair scheduling",
        ),
        hosts=hosts,
        traceroutes=records,
        path_info={
            pair: info
            for pair, info in campaign.path_info().items()
        },
        stats=stats,
    )
    env.hosts = hosts
    return dataset, env


def build_uw4(
    config: BuildConfig | None = None,
    uw3_env: Environment | None = None,
) -> tuple[Dataset, Dataset]:
    """Build the UW4-A (simultaneous episodes) and UW4-B (long-term
    average) analogs over the same 15 hosts, collected concurrently.

    The 15 hosts are selected at random from a 35-host pool of UW3's
    hosts, as in the paper.  When ``uw3_env`` is None, UW3's environment
    is rebuilt (without rerunning UW3's main campaign).
    """
    cfg = config or BuildConfig()
    if uw3_env is None:
        env = _make_environment(
            era="1999",
            seed=cfg.seed + 301,
            n_hosts=54,
            north_america_only=True,
            rate_limit_fraction=0.15,
            name_prefix="uw3",
        )
        env.hosts = _prescan_filter(env, env.hosts, seed=cfg.seed + 302)[:39]
    else:
        env = uw3_env
    pool = env.hosts[:35]
    rng = random.Random(cfg.seed + 401)
    hosts = sorted(rng.sample(pool, min(15, len(pool))))
    duration = cfg.days(14)

    campaign_a = Campaign(
        env.topo,
        env.conditions,
        hosts,
        resolver=env.resolver,
        seed=cfg.seed + 402,
        control_failure_prob=0.146,
    )
    requests_a = poisson_episodes(
        hosts, duration, mean_interval_s=1000.0, seed=cfg.seed + 403
    )
    records_a, stats_a = campaign_a.run_traceroutes(requests_a)
    uw4a = Dataset(
        meta=DatasetMeta(
            name="UW4-A",
            method="traceroute",
            year=1999,
            duration_days=14 * cfg.scale,
            location="North America",
            era="1999",
            description="simultaneous all-pairs episodes, exponential mean 1000s",
        ),
        hosts=hosts,
        traceroutes=records_a,
        path_info=campaign_a.path_info(),
        stats=stats_a,
    )

    campaign_b = Campaign(
        env.topo,
        env.conditions,
        hosts,
        resolver=env.resolver,
        seed=cfg.seed + 404,
        control_failure_prob=0.01,
    )
    requests_b = poisson_pairs(
        hosts, duration, mean_interval_s=130.0, seed=cfg.seed + 405
    )
    records_b, stats_b = campaign_b.run_traceroutes(requests_b)
    uw4b = Dataset(
        meta=DatasetMeta(
            name="UW4-B",
            method="traceroute",
            year=1999,
            duration_days=14 * cfg.scale,
            location="North America",
            era="1999",
            description="independent long-term average companion to UW4-A",
        ),
        hosts=hosts,
        traceroutes=records_b,
        path_info=campaign_b.path_info(),
        stats=stats_b,
    )
    return uw4a, uw4b


# ---------------------------------------------------------------------------
# 1995-era datasets (D2 / N2).
# ---------------------------------------------------------------------------

def _na_subset(dataset: Dataset, env: Environment, name: str) -> Dataset:
    """Restrict a dataset to its North American hosts and rename it."""
    na = set(env.na_hosts(dataset.hosts))
    drop = [h for h in dataset.hosts if h not in na]
    subset = dataset.without_hosts(drop)
    subset.meta = replace(subset.meta, name=name, location="North America")
    return subset


def build_d2(config: BuildConfig | None = None) -> tuple[Dataset, Dataset]:
    """Build the D2 (world) and D2-NA analogs: 1995-era npd traceroutes.

    Identifying rate limiters after the fact "is no longer possible", so
    both datasets carry the first-probe loss heuristic.
    """
    cfg = config or BuildConfig()
    env = _make_environment(
        era="1995",
        seed=cfg.seed + 201,
        n_hosts=33,
        north_america_only=False,
        rate_limit_fraction=0.15,
        name_prefix="d2",
    )
    campaign = Campaign(
        env.topo,
        env.conditions,
        env.hosts,
        resolver=env.resolver,
        seed=cfg.seed + 202,
        control_failure_prob=0.01,
        pair_blackout_prob=0.03,
    )
    requests = poisson_pairs(
        env.hosts, cfg.days(48), mean_interval_s=113.4, seed=cfg.seed + 203
    )
    records, stats = campaign.run_traceroutes(requests)
    d2 = Dataset(
        meta=DatasetMeta(
            name="D2",
            method="traceroute",
            year=1995,
            duration_days=48 * cfg.scale,
            location="World",
            era="1995",
            description="npd traceroute measurements (Paxson), worldwide hosts",
        ),
        hosts=list(env.hosts),
        traceroutes=records,
        path_info=campaign.path_info(),
        stats=stats,
    ).with_first_probe_loss_heuristic()
    d2_na = _na_subset(d2, env, "D2-NA")
    return d2, d2_na


def build_n2(config: BuildConfig | None = None) -> tuple[Dataset, Dataset]:
    """Build the N2 (world) and N2-NA analogs: 1995-era npd TCP transfers.

    N2 is only analyzed for bandwidth (its RTT/loss are in-TCP
    measurements, not unbiased samples — paper §4.2).
    """
    cfg = config or BuildConfig()
    env = _make_environment(
        era="1995",
        seed=cfg.seed + 501,
        n_hosts=31,
        north_america_only=False,
        rate_limit_fraction=0.0,
        name_prefix="n2",
    )
    campaign = Campaign(
        env.topo,
        env.conditions,
        env.hosts,
        resolver=env.resolver,
        seed=cfg.seed + 502,
        control_failure_prob=0.01,
        pair_blackout_prob=0.12,
    )
    requests = poisson_pairs(
        env.hosts, cfg.days(44), mean_interval_s=181.3, seed=cfg.seed + 503
    )
    records, stats = campaign.run_transfers(requests)
    n2 = Dataset(
        meta=DatasetMeta(
            name="N2",
            method="tcpanaly",
            year=1995,
            duration_days=44 * cfg.scale,
            location="World",
            era="1995",
            description="npd TCP transfer measurements (Paxson), worldwide hosts",
        ),
        hosts=list(env.hosts),
        transfers=records,
        path_info=campaign.path_info(),
        stats=stats,
    )
    n2_na = _na_subset(n2, env, "N2-NA")
    return n2, n2_na


#: Independent build groups: the datasets one builder call produces
#: together.  Groups are the unit of parallelism and cache invalidation —
#: each group builder depends only on its ``BuildConfig`` (all randomness
#: derives from the master seed), so groups can run in any order, in any
#: mix of processes, and produce bit-identical datasets.
BUILD_GROUPS: dict[str, tuple[str, ...]] = {
    "d2": ("D2-NA", "D2"),
    "n2": ("N2-NA", "N2"),
    "uw1": ("UW1",),
    "uw3": ("UW3",),
    "uw4": ("UW4-A", "UW4-B"),
}


def group_for(dataset_name: str) -> str:
    """The build group that produces ``dataset_name``.

    Raises:
        KeyError: for names outside Table 1.
    """
    for group, names in BUILD_GROUPS.items():
        if dataset_name in names:
            return group
    raise KeyError(f"unknown dataset {dataset_name!r}")


def build_group(group: str, config: BuildConfig | None = None) -> dict[str, Dataset]:
    """Build one independent group of Table 1 datasets.

    This is the unit of work the parallel provisioning pipeline ships to
    pool workers, so it must stay importable at module top level
    (picklable) and must depend only on ``config``.  The ``uw4`` group
    regenerates UW3's environment from the same seeds rather than
    receiving it from a ``uw3`` build, keeping the groups independent;
    conditions are deterministic in (seed, t), so the result is identical.

    Raises:
        KeyError: for unknown group names.
    """
    # Named injection point "build.group" (docs/ROBUSTNESS.md): an active
    # fault plan can crash this process, raise, or stall here to emulate
    # worker death, flaky builders, and hung builds.
    injection.perform(SITE_BUILD, group)
    cfg = config or BuildConfig()
    if group == "d2":
        d2, d2_na = build_d2(cfg)
        return {"D2-NA": d2_na, "D2": d2}
    if group == "n2":
        n2, n2_na = build_n2(cfg)
        return {"N2-NA": n2_na, "N2": n2}
    if group == "uw1":
        return {"UW1": build_uw1(cfg)}
    if group == "uw3":
        return {"UW3": build_uw3(cfg)[0]}
    if group == "uw4":
        uw4a, uw4b = build_uw4(cfg)
        return {"UW4-A": uw4a, "UW4-B": uw4b}
    raise KeyError(f"unknown build group {group!r}")


def table1_order() -> list[str]:
    """Dataset names in the paper's Table 1 row order."""
    return ["D2-NA", "D2", "N2-NA", "N2", "UW1", "UW3", "UW4-A", "UW4-B"]
