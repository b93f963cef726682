"""Measurement tools: schedulers, traceroute, TCP transfers, collection."""

from repro.measurement.collector import Campaign, CampaignError
from repro.measurement.ping import DEFAULT_INTERVAL_S, PingResult, PingTool
from repro.measurement.ratelimit import (
    RateLimitVerdict,
    TokenBucket,
    detect_rate_limiters,
    flagged_hosts,
)
from repro.measurement.records import (
    PROBES_PER_TRACEROUTE,
    CollectionStats,
    PathInfo,
    TracerouteRecord,
    TransferRecord,
)
from repro.measurement.schedulers import (
    Request,
    SchedulerError,
    poisson_episodes,
    poisson_pairs,
    round_robin_pairs,
    uniform_per_server,
)
from repro.measurement.tcp import (
    DEFAULT_MSS_BYTES,
    MATHIS_C,
    TCPTransferSimulator,
    bottleneck_capacity_kbps,
    mathis_bandwidth_kbps,
    mathis_bandwidth_kbps_array,
)
from repro.measurement.traceroute import (
    TracerouteHop,
    TracerouteResult,
    TracerouteTool,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CollectionStats",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_MSS_BYTES",
    "MATHIS_C",
    "PROBES_PER_TRACEROUTE",
    "PathInfo",
    "PingResult",
    "PingTool",
    "RateLimitVerdict",
    "Request",
    "SchedulerError",
    "TCPTransferSimulator",
    "TokenBucket",
    "TracerouteHop",
    "TracerouteRecord",
    "TracerouteResult",
    "TracerouteTool",
    "TransferRecord",
    "bottleneck_capacity_kbps",
    "detect_rate_limiters",
    "flagged_hosts",
    "mathis_bandwidth_kbps",
    "mathis_bandwidth_kbps_array",
    "poisson_episodes",
    "poisson_pairs",
    "round_robin_pairs",
    "uniform_per_server",
]
