"""Dataset containers, record types, builders, and serialization."""

from repro.datasets.builders import (
    BUILD_GROUPS,
    BuildConfig,
    DEFAULT_SEED,
    Environment,
    build_d2,
    build_group,
    build_n2,
    build_uw1,
    build_uw3,
    build_uw4,
    group_for,
    table1_order,
)
from repro.datasets.dataset import Dataset, DatasetError, DatasetMeta
from repro.datasets.instrumentation import BuildEvent, BuildReport
from repro.datasets.io import (
    CacheLock,
    CacheLockTimeout,
    DatasetIOError,
    load_dataset,
    save_dataset,
)
from repro.datasets.stream import (
    DEFAULT_STREAM_BLOCK,
    ROUTE_SUMMARY_KIND,
    ROUTE_SUMMARY_VERSION,
    build_route_summaries,
    iter_route_summaries,
    load_route_summaries,
    write_route_summaries,
)
from repro.datasets.summary import (
    DatasetSummary,
    DistributionSummary,
    HostParticipation,
    summarize,
)
from repro.measurement.records import (
    CollectionStats,
    PROBES_PER_TRACEROUTE,
    PathInfo,
    TracerouteRecord,
    TransferRecord,
)

__all__ = [
    "BUILD_GROUPS",
    "BuildConfig",
    "BuildEvent",
    "BuildReport",
    "CacheLock",
    "CacheLockTimeout",
    "CollectionStats",
    "DEFAULT_SEED",
    "DEFAULT_STREAM_BLOCK",
    "Dataset",
    "DatasetError",
    "DatasetIOError",
    "DatasetMeta",
    "DatasetSummary",
    "DistributionSummary",
    "Environment",
    "HostParticipation",
    "PROBES_PER_TRACEROUTE",
    "PathInfo",
    "ROUTE_SUMMARY_KIND",
    "ROUTE_SUMMARY_VERSION",
    "TracerouteRecord",
    "TransferRecord",
    "build_d2",
    "build_group",
    "build_n2",
    "build_route_summaries",
    "build_uw1",
    "build_uw3",
    "build_uw4",
    "group_for",
    "iter_route_summaries",
    "load_dataset",
    "load_route_summaries",
    "save_dataset",
    "summarize",
    "table1_order",
    "write_route_summaries",
]
