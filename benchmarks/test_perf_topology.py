"""Performance benchmarks for the columnar topology/routing substrate.

Dual-baseline convention (see docs/PERFORMANCE.md §"The scale
substrate"): the object backend cannot run the columnar workloads at
all, so this suite records the *object* numbers at a scale both
backends handle (generation at paper scale, convergence over a fixed
destination subset at 1k AS) next to the columnar numbers at 10k AS
(generation, blocked convergence, streamed summary build).  The
committed baseline (``BENCH_topology.json``) is recorded with ``repro
bench --output BENCH_topology.json --bench-file
benchmarks/test_perf_topology.py``; CI's perf-smoke job compares
against it to guard the fast path against regression.  Cross-backend
speedup claims cite the shared-scale convergence pair.
"""

import pytest

from repro.datasets.stream import build_route_summaries
from repro.routing.bgp import BGPTable
from repro.routing.columnar import converge_all
from repro.topology import TopologyConfig, generate_topology
from repro.topology.scale import generate_topology_arrays, resolve_preset

from conftest import bench_seed, run_once

#: Destinations converged by the cross-backend pair (same ASNs both ways).
N_CONVERGE_DESTS = 16


@pytest.fixture(scope="module")
def arrays_1k():
    return generate_topology_arrays(resolve_preset("1k", seed=bench_seed()))


@pytest.fixture(scope="module")
def topo_1k(arrays_1k):
    return arrays_1k.to_topology()


@pytest.fixture(scope="module")
def arrays_10k():
    return generate_topology_arrays(resolve_preset("10k", seed=bench_seed()))


def _dest_subset(arrays, n):
    step = max(1, arrays.n_as // n)
    return [int(a) for a in arrays.as_asn[::step]][:n]


def test_perf_topology_object_generate(benchmark):
    """Object-generator baseline: one paper-scale (1999-era) topology."""
    topo = run_once(
        benchmark,
        lambda: generate_topology(TopologyConfig.for_era("1999", seed=bench_seed())),
    )
    assert len(topo.ases) > 100


def test_perf_topology_object_converge(benchmark, topo_1k):
    """``BGPTable`` over the object topology at 1k AS (shared scale with
    columnar); its committed baseline is the retired object solver."""
    dests = sorted(topo_1k.ases)[:N_CONVERGE_DESTS]

    def converge():
        topo_1k.routing_cache("bgp").clear()
        table = BGPTable(topo_1k)
        table.converge_all(dests)
        return table

    table = run_once(benchmark, converge)
    assert table.route(max(topo_1k.ases), dests[0]) is not None


def test_perf_topology_columnar_converge_1k(benchmark, arrays_1k):
    """Columnar solver on the identical 1k workload (the speedup pair)."""
    dests = _dest_subset(arrays_1k, N_CONVERGE_DESTS)
    table = run_once(benchmark, converge_all, arrays_1k, dests)
    assert table.route(int(arrays_1k.as_asn[-1]), dests[0]) is not None


def test_perf_topology_scale_generate_10k(benchmark):
    """Vectorized generator: a 10k-AS internetwork from scratch."""
    arrays = run_once(
        benchmark,
        lambda: generate_topology_arrays(resolve_preset("10k", seed=bench_seed())),
    )
    assert arrays.n_as == 10_000


def test_perf_topology_columnar_converge_10k(benchmark, arrays_10k):
    """Blocked columnar convergence of a 512-destination slice at 10k AS."""
    dests = _dest_subset(arrays_10k, 512)
    table = run_once(benchmark, converge_all, arrays_10k, dests)
    assert table.route(int(arrays_10k.as_asn[-1]), dests[0]) is not None


def test_perf_topology_stream_summaries(benchmark, arrays_10k):
    """Streamed route-summary build (256 dests, bounded memory) at 10k AS."""
    dests = _dest_subset(arrays_10k, 256)
    records = run_once(
        benchmark, build_route_summaries, arrays_10k, dests, block=64
    )
    assert len(records) == len(dests)
