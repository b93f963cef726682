"""Performance benchmarks for the online Detour service.

These track the service's two costs separately: standing up a deployment
(topology + BGP convergence + candidate discovery, paid once) and the
steady-state event loop (probe rounds, transfers, request serving — the
throughput that matters for an online path-selection service).  The
committed baseline (``BENCH_service.json``) is recorded with ``repro
bench --output BENCH_service.json --bench-file
benchmarks/test_perf_service.py``; CI's perf-smoke job compares against
it.  The headline number is queries/sec in the request-serving loop.
"""

import pytest

from repro.service import DetourService, evaluate_strategies

from conftest import bench_seed, run_once


@pytest.fixture
def service():
    """A mid-sized deployment: 12 hosts, 6 pairs, 4 congestion buckets.

    Fresh per test and built outside the timed call: the first run of a
    service builds its environment replay, so a shared instance would
    hand every later benchmark a warm replay.
    """
    return DetourService(
        seed=bench_seed(),
        n_hosts=12,
        n_pairs=6,
        duration_s=1200.0,
        mean_request_interval_s=10.0,
    )


def test_perf_service_construct(benchmark):
    """Deployment stand-up: topology, convergence, candidate discovery."""

    def construct():
        svc = DetourService(
            seed=bench_seed(), n_hosts=10, n_pairs=4, duration_s=600.0
        )
        return len(svc.candidates)

    assert run_once(benchmark, construct) == 4


def test_perf_service_event_loop(benchmark, service):
    """One full lowest-latency run: probes, transfers, request serving.

    The run's queries/sec is the service's headline throughput; the
    benchmark median tracks its inverse at a fixed request schedule.
    """
    result = run_once(benchmark, service.run, "lowest-latency")
    assert len(result.records) > 100
    assert result.queries_per_second > 0.0


def test_perf_service_evaluate_all(benchmark, service):
    """The full four-strategy comparison the CLI's `repro serve` runs."""
    report = run_once(benchmark, evaluate_strategies, service)
    assert len(report.scores) == 4
