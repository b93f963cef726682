"""The Detour service's shared replay and candidate table vs references.

A :class:`~repro.service.DetourService` resolves its environment once
(every topology segment's legs, probe sampler and transfer simulator)
and answers requests from a per-(segment, bucket) candidate table.
These tests hold both shortcuts to what they replaced: the table to the
per-request scalar reference in ``oracles.py``, bit for bit, and a run
on a reused replay to a run on a fresh service.
"""

import math

import numpy as np
import pytest

from repro.netsim.conditions import BUCKET_SECONDS, SamplerView
from repro.routing.forwarding import ForwardingError, PathResolver
from repro.scenario.plan import ScenarioPlan
from repro.service import (
    DetourService,
    PathStore,
    evaluate_strategies,
    strategy_names,
)
from repro.service.detour import _Segment

from tests.service import oracles

#: A partial regional outage (some candidates down, some up) plus a
#: ``new-transit`` event that materializes links before netsim sizes
#: its arrays.
PLAN = "region-outage:na-east:at=300:for=600;new-transit:1-9:at=600"


def _service():
    return DetourService(
        ScenarioPlan.parse(PLAN),
        seed=1999,
        n_hosts=12,
        n_pairs=6,
        duration_s=1500.0,
    )


@pytest.fixture(scope="module")
def service():
    return _service()


def _same(a, b):
    """Equality that treats NaN as equal to NaN (oracle of a dead pair)."""
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def _buckets(service):
    return range(int(math.ceil(service.horizon_s / BUCKET_SECONDS)))


def test_plan_exercises_partial_outage_and_healing(service):
    segments = service._environment().segments
    down = [sum(1 for *_, facts in seg.health if facts is None) for seg in segments]
    up = [len(seg.keys) for seg in segments]
    # Some segment has candidates both up and down, and one heals legs.
    assert any(d and u for d, u in zip(down, up))
    assert any(seg.healed for seg in segments)


def test_table_matches_per_request_reference(service):
    for seg in service._environment().segments:
        for bucket in _buckets(service):
            t = (bucket + 0.25) * BUCKET_SECONDS
            table = seg.table(t)
            for pair, cands in service.candidates.items():
                for cand in cands:
                    ref = oracles.expected(seg, pair, cand.relay, t)
                    assert table.expected.get((pair, cand.relay)) == ref
                ref_rtt, ref_relay = oracles.oracle_scan(
                    seg, service.candidates, pair, t
                )
                rtt, relay = table.oracle[pair]
                assert relay == ref_relay
                assert _same(rtt, ref_rtt)


def test_transfer_rows_match_per_row_reference(service):
    for seg in service._environment().segments:
        assert seg.keys == oracles.transfer_keys(seg, service.candidates)
        for bucket in _buckets(service):
            t = bucket * BUCKET_SECONDS
            table = seg.table(t)
            prop, qsum, ploss = oracles.transfer_rows(seg, service.candidates, t)
            assert np.array_equal(table.prop, prop)
            assert np.array_equal(table.qsum, qsum)
            assert np.array_equal(table.ploss, ploss)


def test_oracle_tie_goes_to_the_first_candidate_in_store_order(service):
    # Every default path down and every leg alike: the relays all tie on
    # expected RTT, and store order (not the sorted transfer order) picks.
    seg0 = service._environment().segments[0]
    legs = PathStore(service.hosts, service.candidates).legs()
    resolved = {
        leg: rt for leg, rt in seg0.resolved.items()
        if leg not in service.candidates
    }
    seg = _Segment(
        t=0.0,
        legs=legs,
        resolved=resolved,
        healed=(),
        candidates=service.candidates,
        conditions=service.conditions,
        topo=service.topo,
    )
    n = len(seg.probe_legs)

    class _Flat:
        def bucket_view(self, t):
            zeros = np.zeros(n)
            return SamplerView(t=t, prop=zeros + 5.0, qsum=zeros, ploss=zeros)

    seg.sampler = _Flat()
    table = seg.table(0.0)
    reordered = 0
    for pair, cands in service.candidates.items():
        up = [c.relay for c in cands if all(leg in resolved for leg in c.legs)]
        want = (10.0, up[0]) if up else (math.nan, None)
        got = table.oracle[pair]
        assert got[1] == want[1] and _same(got[0], want[0])
        ref = oracles.oracle_scan(seg, service.candidates, pair, 0.0)
        assert ref[1] == want[1] and _same(ref[0], want[0])
        reordered += bool(up) and up[0] != min(up)
    # The store order differs from the sorted order somewhere, so the
    # test tells the two apart.
    assert reordered


def _signature(result):
    return (
        result.records,
        result.pairs_down_at_end,
        result.probes_sent,
        result.probes_lost,
        result.transfers,
        result.path_down_events,
        result.path_up_events,
    )


@pytest.mark.parametrize("strategy", strategy_names())
def test_a_reused_replay_runs_like_a_fresh_service(strategy):
    fresh = _signature(_service().run(strategy))
    reused = _service()
    for other in strategy_names():
        if other != strategy:
            reused.run(other)
    assert _signature(reused.run(strategy)) == fresh


def test_strategy_order_does_not_change_the_rows():
    names = list(strategy_names())
    forward = evaluate_strategies(_service(), names)
    backward = evaluate_strategies(_service(), names[::-1])
    rows_f = forward.render().splitlines()
    rows_b = backward.render().splitlines()
    assert rows_f[:4] == rows_b[:4]
    assert sorted(rows_f[4:]) == sorted(rows_b[4:])
    assert forward.pairs_down_at_end == backward.pairs_down_at_end


def _resolve_all(service):
    resolver = PathResolver(service.topo)
    out = {}
    for cands in service.candidates.values():
        for cand in cands:
            for leg in cand.legs:
                try:
                    out[leg] = resolver.resolve_round_trip(*leg)
                except ForwardingError:
                    out[leg] = None
    return out


def test_topology_is_pristine_after_a_run():
    pristine = _resolve_all(_service())
    service = _service()
    n_links = len(service.topo.links)
    service.run("lowest-latency")
    assert service.timeline.now == 0.0
    assert len(service.topo.links) == n_links
    assert _resolve_all(service) == pristine


def test_a_failed_replay_build_publishes_nothing(monkeypatch):
    service = _service()
    built = []
    original = DetourService._build_segment

    def flaky(self, t, legs, prev):
        if len(built) == 2:
            raise RuntimeError("injected")
        built.append(t)
        return original(self, t, legs, prev)

    monkeypatch.setattr(DetourService, "_build_segment", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        service.run("lowest-latency")
    assert service._replay is None
    assert service.timeline.now == 0.0
    monkeypatch.setattr(DetourService, "_build_segment", original)
    again = service.run("lowest-latency")
    assert _signature(again) == _signature(_service().run("lowest-latency"))
