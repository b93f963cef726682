"""DetourService end to end: determinism, failover, strategy comparison."""

import math

import pytest

from repro.routing.columnar import ROUTING_JOBS_ENV_VAR
from repro.scenario.plan import ScenarioPlan
from repro.service import (
    DetourService,
    PathStore,
    ServiceError,
    evaluate_strategies,
    score_result,
    strategy_names,
)

#: A transient outage with a clean heal: every affected candidate must be
#: marked down at t=600 and back up at t=1200.
OUTAGE_SPEC = "region-outage:na-west:at=600:for=600"


@pytest.fixture(scope="module")
def calm_service():
    return DetourService(seed=1999, n_hosts=10, n_pairs=4, duration_s=1800.0)


def test_invalid_parameters_raise_service_error():
    with pytest.raises(ServiceError, match="duration_s"):
        DetourService(duration_s=0.0, n_hosts=6, n_pairs=2)
    with pytest.raises(ServiceError, match="probe_interval_s"):
        DetourService(probe_interval_s=-1.0, n_hosts=6, n_pairs=2)
    with pytest.raises(ServiceError, match="relays_per_pair"):
        DetourService(relays_per_pair=0, n_hosts=6, n_pairs=2)
    with pytest.raises(ServiceError, match="n_pairs"):
        DetourService(n_hosts=6, n_pairs=10_000)


def test_candidates_lead_with_the_default_path(calm_service):
    for pair in calm_service.pairs:
        cands = calm_service.candidates[pair]
        assert cands[0].relay is None
        assert all(c.relay is not None for c in cands[1:])
        assert len(cands) == 3  # default + relays_per_pair


def test_rerun_replays_byte_identically(calm_service):
    # A second read of one cached replay would prove nothing: compare a
    # service whose replay is already built against a fresh one.
    calm_service.run("random")
    reused = evaluate_strategies(calm_service, ("lowest-latency",)).render()
    fresh = DetourService(seed=1999, n_hosts=10, n_pairs=4, duration_s=1800.0)
    assert evaluate_strategies(fresh, ("lowest-latency",)).render() == reused


def test_replay_is_byte_identical_across_routing_jobs(monkeypatch):
    plan = ScenarioPlan.parse(OUTAGE_SPEC)
    tables = []
    for jobs in (None, None, "2"):
        if jobs is None:
            monkeypatch.delenv(ROUTING_JOBS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ROUTING_JOBS_ENV_VAR, jobs)
        service = DetourService(
            plan, seed=11, n_hosts=8, n_pairs=2, duration_s=1500.0
        )
        tables.append(
            evaluate_strategies(service, ("lowest-latency",)).render()
        )
    monkeypatch.delenv(ROUTING_JOBS_ENV_VAR, raising=False)
    assert tables[0] == tables[1] == tables[2]


def test_scenario_outage_drives_reactive_failover():
    service = DetourService(
        ScenarioPlan.parse(OUTAGE_SPEC),
        seed=1999,
        n_hosts=10,
        n_pairs=4,
        duration_s=1800.0,
    )
    result = service.run("lowest-latency")
    # The link-down clauses behind the outage flowed through
    # mark_path_down, and the heal through mark_path_up — symmetrically.
    assert result.path_down_events > 0
    assert result.path_up_events == result.path_down_events
    # Outside the outage window every request is served.
    for rec in result.records:
        if rec.t < 600.0 or rec.t >= 1200.0:
            assert not rec.failed, f"request at t={rec.t} failed"
    # The heal is clean: no pair is still dark at the horizon.
    assert result.pairs_down_at_end == ()
    # The store reroutes within one probe interval of the heal: the
    # first post-heal probe round refreshes every healed leg, so every
    # request after t = 1200 + probe_interval is served with finite
    # expected quality.
    after_recovery = [
        r for r in result.records if r.t >= 1200.0 + service.probe_interval_s
    ]
    assert after_recovery
    assert all(math.isfinite(r.rtt_ms) for r in after_recovery)


def test_all_four_strategies_score_and_lowest_latency_wins(calm_service):
    report = evaluate_strategies(calm_service)
    names = [s.strategy for s in report.scores]
    assert names == ["lowest-hop", "lowest-latency", "random", "round-robin"]
    by_name = {s.strategy: s for s in report.scores}
    low = by_name["lowest-latency"]
    # The environment offers a real oracle gain and lowest-latency
    # recovers a non-trivial fraction of it online.
    assert low.mean_oracle_rtt_ms < low.mean_direct_rtt_ms
    assert low.gain_capture > 0.5
    assert low.deflection_rate > 0.0
    for other in ("lowest-hop", "random", "round-robin"):
        score = by_name[other]
        capture = score.gain_capture
        assert math.isnan(capture) or capture <= low.gain_capture
    # Identical environment per run: request counts and direct/oracle
    # columns match across strategies.
    assert len({s.requests for s in report.scores}) == 1
    assert len({s.mean_direct_rtt_ms for s in report.scores}) == 1
    # No strategy beats the oracle, which never loses to the default.
    for score in report.scores:
        assert score.mean_oracle_rtt_ms <= score.mean_direct_rtt_ms
        assert score.mean_oracle_rtt_ms <= score.mean_rtt_ms
        assert 0.0 <= score.deflection_rate <= 1.0
    table = report.render()
    assert "Strategy-vs-oracle comparison" in table
    for name in names:
        assert name in table


def test_probing_and_transfers_actually_ran(calm_service):
    result = calm_service.run("round-robin")
    # A calm network resolves every leg, so each round probes them all.
    rounds = math.ceil(calm_service.horizon_s / calm_service.probe_interval_s)
    legs = PathStore(calm_service.hosts, calm_service.candidates).legs()
    assert result.probes_sent == rounds * len(legs)
    assert result.transfers > 0
    assert 0 <= result.probes_lost < 0.2 * result.probes_sent
    assert result.queries_per_second > 0.0


def test_every_served_record_respects_the_oracle(calm_service):
    for name in strategy_names():
        records = calm_service.run(name).records
        served = [
            r for r in records
            if not r.failed and math.isfinite(r.direct_rtt_ms)
        ]
        assert served
        for r in served:
            assert r.oracle_rtt_ms <= r.direct_rtt_ms
            assert r.oracle_rtt_ms <= r.rtt_ms
            if r.relay is None:
                assert r.rtt_ms == r.direct_rtt_ms


def test_lowest_latency_captures_oracle_gain_online():
    """The Detour hypothesis: choosing on stale EWMA estimates still
    recovers a solid share of the oracle gain over a day of traffic.
    With every other host a candidate relay, the oracle is the best of
    the direct path and every single-relay route."""
    service = DetourService(
        None,
        seed=51,
        n_hosts=15,
        n_pairs=20,
        duration_s=86_400.0,
        relays_per_pair=13,
    )
    result = service.run("lowest-latency")
    score = score_result(result)
    relayed = [
        r for r in result.records
        if r.relay is not None and not r.failed and math.isfinite(r.direct_rtt_ms)
    ]
    win_rate = sum(r.rtt_ms < r.direct_rtt_ms for r in relayed) / len(relayed)
    assert score.mean_rtt_ms < score.mean_direct_rtt_ms
    assert score.gain_capture > 0.3
    assert win_rate > 0.5


def test_facade_serve_returns_the_report(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro import ReproSession

    session = ReproSession(seed=1999, trace=True)
    report = session.serve(
        ["lowest-latency"], n_hosts=8, n_pairs=2, duration_s=900.0
    )
    assert [s.strategy for s in report.scores] == ["lowest-latency"]
    assert "service.run" in {sp["name"] for sp in session.trace().spans}


def test_facade_whatif_parses_spec_strings(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro import ReproSession
    from repro.scenario.plan import ScenarioPlanError

    from repro.topology import TopologyConfig, generate_topology

    topo = generate_topology(TopologyConfig.for_era("1999", seed=11))
    link = topo.as_links[0]
    session = ReproSession(seed=11)
    dataset, report = session.whatif(
        f"link-down:{link.a}-{link.b}:at=300:for=300", n_hosts=6
    )
    assert dataset.records
    assert report.availability.headline
    with pytest.raises(ScenarioPlanError):
        session.whatif("not-a-clause")
