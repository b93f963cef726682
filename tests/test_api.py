"""The ReproSession facade and the build entry points it replaced."""

import pytest

from repro import ReproSession
from repro.datasets import BuildConfig


@pytest.fixture()
def session(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return ReproSession(seed=31, scale=0.02, jobs=1, trace=True)


def test_facade_is_the_package_level_export():
    import repro
    from repro.api import ReproSession as direct

    assert repro.ReproSession is direct
    assert "ReproSession" in repro.__all__


def test_build_analyze_trace_round_trip(session, tmp_path):
    datasets = session.build(only=["UW3"])
    assert set(datasets) == {"UW3"}
    assert session.report is not None
    assert session.config == BuildConfig(seed=31, scale=0.02)

    result = session.analyze("UW3", "rtt", min_samples=2)
    assert len(result) > 0

    trace = session.trace()
    assert {"core", "datasets"} <= set(trace.subsystems())
    assert trace.meta["command"] == "session"
    trace_path, metrics_path = session.save_trace(tmp_path / "session.json")
    assert trace_path.exists() and metrics_path.name == "metrics.json"


def test_dataset_builds_on_demand(session):
    uw1 = session.dataset("UW1")
    assert uw1.meta.name == "UW1"
    # Second access is a plain dict hit, not another build.
    assert session.dataset("UW1") is uw1


def test_analyze_accepts_dataset_objects(session):
    uw3 = session.dataset("UW3")
    result = session.analyze(uw3, "rtt", min_samples=2)
    assert len(result) > 0


def test_untraced_session_rejects_trace_access(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    session = ReproSession(seed=31, scale=0.02, trace=False)
    assert not session.tracing
    with pytest.raises(ValueError, match="trace=False"):
        session.trace()
    with pytest.raises(ValueError, match="trace=False"):
        session.save_trace(tmp_path / "t.json")


def test_reproduce_via_facade(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    session = ReproSession(seed=31, scale=0.02, jobs=1, trace=True)
    artifacts = session.reproduce(only={"table1"})
    assert set(artifacts) == {"table1"}
    assert session.report is not None
    assert "experiments" in session.trace().subsystems()
    capsys.readouterr()  # swallow run_all's progress output


def test_repr_mentions_configuration(session):
    text = repr(session)
    assert "seed=31" in text and "trace=True" in text


def test_removed_build_entry_points_are_gone():
    import repro
    import repro.datasets as datasets
    import repro.experiments as experiments
    import repro.experiments.runner as runner

    for module, name in (
        (repro, "build_all"),
        (datasets, "build_all"),
        (experiments, "get_datasets"),
        (experiments, "get_dataset"),
        (runner, "get_datasets"),
        (runner, "get_dataset"),
    ):
        assert not hasattr(module, name), (module.__name__, name)
        assert name not in getattr(module, "__all__", ())
    with pytest.raises(AttributeError):
        repro.no_such_symbol


def test_analyze_bandwidth_follows_the_cli_rule(session, mini_transfers):
    from repro.core import LossComposition, Metric, analyze_bandwidth

    # Pessimistic composition and analyze_bandwidth's own sample floor
    # unless the caller names them, as ``repro analyze`` does.
    result = session.analyze(mini_transfers, "bandwidth")
    expected = analyze_bandwidth(mini_transfers, LossComposition.PESSIMISTIC)
    assert len(result) > 0
    assert result.metric is Metric.BANDWIDTH
    assert result.dataset_name == expected.dataset_name
    assert repr(result.comparisons) == repr(expected.comparisons)
    optimistic = session.analyze(
        mini_transfers, Metric.BANDWIDTH, composition="optimistic", min_samples=40
    )
    expected = analyze_bandwidth(
        mini_transfers, LossComposition.OPTIMISTIC, min_samples=40
    )
    assert optimistic.dataset_name == expected.dataset_name
    assert repr(optimistic.comparisons) == repr(expected.comparisons)
    assert len(optimistic) < len(result)


def test_analyze_accepts_the_documented_prop_delay_name(session, mini_dataset):
    from repro.core import Metric, analyze

    result = session.analyze(mini_dataset, "prop-delay", min_samples=2)
    expected = analyze(mini_dataset, Metric.PROP_DELAY, min_samples=2)
    assert len(result) > 0
    assert repr(result.comparisons) == repr(expected.comparisons)
    with pytest.raises(ValueError):
        session.analyze(mini_dataset, "prop")
