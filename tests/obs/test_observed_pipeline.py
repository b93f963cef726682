"""End-to-end observability: traced runs stay byte-identical, spans cover
every instrumented subsystem, and fault retries leave a span trail."""

import hashlib

import pytest

from repro.datasets import BuildConfig
from repro.experiments.runner import provision_datasets
from repro.obs import runtime as obs
from repro.obs.artifact import RunTrace


@pytest.fixture()
def tiny_cfg():
    return BuildConfig(seed=31, scale=0.02)


def _suite_dir(root, cfg):
    return root / f"seed{cfg.seed}-scale{cfg.scale:g}"


def _hashes(suite):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in suite.glob("*.jsonl")
    }


META = {"command": "test", "seed": 31, "scale": 0.02, "jobs": 1}


def test_traced_run_is_byte_identical_to_untraced(
    tmp_path, monkeypatch, tiny_cfg
):
    """The acceptance guarantee: tracing must not perturb results."""
    from repro.experiments.tables import table1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
    datasets = provision_datasets(tiny_cfg, jobs=1)
    plain = _hashes(_suite_dir(tmp_path / "plain", tiny_cfg))
    plain_table = table1(datasets).text
    assert len(plain) == 8

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traced"))
    with obs.capture() as cap:
        datasets = provision_datasets(tiny_cfg, jobs=1)
        traced_table = table1(datasets).text
    traced = _hashes(_suite_dir(tmp_path / "traced", tiny_cfg))
    assert traced == plain
    assert traced_table == plain_table
    assert len(cap.tracer) > 0


def test_parallel_trace_fingerprints_serial_trace(
    tmp_path, monkeypatch, tiny_cfg
):
    """Worker-blob grafting keeps the span tree shape jobs-independent."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    with obs.capture() as serial:
        provision_datasets(tiny_cfg, jobs=1)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    with obs.capture() as parallel:
        provision_datasets(tiny_cfg, jobs=2)

    a = RunTrace.from_capture(serial, META)
    b = RunTrace.from_capture(parallel, META)
    assert a.fingerprint() == b.fingerprint()
    # The grafted tree keeps worker spans under the provision span.
    provision_id = b.spans_named("datasets.provision")[0]["id"]
    parents = {d["id"]: d["parent"] for d in b.spans}
    for build in b.spans_named("datasets.build"):
        walk = build["id"]
        while parents[walk] is not None:
            walk = parents[walk]
        assert walk == provision_id or build["parent"] == provision_id


def test_trace_covers_all_instrumented_subsystems(
    tmp_path, monkeypatch, tiny_cfg
):
    """One composed run touches >= 6 namespaces (acceptance criterion)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.core import Metric, analyze
    from repro.service import DetourService

    with obs.capture() as cap:
        datasets = provision_datasets(tiny_cfg, jobs=1)
        analyze(datasets["UW3"], Metric.RTT, min_samples=2)
        DetourService(
            seed=3, n_hosts=6, n_pairs=2, duration_s=900.0
        ).run("lowest-latency")
        from repro.experiments.tables import table1

        with obs.span("experiments.artifact") as sp:
            sp.set("name", "table1")
            table1(datasets)

    trace = RunTrace.from_capture(cap, META)
    covered = set(trace.subsystems())
    assert {
        "topology",
        "routing",
        "netsim",
        "measurement",
        "datasets",
        "core",
        "service",
        "experiments",
    } <= covered
    counters = trace.metrics.get("counters", {})
    assert counters.get("datasets.builds", 0) > 0
    assert counters.get("datasets.cache.misses", 0) > 0


def test_fault_plan_retries_leave_spans(tmp_path, monkeypatch, tiny_cfg):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with obs.capture() as cap:
        provision_datasets(tiny_cfg, jobs=1, fault_plan="fail:uw3:times=1")
    trace = RunTrace.from_capture(cap, META)
    retries = trace.spans_named("faults.retry")
    assert len(retries) == 1
    assert retries[0]["attrs"]["label"] == "uw3"
    assert trace.metrics["counters"]["faults.retries"] == 1
    assert trace.metrics["counters"]["faults.backoffs"] >= 1
    assert trace.spans_named("faults.backoff")
    # Failed attempts raise out of the worker, so only the retry that
    # succeeded ships a build span back; the faults.retry span above is
    # the record of the failure.
    builds = [
        d for d in trace.spans_named("datasets.build")
        if d["attrs"]["group"] == "uw3"
    ]
    assert [d["attrs"]["attempt"] for d in builds] == [1]
    assert builds[0]["status"] == "ok"
