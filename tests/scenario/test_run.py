"""End-to-end scenario-run tests: determinism, storms, CLI contract."""

import numpy as np
import pytest

from repro.cli import main as repro_main
from repro.datasets.io import save_dataset
from repro.measurement.collector import Campaign
from repro.netsim.conditions import BUCKET_SECONDS, NetworkConditions
from repro.netsim.dynamics import DynamicPathSampler
from repro.routing.forwarding import ForwardingError, PathResolver
from repro.scenario.plan import ScenarioPlan
from repro.scenario.run import ScenarioRun, StormFlapModel
from repro.topology import TopologyConfig, generate_topology
from repro.topology.asys import Relationship

from tests.routing.test_bgp_equivalence import _gadget


class _QuietBase:
    """Flap-model stand-in that never flaps on its own."""

    window_s = BUCKET_SECONDS

    def is_flappy(self, pair_index):
        return False

    def on_secondary(self, pair_index, t):
        return False


def test_storm_flap_model_oscillates_members_only():
    plan = ScenarioPlan.parse("flap-storm:a->*:at=300:for=600")
    model = StormFlapModel(_QuietBase(), plan, ["a->b", "c->d"])
    assert model.window_s == BUCKET_SECONDS
    assert model.is_flappy(0)
    assert not model.is_flappy(1)
    # Inside [300, 900): secondary on odd congestion buckets.
    assert model.on_secondary(0, 300.0)      # bucket 1
    assert not model.on_secondary(0, 600.0)  # bucket 2
    assert not model.on_secondary(0, 899.0)  # still bucket 2
    # Outside the storm interval the base model decides (quiet).
    assert not model.on_secondary(0, 0.0)
    assert not model.on_secondary(0, 900.0)
    # Non-members always delegate.
    assert not model.on_secondary(1, 300.0)


def test_dynamic_sampler_rejects_misaligned_flap_window():
    topo = _gadget(2, [(1, 2, Relationship.PEER)])
    conditions = NetworkConditions(topo, seed=0)

    class Misaligned(_QuietBase):
        window_s = BUCKET_SECONDS * 1.5

    with pytest.raises(ValueError, match="multiple of the congestion bucket"):
        DynamicPathSampler(conditions, [], [], Misaligned())
    # An aligned multi-bucket window is fine.
    class Aligned(_QuietBase):
        window_s = BUCKET_SECONDS * 3

    DynamicPathSampler(conditions, [], [], Aligned())


def _small_plan(seed):
    topo = generate_topology(TopologyConfig.for_era("1999", seed=seed))
    al = topo.as_links[0]
    return f"link-down:{al.a}-{al.b}:at=300:for=300"


def test_replay_is_byte_identical_across_jobs(tmp_path):
    spec = _small_plan(11)
    blobs = []
    for _ in range(2):
        run = ScenarioRun(ScenarioPlan.parse(spec), seed=11, n_hosts=6)
        dataset, report = run.execute()
        path = tmp_path / f"whatif-{len(blobs)}.jsonl"
        save_dataset(dataset, path)
        blobs.append(path.read_bytes())
        assert not report.permanently_disconnected
    assert blobs[0] == blobs[1]


def test_node_down_disconnects_pairs_and_records_nan_rows():
    base = ScenarioRun(ScenarioPlan(), seed=1999, n_hosts=6)
    downed_asn = base.topo.host(base.hosts[0]).asn
    run = ScenarioRun(
        ScenarioPlan.parse(f"node-down:{downed_asn}:at=300"),
        seed=1999,
        n_hosts=6,
    )
    dataset, report = run.execute()
    assert report.permanently_disconnected
    for src, dst in report.permanently_disconnected:
        assert downed_asn in (run.topo.host(src).asn, run.topo.host(dst).asn)
    # Unreachable attempts land in the dataset as fully-lost probe rows.
    assert any(
        np.isnan(rec.rtt_samples).all() for rec in dataset.records
    )
    text = report.render()
    assert "permanently disconnected pairs" in text
    assert "AS-disjoint" in text
    assert report.availability.headline


def test_node_down_round_trips_omit_unreachable_pairs():
    base = ScenarioRun(ScenarioPlan(), seed=1999, n_hosts=6)
    downed_asn = base.topo.host(base.hosts[0]).asn
    run = ScenarioRun(
        ScenarioPlan.parse(f"node-down:{downed_asn}:at=300"),
        seed=1999,
        n_hosts=6,
    )
    run.timeline.advance_to(300.0)
    pairs = [(a, b) for a in run.hosts for b in run.hosts if a != b]
    got = PathResolver(run.topo).round_trips(pairs)
    downed = {
        p for p in pairs
        if downed_asn in (run.topo.host(p[0]).asn, run.topo.host(p[1]).asn)
    }
    assert downed and set(got) == set(pairs) - downed
    assert list(got) == [p for p in pairs if p in got]
    reference = PathResolver(run.topo)
    for pair, rt in got.items():
        assert rt == reference.resolve_round_trip(*pair)
    with pytest.raises(ForwardingError):
        Campaign(run.topo, run.conditions, run.hosts)


def test_whatif_cli_exit_codes(tmp_path, capsys):
    # Misaligned time: rejected by the parser, clause named. Exit 2.
    rc = repro_main(["whatif", "--scenario", "link-down:1-2:at=450"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad scenario" in err and "link-down:1-2:at=450" in err

    # Valid grammar, impossible against the topology. Exit 2.
    rc = repro_main(["whatif", "--scenario", "link-down:1-99999:at=300"])
    assert rc == 2
    assert "bad scenario" in capsys.readouterr().err

    # --scenario and --scenario-file are mutually exclusive. Exit 2.
    plan_file = tmp_path / "p.plan"
    plan_file.write_text("depeer:1-2:at=0\n")
    rc = repro_main(
        ["whatif", "--scenario", "node-down:1:at=0",
         "--scenario-file", str(plan_file)]
    )
    assert rc == 2
    assert "not both" in capsys.readouterr().err

    rc = repro_main(["whatif", "--scenario-file", str(tmp_path / "missing")])
    assert rc == 2
    assert "unreadable scenario file" in capsys.readouterr().err


def test_whatif_cli_permanent_disconnection_exits_3(capsys):
    base = ScenarioRun(ScenarioPlan(), seed=1999, n_hosts=6)
    downed_asn = base.topo.host(base.hosts[0]).asn
    rc = repro_main(
        ["whatif", "--scenario", f"node-down:{downed_asn}:at=300",
         "--seed", "1999", "--hosts", "6"]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert "pairs permanently disconnected" in captured.err
    assert "What-if scenario report" in captured.out


def test_whatif_cli_happy_path_writes_dataset(tmp_path, capsys):
    spec = _small_plan(11)
    out = tmp_path / "whatif.jsonl"
    trace = tmp_path / "trace.json"
    rc = repro_main(
        ["whatif", "--scenario", spec, "--seed", "11", "--hosts", "6",
         "-o", str(out), "--trace", str(trace)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "What-if scenario report" in text
    assert "worst single-link failure" in text
    assert out.exists() and trace.exists()
