"""Differential tests: columnar substrate vs the object backend.

The columnar path is only trustworthy if it is *indistinguishable* from
the object model it mirrors:

- ``from_topology`` → ``to_topology`` must round-trip **byte-identically**
  (compared via pickle) across seeds, eras, and host placement;
- routes converged on the arrays must be route-for-route identical to
  the fixpoint oracle (:func:`tests.routing.oracles.converge_fixpoint`)
  on the object model, including on scale-generated topologies
  converted back to objects;
- the CSR IGP matrix must reproduce every
  :class:`~repro.routing.igp.IGPTable` cost;
- streamed datasets must be byte-identical to in-memory builds; and
- streaming must hold peak memory bounded at 10k-AS scale.

Structural features the staged solver cannot order (siblings,
customer-provider cycles) must refuse loudly with :class:`BGPError`,
mirroring ``tests/routing/test_bgp_equivalence.py``.
"""

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.datasets.io import DatasetIOError
from repro.datasets.stream import (
    build_route_summaries,
    iter_route_summaries,
    load_route_summaries,
    write_route_summaries,
)
from repro.routing.bgp import BGPTable
from repro.routing.columnar import (
    BGPError,
    build_solver_index,
    converge_all,
    igp_matrix,
)
from repro.routing.igp import IGPSuite
from repro.topology import TopologyConfig, generate_topology
from repro.topology.columnar import from_topology
from repro.topology.generator import place_hosts
from repro.topology.scale import ScaleError, generate_topology_arrays, resolve_preset
from repro.topology.asys import Relationship

from tests.routing.oracles import converge_fixpoint
from tests.routing.test_bgp_equivalence import _gadget

SEEDS = [3, 11, 1999]
ERAS = ["1995", "1999"]


def _topo(era, seed, hosts=0):
    topo = generate_topology(TopologyConfig.for_era(era, seed=seed))
    if hosts:
        place_hosts(topo, hosts, seed=seed)
    return topo


# -- object <-> columnar round-trip --------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("era", ERAS)
def test_round_trip_is_byte_identical(era, seed):
    topo = _topo(era, seed)
    restored = from_topology(topo).to_topology()
    assert pickle.dumps(restored) == pickle.dumps(topo)


def test_round_trip_preserves_hosts():
    topo = _topo("1999", 1999, hosts=12)
    restored = from_topology(topo).to_topology()
    assert pickle.dumps(restored) == pickle.dumps(topo)


def test_round_trip_restored_topology_is_usable():
    """The restored object is live, not just structurally equal."""
    topo = from_topology(_topo("1999", 3)).to_topology()
    topo.validate()
    table = BGPTable(topo)
    dest = min(topo.ases)
    table.converge_all([dest])
    assert table.route(max(topo.ases), dest) is not None


@pytest.mark.parametrize("era", ERAS)
def test_relationship_index_matches_arrays(era):
    """Both representations build the same relationship index."""
    topo = _topo(era, 3)
    rel = topo.relationship_index()
    arrays_rel = from_topology(topo).relationship_arrays()
    for name in rel.__slots__:
        a, b = getattr(rel, name), getattr(arrays_rel, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


# -- route-for-route identity with the fixpoint oracle -------------------


def _assert_routes_match(topo, arrays, dests, srcs=None):
    table = converge_all(arrays, dests)
    for dest in dests:
        oracle, _rounds = converge_fixpoint(topo, dest)
        for asn in srcs or sorted(topo.ases):
            assert table.route(asn, dest) == oracle.get(asn), (
                f"route divergence at AS{asn} -> AS{dest}"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("era", ERAS)
def test_columnar_routes_match_object_oracle(era, seed):
    topo = _topo(era, seed)
    arrays = from_topology(topo)
    _assert_routes_match(topo, arrays, sorted(topo.ases))


def test_scale_generated_routes_match_object_oracle():
    """Scale-generated arrays vs the fixpoint on the converted topology."""
    arrays = generate_topology_arrays(resolve_preset("1k", seed=7))
    topo = arrays.to_topology()
    rng = np.random.default_rng(0)
    dests = sorted(
        int(a) for a in rng.choice(arrays.as_asn, size=24, replace=False)
    )
    srcs = sorted(int(a) for a in rng.choice(arrays.as_asn, size=64, replace=False))
    _assert_routes_match(topo, arrays, dests, srcs)


def test_siblings_are_unsupported():
    topo = _gadget(3, [(1, 2, Relationship.SIBLING), (2, 3, Relationship.CUSTOMER)])
    with pytest.raises(BGPError, match="SIBLING"):
        build_solver_index(from_topology(topo).relationship_arrays())


def test_provider_cycle_is_unsupported():
    topo = _gadget(
        3,
        [
            (1, 2, Relationship.CUSTOMER),
            (2, 3, Relationship.CUSTOMER),
            (3, 1, Relationship.CUSTOMER),
        ],
    )
    with pytest.raises(BGPError, match="customer-provider cycle"):
        build_solver_index(from_topology(topo).relationship_arrays())


# -- IGP on CSR ----------------------------------------------------------


@pytest.mark.parametrize("era", ERAS)
def test_igp_matrix_matches_object_tables(era):
    topo = _topo(era, 3)
    arrays = from_topology(topo)
    suite = IGPSuite(topo)
    asn_index = arrays.asn_index()
    for asn in sorted(topo.ases):
        router_ids, dist = igp_matrix(arrays, int(asn_index[asn]))
        table = suite.table(asn)
        assert sorted(router_ids) == sorted(topo.routers_of(asn))
        pos = {r: i for i, r in enumerate(router_ids)}
        for src in topo.routers_of(asn):
            for dst in topo.routers_of(asn):
                assert dist[pos[src], pos[dst]] == pytest.approx(
                    table.cost(src, dst)
                ), f"IGP cost divergence in AS{asn}: {src}->{dst}"


# -- streamed datasets ---------------------------------------------------


def test_streamed_file_is_byte_identical_to_in_memory(tmp_path):
    arrays = from_topology(_topo("1999", 3))
    path = tmp_path / "summaries.jsonl"
    n = write_route_summaries(arrays, path, block=16, label="t")
    header, records = load_route_summaries(path)
    reference = build_route_summaries(arrays, block=16)
    assert n == len(reference) == arrays.n_as
    assert records == reference
    assert header["n_dests"] == arrays.n_as
    # Byte-level: re-serializing what we loaded reproduces the record
    # lines exactly (canonical JSON both ways).
    lines = path.read_text(encoding="utf-8").splitlines()
    for line, record in zip(lines[1:-1], reference):
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_stream_is_block_size_invariant():
    arrays = from_topology(_topo("1995", 11))
    dests = [int(a) for a in arrays.as_asn][::3]
    a = list(iter_route_summaries(arrays, dests, block=4))
    b = list(iter_route_summaries(arrays, dests, block=64))
    assert a == b


def test_truncated_stream_is_detected(tmp_path):
    arrays = from_topology(_topo("1995", 3))
    path = tmp_path / "summaries.jsonl"
    write_route_summaries(arrays, path, block=32)
    lines = path.read_text(encoding="utf-8").splitlines()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetIOError, match="trailer"):
        load_route_summaries(truncated)
    wrong_kind = tmp_path / "wrong.jsonl"
    wrong_kind.write_text('{"kind":"other"}\n', encoding="utf-8")
    with pytest.raises(DatasetIOError, match="kind"):
        load_route_summaries(wrong_kind)


def test_streaming_memory_stays_bounded_at_10k(tmp_path):
    """Peak traced allocation is O(n_as * block), not O(n_as * dests)."""
    arrays = generate_topology_arrays(resolve_preset("10k", seed=1))
    dests = [int(a) for a in arrays.as_asn[:: arrays.n_as // 256]]
    index = build_solver_index(arrays.relationship_arrays())
    tracemalloc.start()
    for _ in iter_route_summaries(arrays, dests, block=64, index=index):
        pass
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # A materialized (n_as x dests) int64 table alone would be ~600 MB at
    # this scale; block-wise streaming stays under a small fraction of it.
    assert peak < 200 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"


# -- generate_topology(scale=...) API ------------------------------------


def test_generate_topology_scale_returns_arrays():
    arrays = generate_topology(scale="1k", seed=5)
    assert arrays.n_as == 1000
    arrays.to_topology().validate()


def test_generate_topology_scale_is_deterministic():
    a = generate_topology(scale="1k", seed=5)
    b = generate_topology(scale="1k", seed=5)
    assert pickle.dumps(a) == pickle.dumps(b)


def test_generate_topology_scale_conflicts_with_config():
    with pytest.raises(ValueError, match="either config or scale"):
        generate_topology(TopologyConfig.for_era("1999", seed=1), scale="1k")


def test_unknown_scale_preset_raises():
    with pytest.raises(ScaleError):
        resolve_preset("galactic")
    with pytest.raises(ScaleError):
        generate_topology(scale="galactic")


def test_paper_presets_resolve_to_eras():
    assert resolve_preset("paper-1999") == "1999"
    assert resolve_preset("paper-1995") == "1995"
