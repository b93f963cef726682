"""Streamed route-summary datasets: bounded memory at Internet scale.

A fully materialized all-pairs route table at 100k ASes is tens of
gigabytes — no single-machine builder can hold it.  This module
converges destinations in blocks (:func:`repro.routing.columnar.
converge_block`), reduces each block's columns to compact per-
destination summary records, appends them to a JSON-lines file, and
drops the block before touching the next one: peak RSS is
``O(n_as * block)`` regardless of how many destinations stream through.

The file format follows the house dataset discipline
(:mod:`repro.datasets.io`): a self-describing header line, one record
per destination, and a ``__trailer__`` line carrying the record count so
truncation is detectable.  Writes are atomic (temp file +
``os.replace``).  Every line is serialized with sorted keys and compact
separators, so a streamed build is *byte-identical* to an in-memory
build of the same topology — the differential tests hash both.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.obs import runtime as obs

from repro.datasets.io import TRAILER_KEY, DatasetIOError
from repro.routing.columnar import (
    VIA_CUSTOMER,
    VIA_NONE,
    VIA_PEER,
    VIA_PROVIDER,
    SolverIndex,
    build_solver_index,
    converge_block,
)
from repro.topology.columnar import TopologyArrays

#: Format version of the route-summary JSONL layout.
ROUTE_SUMMARY_VERSION = 1

#: ``kind`` field value in the header line.
ROUTE_SUMMARY_KIND = "route-summaries"

#: Default destination-block width for streaming; peak scratch is
#: ``O(n_as * block)`` int64, i.e. ~400 MB at 100k ASes.
DEFAULT_STREAM_BLOCK = 256


def _dumps(obj: dict) -> str:
    """Canonical one-line JSON: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(arrays: TopologyArrays, n_dests: int, label: str | None) -> dict:
    header = {
        "format_version": ROUTE_SUMMARY_VERSION,
        "kind": ROUTE_SUMMARY_KIND,
        "n_dests": n_dests,
        "topology": arrays.summary(),
    }
    if label is not None:
        header["label"] = label
    return header


def _block_records(
    arrays: TopologyArrays,
    dest_idx: np.ndarray,
    lens: np.ndarray,
    via: np.ndarray,
) -> Iterator[dict]:
    """Reduce one converged block to per-destination summary records.

    Each record captures the AS-level reachability structure the paper's
    analysis cares about: how much of the internetwork reaches this
    destination, over how many AS hops, and through which relationship
    class the route was learned.
    """
    via_names = {
        VIA_CUSTOMER: "customer",
        VIA_PEER: "peer",
        VIA_PROVIDER: "provider",
    }
    for j, d in enumerate(dest_idx):
        routed = via[:, j] != VIA_NONE
        path_lens = lens[routed, j]
        hist = np.bincount(path_lens)
        via_col = via[:, j]
        via_counts = {
            name: int((via_col == code).sum()) for code, name in via_names.items()
        }
        n_routed = int(routed.sum())
        # The origin row (path length 1) is excluded from the mean: it
        # is definitionally reachable and would dilute the statistic.
        learned = path_lens[path_lens > 1]
        mean_len = round(float(learned.mean()), 6) if len(learned) else 0.0
        yield {
            "dest": int(arrays.as_asn[d]),
            "reachable": n_routed,
            "unreachable": int(arrays.n_as - n_routed),
            "mean_path_len": mean_len,
            "path_len_hist": {
                str(length): int(count)
                for length, count in enumerate(hist)
                if count and length > 0
            },
            "via": via_counts,
        }


def iter_route_summaries(
    arrays: TopologyArrays,
    dests: list[int] | None = None,
    *,
    block: int = DEFAULT_STREAM_BLOCK,
    index: SolverIndex | None = None,
) -> Iterator[dict]:
    """Yield per-destination summary records in ascending-ASN order.

    Convergence state for each destination block is discarded as soon as
    its records are emitted, so memory stays bounded no matter how many
    destinations are requested.
    """
    asn_index = arrays.asn_index()
    dest_asns = (
        sorted(int(a) for a in arrays.as_asn) if dests is None else sorted(set(dests))
    )
    dest_idx = np.array([int(asn_index[d]) for d in dest_asns], dtype=np.int64)
    if len(dest_idx) and dest_idx.min() < 0:
        bad = [d for d in dest_asns if asn_index[d] < 0]
        raise ValueError(f"unknown destination ASNs: {bad}")
    if index is None:
        index = build_solver_index(arrays.relationship_arrays())
    for lo in range(0, len(dest_idx), block):
        chunk = dest_idx[lo: lo + block]
        lens, _nxt, via = converge_block(index, chunk)
        yield from _block_records(arrays, chunk, lens, via)


def write_route_summaries(
    arrays: TopologyArrays,
    path: str | Path,
    dests: list[int] | None = None,
    *,
    block: int = DEFAULT_STREAM_BLOCK,
    label: str | None = None,
) -> int:
    """Stream route summaries for ``dests`` (default all) to ``path``.

    Records are written block-by-block as they converge — the whole
    table never exists in memory.  The write is atomic: output lands
    under a temporary name and is renamed into place only after the
    trailer is flushed.

    Returns:
        The number of destination records written.
    """
    path = Path(path)
    asn_count = arrays.n_as if dests is None else len(set(dests))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    n_records = 0
    with obs.span("datasets.stream.route_summaries") as sp:
        sp.set("destinations", asn_count)
        sp.set("block", block)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(_dumps(_header(arrays, asn_count, label)) + "\n")
                for record in iter_route_summaries(arrays, dests, block=block):
                    fh.write(_dumps(record) + "\n")
                    n_records += 1
                fh.write(_dumps({TRAILER_KEY: {"n_records": n_records}}) + "\n")
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
    obs.count("datasets.stream.route_summary_files")
    return n_records


def build_route_summaries(
    arrays: TopologyArrays,
    dests: list[int] | None = None,
    *,
    block: int = DEFAULT_STREAM_BLOCK,
) -> list[dict]:
    """Materialize the summary records in memory (small scales only).

    The reference path for differential tests: serializing these records
    line-by-line must be byte-identical to what
    :func:`write_route_summaries` streamed to disk.
    """
    return list(iter_route_summaries(arrays, dests, block=block))


def load_route_summaries(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a route-summary file back, verifying the trailer count.

    Returns:
        ``(header, records)``.

    Raises:
        DatasetIOError: on a missing/mismatched trailer or wrong kind.
    """
    path = Path(path)
    records: list[dict] = []
    trailer: dict | None = None
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise DatasetIOError(f"{path}: malformed header: {exc}") from None
        if header.get("kind") != ROUTE_SUMMARY_KIND:
            raise DatasetIOError(
                f"{path}: not a route-summary dataset (kind={header.get('kind')!r})"
            )
        for line in fh:
            obj = json.loads(line)
            if isinstance(obj, dict) and TRAILER_KEY in obj:
                trailer = obj[TRAILER_KEY]
                break
            records.append(obj)
    if trailer is None:
        raise DatasetIOError(f"{path}: missing trailer (truncated write?)")
    if trailer.get("n_records") != len(records):
        raise DatasetIOError(
            f"{path}: trailer says {trailer.get('n_records')} records, "
            f"found {len(records)}"
        )
    return header, records
