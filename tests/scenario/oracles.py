"""The per-path salvage rule the timeline's next-hop rule is checked against.

:func:`dest_affected` walks every surviving holder's full AS path and
asks whether it crosses a removed AS or a removed adjacency.
``ScenarioTimeline`` decides the same question from each destination's
next-hop column: the first removed AS or adjacency on any such path
sits one hop after a surviving routed holder.  The differential tests
in ``test_salvage_equivalence.py`` require both to pick the same
destinations.
"""

from __future__ import annotations

from repro.routing.columnar import BGPRoute


def dest_affected(
    dest: int,
    table: dict[int, BGPRoute],
    removed_pairs: set[frozenset[int]],
    removed_asns: set[int],
) -> bool:
    """Whether a destination's stable state can change.

    ``table`` maps each holder to its route toward ``dest`` before the
    removal.  The Gao–Rexford stable state is unique; removing an
    adjacency (or isolating an AS) only shrinks candidate sets, so a
    destination is unaffected exactly when no installed route at a
    surviving AS traverses what was removed.
    """
    if dest in removed_asns:
        return True
    for holder, route in table.items():
        if holder in removed_asns:
            continue  # the isolated AS's own entries are just dropped
        path = route.as_path
        if removed_asns and any(asn in removed_asns for asn in path):
            return True
        if removed_pairs and any(
            frozenset(pair) in removed_pairs
            for pair in zip(path, path[1:])
        ):
            return True
    return False
