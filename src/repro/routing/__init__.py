"""Routing protocols: intra-AS IGP, inter-AS BGP, and path resolution."""

from repro.routing.bgp import BGPError, BGPRoute, BGPTable
from repro.routing.columnar import (
    ColumnarRouteTable,
    SolverIndex,
    build_solver_index,
    converge_all,
    converge_block,
    igp_matrix,
)
from repro.routing.dynamics import FLAP_WINDOW_S, RouteFlapModel
from repro.routing.forwarding import (
    EgressPolicy,
    ForwardPath,
    ForwardingError,
    OptimalResolver,
    PathResolver,
    RoundTripPath,
)
from repro.routing.igp import IGPError, IGPPath, IGPSuite, IGPTable, link_metric

__all__ = [
    "BGPError",
    "BGPRoute",
    "BGPTable",
    "ColumnarRouteTable",
    "EgressPolicy",
    "FLAP_WINDOW_S",
    "ForwardPath",
    "ForwardingError",
    "IGPError",
    "IGPPath",
    "IGPSuite",
    "IGPTable",
    "OptimalResolver",
    "PathResolver",
    "RoundTripPath",
    "RouteFlapModel",
    "SolverIndex",
    "build_solver_index",
    "converge_all",
    "converge_block",
    "igp_matrix",
    "link_metric",
]
