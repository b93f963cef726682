"""Campaign collector: executes measurement requests against the simulator.

The collector plays the role of the paper's centralized control host: it
takes a stream of scheduled :class:`~repro.measurement.schedulers.Request`
objects, drives probes through the network simulation, applies the
destination hosts' ICMP rate limiting, and occasionally fails to contact a
server (paper §4.2: "the control host was occasionally unable to contact
the server it selected").  Its outputs are raw records ready to be wrapped
into a :class:`~repro.datasets.dataset.Dataset`.

Execution is batched: a whole campaign's randomness follows a fixed
draw-count protocol (one control-failure uniform per request, then a
fixed block of uniforms per executed request), so the vectorized
``run_traceroutes``/``run_transfers`` consume the identical generator
stream as the scalar reference forms in tests/measurement/oracles.py
and produce byte-identical records — see
tests/measurement/test_batched_equivalence.py.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from repro.measurement.ratelimit import TokenBucket
from repro.measurement.records import (
    CollectionStats,
    PROBES_PER_TRACEROUTE,
    PathInfo,
    TracerouteRecord,
    TransferRecord,
)
from repro.measurement.schedulers import Request
from repro.measurement.tcp import TCPTransferSimulator
from repro.measurement.traceroute import INTER_PROBE_GAP_S
from repro.netsim.conditions import NetworkConditions, PathSampler
from repro.netsim.dynamics import DynamicPathSampler
from repro.obs import runtime as obs
from repro.routing.dynamics import RouteFlapModel
from repro.routing.forwarding import ForwardPath, PathResolver, RoundTripPath
from repro.topology.network import Topology


class CampaignError(RuntimeError):
    """Raised on collector misconfiguration."""


class Campaign:
    """Executes measurement campaigns between a fixed pool of hosts.

    Paths are resolved once up front (Internet paths are "generally
    dominated by a single route", Paxson 1996) and congestion state is
    taken per time bucket, so execution cost is a few vectorized draws
    per probe.  Campaigns sharing a resolver share its cached paths,
    across topology mutations too (see
    :class:`~repro.routing.forwarding.PathResolver`).
    """

    def __init__(
        self,
        topo: Topology,
        conditions: NetworkConditions,
        host_names: list[str],
        *,
        resolver: PathResolver | None = None,
        seed: int = 0,
        control_failure_prob: float = 0.01,
        pair_blackout_prob: float = 0.0,
        flap_model: "RouteFlapModel | None" = None,
        allow_unreachable: bool = False,
    ) -> None:
        """
        Args:
            topo: Topology with the campaign hosts already placed.
            conditions: Dynamic network state shared by all probes.
            host_names: The measurement host pool.
            resolver: Path resolver; a default policy resolver if None.
            seed: Seed for all collection randomness.
            control_failure_prob: Per-request probability that the control
                host fails to contact the server (transient failures).
            pair_blackout_prob: Per-ordered-pair probability that the pair
                is never successfully measured (persistently unreachable
                servers; this is what keeps Table 1's "percent of paths
                covered" below 100 for most datasets).
            flap_model: Optional route-flap process; when given, probes
                follow whichever of each pair's primary/secondary route
                is active at probe time.
            allow_unreachable: Tolerate pairs with no policy-compliant
                route instead of raising.  A scenario outage
                (:mod:`repro.scenario`) can legitimately partition the
                AS graph; requests toward such pairs record fully-lost
                traceroutes (or failed transfers) and are tallied in
                :attr:`CollectionStats.unreachable`.
        """
        if len(host_names) < 2:
            raise CampaignError("a campaign needs at least two hosts")
        if not 0.0 <= control_failure_prob < 1.0:
            raise CampaignError("control_failure_prob must be in [0, 1)")
        if not 0.0 <= pair_blackout_prob < 1.0:
            raise CampaignError("pair_blackout_prob must be in [0, 1)")
        self._topo = topo
        self._resolver = resolver or PathResolver(topo)
        self._hosts = list(host_names)
        self._rng = np.random.default_rng((seed, 0xC0117EC7))
        self._control_failure_prob = control_failure_prob
        pairs = [
            (a, b) for a in self._hosts for b in self._hosts if a != b
        ]
        self._pair_index = {pair: i for i, pair in enumerate(pairs)}
        blackout_rng = np.random.default_rng((seed, 0xB1ACC))
        self._blocked = {
            i for i in range(len(pairs))
            if blackout_rng.random() < pair_blackout_prob
        }
        with obs.span("measurement.campaign") as sp:
            sp.set("pairs", len(pairs))
            resolved_before = self._resolver.resolved
            resolved = self._resolver.round_trips(pairs)
            self._unreachable = {
                i for i, pair in enumerate(pairs) if pair not in resolved
            }
            sp.set("unreachable", len(self._unreachable))
            if self._unreachable and not allow_unreachable:
                # Re-resolve the first unreachable pair to raise its error.
                self._resolver.resolve_round_trip(*pairs[min(self._unreachable)])
            self._round_trips = [
                resolved[pair] if pair in resolved
                else self._placeholder_round_trip(*pair)
                for pair in pairs
            ]
            if flap_model is None:
                self._sampler = PathSampler(conditions, self._round_trips)
            else:
                # The sampler reads a pair's secondary only while the
                # model puts the pair on it, which a pair that is not
                # flappy never is: its primary stands in.
                secondaries = [
                    self._resolver.resolve_round_trip_secondary(a, b)
                    if i not in self._unreachable and flap_model.is_flappy(i)
                    else self._round_trips[i]
                    for i, (a, b) in enumerate(pairs)
                ]
                self._sampler = DynamicPathSampler(
                    conditions, self._round_trips, secondaries, flap_model
                )
            sp.set("resolved", self._resolver.resolved - resolved_before)
        self._rate_limits = {
            h.name: h.icmp_rate_limit_per_min
            for h in topo.hosts
            if h.name in set(self._hosts) and h.rate_limits_icmp
        }

    @cached_property
    def _tcp(self) -> TCPTransferSimulator:
        """The transfer simulator, built by the first transfer batch."""
        return TCPTransferSimulator(self._topo, self._round_trips)

    def _placeholder_round_trip(self, a: str, b: str) -> RoundTripPath:
        """Inert stand-in path for an unreachable pair.

        Keeps the samplers' index spaces aligned with the pair list; it is
        never probed (unreachable requests are answered with losses before
        any draw happens), so only structural validity matters — each
        direction walks the endpoint's own access link and stops.
        """
        topo = self._topo

        def stub(src: str, dst: str) -> ForwardPath:
            host = topo.host(src)
            return ForwardPath(
                src=src,
                dst=dst,
                routers=(host.access_router,),
                links=(host.access_link,),
                as_path=(host.asn,),
                prop_delay_ms=topo.links[host.access_link].prop_delay_ms,
            )

        return RoundTripPath(forward=stub(a, b), reverse=stub(b, a))

    @property
    def hosts(self) -> list[str]:
        """The campaign's host pool."""
        return list(self._hosts)

    @property
    def unreachable_pairs(self) -> list[tuple[str, str]]:
        """Ordered pairs with no policy-compliant route, sorted."""
        by_index = {i: pair for pair, i in self._pair_index.items()}
        return sorted(by_index[i] for i in self._unreachable)

    def path_info(self) -> dict[tuple[str, str], PathInfo]:
        """Static routing facts for every *reachable* ordered pair."""
        out: dict[tuple[str, str], PathInfo] = {}
        for pair, idx in self._pair_index.items():
            if idx in self._unreachable:
                continue
            rt = self._round_trips[idx]
            out[pair] = PathInfo(
                src=pair[0],
                dst=pair[1],
                as_path=rt.forward.as_path,
                hop_count=rt.forward.hop_count,
                prop_delay_ms=rt.rtt_prop_ms,
            )
        return out

    # -- execution -----------------------------------------------------------

    def _prepare(
        self, requests: Iterable[Request]
    ) -> tuple[list[Request], np.ndarray]:
        """Schedule-order the requests and resolve their pair indices."""
        ordered = sorted(requests, key=lambda r: r.t)
        idx = np.empty(len(ordered), dtype=np.int64)
        for j, req in enumerate(ordered):
            i = self._pair_index.get((req.src, req.dst))
            if i is None:
                raise CampaignError(
                    f"request for unknown pair {req.src}->{req.dst}"
                )
            idx[j] = i
        return ordered, idx

    def _control_outcomes(
        self, idx: np.ndarray, rng: np.random.Generator, stats: CollectionStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Roll control failures for all requests.

        One uniform per request, in schedule order, whether or not the
        pair is blacked out — failure classification checks the control
        roll first, then the blackout set, then route reachability,
        exactly like the scalar reference.

        Returns:
            ``(executed, unreachable)`` masks: requests that measure, and
            requests whose pair has no route (those consume no probe
            draws but are recorded as total losses by the traceroute
            path).
        """
        n = len(idx)
        stats.requested = n
        failed = rng.random(n) < self._control_failure_prob

        def pair_mask(members: set[int]) -> np.ndarray:
            if not members:
                return np.zeros(n, dtype=bool)
            return np.fromiter(
                (int(i) in members for i in idx), dtype=bool, count=n
            )

        blocked = pair_mask(self._blocked)
        unroutable = pair_mask(self._unreachable)
        executed = ~failed & ~blocked & ~unroutable
        unreachable = ~failed & ~blocked & unroutable
        stats.control_failures = int(failed.sum())
        stats.blacked_out = int((~failed & blocked).sum())
        stats.unreachable = int(unreachable.sum())
        stats.completed = int(executed.sum())
        return executed, unreachable

    def _apply_rate_limits(
        self, exec_requests: list[Request], samples: np.ndarray
    ) -> int:
        """Suppress probe responses at rate-limiting destinations.

        ``samples`` is the (n_requests, PROBES_PER_TRACEROUTE) RTT matrix,
        mutated in place (a suppressed response becomes NaN, just like a
        genuine loss).  Each destination's token bucket is fed its probe
        arrivals in global time order — requests overlap (probes go out
        one second apart while other requests start), so feeding buckets
        request-by-request would violate the bucket's nondecreasing-time
        contract and silently swallow refill time.  Lost probes never
        reach the destination and consume no token.

        Returns:
            Number of suppressed probes.
        """
        if not self._rate_limits:
            return 0
        arrivals: dict[str, list[tuple[float, int, int]]] = {}
        for j, req in enumerate(exec_requests):
            if req.dst not in self._rate_limits:
                continue
            for k in range(PROBES_PER_TRACEROUTE):
                arrivals.setdefault(req.dst, []).append(
                    (req.t + k * INTER_PROBE_GAP_S, j, k)
                )
        suppressed = 0
        for dst, probes in arrivals.items():
            bucket = TokenBucket(rate_per_min=self._rate_limits[dst])
            probes.sort(key=lambda p: p[0])
            for probe_t, j, k in probes:
                if np.isnan(samples[j, k]):
                    continue
                if not bucket.allow(probe_t):
                    samples[j, k] = np.nan
                    suppressed += 1
        return suppressed

    def _traceroute_records(
        self, exec_requests: list[Request], samples: np.ndarray
    ) -> list[TracerouteRecord]:
        return [
            TracerouteRecord(
                t=req.t,
                src=req.src,
                dst=req.dst,
                rtt_samples=tuple(float(x) for x in row),
                episode=req.episode,
            )
            for req, row in zip(exec_requests, samples)
        ]

    def run_traceroutes(
        self, requests: Iterable[Request]
    ) -> tuple[list[TracerouteRecord], CollectionStats]:
        """Execute traceroute requests; returns records and statistics.

        Each request sends :data:`PROBES_PER_TRACEROUTE` probes one second
        apart.  Destination ICMP rate limiting is applied with per-host
        token buckets; a suppressed response is recorded as NaN exactly
        like a genuine loss — downstream tooling cannot tell them apart.

        All probes of the batch are generated in one vectorized pass,
        byte-identical to the per-probe reference in
        tests/measurement/oracles.py.  Requests whose pair is unreachable
        (scenario outages) consume no probe draws and are recorded with
        every probe lost.
        """
        with obs.span("measurement.traceroutes") as sp:
            stats = CollectionStats()
            rng = self._rng
            ordered, idx = self._prepare(requests)
            executed, unreachable = self._control_outcomes(idx, rng, stats)
            sp.set("requests", stats.requested)
            sp.set("completed", stats.completed)
            exec_pos = np.flatnonzero(executed)
            exec_requests = [ordered[j] for j in exec_pos]
            ts = np.repeat(
                np.array([req.t for req in exec_requests], dtype=np.float64),
                PROBES_PER_TRACEROUTE,
            )
            pidx = np.repeat(idx[exec_pos], PROBES_PER_TRACEROUTE)
            rtts = self._sampler.probe_batch(ts, rng, indices=pidx)
            samples = rtts.reshape(len(exec_requests), PROBES_PER_TRACEROUTE)
            stats.rate_limited_probes = self._apply_rate_limits(
                exec_requests, samples
            )
            if not stats.unreachable:
                return self._traceroute_records(exec_requests, samples), stats
            # Scatter measured rows among all-NaN unreachable rows so records
            # come out in schedule order, like the scalar reference.
            rec_pos = np.flatnonzero(executed | unreachable)
            all_samples = np.full(
                (len(ordered), PROBES_PER_TRACEROUTE), np.nan
            )
            all_samples[exec_pos] = samples
            rec_requests = [ordered[j] for j in rec_pos]
            return (
                self._traceroute_records(rec_requests, all_samples[rec_pos]),
                stats,
            )

    def run_transfers(
        self, requests: Iterable[Request]
    ) -> tuple[list[TransferRecord], CollectionStats]:
        """Execute npd-style TCP transfer requests.

        All transfers are measured in one vectorized pass, byte-identical
        to the per-transfer reference in tests/measurement/oracles.py.
        Requests toward unreachable pairs fail outright: no record (a TCP
        connection that never establishes yields nothing to log), only a
        stats tally.
        """
        with obs.span("measurement.transfers") as sp:
            stats = CollectionStats()
            rng = self._rng
            ordered, idx = self._prepare(requests)
            executed, _unreachable = self._control_outcomes(idx, rng, stats)
            sp.set("requests", stats.requested)
            sp.set("completed", stats.completed)
            exec_pos = np.flatnonzero(executed)
            exec_requests = [ordered[j] for j in exec_pos]
            exec_idx = idx[exec_pos]
            ts = np.array([req.t for req in exec_requests], dtype=np.float64)
            prop, qsum, ploss = self._sampler.gather_bucket_state(ts, exec_idx)
            rtt, loss, bw = self._tcp.measure_block(prop, qsum, ploss, exec_idx, rng)
            records = [
                TransferRecord(
                    t=req.t,
                    src=req.src,
                    dst=req.dst,
                    rtt_ms=float(rtt[j]),
                    loss_rate=float(loss[j]),
                    bandwidth_kbps=float(bw[j]),
                )
                for j, req in enumerate(exec_requests)
            ]
        return records, stats
