"""The online Detour service: an event-driven path-selection simulation.

This is the repo's answer to ROADMAP item 1 — the long-running overlay
service the 1999 paper's offline analysis was meant to motivate.  Many
(src, dst) client pairs continuously request paths from a
:class:`DetourService`; a pluggable
:class:`~repro.service.strategy.PathSelectionAlgorithm` chooses, per
request, between the default BGP path and the pair's one-hop detour
candidates; a :class:`~repro.service.store.PathStore` keeps the
strategy's view fresh through periodic active probing.

The simulation is event-driven on a deterministic virtual clock:

* **topology events** — :class:`~repro.scenario.timeline.ScenarioTimeline`
  transitions split the horizon into segments; at each boundary the
  service re-resolves every overlay leg and drives
  :meth:`~repro.service.store.PathStore.mark_path_down` /
  :meth:`~repro.service.store.PathStore.mark_path_up` reactive failover;
* **probe rounds** — every ``probe_interval_s`` the service probes all
  resolvable legs in one batched
  :meth:`~repro.netsim.conditions.BucketProbeMixin.probe_batch` call
  (probes are staggered inside the round, exercising the mixed-time
  kernel) and measures one npd-style transfer per resolvable candidate
  via :meth:`~repro.measurement.tcp.TCPTransferSimulator.measure_block`;
* **client requests** — Poisson arrivals per pair; each request asks the
  strategy for a path and realizes the *expected* RTT/loss of the choice
  from the current congestion bucket (no randomness is consumed, so
  request volume never perturbs the probe streams).

Every random stream derives from the master seed via distinct tuple
tags, so the same (plan, seed, strategy) replays byte-identically
regardless of request count, ``--routing-jobs``, or wall-clock speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.altpath import AlternatePathFinder
from repro.core.graph import EdgeData, Metric, MetricGraph
from repro.core.stats import SampleStats
from repro.measurement.tcp import TCPTransferSimulator
from repro.netsim.conditions import BUCKET_SECONDS, NetworkConditions, PathSampler
from repro.obs import clock
from repro.obs import runtime as obs
from repro.routing.forwarding import ForwardingError, PathResolver, RoundTripPath
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.service.store import CandidatePath, Pair, PathStore
from repro.service.strategy import PathSelectionAlgorithm, create_strategy
from repro.topology.generator import (
    TopologyConfig,
    build_topology,
    generate_topology,
    place_hosts,
)

#: Spacing between consecutive leg probes inside one probe round, in
#: seconds.  Non-zero so a round is a genuinely mixed-time batch (the
#: paper's measurement hosts never fired in lockstep either).
PROBE_STAGGER_S = 1.0

#: Event priorities at equal timestamps: topology transitions apply
#: before probes, probes before requests — a client asking at the exact
#: failover instant sees the post-failover store.
_PRIO_TOPOLOGY = 0
_PRIO_PROBE = 1
_PRIO_REQUEST = 2


class ServiceError(RuntimeError):
    """Raised for invalid service configuration (CLI exit 2)."""


@dataclass(frozen=True, slots=True)
class _CompositePath:
    """Duck-typed round-trip path over several overlay legs.

    Provides the two attributes :class:`~repro.netsim.conditions.PathSampler`
    and the TCP bottleneck scan actually read from a
    :class:`~repro.routing.forwarding.RoundTripPath`.
    """

    link_ids: tuple[int, ...]
    rtt_prop_ms: float


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One served client request.

    Attributes:
        t: Virtual time of the request, in seconds.
        pair: The requesting (src, dst) pair.
        relay: Relay of the chosen candidate (None = default BGP path).
        failed: True when every candidate was down and the request was
            served onto the dead default path.
        rtt_ms: Expected RTT of the chosen path in the request's
            congestion bucket (NaN when failed).
        loss: Expected loss probability of the chosen path (1.0 when
            failed).
        direct_rtt_ms: Expected RTT of the default BGP path (NaN when it
            is down).
        direct_loss: Expected loss of the default path (1.0 when down).
        oracle_rtt_ms: Best expected RTT over every currently resolvable
            candidate — the paper's oracle alternate (NaN when none).
        oracle_relay: Relay attaining the oracle RTT.
        bandwidth_kbps: Most recent measured transfer bandwidth of the
            chosen candidate (NaN before its first transfer).
    """

    t: float
    pair: Pair
    relay: str | None
    failed: bool
    rtt_ms: float
    loss: float
    direct_rtt_ms: float
    direct_loss: float
    oracle_rtt_ms: float
    oracle_relay: str | None
    bandwidth_kbps: float


@dataclass(frozen=True, slots=True)
class ServiceResult:
    """Everything one strategy's service run produced.

    The deterministic part (records, counters) is a pure function of
    (plan, seed, strategy); ``wall_s`` is reporting-only timing and never
    feeds any table or hash.
    """

    strategy: str
    seed: int
    horizon_s: float
    hosts: tuple[str, ...]
    pairs: tuple[Pair, ...]
    records: tuple[RequestRecord, ...]
    pairs_down_at_end: tuple[Pair, ...]
    probes_sent: int
    probes_lost: int
    transfers: int
    path_down_events: int
    path_up_events: int
    wall_s: float

    @property
    def queries_per_second(self) -> float:
        """Served requests per wall-clock second (reporting only)."""
        if self.wall_s <= 0.0:
            return 0.0
        return len(self.records) / self.wall_s


class DetourService:
    """One simulated deployment: environment, candidates, event schedule.

    Construction stands up the deterministic 1999-era environment
    (topology, hosts, timeline, conditions — in that order, as scenario
    ``new-transit`` events must materialize links before netsim sizes
    its arrays), discovers each served pair's detour candidates on the
    pristine topology, and fixes the request schedule.  :meth:`run`
    executes the event loop for one strategy; running several strategies
    on the same service replays the identical environment and schedule,
    which is what makes the evaluator's comparison fair.
    """

    def __init__(
        self,
        plan: ScenarioPlan | None = None,
        *,
        seed: int = 1999,
        n_hosts: int = 12,
        n_pairs: int = 6,
        duration_s: float = 4 * BUCKET_SECONDS,
        probe_interval_s: float = BUCKET_SECONDS,
        relays_per_pair: int = 2,
        mean_request_interval_s: float = 60.0,
        scale: str | None = None,
    ) -> None:
        """
        Args:
            plan: Scenario replayed *through* the service (None or an
                empty plan = calm network).
            seed: Master seed; every stream below derives from it.
            n_hosts: Measurement host pool size.
            scale: Topology scale preset name (see
                :data:`repro.topology.scale.SCALE_PRESETS`); None keeps
                the default 1999-era paper topology.
            n_pairs: Number of (src, dst) client pairs to serve.
            duration_s: Minimum simulated horizon; extended to cover the
                scenario's last transition plus one trailing bucket.
            probe_interval_s: Seconds between active probe rounds.
            relays_per_pair: Detour relays discovered per pair (the
                candidate list is this plus the default path).
            mean_request_interval_s: Poisson mean between one pair's
                requests.

        Raises:
            ServiceError: for non-positive durations/intervals or a pair
                count the host pool cannot supply.
        """
        if duration_s <= 0.0:
            raise ServiceError(f"duration_s must be positive, got {duration_s}")
        if probe_interval_s <= 0.0:
            raise ServiceError(
                f"probe_interval_s must be positive, got {probe_interval_s}"
            )
        if relays_per_pair < 1:
            raise ServiceError(
                f"relays_per_pair must be >= 1, got {relays_per_pair}"
            )
        if mean_request_interval_s <= 0.0:
            raise ServiceError(
                f"mean_request_interval_s must be positive, "
                f"got {mean_request_interval_s}"
            )
        self.plan = plan if plan is not None else ScenarioPlan.parse("")
        self.seed = seed
        if scale is None:
            topo_cfg = TopologyConfig.for_era("1999", seed=seed)
            self.topo = generate_topology(topo_cfg)
            capacity_scale = topo_cfg.capacity_scale
        else:
            self.topo, capacity_scale = build_topology(scale, seed=seed)
        placed = place_hosts(
            self.topo,
            n_hosts,
            seed=seed + 7,
            north_america_only=scale is None or scale.startswith("paper-"),
            rate_limit_fraction=0.0,
            name_prefix="serve",
            capacity_scale=capacity_scale,
        )
        self.hosts = [h.name for h in placed]
        self.timeline = ScenarioTimeline(self.topo, self.plan)
        self.conditions = NetworkConditions(self.topo, seed=seed + 13)
        self.horizon_s = max(
            duration_s, self.timeline.last_transition_s + BUCKET_SECONDS
        )
        self.probe_interval_s = probe_interval_s
        self._mean_request_interval_s = mean_request_interval_s
        self._baseline = self._baseline_paths()
        self.pairs = self._choose_pairs(n_pairs)
        self.candidates = self._discover_candidates(relays_per_pair)
        self._requests = self._request_schedule()

    # -- construction helpers ------------------------------------------------

    def _baseline_paths(self) -> dict[Pair, RoundTripPath]:
        """Default round trips on the pristine topology, all ordered pairs."""
        resolver = PathResolver(self.topo)
        resolver.bgp.converge_all(
            sorted({self.topo.host(name).asn for name in self.hosts})
        )
        out: dict[Pair, RoundTripPath] = {}
        for a in self.hosts:
            for b in self.hosts:
                if a == b:
                    continue
                try:
                    out[(a, b)] = resolver.resolve_round_trip(a, b)
                except ForwardingError:
                    continue  # pristine disconnection: not a candidate leg
        return out

    def _choose_pairs(self, n_pairs: int) -> tuple[Pair, ...]:
        """A deterministic sample of resolvable ordered pairs to serve."""
        eligible = sorted(self._baseline)
        if n_pairs < 1 or n_pairs > len(eligible):
            raise ServiceError(
                f"n_pairs must be in [1, {len(eligible)}], got {n_pairs}"
            )
        rng = np.random.default_rng((self.seed, 0x9A185))
        chosen = rng.permutation(len(eligible))[:n_pairs]
        return tuple(eligible[i] for i in sorted(int(j) for j in chosen))

    def _discover_candidates(
        self, relays_per_pair: int
    ) -> dict[Pair, tuple[CandidatePath, ...]]:
        """Default path + one-hop detour relays per served pair.

        Candidates come from the paper's alternate-path machinery run on
        the pristine propagation-delay graph: the single best alternate
        from :class:`~repro.core.altpath.AlternatePathFinder` (when it is
        one-hop), topped up with the best remaining relays by composed
        two-leg weight.
        """
        graph = MetricGraph(Metric.RTT, self.hosts)
        for pair, rt in sorted(self._baseline.items()):
            graph.add_edge(
                pair,
                EdgeData(
                    value=rt.rtt_prop_ms,
                    stats=SampleStats.from_samples([rt.rtt_prop_ms]),
                ),
            )
        finder = AlternatePathFinder(graph)
        alts = finder.best_all(pairs=list(self.pairs))
        weights = graph.weight_matrix()
        out: dict[Pair, tuple[CandidatePath, ...]] = {}
        for pair in self.pairs:
            src, dst = pair
            i, j = graph.host_index(src), graph.host_index(dst)
            relays: list[str] = []
            alt = alts.get(pair)
            if alt is not None and len(alt.via) == 1:
                relays.append(alt.via[0])
            ranked = sorted(
                (
                    (float(weights[i, k] + weights[k, j]), host)
                    for k, host in enumerate(graph.hosts)
                    if k not in (i, j)
                    and math.isfinite(weights[i, k])
                    and math.isfinite(weights[k, j])
                ),
            )
            for _, host in ranked:
                if len(relays) >= relays_per_pair:
                    break
                if host not in relays:
                    relays.append(host)
            out[pair] = tuple(
                [CandidatePath(pair=pair, relay=None)]
                + [CandidatePath(pair=pair, relay=r) for r in relays]
            )
        return out

    def _request_schedule(self) -> list[tuple[float, int, Pair]]:
        """Poisson request arrivals per pair, merged and time-sorted."""
        events: list[tuple[float, int, Pair]] = []
        for idx, pair in enumerate(self.pairs):
            rng = np.random.default_rng((self.seed, 0x4E11ED, idx))
            t = float(rng.exponential(self._mean_request_interval_s))
            while t < self.horizon_s:
                events.append((t, idx, pair))
                t += float(rng.exponential(self._mean_request_interval_s))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    # -- the event loop ------------------------------------------------------

    def run(self, strategy: str | PathSelectionAlgorithm) -> ServiceResult:
        """Simulate the service under one strategy; deterministic.

        Args:
            strategy: A registered strategy name or a ready instance.

        Raises:
            StrategyError: for an unknown strategy name.
        """
        if isinstance(strategy, str):
            strategy = create_strategy(strategy, seed=self.seed)
        with obs.span("service.run") as sp:
            sp.set("strategy", strategy.name)
            sp.set("seed", self.seed)
            sp.set("pairs", len(self.pairs))
            result = self._run(strategy)
            sp.set("requests", len(result.records))
        return result

    def _run(self, strategy: PathSelectionAlgorithm) -> ServiceResult:
        wall_start = clock.now()
        store = PathStore(self.hosts, self.candidates)
        probe_rng = np.random.default_rng((self.seed, 0x980BE5))
        transfer_rng = np.random.default_rng((self.seed, 0x7C4A5F))
        legs = store.legs()
        leg_index = {leg: i for i, leg in enumerate(legs)}
        run = _RunState(
            service=self,
            store=store,
            strategy=strategy,
            legs=legs,
            leg_index=leg_index,
            probe_rng=probe_rng,
            transfer_rng=transfer_rng,
        )
        events = self._event_schedule()
        try:
            run.enter_segment(0.0)
            for t, prio, _seq, payload in events:
                if prio == _PRIO_TOPOLOGY:
                    run.enter_segment(t)
                elif prio == _PRIO_PROBE:
                    run.probe_round(t)
                else:
                    assert payload is not None
                    run.serve_request(t, payload)
        finally:
            self.timeline.reset()
        wall_s = clock.now() - wall_start
        down = sum(1 for tr in store.transitions if not tr.up)
        up = len(store.transitions) - down
        dead = tuple(
            pair
            for pair in store.pairs
            if not any(v.up for v in store.snapshot(pair))
        )
        return ServiceResult(
            strategy=strategy.name,
            seed=self.seed,
            horizon_s=self.horizon_s,
            hosts=tuple(self.hosts),
            pairs=self.pairs,
            records=tuple(run.records),
            pairs_down_at_end=dead,
            probes_sent=run.probes_sent,
            probes_lost=run.probes_lost,
            transfers=run.transfers,
            path_down_events=down,
            path_up_events=up,
            wall_s=wall_s,
        )

    def _event_schedule(
        self,
    ) -> list[tuple[float, int, int, Pair | None]]:
        """All events, time-ordered (topology < probe < request at ties)."""
        events: list[tuple[float, int, int, Pair | None]] = []
        for i, b in enumerate(sorted(self.timeline.boundaries())):
            if 0.0 < b < self.horizon_s:
                events.append((b, _PRIO_TOPOLOGY, i, None))
        t = 0.0
        k = 0
        while t < self.horizon_s:
            events.append((t, _PRIO_PROBE, k, None))
            k += 1
            t = k * self.probe_interval_s
        for j, (t, _idx, pair) in enumerate(self._requests):
            events.append((t, _PRIO_REQUEST, j, pair))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events


class _RunState:
    """Mutable per-run state: current segment's resolved legs and sampler."""

    def __init__(
        self,
        *,
        service: DetourService,
        store: PathStore,
        strategy: PathSelectionAlgorithm,
        legs: list[Pair],
        leg_index: dict[Pair, int],
        probe_rng: np.random.Generator,
        transfer_rng: np.random.Generator,
    ) -> None:
        self.service = service
        self.store = store
        self.strategy = strategy
        self.legs = legs
        self.leg_index = leg_index
        self.probe_rng = probe_rng
        self.transfer_rng = transfer_rng
        self.records: list[RequestRecord] = []
        self.probes_sent = 0
        self.probes_lost = 0
        self.transfers = 0
        # Per-segment state, filled by enter_segment.
        self.resolved: dict[Pair, RoundTripPath] = {}
        self.sampler: PathSampler | None = None
        self.sampler_index: dict[Pair, int] = {}
        self.tcp: TCPTransferSimulator | None = None
        self.tcp_index: dict[tuple[Pair, str | None], int] = {}
        self.last_bw: dict[tuple[Pair, str | None], float] = {}
        self._prev_resolved: set[Pair] | None = None

    # -- topology transitions ------------------------------------------------

    def enter_segment(self, t: float) -> None:
        """Re-resolve every leg at a topology boundary and fail over."""
        svc = self.service
        with obs.span("service.segment") as sp:
            sp.set("t", t)
            svc.timeline.advance_to(t)
            resolver = PathResolver(svc.topo)
            resolver.bgp.converge_all(
                sorted({svc.topo.host(name).asn for name in svc.hosts})
            )
            resolved: dict[Pair, RoundTripPath] = {}
            for leg in self.legs:
                try:
                    resolved[leg] = resolver.resolve_round_trip(*leg)
                except ForwardingError:
                    continue
            sp.set("legs_up", len(resolved))
        if self._prev_resolved is not None:
            for leg in self.legs:
                if leg in resolved and leg not in self._prev_resolved:
                    # The leg healed: estimates taken on the pre-outage
                    # path must not steer selection on the new one.
                    self.store.reset_leg(leg)
        self._prev_resolved = set(resolved)
        self.resolved = resolved
        ordered = [leg for leg in self.legs if leg in resolved]
        self.sampler = PathSampler(
            svc.conditions, [resolved[leg] for leg in ordered]
        )
        self.sampler_index = {leg: i for i, leg in enumerate(ordered)}
        self._update_health(t)
        self._rebuild_tcp()

    def _update_health(self, t: float) -> None:
        """Drive mark_path_down / mark_path_up from the resolved legs."""
        for pair in self.store.pairs:
            for cand in self.store.candidates(pair):
                if all(leg in self.resolved for leg in cand.legs):
                    hops = sum(
                        self.resolved[leg].forward.hop_count for leg in cand.legs
                    )
                    prop = sum(
                        self.resolved[leg].rtt_prop_ms for leg in cand.legs
                    )
                    self.store.set_path_facts(
                        pair, cand.relay, hop_count=hops, prop_rtt_ms=prop
                    )
                    if self.store.mark_path_up(pair, cand.relay, t=t):
                        obs.count("service.path_up")
                else:
                    if self.store.mark_path_down(pair, cand.relay, t=t):
                        obs.count("service.path_down")

    def _rebuild_tcp(self) -> None:
        """Composite-path transfer simulator over resolvable candidates."""
        paths: list[_CompositePath] = []
        index: dict[tuple[Pair, str | None], int] = {}
        for pair in self.store.pairs:
            for cand in self.store.candidates(pair):
                if not all(leg in self.resolved for leg in cand.legs):
                    continue
                link_ids: tuple[int, ...] = ()
                prop = 0.0
                for leg in cand.legs:
                    rt = self.resolved[leg]
                    link_ids = link_ids + rt.link_ids
                    prop += rt.rtt_prop_ms
                index[(pair, cand.relay)] = len(paths)
                paths.append(
                    _CompositePath(link_ids=link_ids, rtt_prop_ms=prop)
                )
        self.tcp = TCPTransferSimulator(self.service.topo, paths) if paths else None
        self.tcp_index = index

    # -- probing -------------------------------------------------------------

    def probe_round(self, t: float) -> None:
        """One active-probing round: batched leg probes plus transfers."""
        assert self.sampler is not None
        ordered = [leg for leg in self.legs if leg in self.sampler_index]
        if not ordered:
            return
        with obs.span("service.probe_round") as sp:
            sp.set("t", t)
            sp.set("legs", len(ordered))
            ts = np.array(
                [t + i * PROBE_STAGGER_S for i in range(len(ordered))]
            )
            indices = np.array(
                [self.sampler_index[leg] for leg in ordered], dtype=np.int64
            )
            rtts = self.sampler.probe_batch(ts, self.probe_rng, indices)
            for leg, rtt in zip(ordered, rtts):
                self.store.record_leg_probe(leg, float(rtt))
            self.probes_sent += len(ordered)
            lost = int(np.count_nonzero(np.isnan(rtts)))
            self.probes_lost += lost
            obs.count("service.probes", len(ordered))
            if lost:
                obs.count("service.probes_lost", lost)
            self._transfer_round(t)

    def _transfer_round(self, t: float) -> None:
        """Measure one TCP transfer per resolvable candidate, batched."""
        if self.tcp is None or not self.tcp_index:
            return
        assert self.sampler is not None
        view = self.sampler.bucket_view(t)
        keys = sorted(
            self.tcp_index, key=lambda k: (k[0], k[1] is not None, k[1] or "")
        )
        prop = np.empty(len(keys))
        qsum = np.empty(len(keys))
        ploss = np.empty(len(keys))
        indices = np.empty(len(keys), dtype=np.int64)
        for row, (pair, relay) in enumerate(keys):
            legs = ((pair,) if relay is None
                    else ((pair[0], relay), (relay, pair[1])))
            li = [self.sampler_index[leg] for leg in legs]
            prop[row] = float(np.sum(view.prop[li]))
            qsum[row] = float(np.sum(view.qsum[li]))
            ploss[row] = 1.0 - float(np.prod(1.0 - view.ploss[li]))
            indices[row] = self.tcp_index[(pair, relay)]
        _rtt, _loss, bw = self.tcp.measure_block(
            prop, qsum, ploss, indices, self.transfer_rng
        )
        for row, key in enumerate(keys):
            self.last_bw[key] = float(bw[row])
        self.transfers += len(keys)
        obs.count("service.transfers", len(keys))

    # -- requests ------------------------------------------------------------

    def _expected(
        self, pair: Pair, relay: str | None, t: float
    ) -> tuple[float, float] | None:
        """Expected (rtt, loss) of one candidate now, or None if down."""
        assert self.sampler is not None
        legs = ((pair,) if relay is None
                else ((pair[0], relay), (relay, pair[1])))
        if any(leg not in self.sampler_index for leg in legs):
            return None
        view = self.sampler.bucket_view(t)
        li = [self.sampler_index[leg] for leg in legs]
        rtt = float(np.sum(view.prop[li]) + np.sum(view.qsum[li]))
        loss = 1.0 - float(np.prod(1.0 - view.ploss[li]))
        return rtt, loss

    def serve_request(self, t: float, pair: Pair) -> None:
        """Serve one client request: strategy choice, realized quality."""
        usable = self.store.usable(pair)
        choice = self.strategy.select(pair, usable)
        obs.count("service.requests")
        if choice.relay is not None:
            obs.count("service.deflections")
        realized = self._expected(pair, choice.relay, t)
        direct = self._expected(pair, None, t)
        oracle_rtt = math.nan
        oracle_relay: str | None = None
        for cand in self.store.candidates(pair):
            got = self._expected(pair, cand.relay, t)
            if got is None:
                continue
            if math.isnan(oracle_rtt) or got[0] < oracle_rtt:
                oracle_rtt, oracle_relay = got[0], cand.relay
        failed = realized is None
        if failed:
            obs.count("service.requests_failed")
        self.records.append(
            RequestRecord(
                t=t,
                pair=pair,
                relay=choice.relay,
                failed=failed,
                rtt_ms=math.nan if realized is None else realized[0],
                loss=1.0 if realized is None else realized[1],
                direct_rtt_ms=math.nan if direct is None else direct[0],
                direct_loss=1.0 if direct is None else direct[1],
                oracle_rtt_ms=oracle_rtt,
                oracle_relay=oracle_relay,
                bandwidth_kbps=self.last_bw.get(
                    (pair, choice.relay), math.nan
                ),
            )
        )
