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
  service switches to that segment's resolved overlay legs and drives
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

Work is split by what it depends on.  Once per service, the first run
walks the timeline and keeps every segment's resolved legs, probe
sampler and transfer simulator (the *replay*); every strategy reads it,
and the topology is reset when the walk ends.  Once per (segment,
congestion bucket), one vectorized pass computes every candidate's
expected RTT/loss and each pair's oracle (the *candidate table*, built
with the replay).  Once per strategy run, only the store's estimates
and health, the RNG streams and the records are new; a request is a
strategy call plus table lookups.

Every random stream derives from the master seed via distinct tuple
tags, so the same (plan, seed, strategy) replays byte-identically
regardless of request count, strategy order, tracing, or wall-clock
speed.
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
from repro.routing.forwarding import PathResolver, RoundTripPath
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.service.store import CandidatePath, Pair, PathStore
from repro.service.strategy import PathSelectionAlgorithm, create_strategy
from repro.topology.generator import build_topology, place_hosts
from repro.topology.network import Topology

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
    executes the event loop for one strategy; every strategy run on the
    same service reads one shared environment replay and the same
    schedule, which is what makes the evaluator's comparison fair.
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
                :data:`repro.topology.scale.SCALE_PRESETS`); None means
                ``"paper-1999"``, the default 1999-era paper topology.
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
        scale = scale or "paper-1999"
        self.topo, capacity_scale = build_topology(scale, seed=seed)
        placed = place_hosts(
            self.topo,
            n_hosts,
            seed=seed + 7,
            north_america_only=scale.startswith("paper-"),
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
        # One resolver for the baseline and every replay segment: it
        # re-resolves only the legs each mutation changed.
        self._resolver = PathResolver(self.topo)
        self._baseline = self._baseline_paths()
        self.pairs = self._choose_pairs(n_pairs)
        self.candidates = self._discover_candidates(relays_per_pair)
        self._requests = self._request_schedule()
        self._replay: _Replay | None = None

    # -- construction helpers ------------------------------------------------

    def _baseline_paths(self) -> dict[Pair, RoundTripPath]:
        """Default round trips on the pristine topology, all ordered pairs.

        Pairs with no route on the pristine topology are left out; they
        cannot be candidate legs.
        """
        pairs = [(a, b) for a in self.hosts for b in self.hosts if a != b]
        return self._resolver.round_trips(pairs)

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

    # -- the environment replay ---------------------------------------------

    def _environment(self) -> _Replay:
        """The strategy-independent replay, built by the first run."""
        if self._replay is None:
            self._replay = self._build_replay()
        return self._replay

    def _build_replay(self) -> _Replay:
        """Walk the timeline once, resolving every segment's legs.

        The timeline is reset however the walk ends; a walk that raises
        leaves nothing behind for the next run to reuse.  Every table a
        run will read is filled here too, so runs only read the replay.
        """
        events = self._event_schedule()
        legs = PathStore(self.hosts, self.candidates).legs()
        starts = [0.0] + [t for t, prio, _seq, _p in events if prio == _PRIO_TOPOLOGY]
        segments: list[_Segment] = []
        with obs.span("service.replay") as sp:
            try:
                for t in starts:
                    prev = segments[-1] if segments else None
                    segments.append(self._build_segment(t, legs, prev))
            finally:
                self.timeline.reset()
            current = 0
            for t, prio, _seq, _p in events:
                if prio == _PRIO_TOPOLOGY:
                    current += 1
                else:
                    segments[current].table(t)
            sp.set("segments", len(segments))
            sp.set("legs_up", sum(len(seg.resolved) for seg in segments))
        return _Replay(events=tuple(events), segments=tuple(segments))

    def _build_segment(
        self, t: float, legs: list[Pair], prev: _Segment | None
    ) -> _Segment:
        """Advance to ``t`` and resolve every leg on the live topology."""
        with obs.span("service.segment") as sp:
            sp.set("t", t)
            self.timeline.advance_to(t)
            resolved = self._resolver.round_trips(legs)
            sp.set("legs_up", len(resolved))
        healed = (
            ()
            if prev is None
            else tuple(
                leg for leg in legs if leg in resolved and leg not in prev.resolved
            )
        )
        # The transfer simulator reads link capacities now, while the
        # topology is in this segment's state.
        return _Segment(
            t=t,
            legs=legs,
            resolved=resolved,
            healed=healed,
            candidates=self.candidates,
            conditions=self.conditions,
            topo=self.topo,
        )

    # -- the event loop ------------------------------------------------------

    def run(self, strategy: str | PathSelectionAlgorithm) -> ServiceResult:
        """Simulate the service under one strategy; deterministic.

        The first run of a service builds its environment replay; every
        run reuses it, and no run's ``wall_s`` includes building it.

        Args:
            strategy: A registered strategy name or a ready instance.

        Raises:
            StrategyError: for an unknown strategy name.
        """
        if isinstance(strategy, str):
            strategy = create_strategy(strategy, seed=self.seed)
        replay = self._environment()
        with obs.span("service.run") as sp:
            sp.set("strategy", strategy.name)
            sp.set("seed", self.seed)
            sp.set("pairs", len(self.pairs))
            result = self._run(strategy, replay)
            sp.set("requests", len(result.records))
        return result

    def _run(self, strategy: PathSelectionAlgorithm, replay: _Replay) -> ServiceResult:
        wall_start = clock.now()
        store = PathStore(self.hosts, self.candidates)
        run = _RunState(
            store=store,
            strategy=strategy,
            probe_rng=np.random.default_rng((self.seed, 0x980BE5)),
            transfer_rng=np.random.default_rng((self.seed, 0x7C4A5F)),
        )
        segments = iter(replay.segments)
        run.enter_segment(next(segments))
        for t, prio, _seq, payload in replay.events:
            if prio == _PRIO_TOPOLOGY:
                run.enter_segment(next(segments))
            elif prio == _PRIO_PROBE:
                run.probe_round(t)
            else:
                assert payload is not None
                run.serve_request(t, payload)
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


_Key = tuple[Pair, str | None]


@dataclass(frozen=True, slots=True)
class _BucketTable:
    """Every resolvable candidate's expected quality in one bucket.

    Rows follow the segment's transfer keys.  ``prop``/``qsum``/``ploss``
    are the composed path state a transfer is measured under; the
    expected RTT of a candidate is ``prop + qsum``.
    """

    prop: np.ndarray
    qsum: np.ndarray
    ploss: np.ndarray
    #: (pair, relay) -> expected (rtt_ms, loss) of resolvable candidates.
    expected: dict[_Key, tuple[float, float]]
    #: pair -> (oracle rtt_ms, oracle relay); (NaN, None) when no
    #: candidate resolves.
    oracle: dict[Pair, tuple[float, str | None]]


@dataclass(frozen=True, slots=True)
class _Replay:
    """A service's strategy-independent state: events and segments."""

    events: tuple[tuple[float, int, int, Pair | None], ...]
    segments: tuple[_Segment, ...]


class _Segment:
    """One topology segment, resolved once and read by every run.

    Holds the segment's resolved legs, the probe sampler over them, the
    transfer simulator over the resolvable candidates and one
    :class:`_BucketTable` per congestion bucket, each built on first
    request (the replay requests every bucket its events touch).
    """

    def __init__(
        self,
        *,
        t: float,
        legs: list[Pair],
        resolved: dict[Pair, RoundTripPath],
        healed: tuple[Pair, ...],
        candidates: dict[Pair, tuple[CandidatePath, ...]],
        conditions: NetworkConditions,
        topo: Topology,
    ) -> None:
        self.t = t
        self.resolved = resolved
        #: Legs resolvable now but not in the previous segment.
        self.healed = healed
        self.probe_legs = [leg for leg in legs if leg in resolved]
        self.sampler = PathSampler(
            conditions, [resolved[leg] for leg in self.probe_legs]
        )
        sampler_index = {leg: i for i, leg in enumerate(self.probe_legs)}
        #: Store-order (pair, relay, (hop count, prop RTT) or None if down).
        self.health: list[tuple[Pair, str | None, tuple[int, float] | None]] = []
        paths: dict[_Key, _CompositePath] = {}
        for pair, cands in candidates.items():
            for cand in cands:
                if not all(leg in resolved for leg in cand.legs):
                    self.health.append((pair, cand.relay, None))
                    continue
                rts = [resolved[leg] for leg in cand.legs]
                hops = sum(rt.forward.hop_count for rt in rts)
                prop = sum(rt.rtt_prop_ms for rt in rts)
                self.health.append((pair, cand.relay, (hops, prop)))
                paths[(pair, cand.relay)] = _CompositePath(
                    link_ids=tuple(l for rt in rts for l in rt.link_ids),
                    rtt_prop_ms=prop,
                )
        self.keys: list[_Key] = sorted(
            paths, key=lambda k: (k[0], k[1] is not None, k[1] or "")
        )
        self.tcp = (
            TCPTransferSimulator(topo, [paths[k] for k in self.keys])
            if self.keys
            else None
        )
        self.tcp_indices = np.arange(len(self.keys), dtype=np.int64)
        # Each row's legs as sampler indices; a default path's missing
        # second leg points at a zero sentinel one past the last leg.
        leg_a: list[int] = []
        leg_b: list[int] = []
        for pair, relay in self.keys:
            if relay is None:
                leg_a.append(sampler_index[pair])
                leg_b.append(len(self.probe_legs))
            else:
                leg_a.append(sampler_index[(pair[0], relay)])
                leg_b.append(sampler_index[(relay, pair[1])])
        self._leg_a = np.array(leg_a, dtype=np.int64)
        self._leg_b = np.array(leg_b, dtype=np.int64)
        # Each pair's candidates as rows, in store order; a candidate that
        # does not resolve (and the padding) points one past the last row.
        row_of = {key: i for i, key in enumerate(self.keys)}
        down = len(self.keys)
        width = max(len(cands) for cands in candidates.values())
        self._pairs = list(candidates)
        self._oracle_rows = np.array(
            [
                [row_of.get((pair, cand.relay), down) for cand in cands]
                + [down] * (width - len(cands))
                for pair, cands in candidates.items()
            ],
            dtype=np.int64,
        )
        self._tables: dict[int, _BucketTable] = {}

    def table(self, t: float) -> _BucketTable:
        """The candidate table of ``t``'s congestion bucket."""
        bucket = int(t // BUCKET_SECONDS)
        table = self._tables.get(bucket)
        if table is None:
            table = self._tables[bucket] = self._build_table(t)
        return table

    def _build_table(self, t: float) -> _BucketTable:
        """One vectorized pass over every resolvable candidate.

        Float64 operations in the order of a per-candidate scalar sum:
        ``(prop_a + prop_b) + (q_a + q_b)`` and
        ``1 - (1 - p_a)(1 - p_b)``.  The sentinel leg adds exactly
        nothing (``x + 0.0 == x``, ``y * 1.0 == y``).
        """
        view = self.sampler.bucket_view(t)
        prop = np.append(view.prop, 0.0)
        qsum = np.append(view.qsum, 0.0)
        survive = 1.0 - np.append(view.ploss, 0.0)
        a, b = self._leg_a, self._leg_b
        prop_rows = prop[a] + prop[b]
        qsum_rows = qsum[a] + qsum[b]
        ploss_rows = 1.0 - survive[a] * survive[b]
        rtt = prop_rows + qsum_rows
        # The oracle is the lowest expected RTT; argmin keeps the first
        # in store order on ties, and the +inf pad marks "down".
        best = np.argmin(np.append(rtt, np.inf)[self._oracle_rows], axis=1)
        rows = self._oracle_rows[np.arange(len(best)), best].tolist()
        rtt_list = rtt.tolist()
        oracle = {
            pair: (
                (math.nan, None)
                if row == len(self.keys)
                else (rtt_list[row], self.keys[row][1])
            )
            for pair, row in zip(self._pairs, rows)
        }
        return _BucketTable(
            prop=prop_rows,
            qsum=qsum_rows,
            ploss=ploss_rows,
            expected=dict(zip(self.keys, zip(rtt_list, ploss_rows.tolist()))),
            oracle=oracle,
        )


class _RunState:
    """Per-run state: store health and estimates, RNG streams, records."""

    def __init__(
        self,
        *,
        store: PathStore,
        strategy: PathSelectionAlgorithm,
        probe_rng: np.random.Generator,
        transfer_rng: np.random.Generator,
    ) -> None:
        self.store = store
        self.strategy = strategy
        self.probe_rng = probe_rng
        self.transfer_rng = transfer_rng
        self.records: list[RequestRecord] = []
        self.probes_sent = 0
        self.probes_lost = 0
        self.transfers = 0
        self.segment: _Segment | None = None
        self.last_bw: dict[_Key, float] = {}

    # -- topology transitions ------------------------------------------------

    def enter_segment(self, segment: _Segment) -> None:
        """Switch to a replayed segment and drive reactive failover."""
        self.segment = segment
        for leg in segment.healed:
            # The leg healed: estimates taken on the pre-outage path must
            # not steer selection on the new one.
            self.store.reset_leg(leg)
        for pair, relay, facts in segment.health:
            if facts is None:
                if self.store.mark_path_down(pair, relay, t=segment.t):
                    obs.count("service.path_down")
                continue
            hops, prop = facts
            self.store.set_path_facts(
                pair, relay, hop_count=hops, prop_rtt_ms=prop
            )
            if self.store.mark_path_up(pair, relay, t=segment.t):
                obs.count("service.path_up")

    # -- probing -------------------------------------------------------------

    def probe_round(self, t: float) -> None:
        """One active-probing round: batched leg probes plus transfers."""
        seg = self.segment
        assert seg is not None
        legs = seg.probe_legs
        if not legs:
            return
        with obs.span("service.probe_round") as sp:
            sp.set("t", t)
            sp.set("legs", len(legs))
            ts = t + PROBE_STAGGER_S * np.arange(len(legs))
            rtts = seg.sampler.probe_batch(
                ts, self.probe_rng, np.arange(len(legs), dtype=np.int64)
            )
            for leg, rtt in zip(legs, rtts.tolist()):
                self.store.record_leg_probe(leg, rtt)
            self.probes_sent += len(legs)
            lost = int(np.count_nonzero(np.isnan(rtts)))
            self.probes_lost += lost
            obs.count("service.probes", len(legs))
            if lost:
                obs.count("service.probes_lost", lost)
            self._transfer_round(t)

    def _transfer_round(self, t: float) -> None:
        """Measure one TCP transfer per resolvable candidate, batched."""
        seg = self.segment
        assert seg is not None
        if seg.tcp is None:
            return
        table = seg.table(t)
        _rtt, _loss, bw = seg.tcp.measure_block(
            table.prop, table.qsum, table.ploss, seg.tcp_indices, self.transfer_rng
        )
        self.last_bw.update(zip(seg.keys, bw.tolist()))
        self.transfers += len(seg.keys)
        obs.count("service.transfers", len(seg.keys))

    # -- requests ------------------------------------------------------------

    def serve_request(self, t: float, pair: Pair) -> None:
        """Serve one client request: strategy choice, realized quality."""
        assert self.segment is not None
        usable = self.store.usable(pair)
        choice = self.strategy.select(pair, usable)
        obs.count("service.requests")
        if choice.relay is not None:
            obs.count("service.deflections")
        table = self.segment.table(t)
        realized = table.expected.get((pair, choice.relay))
        direct = table.expected.get((pair, None))
        oracle_rtt, oracle_relay = table.oracle[pair]
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
