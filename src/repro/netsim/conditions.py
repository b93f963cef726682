"""Time-varying network conditions and vectorized path sampling.

:class:`NetworkConditions` owns per-link state as flat numpy arrays and
answers "what is every link's utilization / queuing delay / loss
probability at time *t*?".  Conditions are **deterministic in (seed, t)**:
stochastic variation is generated from counter-based draws keyed on the
time bucket, so any query order yields identical results — essential for
reproducible datasets and for the UW4-A requirement that simultaneous
probes of different paths see the *same* congestion state on shared links.

:class:`PathSampler` layers per-path aggregation on top: given round-trip
paths (sequences of link ids), it samples probe RTTs and losses for many
paths at once.  A probe batch evaluates the per-link state of all its
buckets in one 2-D pass and sums it over only the (bucket, path) pairs
it probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.netsim.congestion import (
    loss_probability_array,
    mean_queue_delay_ms_array,
    queuing_scale_ms,
)
from repro.netsim.diurnal import load_multiplier_array
from repro.netsim.clock import solar_offset_hours
from repro.obs import runtime as obs
from repro.topology.network import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routing.forwarding import RoundTripPath

#: Congestion state is redrawn every bucket; within a bucket it is frozen.
#: Five minutes matches the timescale over which Internet congestion is
#: strongly autocorrelated.
BUCKET_SECONDS = 300.0

#: Utilization bounds after modulation.
MIN_UTILIZATION = 0.02
MAX_UTILIZATION = 0.96

#: Fixed per-probe endhost overhead (kernel, ICMP generation), ms.
HOST_OVERHEAD_MS = 0.4

#: Fraction of the path's queuing delay used as the scale of per-probe
#: exponential jitter.
JITTER_FRACTION = 0.35

#: Probability that a probe hits a heavy-tail event — a transient route
#: flap, router CPU stall, or deep-buffer episode.  The paper's §6.2
#: names exactly these ("upgrades to the network infrastructure, path
#: changes, ... congestion") as the variance sources behind its wide
#: confidence intervals.
TAIL_PROB = 0.04

#: Range of the extra delay from a tail event, as a multiple of the
#: probe's nominal RTT.
TAIL_EXTRA_RANGE = (0.5, 4.0)

#: Fraction of links with chronic, load-independent loss (dirty fiber,
#: duplex mismatches, failing line cards — endemic in the 1990s).  Chronic
#: loss keeps a loss signal alive off-peak, which is why the paper sees
#: loss-superior alternates "regardless of the time of day" (section 6.3).
CHRONIC_LOSS_FRACTION = 0.05

#: Chronic loss probability range for affected links.
CHRONIC_LOSS_RANGE = (0.005, 0.03)


#: Uniform draws consumed per probe, in order: loss, jitter, tail flag,
#: tail magnitude.  Every probe consumes exactly this many draws whether
#: or not it is lost or hits a tail event, so a batched ``random((n, 4))``
#: block consumes the identical generator stream as ``n`` scalar probes —
#: the invariant behind the batched/scalar differential tests.
DRAWS_PER_PROBE = 4

#: Memory ceiling for one chunk of a probe gather.  A bucket costs one
#: float64 per link (its row of per-link state) plus one per link of every
#: path the sampler holds (its worst-case pair gather), and a gather takes
#: as many buckets at a time as fit.  At 8 MiB that is 8 buckets of the
#: 54-host UW3 prescan (1,266 links, 2,862 round trips of 127,022 links).
_GATHER_CHUNK_CAP_BYTES = 8 * 1024 * 1024


# hotpath
def _sample_probe_rtts(
    prop: np.ndarray,
    qsum: np.ndarray,
    ploss: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Turn per-probe path state and uniform draws into RTTs (NaN = lost).

    ``u`` has shape (n, DRAWS_PER_PROBE).  The jitter draw goes through
    the exponential inverse CDF rather than the generator's ziggurat
    sampler so the draw count per probe is fixed.
    """
    scale = JITTER_FRACTION * qsum + HOST_OVERHEAD_MS
    jitter = -np.log1p(-u[:, 1]) * scale
    rtt = prop + qsum + jitter + HOST_OVERHEAD_MS
    lo, hi = TAIL_EXTRA_RANGE
    tail_mult = 1.0 + (lo + (hi - lo) * u[:, 3])
    rtt = np.where(u[:, 2] < TAIL_PROB, rtt * tail_mult, rtt)
    return np.where(u[:, 0] < ploss, np.nan, rtt)


class NetworkConditions:
    """Per-link dynamic state for one topology."""

    def __init__(self, topo: Topology, *, seed: int = 0) -> None:
        self._topo = topo
        self.seed = seed
        n = len(topo.links)
        self.prop_delay_ms = np.array([l.prop_delay_ms for l in topo.links])
        self.base_utilization = np.array([l.base_utilization for l in topo.links])
        self.queue_scale_ms = np.array([queuing_scale_ms(l) for l in topo.links])
        # A link's diurnal phase follows the mean longitude of its endpoints.
        offsets = np.empty(n)
        for link in topo.links:
            lon_u = topo.routers[link.u].city.lon
            lon_v = topo.routers[link.v].city.lon
            offsets[link.link_id] = solar_offset_hours((lon_u + lon_v) / 2.0)
        self.utc_offsets = offsets
        chronic_rng = np.random.default_rng((seed, 0xC4801C))
        chronic = chronic_rng.random(n) < CHRONIC_LOSS_FRACTION
        lo, hi = CHRONIC_LOSS_RANGE
        self.chronic_loss = np.where(
            chronic, chronic_rng.uniform(lo, hi, size=n), 0.0
        )
        self._bucket_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_links(self) -> int:
        """Number of links under simulation."""
        return len(self.prop_delay_ms)

    # -- per-bucket stochastic state ----------------------------------------

    def _bucket_noise(self, bucket: int) -> tuple[np.ndarray, np.ndarray]:
        """(utilization noise, queue burstiness factor) for one time bucket.

        Both arrays have mean approximately 1 and are drawn from a
        generator seeded by (seed, bucket), making them reproducible and
        order-independent.
        """
        cached = self._bucket_cache.get(bucket)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self.seed, 0xB0C4E7, bucket))
        util_noise = rng.lognormal(mean=-0.02, sigma=0.20, size=self.n_links)
        queue_factor = rng.gamma(shape=2.0, scale=0.5, size=self.n_links)
        if len(self._bucket_cache) > 64:
            self._bucket_cache.clear()
        self._bucket_cache[bucket] = (util_noise, queue_factor)
        return util_noise, queue_factor

    # -- the per-link state formula -----------------------------------------

    # hotpath
    def _link_rows(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-link (utilization, queuing delay, loss probability) rows.

        Row ``r`` holds every link's state at time ``ts[r]`` under that
        time's bucket noise.  This is the only copy of the per-link
        formula.  The blocks are C-contiguous (times, links) arrays, so
        each elementwise ufunc runs the inner loop a 1-D array of one
        time would, and every row equals a one-time query bit for bit.
        """
        ts = np.asarray(ts, dtype=np.float64)
        noise = [self._bucket_noise(int(t // BUCKET_SECONDS)) for t in ts.tolist()]
        util_noise = np.stack([u for u, _ in noise])
        queue_factor = np.stack([q for _, q in noise])
        mult = load_multiplier_array(ts[:, None], self.utc_offsets)
        util = np.clip(
            self.base_utilization * mult * util_noise,
            MIN_UTILIZATION,
            MAX_UTILIZATION,
        )
        queue = mean_queue_delay_ms_array(util, self.queue_scale_ms) * queue_factor
        congestion = loss_probability_array(util)
        loss = 1.0 - (1.0 - congestion) * (1.0 - self.chronic_loss)
        return util, queue, loss

    # hotpath
    def state_rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-link queuing delay and log-survival, one row per time.

        Log-survival is ``log1p(-loss)``; summed over a path's links it is
        the log of the probability that a probe survives them all.
        """
        _, queue, loss = self._link_rows(ts)
        return queue, np.log1p(-loss)

    # -- public queries ------------------------------------------------------

    def utilization(self, t: float) -> np.ndarray:
        """Per-link utilization at time ``t`` (array of length n_links)."""
        return self._link_rows(np.array([t]))[0][0]

    def queue_delay_ms(self, t: float) -> np.ndarray:
        """Per-link instantaneous queuing delay at time ``t``, in ms."""
        return self._link_rows(np.array([t]))[1][0]

    def loss_probability(self, t: float) -> np.ndarray:
        """Per-link loss probability at time ``t``.

        Combines congestion loss (utilization-driven) with each link's
        chronic loss floor, assuming independence.
        """
        return self._link_rows(np.array([t]))[2][0]

    def link_state(self, link_id: int, t: float) -> dict[str, float]:
        """Convenience single-link snapshot (utilization, queue, loss)."""
        util, queue, loss = self._link_rows(np.array([t]))
        return {
            "utilization": float(util[0, link_id]),
            "queue_delay_ms": float(queue[0, link_id]),
            "loss_probability": float(loss[0, link_id]),
        }


@dataclass(frozen=True, slots=True)
class SamplerView:
    """Frozen per-bucket congestion state for a :class:`PathSampler`.

    Collection campaigns probe hundreds of thousands of times; computing
    per-link state per probe would dominate runtime.  A view captures the
    per-path queuing sums and loss probabilities of one time bucket so
    individual probes reduce to a couple of scalar random draws.

    Attributes:
        t: Time the view was taken.
        prop: Per-path round-trip propagation delay (ms).
        qsum: Per-path total queuing delay (ms) in this bucket.
        ploss: Per-path round-trip loss probability in this bucket.
    """

    t: float
    prop: np.ndarray
    qsum: np.ndarray
    ploss: np.ndarray

    # hotpath
    def probe_block(
        self, rng: np.random.Generator, indices: np.ndarray | None = None
    ) -> "ProbeBatch":
        """Probe every selected path once, in one vectorized pass.

        Each probe consumes :data:`DRAWS_PER_PROBE` uniforms, so the
        result is byte-identical to probing the indices one at a time,
        in order, with the same generator.
        """
        if indices is None:
            prop, qsum, ploss = self.prop, self.qsum, self.ploss
        else:
            idx = np.asarray(indices, dtype=np.int64)
            prop = self.prop[idx]
            qsum = self.qsum[idx]
            ploss = self.ploss[idx]
        u = rng.random((len(prop), DRAWS_PER_PROBE))
        rtt = _sample_probe_rtts(prop, qsum, ploss, u)
        return ProbeBatch(rtt_ms=rtt, lost=np.isnan(rtt))


@dataclass(frozen=True, slots=True)
class ProbeBatch:
    """Result of probing a set of paths once each.

    Attributes:
        rtt_ms: Round-trip times; NaN where the probe was lost.
        lost: Boolean mask of lost probes.
    """

    rtt_ms: np.ndarray
    lost: np.ndarray


class BucketProbeMixin:
    """Bucket-frozen probing shared by path samplers.

    Congestion is frozen per :data:`BUCKET_SECONDS` bucket, so every probe
    sees its bucket's mid-bucket state (where the collector has always
    taken it).  Subclasses provide ``__len__``, ``view(t)`` (exact-time
    state of every path), ``_pair_state`` (mid-bucket state of chosen
    (bucket, path) pairs only) and ``_bucket_bytes`` (the worst-case
    gather cost of one bucket).  On top of them the mixin offers two ways
    in:

    * ``bucket_view``/``probe`` build a bucket's full view and keep it in
      a bounded per-sampler cache, for callers that read every path of a
      bucket (the Detour service's candidate tables);
    * ``gather_bucket_state``/``probe_batch`` take a cached view where the
      sampler holds one and otherwise sum only the pairs a batch probes;
      they never build a view.
    """

    _MAX_CACHED_VIEWS = 256

    def bucket_view(self, t: float) -> SamplerView:
        """The cached congestion view of ``t``'s bucket (mid-bucket state)."""
        bucket = int(t // BUCKET_SECONDS)
        cache: dict[int, SamplerView] | None = getattr(self, "_bucket_views", None)
        if cache is None:
            cache = {}
            self._bucket_views = cache
        view = cache.get(bucket)
        if view is None:
            if len(cache) > self._MAX_CACHED_VIEWS:
                cache.clear()
            view = self.view((bucket + 0.5) * BUCKET_SECONDS)
            cache[bucket] = view
        return view

    def probe(
        self,
        t: float,
        rng: np.random.Generator,
        indices: np.ndarray | None = None,
    ) -> ProbeBatch:
        """Send one probe along each selected path at time ``t``.

        Args:
            t: Simulation time of the probes (selects the bucket view).
            rng: Generator for per-probe randomness (loss, jitter, tails).
            indices: Path indices to probe; all paths when None.

        Returns:
            A :class:`ProbeBatch` aligned with ``indices``.
        """
        return self.bucket_view(t).probe_block(rng, indices)

    # hotpath
    def gather_bucket_state(
        self, ts: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-probe (prop, qsum, ploss) of each time's mid-bucket state.

        ``ts`` and ``indices`` align element-wise.  Probes in a bucket
        whose full view this sampler already caches read that view; for
        the other buckets ``_pair_state`` sums each distinct
        (bucket, path) pair once, a chunk of buckets at a time under
        :data:`_GATHER_CHUNK_CAP_BYTES`.  Equal bit for bit to indexing
        :meth:`bucket_view` per probe, yet builds no view and consumes no
        randomness.

        Raises:
            ValueError: if ``ts`` and ``indices`` do not align.
            IndexError: if an index is not a path of this sampler.
        """
        ts = np.asarray(ts, dtype=np.float64)
        idx = np.asarray(indices, dtype=np.int64)
        if ts.shape != idx.shape:
            raise ValueError("ts and indices must align")
        n_paths = len(self)
        with obs.span("netsim.gather") as sp:
            sp.set("probes", len(idx))
            if len(idx) and (idx.min() < 0 or idx.max() >= n_paths):
                raise IndexError(f"path indices must lie in [0, {n_paths})")
            prop = np.empty(len(idx))
            qsum = np.empty(len(idx))
            ploss = np.empty(len(idx))
            buckets = (ts // BUCKET_SECONDS).astype(np.int64)
            distinct = np.unique(buckets)
            cache = getattr(self, "_bucket_views", None) or {}
            views = {b: cache.get(b) for b in distinct.tolist()}
            todo = np.ones(len(idx), dtype=bool)
            for bucket, view in views.items():
                if view is not None:
                    sel = buckets == bucket
                    todo[sel] = False
                    at = idx[sel]
                    prop[sel] = view.prop[at]
                    qsum[sel] = view.qsum[at]
                    ploss[sel] = view.ploss[at]
            missed = distinct[[view is None for view in views.values()]]
            n_pairs = 0
            if len(missed):
                # Distinct (bucket row, path) pairs of the probes left,
                # sorted by row, so a chunk of buckets is a run of pairs.
                sel = np.flatnonzero(todo)
                keys, inverse = np.unique(
                    np.searchsorted(missed, buckets[sel]) * n_paths + idx[sel],
                    return_inverse=True,
                )
                rows, paths = np.divmod(keys, n_paths)
                mids = (missed + 0.5) * BUCKET_SECONDS
                n_pairs = len(keys)
                pair = np.empty((3, n_pairs))
                step = max(1, _GATHER_CHUNK_CAP_BYTES // self._bucket_bytes)
                cuts = np.searchsorted(rows, np.arange(0, len(mids) + step, step))
                for first, lo, hi in zip(
                    range(0, len(mids), step), cuts.tolist(), cuts[1:].tolist()
                ):
                    pair[:, lo:hi] = self._pair_state(
                        mids[first : first + step], rows[lo:hi] - first, paths[lo:hi]
                    )
                prop[sel], qsum[sel], ploss[sel] = pair[:, inverse]
            sp.set("buckets", len(distinct))
            sp.set("pairs", n_pairs)
            sp.set("view_hits", len(distinct) - len(missed))
        obs.count("netsim.pair_states", n_pairs)
        obs.count("netsim.view_hits", len(distinct) - len(missed))
        return prop, qsum, ploss

    # hotpath
    def probe_batch(
        self,
        ts: np.ndarray,
        rng: np.random.Generator,
        indices: np.ndarray,
    ) -> np.ndarray:
        """Generate a whole episode of probes in one numpy pass.

        Each probe ``k`` samples path ``indices[k]`` under the bucket view
        of ``ts[k]``.  Byte-identical to probing ``indices[k]`` on
        ``self.bucket_view(ts[k])`` one probe at a time, in order, with
        the same generator.

        Returns:
            RTTs in ms aligned with the inputs; NaN marks lost probes.
        """
        prop, qsum, ploss = self.gather_bucket_state(ts, indices)
        u = rng.random((len(prop), DRAWS_PER_PROBE))
        return _sample_probe_rtts(prop, qsum, ploss, u)


class PathSampler(BucketProbeMixin):
    """Samples probe RTTs and losses over a fixed set of round-trip paths.

    The constructor flattens each path's link ids into a CSR-style layout
    so that per-probe sampling is a handful of vectorized operations
    regardless of how many paths are probed together.
    """

    def __init__(
        self, conditions: NetworkConditions, paths: "list[RoundTripPath]"
    ) -> None:
        """
        Raises:
            ValueError: if a round trip has no links (its sum would read
                the next path's first link).
        """
        self._cond = conditions
        self.paths = list(paths)
        flat: list[int] = []
        offsets: list[int] = [0]
        for i, rt in enumerate(self.paths):
            if not rt.link_ids:
                raise ValueError(f"round trip {i} has no links")
            flat.extend(rt.link_ids)
            offsets.append(len(flat))
        self._flat = np.array(flat, dtype=np.int64)
        self._offsets = np.array(offsets, dtype=np.int64)
        self._prop = np.array(
            [rt.rtt_prop_ms for rt in self.paths]
        )
        self._bucket_bytes = 8 * (conditions.n_links + len(flat))

    def __len__(self) -> int:
        return len(self.paths)

    # hotpath
    def _pair_sums(
        self,
        state: tuple[np.ndarray, np.ndarray],
        rows: np.ndarray,
        paths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(prop, qsum, ploss) of path ``paths[k]`` under row ``rows[k]``.

        ``state`` is a (queue, log-survival) pair of row blocks from
        :meth:`NetworkConditions.state_rows`.  Each pair's links are
        gathered in CSR order into a segment of its own, so ``reduceat``
        adds the same values in the same order as a sum over every path.
        """
        if not len(paths):
            return np.empty(0), np.empty(0), np.empty(0)
        queue, log_survive = state
        first = self._offsets[paths]
        lens = self._offsets[paths + 1] - first
        seg = np.cumsum(lens) - lens
        at = np.arange(seg[-1] + lens[-1]) + np.repeat(first - seg, lens)
        cells = np.repeat(rows * queue.shape[1], lens) + self._flat[at]
        qsum = np.add.reduceat(queue.take(cells), seg)
        ploss = 1.0 - np.exp(np.add.reduceat(log_survive.take(cells), seg))
        return self._prop[paths], qsum, ploss

    def _pair_state(
        self, mids: np.ndarray, rows: np.ndarray, paths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mid-bucket state of path ``paths[k]`` in the bucket of ``mids[rows[k]]``."""
        return self._pair_sums(self._cond.state_rows(mids), rows, paths)

    def queue_delay_sums(self, t: float) -> np.ndarray:
        """Per-path total queuing delay (both directions) at time ``t``."""
        return self.view(t).qsum

    def loss_probabilities(self, t: float) -> np.ndarray:
        """Per-path round-trip loss probability at time ``t``.

        Per-link losses are independent; a probe survives only if it
        survives every link in both directions.
        """
        return self.view(t).ploss

    def prop_delays(self) -> np.ndarray:
        """Per-path round-trip propagation delay (static)."""
        return self._prop.copy()

    def view(self, t: float) -> SamplerView:
        """Capture the exact-time congestion state for all paths."""
        n = len(self.paths)
        _, qsum, ploss = self._pair_sums(
            self._cond.state_rows(np.array([t])),
            np.zeros(n, dtype=np.int64),
            np.arange(n),
        )
        return SamplerView(t=t, prop=self._prop, qsum=qsum, ploss=ploss)
