"""Per-layer self time: the wrapper table and the tracer that fills it.

``LAYER_CALLABLES`` maps each ``docs/architecture.toml`` layer to the
public callables whose calls count as that layer's work.  A traced run
installs one timing wrapper per callable, runs the workload, and takes
the wrappers out again; nothing under ``src/`` is edited.

Self time is a wrapped call's wall time minus the part covered by
wrapped calls nested inside it, whatever their layer.  Summed over all
layers it equals the time spent inside outermost wrapped calls, so
``sum(self) + unattributed == traced wall`` holds exactly.

The table names coarse boundaries (a probe batch, a campaign, a
convergence), never per-probe or per-route helpers, so the wrappers
stay cheap next to the work they time.  ``quality`` is absent because
no workload reaches it, and ``obs`` is absent because wrapping the
tracer would time the wrappers; its cost shows instead as the traced
run's overhead.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: layer -> "module:qualname" of every public callable it is charged for.
LAYER_CALLABLES: dict[str, tuple[str, ...]] = {
    "topology": (
        "repro.topology.generator:generate_topology",
        "repro.topology.generator:build_topology",
        "repro.topology.generator:place_hosts",
        "repro.topology.network:Topology.remove_as_link",
        "repro.topology.network:Topology.insert_as_link",
        "repro.topology.network:Topology.detach_exchange_link",
        "repro.topology.network:Topology.reattach_exchange_link",
        "repro.topology.network:Topology.relationship_index",
    ),
    "routing": (
        "repro.routing.forwarding:PathResolver.resolve",
        "repro.routing.forwarding:PathResolver.resolve_secondary",
        "repro.routing.bgp:BGPTable.converge_all",
        "repro.routing.columnar:converge_all",
        "repro.routing.columnar:igp_matrix",
    ),
    "netsim": (
        "repro.netsim.conditions:NetworkConditions.link_state",
        "repro.netsim.conditions:BucketProbeMixin.bucket_view",
        "repro.netsim.conditions:BucketProbeMixin.probe",
        "repro.netsim.conditions:BucketProbeMixin.gather_bucket_state",
        "repro.netsim.conditions:BucketProbeMixin.probe_batch",
        "repro.netsim.conditions:PathSampler.view",
        "repro.netsim.dynamics:DynamicPathSampler.view",
        "repro.netsim.conditions:SamplerView.probe_block",
    ),
    "measurement": (
        "repro.measurement.collector:Campaign.run_traceroutes",
        "repro.measurement.collector:Campaign.run_transfers",
        "repro.measurement.collector:Campaign.path_info",
        "repro.measurement.tcp:TCPTransferSimulator.measure_block",
        "repro.measurement.ratelimit:detect_rate_limiters",
    ),
    "datasets": (
        "repro.datasets.builders:build_group",
        "repro.datasets.io:save_dataset",
        "repro.datasets.io:load_dataset",
        "repro.datasets.io:verify_dataset_file",
        "repro.datasets.dataset:Dataset.with_min_samples",
        "repro.datasets.dataset:Dataset.without_hosts",
        "repro.datasets.dataset:Dataset.restricted_to_times",
    ),
    "core": (
        "repro.core.graph:build_graph",
        "repro.core.analysis:analyze",
        "repro.core.analysis:analyze_graph",
        "repro.core.analysis:analyze_bandwidth",
        "repro.core.altpath:AlternatePathFinder.best_all",
        "repro.core.hosts:greedy_host_removal",
        "repro.core.hosts:improvement_contributions",
        "repro.core.episodes:analyze_episodes",
        "repro.core.medians:compare_mean_vs_median",
        "repro.core.propagation:analyze_propagation",
        "repro.core.ases:as_popularity",
        "repro.core.timeofday:analyze_by_time_of_day",
        "repro.core.bootstrap:bootstrap_improvements",
    ),
    "experiments": (
        "repro.experiments.runner:provision_datasets",
        "repro.experiments.tables:table1",
        "repro.experiments.tables:table2",
        "repro.experiments.tables:table3",
        *(f"repro.experiments.figures:figure{i}" for i in range(1, 17)),
        "repro.experiments.reproduce:write_markdown",
        "repro.experiments.render:render_all",
    ),
    "viz": (
        "repro.viz.svg:SVGChart.render",
        "repro.viz.svg:SVGChart.save",
        "repro.viz.ascii:ascii_cdf",
    ),
    "scenario": (
        "repro.scenario.run:ScenarioRun.execute",
        "repro.scenario.timeline:ScenarioTimeline.advance_to",
        "repro.scenario.timeline:ScenarioTimeline.reset",
        "repro.scenario.availability:analyze_availability",
    ),
    "service": (
        "repro.service.evaluate:evaluate_strategies",
        "repro.service.detour:DetourService.run",
        "repro.service.store:PathStore.snapshot",
        "repro.service.store:PathStore.record_leg_probe",
    ),
    "overlay": (
        "repro.overlay.state:OverlayState.record_probe",
        "repro.overlay.state:OverlayState.estimate",
        "repro.overlay.router:OverlayRouter.select",
    ),
    "faults": (
        "repro.faults.supervisor:BuildSupervisor.run",
        "repro.faults.injection:perform",
    ),
}

#: Layers reported per workload (every layer in the table).
LAYERS: tuple[str, ...] = tuple(LAYER_CALLABLES)

#: Counters ``repro.obs`` exports, summed into one metric each.
OBS_COUNTERS: dict[str, tuple[str, ...]] = {
    "routing.bgp_convergences": (
        "routing.bgp.convergences",
        "routing.bgp.batch_convergences",
    ),
    "routing.igp_matrix_builds": ("routing.igp.matrix_builds",),
    "core.altpath_pairs": ("core.altpath.pairs",),
    "scenario.transitions": ("scenario.transitions",),
    "service.requests": ("service.requests",),
    "service.probes": ("service.probes",),
    "service.transfers": ("service.transfers",),
    "faults.retries": ("faults.retries",),
}

_MUTATORS = (
    "repro.topology.network:Topology.remove_as_link",
    "repro.topology.network:Topology.insert_as_link",
    "repro.topology.network:Topology.detach_exchange_link",
    "repro.topology.network:Topology.reattach_exchange_link",
)
_RESOLVES = (
    "repro.routing.forwarding:PathResolver.resolve",
    "repro.routing.forwarding:PathResolver.resolve_secondary",
)


def _count_probes(tracer: "LayerTracer", args: tuple, result: object) -> None:
    rtt = getattr(result, "rtt_ms", result)
    tracer.counts["netsim.probes"] += len(rtt)


def _count_collection(tracer: "LayerTracer", args: tuple, result: object) -> None:
    _records, stats = result
    tracer.counts["measurement.requests"] += stats.requested
    tracer.counts["measurement.completed"] += stats.completed


def _count_transfers(tracer: "LayerTracer", args: tuple, result: object) -> None:
    records, _stats = result
    tracer.counts["measurement.transfers"] += len(records)


def _file_size(path: object) -> int:
    try:
        return os.path.getsize(path)  # type: ignore[arg-type]
    except OSError:
        return 0


def _count_written(tracer: "LayerTracer", args: tuple, result: object) -> None:
    tracer.counts["datasets.bytes_written"] += _file_size(args[1])


def _count_read(tracer: "LayerTracer", args: tuple, result: object) -> None:
    tracer.counts["datasets.bytes_read"] += _file_size(args[0])


#: Per-callable hooks that turn a call's arguments or result into counts.
_HOOKS: dict[str, Callable[["LayerTracer", tuple, object], None]] = {
    "repro.netsim.conditions:BucketProbeMixin.probe": _count_probes,
    "repro.netsim.conditions:BucketProbeMixin.probe_batch": _count_probes,
    "repro.netsim.conditions:SamplerView.probe_block": _count_probes,
    "repro.measurement.collector:Campaign.run_traceroutes": _count_collection,
    "repro.measurement.collector:Campaign.run_transfers": _count_transfers,
    "repro.datasets.io:save_dataset": _count_written,
    "repro.datasets.io:load_dataset": _count_read,
    "repro.datasets.io:verify_dataset_file": _count_read,
}

#: Calls whose wall time minus CPU time is the layer's waiting (fsync).
_WAITING = (
    "repro.datasets.io:save_dataset",
    "repro.datasets.io:load_dataset",
    "repro.datasets.io:verify_dataset_file",
)


def resolve(spec: str) -> tuple[object, str, Callable]:
    """The owner (module or class), attribute name and callable of ``spec``."""
    module_name, qualname = spec.split(":")
    owner: object = importlib.import_module(module_name)
    *parents, name = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


#: netsim's exact-time view builders; one called from ``bucket_view`` is a
#: bucket-cache miss.
_VIEWS = (
    "repro.netsim.conditions:PathSampler.view",
    "repro.netsim.dynamics:DynamicPathSampler.view",
)
_BUCKET_VIEW = "repro.netsim.conditions:BucketProbeMixin.bucket_view"


@dataclass
class _Frame:
    spec: str
    child_s: float = 0.0


@dataclass
class LayerTracer:
    """Accumulates self time, calls and counts for wrapped callables."""

    clock: Callable[[], float] = time.perf_counter
    cpu_clock: Callable[[], float] = time.thread_time
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    spec_calls: Counter = field(default_factory=Counter)
    inclusive_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    wait_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)
    _stack: list[_Frame] = field(default_factory=list)

    def wrap(self, fn: Callable, layer: str, spec: str) -> Callable:
        """A timing wrapper around ``fn`` charged to ``layer``."""
        hook = _HOOKS.get(spec)
        waits = spec in _WAITING
        misses_bucket = spec in _VIEWS
        stack = self._stack
        clock = self.clock
        cpu_clock = self.cpu_clock

        def wrapper(*args, **kwargs):
            if misses_bucket and stack and stack[-1].spec == _BUCKET_VIEW:
                self.counts["netsim.bucket_view_misses"] += 1
            frame = _Frame(spec)
            stack.append(frame)
            cpu0 = cpu_clock() if waits else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                self.self_s[layer] += dt - frame.child_s
                self.calls[layer] += 1
                self.spec_calls[spec] += 1
                self.inclusive_s[spec] += dt
                if waits:
                    self.wait_s[layer] += dt - (cpu_clock() - cpu0)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper


def _bindings(fn: Callable) -> list[tuple[object, object]]:
    """Every (container, key) in loaded ``repro.*`` modules bound to ``fn``.

    Module globals cover ``from x import fn`` re-bindings; module-level
    dicts cover registries such as ``ALL_FIGURES``.
    """
    found: list[tuple[object, object]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is fn:
                found.append((module, key))
            elif isinstance(value, dict):
                found.extend(
                    (value, k) for k, v in list(value.items()) if v is fn
                )
    return found


class Installation:
    """The wrappers of one traced run, with what they replaced."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, object, object]] = []

    def _replace(self, container: object, key: object, value: object) -> None:
        if isinstance(container, dict):
            old = container[key]
            container[key] = value
        else:
            old = vars(container)[key]
            setattr(container, key, value)  # type: ignore[arg-type]
        self._undo.append((container, key, old))

    def install(self) -> None:
        for layer, specs in LAYER_CALLABLES.items():
            for spec in specs:
                owner, name, fn = resolve(spec)
                wrapper = self.tracer.wrap(fn, layer, spec)
                if isinstance(owner, type):
                    self._replace(owner, name, wrapper)
                    continue
                for container, key in _bindings(fn):
                    self._replace(container, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            container, key, old = self._undo.pop()
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)  # type: ignore[arg-type]


def derived_counts(
    spec_calls: dict[str, int], counts: dict[str, int], obs_counters: dict[str, int]
) -> dict[str, float]:
    """The extra per-layer metrics, from one traced sample's raw numbers.

    ``spec_calls`` and ``counts`` are a :class:`LayerTracer`'s fields;
    ``obs_counters`` is the program's own counter export.
    """
    calls = Counter(spec_calls)
    out: dict[str, float] = {
        name: float(sum(obs_counters.get(c, 0) for c in counters))
        for name, counters in OBS_COUNTERS.items()
    }
    for name in (
        "netsim.probes",
        "measurement.requests",
        "measurement.completed",
        "measurement.transfers",
        "datasets.bytes_written",
        "datasets.bytes_read",
    ):
        out[name] = float(counts.get(name, 0))
    out["topology.mutations"] = float(sum(calls[s] for s in _MUTATORS))
    out["routing.resolves"] = float(sum(calls[s] for s in _RESOLVES))
    bucket_views = calls[_BUCKET_VIEW]
    misses = counts.get("netsim.bucket_view_misses", 0)
    out["netsim.view_hit_ratio"] = (
        1.0 - misses / bucket_views if bucket_views else 0.0
    )
    pairs = obs_counters.get("core.altpath.pairs", 0)
    out["core.altpath_rerun_ratio"] = (
        obs_counters.get("core.altpath.reruns", 0) / pairs if pairs else 0.0
    )
    retained = obs_counters.get("scenario.dests_retained", 0)
    invalidated = obs_counters.get("scenario.dests_invalidated", 0)
    out["scenario.salvage_ratio"] = (
        retained / (retained + invalidated) if retained + invalidated else 0.0
    )
    return out
