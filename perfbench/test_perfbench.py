"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _import_workload_modules() -> None:
    for workload in workloads.WORKLOADS.values():
        for module in workload.modules:
            __import__(module)


def test_every_listed_callable_exists_and_is_public():
    _import_workload_modules()
    seen = set()
    for layer, specs in layers.LAYER_CALLABLES.items():
        for spec in specs:
            assert spec not in seen, f"{spec} listed twice"
            seen.add(spec)
            module, qualname = spec.split(":")
            assert module.split(".")[1] == layer, f"{spec} is not in layer {layer}"
            assert not any(p.startswith("_") for p in qualname.split(".")), spec
            _owner, _name, fn = layers.resolve(spec)
            assert inspect.isfunction(fn), f"{spec} is not a plain function"
            # A generator's work happens after the call returns.
            assert not inspect.isgeneratorfunction(fn), spec


def test_nested_self_times_sum_to_the_traced_wall():
    now = [0.0]
    tracer = layers.LayerTracer(clock=lambda: now[0], cpu_clock=lambda: now[0])

    def leaf(cost: float) -> None:
        now[0] += cost

    def middle() -> None:
        now[0] += 1.0
        wrapped_leaf(2.0)
        wrapped_leaf(3.0)

    def outer() -> None:
        now[0] += 4.0
        wrapped_middle()
        now[0] += 5.0

    wrapped_leaf = tracer.wrap(leaf, "netsim", "t:leaf")
    wrapped_middle = tracer.wrap(middle, "routing", "t:middle")
    wrapped_outer = tracer.wrap(outer, "core", "t:outer")
    start = now[0]
    wrapped_outer()
    now[0] += 0.5  # unwrapped work after the outermost call
    wall = now[0] - start
    assert tracer.self_s == {"netsim": 5.0, "routing": 1.0, "core": 9.0}
    assert sum(tracer.self_s.values()) == tracer.inclusive_s["t:outer"] == 15.0
    assert sum(tracer.self_s.values()) + 0.5 == wall
    assert tracer.calls == {"netsim": 2, "routing": 1, "core": 1}


def _bound_objects() -> dict[tuple[int, object], object]:
    """Every binding of every listed callable, by (container id, key)."""
    found = {}
    for specs in layers.LAYER_CALLABLES.values():
        for spec in specs:
            owner, name, fn = layers.resolve(spec)
            if isinstance(owner, type):
                found[(id(owner), name)] = vars(owner)[name]
                continue
            for container, key in layers._bindings(fn):
                found[(id(container), key)] = fn
    return found


def test_wrappers_are_installed_everywhere_and_restored():
    _import_workload_modules()
    from repro.experiments import figures, reproduce

    before = _bound_objects()
    original_figure12 = figures.figure12
    installation = layers.Installation(layers.LayerTracer())
    installation.install()
    try:
        # Registries and from-imports see the wrapper, not the original.
        assert figures.ALL_FIGURES["figure12"] is not original_figure12
        assert figures.ALL_FIGURES["figure12"].__wrapped__ is original_figure12
        assert reproduce.table1 is not before[(id(reproduce), "table1")]
    finally:
        installation.restore()
    assert figures.ALL_FIGURES["figure12"] is original_figure12
    assert _bound_objects() == before


def test_corrupted_output_is_reported_as_failed(tmp_path):
    out = tmp_path / "reproduce"
    (out / "svg").mkdir(parents=True)
    report = ["# Reproduction run", ""]
    for name in workloads.ARTIFACTS:
        report += [f"## {name}", "", "```", f"{name} text", "```", ""]
        if name.startswith("figure"):
            (out / "svg" / f"{name}.svg").write_text(f"<svg>{name}</svg>")
    (out / "report.md").write_text("\n".join(report))
    reference = workloads.WORKLOADS["paper-reproduce"].units(out, None)
    assert None not in reference.values()

    references = {"1999": reference}
    clean = {"mode": "measure", "seed": 1999, "units": dict(reference)}
    assert run.check_units([clean], references)[:2] == (19, 0)

    (out / "svg" / "figure7.svg").write_text("<svg>figure7 corrupted</svg>")
    corrupted = {
        "mode": "measure",
        "seed": 1999,
        "units": workloads.WORKLOADS["paper-reproduce"].units(out, None),
    }
    attempted, failed, messages = run.check_units([clean, corrupted], references)
    assert (attempted, failed) == (38, 1)
    assert "figure7" in messages[0]

    crashed = {"mode": "trace", "seed": 1999, "error": "Traceback: boom"}
    assert run.check_units([crashed], references)[:2] == (19, 19)
    unknown = {"mode": "measure", "seed": 7, "units": dict(reference)}
    assert run.check_units([unknown], references)[1] > 0


def test_every_seed_rotates_through_the_recorded_seeds():
    seeds = [1999, 2024, 7]
    assert run.rotation(2024, seeds) == [2024, 7, 1999]
    assert run.rotation(5, seeds) == run.rotation(5, seeds)
    assert sorted(run.rotation(5, seeds)) == sorted(seeds)


def test_plans_derive_for_every_recorded_seed():
    import plans

    for seed in run.load_references()["seeds"]:
        serve = plans.serve_plan(seed, workloads.SERVE_DURATION_S)
        assert "flap-storm" not in serve
        whatif = plans.whatif_plan(seed, workloads.WHATIF_HOSTS)
        assert whatif.count(";") == 7


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    trace = {
        "wall_s": 1.0,
        "traced_s": 2.0,
        **{k: {} for k in ("self_s", "calls", "spec_calls", "inclusive_s",
                           "wait_s", "counts", "obs_counters")},
    }
    samples = [
        {"mode": "measure", "seed": 1999, "wall_s": 1.0, "units": {}},
        {"mode": "trace", "seed": 1999, "trace": trace, "units": {}},
    ]
    metrics, _ = run.per_layer(samples)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.metric_unit(name) for name in metrics
    }
