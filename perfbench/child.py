"""One measured process: set up, run one workload body, fingerprint it.

Usage (started by ``run.py``, one fresh interpreter per sample)::

    python3 perfbench/child.py MODE WORKLOAD SEED PLAN WORKDIR CACHE OUT

MODE is ``measure`` (tracing off), ``trace`` (layer wrappers and the
program's own obs capture on), ``setup`` (import and construct only) or
``fill`` (provision the paper-reproduce cache).  The result is written
as JSON to OUT.

Set-up time runs from this file's first statement to the end of the
environment construction, so it covers ``import repro``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(workload, ctx) -> tuple[dict, object]:
    """Construct and run under the layer wrappers; returns split and output."""
    from layers import Installation, LayerTracer
    from repro.obs import runtime as obs

    tracer = LayerTracer()
    installation = Installation(tracer)
    installation.install()
    try:
        with obs.capture() as cap:
            t_start = time.perf_counter()
            env = workload.construct(ctx)
            t_body = time.perf_counter()
            output = workload.body(env, ctx)
            t_end = time.perf_counter()
    finally:
        installation.restore()
    split = {
        "wall_s": t_end - t_body,
        "traced_s": t_end - t_start,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "spec_calls": dict(tracer.spec_calls),
        "inclusive_s": dict(tracer.inclusive_s),
        "wait_s": dict(tracer.wait_s),
        "counts": dict(tracer.counts),
        "obs_counters": cap.metrics.export()["counters"],
    }
    return split, output


def main(argv: list[str]) -> int:
    mode, name, seed, plan, workdir, cache, out = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Context, fill_cache

    workload = WORKLOADS[name]
    ctx = Context(seed=int(seed), plan=plan, workdir=Path(workdir), cache=Path(cache))
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    try:
        for module in workload.modules:
            __import__(module)
        if mode == "fill":
            result["setup_s"] = time.perf_counter() - T0
            fill_cache(ctx)
        elif mode == "trace":
            result["trace"], output = _traced(workload, ctx)
            result["units"] = workload.units(output, ctx)
        else:
            env = workload.construct(ctx)
            t_body = time.perf_counter()
            result["setup_s"] = t_body - T0
            if mode == "measure":
                output = workload.body(env, ctx)
                result["wall_s"] = time.perf_counter() - t_body
                result["extras"] = workload.extras(output)
                result["units"] = workload.units(output, ctx)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed sample
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
