"""Benchmark: the Detour-style overlay extension.

Measures how much of the paper's oracle alternate-path gain the online
Detour service (periodic probing, EWMA estimates, lowest-latency
choice) captures on a calm network.  With ``relays_per_pair`` at
``n_hosts - 2`` every other host is a candidate relay, so the
service's per-request oracle is the best of the direct path and every
single-relay route.
"""

import math

from conftest import run_once

from repro.service import DetourService, score_result


def test_overlay_gain_capture(benchmark):
    def run():
        service = DetourService(
            None,
            seed=51,
            n_hosts=15,
            n_pairs=20,
            duration_s=86_400.0,
            relays_per_pair=13,
        )
        return service.run("lowest-latency")

    result = run_once(benchmark, run)
    score = score_result(result)
    relayed = [
        r
        for r in result.records
        if r.relay is not None and not r.failed and math.isfinite(r.direct_rtt_ms)
    ]
    win_rate = sum(r.rtt_ms < r.direct_rtt_ms for r in relayed) / len(relayed)
    print(
        f"\ndirect {score.mean_direct_rtt_ms:.1f}ms  "
        f"chosen {score.mean_rtt_ms:.1f}ms  "
        f"oracle {score.mean_oracle_rtt_ms:.1f}ms  "
        f"deflect {score.deflection_rate:.0%}  "
        f"wins {win_rate:.0%}  "
        f"capture {score.gain_capture:.0%}"
    )
    assert score.mean_rtt_ms < score.mean_direct_rtt_ms
    assert score.gain_capture > 0.3
    assert win_rate > 0.5
