"""Score path-selection strategies against the paper's oracle alternates.

The evaluator runs every strategy on the *same*
:class:`~repro.service.detour.DetourService` — one environment replay
(topology segments, resolved legs, congestion tables) built by the first
run and shared by the rest, with identical probe draws and request
schedule per run — then condenses each run into a
:class:`StrategyScore` and renders the paper-style comparison table: how
much of the oracle detour gain (the offline best alternate the paper
computes post hoc) each online strategy actually recovered.

The table is a pure function of (plan, seed, strategies): CI replays it
byte-identically across runs, traced or not.  Wall-clock
throughput (queries/sec) is reported separately and never enters the
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import runtime as obs
from repro.service.detour import DetourService, ServiceResult
from repro.service.strategy import strategy_names


@dataclass(frozen=True, slots=True)
class StrategyScore:
    """One strategy's condensed performance over a service run.

    Attributes:
        strategy: Strategy name.
        requests: Requests served.
        failed: Requests served while every candidate was down.
        deflection_rate: Fraction of requests routed via a detour relay.
        mean_rtt_ms: Mean expected RTT of the chosen paths.
        mean_direct_rtt_ms: Mean expected RTT of the default BGP paths
            (over the same requests).
        mean_oracle_rtt_ms: Mean expected RTT of the oracle choice.
        gain_capture: Realized RTT improvement over the default path as
            a fraction of the oracle's improvement, over requests where
            the oracle beats the default (NaN when it never does).
        mean_loss: Mean expected loss probability of the chosen paths.
        mean_direct_loss: Mean expected loss of the default paths.
        mean_bandwidth_kbps: Mean last-measured transfer bandwidth of
            the chosen candidates (NaN before any transfer completed).
        queries_per_second: Wall-clock service throughput — reporting
            only, excluded from the deterministic table.
    """

    strategy: str
    requests: int
    failed: int
    deflection_rate: float
    mean_rtt_ms: float
    mean_direct_rtt_ms: float
    mean_oracle_rtt_ms: float
    gain_capture: float
    mean_loss: float
    mean_direct_loss: float
    mean_bandwidth_kbps: float
    queries_per_second: float


def score_result(result: ServiceResult) -> StrategyScore:
    """Condense one service run into a :class:`StrategyScore`."""
    records = result.records
    n = len(records)
    served = [r for r in records if not r.failed]
    comparable = [
        r
        for r in served
        if not math.isnan(r.direct_rtt_ms) and not math.isnan(r.oracle_rtt_ms)
    ]
    oracle_gain = sum(
        r.direct_rtt_ms - r.oracle_rtt_ms
        for r in comparable
        if r.oracle_rtt_ms < r.direct_rtt_ms
    )
    realized_gain = sum(
        r.direct_rtt_ms - r.rtt_ms
        for r in comparable
        if r.oracle_rtt_ms < r.direct_rtt_ms
    )
    measured_bw = [
        r.bandwidth_kbps for r in served if not math.isnan(r.bandwidth_kbps)
    ]
    return StrategyScore(
        strategy=result.strategy,
        requests=n,
        failed=sum(1 for r in records if r.failed),
        deflection_rate=(
            sum(1 for r in records if r.relay is not None) / n if n else 0.0
        ),
        mean_rtt_ms=_mean([r.rtt_ms for r in served]),
        mean_direct_rtt_ms=_mean(
            [r.direct_rtt_ms for r in served if not math.isnan(r.direct_rtt_ms)]
        ),
        mean_oracle_rtt_ms=_mean(
            [r.oracle_rtt_ms for r in served if not math.isnan(r.oracle_rtt_ms)]
        ),
        gain_capture=(
            realized_gain / oracle_gain if oracle_gain > 0.0 else math.nan
        ),
        mean_loss=_mean([r.loss for r in served]),
        mean_direct_loss=_mean(
            [r.direct_loss for r in served if not math.isnan(r.direct_rtt_ms)]
        ),
        mean_bandwidth_kbps=_mean(measured_bw),
        queries_per_second=result.queries_per_second,
    )


def _mean(values: list[float]) -> float:
    if not values:
        return math.nan
    return sum(values) / len(values)


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Strategy-vs-oracle comparison over one shared environment."""

    seed: int
    n_pairs: int
    horizon_s: float
    plan_spec: str
    scores: tuple[StrategyScore, ...]
    #: Pairs whose every candidate was still down when the horizon ended
    #: (environment-determined: identical across strategies).
    pairs_down_at_end: tuple[tuple[str, str], ...] = ()

    def render(self) -> str:
        """The deterministic comparison table (no wall-clock content)."""
        lines = [
            "Strategy-vs-oracle comparison",
            f"  seed: {self.seed}   pairs: {self.n_pairs}   "
            f"horizon: {self.horizon_s:g} s   "
            f"plan: {self.plan_spec or '(none)'}",
            "",
            "  strategy          reqs  fail  defl%   rtt ms   direct   oracle"
            "  capture%   loss%  dloss%     kB/s",
        ]
        for s in self.scores:
            lines.append(
                f"  {s.strategy:<16}"
                f"  {s.requests:4d}"
                f"  {s.failed:4d}"
                f"  {100.0 * s.deflection_rate:5.1f}"
                f"  {_fmt(s.mean_rtt_ms, 7, 1)}"
                f"  {_fmt(s.mean_direct_rtt_ms, 7, 1)}"
                f"  {_fmt(s.mean_oracle_rtt_ms, 7, 1)}"
                f"  {_fmt(100.0 * s.gain_capture, 8, 1)}"
                f"  {_fmt(100.0 * s.mean_loss, 6, 2)}"
                f"  {_fmt(100.0 * s.mean_direct_loss, 6, 2)}"
                f"  {_fmt(s.mean_bandwidth_kbps, 7, 1)}"
            )
        return "\n".join(lines)

    def timing_lines(self) -> list[str]:
        """Wall-clock throughput per strategy (reporting only)."""
        return [
            f"  {s.strategy:<16}  {s.queries_per_second:8.0f} queries/s"
            for s in self.scores
        ]


def _fmt(value: float, width: int, prec: int) -> str:
    if math.isnan(value):
        return "—".rjust(width)
    return f"{value:{width}.{prec}f}"


def evaluate_strategies(
    service: DetourService,
    strategies: tuple[str, ...] | list[str] | None = None,
) -> EvaluationReport:
    """Run every requested strategy over the shared service environment.

    Args:
        service: The shared environment and schedule every strategy runs
            on.
        strategies: Strategy names to score (default: all registered),
            evaluated in the given order.

    Raises:
        StrategyError: for an unknown strategy name.
    """
    names = list(strategies) if strategies is not None else list(strategy_names())
    scores: list[StrategyScore] = []
    dead: tuple[tuple[str, str], ...] = ()
    with obs.span("service.evaluate") as sp:
        sp.set("strategies", len(names))
        for name in names:
            result = service.run(name)
            dead = result.pairs_down_at_end
            scores.append(score_result(result))
    return EvaluationReport(
        seed=service.seed,
        n_pairs=len(service.pairs),
        horizon_s=service.horizon_s,
        plan_spec=service.plan.to_spec(),
        scores=tuple(scores),
        pairs_down_at_end=dead,
    )
