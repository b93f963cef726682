"""The stable high-level facade: :class:`ReproSession`.

One object covers the common workflow end to end::

    from repro import ReproSession

    session = ReproSession(seed=1999, scale=0.1)
    datasets = session.build(only=["UW3"])      # provision (cached)
    result = session.analyze("UW3")             # alternate-path analysis
    artifacts = session.reproduce(only={"table1"})
    print(session.report.summary())             # last build's report

With ``trace=True`` every call runs under one session-wide capture
(:mod:`repro.obs`), so spans from build/analyze/reproduce accumulate
into a single :class:`~repro.obs.artifact.RunTrace`::

    session = ReproSession(seed=1999, scale=0.05, trace=True)
    session.build()
    session.save_trace("out.json")              # + metrics.json sidecar

The facade wraps :func:`repro.experiments.runner.provision_datasets`,
:func:`repro.core.analyze`, and :func:`repro.experiments.reproduce.run_all`;
those remain public for callers that need the full keyword surface.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from contextlib import contextmanager, nullcontext

from repro.obs import runtime as obs
from repro.obs.artifact import RunTrace, write_run_trace
from repro.obs.metrics import Metrics
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.core import AnalysisResult, Metric
    from repro.datasets import BuildConfig, BuildReport, Dataset


class ReproSession:
    """A seeded, scaled reproduction session with optional tracing.

    Args:
        seed: Master seed; every derived artifact is deterministic in it.
        scale: Fraction of the paper's 7-day collection to simulate.
        jobs: Dataset build worker processes (default: one per CPU).
        trace: Accumulate spans/metrics across all calls on this session;
            read them back with :meth:`trace` or :meth:`save_trace`.
        use_cache: Read/write the on-disk dataset cache.
    """

    def __init__(
        self,
        seed: int = 1999,
        scale: float = 1.0,
        *,
        jobs: int | None = None,
        trace: bool = False,
        use_cache: bool = True,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.jobs = jobs
        self.use_cache = use_cache
        self._tracing = trace
        self._tracer = Tracer() if trace else None
        self._metrics = Metrics() if trace else None
        self._datasets: dict[str, "Dataset"] = {}
        self._report: "BuildReport | None" = None

    def __repr__(self) -> str:
        return (
            f"ReproSession(seed={self.seed}, scale={self.scale}, "
            f"jobs={self.jobs}, trace={self._tracing}, "
            f"use_cache={self.use_cache})"
        )

    @property
    def config(self) -> "BuildConfig":
        """The session's :class:`~repro.datasets.BuildConfig`."""
        from repro.datasets import BuildConfig

        return BuildConfig(seed=self.seed, scale=self.scale)

    @property
    def report(self) -> "BuildReport | None":
        """The most recent build's report, or None before any build."""
        return self._report

    @contextmanager
    def _observed(self) -> Iterator[None]:
        """Run a method under the session's capture (no-op when untraced)."""
        if self._tracer is None or self._metrics is None:
            ctx = nullcontext()
        else:
            ctx = obs.activate(self._tracer, self._metrics)
        with ctx:
            yield

    # -- pipeline stages ---------------------------------------------------

    def build(
        self,
        only: Sequence[str] | None = None,
        **kwargs,
    ) -> dict[str, "Dataset"]:
        """Provision Table 1 datasets (cached); returns name -> Dataset.

        Args:
            only: Dataset names to provision (default: all of Table 1);
                whole build groups are the unit, so siblings come along.
            **kwargs: Forwarded to
                :func:`repro.experiments.runner.provision_datasets`
                (``fault_plan``, ``build_timeout``, ``keep_going``, ...).
        """
        from repro.datasets import BuildReport
        from repro.experiments.runner import provision_datasets

        report = kwargs.pop("report", None) or BuildReport()
        with self._observed():
            datasets = provision_datasets(
                self.config,
                use_cache=kwargs.pop("use_cache", self.use_cache),
                jobs=kwargs.pop("jobs", self.jobs),
                report=report,
                only=only,
                **kwargs,
            )
        self._report = report
        self._datasets.update(datasets)
        return datasets

    def dataset(self, name: str) -> "Dataset":
        """One named dataset, building its group on first access."""
        if name not in self._datasets:
            self.build(only=[name])
        return self._datasets[name]

    def analyze(
        self,
        dataset: "str | Dataset" = "UW3",
        metric: "Metric | str" = "rtt",
        *,
        min_samples: int | None = None,
        **kwargs,
    ) -> "AnalysisResult":
        """Alternate-path analysis of one dataset under one metric.

        Bandwidth follows ``repro analyze``: it runs
        :func:`repro.core.analyze_bandwidth` under the pessimistic loss
        composition unless ``composition=`` names another.

        Args:
            dataset: A Table 1 dataset name (built on demand) or an
                already-built :class:`~repro.datasets.Dataset`.
            metric: A :class:`~repro.core.Metric` or its string value.
            min_samples: Per-pair sample floor; defaults to the paper's
                30 scaled by the session's ``scale`` (floor 4), and for
                bandwidth to :func:`~repro.core.analyze_bandwidth`'s own.
            **kwargs: Forwarded to :func:`repro.core.analyze`, or for
                bandwidth to :func:`repro.core.analyze_bandwidth`.
        """
        from repro.core import LossComposition, Metric, analyze, analyze_bandwidth

        target = self.dataset(dataset) if isinstance(dataset, str) else dataset
        metric = Metric(metric)
        with self._observed():
            if metric is Metric.BANDWIDTH:
                composition = LossComposition(
                    kwargs.pop("composition", LossComposition.PESSIMISTIC)
                )
                if min_samples is not None:
                    kwargs["min_samples"] = min_samples
                return analyze_bandwidth(target, composition, **kwargs)
            if min_samples is None:
                min_samples = max(4, int(round(30 * self.scale)))
            return analyze(target, metric, min_samples=min_samples, **kwargs)

    def reproduce(self, only: "set[str] | None" = None, **kwargs) -> dict:
        """Regenerate the paper's tables/figures; returns name -> artifact.

        Args:
            only: Artifact names (``table1`` ... ``figure16``) to run;
                default all.
            **kwargs: Forwarded to
                :func:`repro.experiments.reproduce.run_all`.
        """
        from repro.experiments.reproduce import run_all
        from repro.experiments.runner import last_build_report

        with self._observed():
            artifacts = run_all(
                self.scale,
                self.seed,
                only,
                jobs=kwargs.pop("jobs", self.jobs),
                **kwargs,
            )
        self._report = last_build_report()
        return artifacts

    def whatif(self, plan: str = "", *, n_hosts: int = 12, **kwargs):
        """Run a network-failure scenario; returns (dataset, report).

        Args:
            plan: A scenario spec string (clauses joined with ``;``, e.g.
                ``"link-down:6-11:at=600:for=900"``) or an already-parsed
                :class:`~repro.scenario.plan.ScenarioPlan`.  Empty = a
                plain measurement run on a calm network.
            n_hosts: Measurement host pool size.
            **kwargs: Forwarded to
                :class:`~repro.scenario.run.ScenarioRun`
                (``mean_interval_s``, ``trailing_buckets``, ``scale``).

        Raises:
            ScenarioPlanError: for a malformed spec string.
        """
        from repro.scenario import ScenarioPlan, ScenarioRun

        parsed = ScenarioPlan.parse(plan) if isinstance(plan, str) else plan
        with self._observed():
            run = ScenarioRun(
                parsed, seed=self.seed, n_hosts=n_hosts, **kwargs
            )
            return run.execute()

    def serve(
        self,
        strategies: Sequence[str] | None = None,
        *,
        plan: str = "",
        n_hosts: int = 12,
        n_pairs: int = 6,
        **kwargs,
    ):
        """Run the online Detour service; returns an EvaluationReport.

        Every strategy replays the identical environment (topology,
        scenario timeline, probe draws, request schedule), so the
        resulting :class:`~repro.service.evaluate.EvaluationReport`
        table compares them — and the paper's oracle alternates —
        apples to apples.

        Args:
            strategies: Strategy names to evaluate in order (default:
                every registered strategy; see
                :func:`repro.service.strategy_names`).
            plan: Scenario spec string or parsed
                :class:`~repro.scenario.plan.ScenarioPlan` driving
                failover events (empty = calm network).
            n_hosts: Measurement host pool size.
            n_pairs: Number of (src, dst) client pairs to serve.
            **kwargs: Forwarded to
                :class:`~repro.service.DetourService` (``duration_s``,
                ``probe_interval_s``, ``relays_per_pair``, ...).

        Raises:
            ScenarioPlanError: for a malformed spec string.
            StrategyError: for an unknown strategy name.
            ServiceError: for invalid service parameters.
        """
        from repro.scenario import ScenarioPlan
        from repro.service import DetourService, evaluate_strategies

        parsed = ScenarioPlan.parse(plan) if isinstance(plan, str) else plan
        with self._observed():
            service = DetourService(
                parsed,
                seed=self.seed,
                n_hosts=n_hosts,
                n_pairs=n_pairs,
                **kwargs,
            )
            return evaluate_strategies(
                service,
                tuple(strategies) if strategies is not None else None,
            )

    # -- observability -----------------------------------------------------

    @property
    def tracing(self) -> bool:
        """Whether this session records spans and metrics."""
        return self._tracing

    def trace(self) -> RunTrace:
        """The session's capture so far, frozen into a :class:`RunTrace`.

        Raises:
            ValueError: the session was created with ``trace=False``.
        """
        if self._tracer is None or self._metrics is None:
            raise ValueError(
                "session was created with trace=False; "
                "use ReproSession(..., trace=True)"
            )
        return RunTrace(
            meta=self._meta(),
            spans=self._tracer.export(),
            metrics=self._metrics.export(),
        )

    def save_trace(self, path: "str | Path") -> "tuple[Path, Path]":
        """Write the RunTrace JSON plus its ``metrics.json`` sidecar.

        Returns (trace_path, metrics_path).

        Raises:
            ValueError: the session was created with ``trace=False``.
        """
        if self._tracer is None or self._metrics is None:
            raise ValueError(
                "session was created with trace=False; "
                "use ReproSession(..., trace=True)"
            )
        cap = obs.Capture(self._tracer, self._metrics)
        return write_run_trace(cap, self._meta(), path)

    def _meta(self) -> dict:
        return {
            "command": "session",
            "seed": self.seed,
            "scale": self.scale,
            "jobs": self.jobs,
        }
