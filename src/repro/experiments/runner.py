"""Dataset provisioning for experiments and benchmarks.

Building the full Table 1 suite takes tens of seconds, so built datasets
are cached on disk (JSONL), one file per dataset, keyed by (seed, scale).
Benchmarks and the figure/table reproductions all obtain their data
through :func:`provision_datasets` (or the :class:`repro.api.ReproSession`
facade).

Pipeline shape:

* **Per-dataset cache** — each dataset has its own file under
  ``<cache>/seed<seed>-scale<scale>/<name>.jsonl``; a missing, truncated,
  or schema-stale file invalidates only its *build group* (see
  :data:`repro.datasets.builders.BUILD_GROUPS`), not the whole suite.
* **Supervised parallel builds** — stale groups fan out across a
  ``ProcessPoolExecutor`` under the fault-tolerant
  :class:`~repro.faults.supervisor.BuildSupervisor`: per-group retry
  with deterministic seed-derived backoff, per-attempt deadlines
  (``--build-timeout`` / :data:`TIMEOUT_ENV_VAR`), and automatic serial
  fallback when a worker dies (``BrokenProcessPool``).  Every group
  builder is seed-deterministic and depends only on its ``BuildConfig``,
  so serial, parallel, and retried builds yield bit-identical datasets.
* **Crash safety** — saves are atomic (write-then-rename with a record
  count trailer, :mod:`repro.datasets.io`), verified structurally after
  each write, and re-done if damaged; unreadable cache files are
  quarantined (renamed to ``<name>.corrupt-<contenthash>``) instead of
  being re-parsed forever; rebuilds hold a stale-lock-safe single-writer
  lock per suite directory so concurrent runs cannot race.
* **Resume** — a :class:`~repro.faults.supervisor.RunLedger`
  (``run-ledger.json``) journals each completed group so
  ``repro suite --resume`` after an interrupted run skips straight to
  the unfinished groups.
* **Fault injection** — a deterministic
  :class:`~repro.faults.plan.FaultPlan` (``--fault-plan`` /
  ``REPRO_FAULT_PLAN``) replays exact failure schedules through the
  same code paths; see docs/ROBUSTNESS.md.
* **Instrumentation** — pass a
  :class:`~repro.datasets.instrumentation.BuildReport` to collect
  per-phase timings, cache hit/miss counters, and the resilience trail
  (retries, quarantines, failures, resumes); the most recent report is
  also kept in :func:`last_build_report`.

With ``keep_going=True`` a group that exhausts its retry budget leaves
its datasets out of the returned mapping instead of raising
:class:`~repro.faults.supervisor.BuildFailure`; callers surface the gap
(the CLI marks missing datasets and exits 3).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Sequence

from repro.datasets.builders import (
    BUILD_GROUPS,
    BuildConfig,
    build_group,
    table1_order,
)
from repro.datasets.dataset import Dataset
from repro.datasets.instrumentation import (
    BuildEvent,
    BuildReport,
    ProgressHook,
    null_progress,
)
from repro.datasets.io import (
    CacheLock,
    DatasetIOError,
    load_dataset,
    save_dataset,
    verify_dataset_file,
)
from repro.faults import injection
from repro.faults.plan import FaultPlan
from repro.obs import clock
from repro.obs import runtime as obs
from repro.faults.supervisor import (
    BuildFailure,
    BuildSupervisor,
    RetryPolicy,
    RunLedger,
)

#: Default on-disk cache root; override with the REPRO_CACHE_DIR env var.
DEFAULT_CACHE_DIR = Path(".repro-cache")

#: Scale used by default for experiment regeneration.  Full scale (1.0)
#: reproduces Table 1's measurement counts; benchmarks may use less.
DEFAULT_SCALE = 1.0

#: Environment variable overriding the number of build worker processes.
JOBS_ENV_VAR = "REPRO_BUILD_JOBS"

#: Environment variable setting the per-attempt group build deadline (s).
TIMEOUT_ENV_VAR = "REPRO_BUILD_TIMEOUT"

#: File name of the per-suite completion journal (see RunLedger).
LEDGER_NAME = "run-ledger.json"

#: Default retry budget per build group (first attempt included).
DEFAULT_MAX_ATTEMPTS = 3

#: The most recent provisioning report (diagnostics; see build_summary).
_last_report: BuildReport | None = None


def cache_dir() -> Path:
    """The dataset cache root (created on demand)."""
    root = Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _suite_dir(config: BuildConfig) -> Path:
    return cache_dir() / f"seed{config.seed}-scale{config.scale:g}"


def dataset_cache_path(name: str, config: BuildConfig | None = None) -> Path:
    """The cache file backing one dataset for one build config."""
    cfg = config or BuildConfig(scale=DEFAULT_SCALE)
    return _suite_dir(cfg) / f"{name}.jsonl"


def resolve_jobs(jobs: int | None, n_tasks: int) -> int:
    """Worker-process count for ``n_tasks`` parallel group builds.

    Precedence: explicit ``jobs`` argument, then the ``REPRO_BUILD_JOBS``
    environment variable, then ``min(n_tasks, cpu_count)``.  Values are
    clamped to ``[1, n_tasks]``; 1 means build in-process.
    """
    if n_tasks <= 0:
        return 1
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


def resolve_build_timeout(timeout_s: float | None) -> float | None:
    """Per-attempt group build deadline: argument, else env var, else None."""
    if timeout_s is None:
        env = os.environ.get(TIMEOUT_ENV_VAR)
        if env is None or not env.strip():
            return None
        try:
            timeout_s = float(env)
        except ValueError:
            raise ValueError(
                f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {env!r}"
            ) from None
    if timeout_s <= 0:
        raise ValueError(f"build timeout must be > 0 seconds, got {timeout_s}")
    return timeout_s


def _resolve_plan(fault_plan: FaultPlan | str | None) -> FaultPlan | None:
    """Normalize the fault-plan argument (str spec, object, or env var).

    Raises:
        FaultPlanError: on a malformed spec (CLI maps this to exit 2).
    """
    if fault_plan is None:
        return FaultPlan.from_env()
    if isinstance(fault_plan, FaultPlan):
        return fault_plan
    return FaultPlan.parse(fault_plan)


def _build_group_task(
    group: str, attempt: int, plan_spec: str, cfg: BuildConfig,
    trace: bool = False,
) -> tuple[dict[str, Dataset], BuildEvent, dict | None]:
    """Supervisor task: build one group, timing it where it runs.

    Runs in pool workers and (for serial fallback) in the coordinating
    process; the fault plan and attempt number arrive as arguments so an
    injected failure schedule replays identically in either place.  When
    the coordinator is tracing, ``trace=True`` makes the task run under
    a *fresh* obs capture (pool workers inherit the parent's capture via
    fork; swapping it out keeps worker spans separate) and return the
    exported blob for the coordinator to graft — so serial and parallel
    builds produce identically-shaped traces.
    """
    plan = FaultPlan.parse(plan_spec) if plan_spec else None
    blob: dict | None = None
    if trace:
        with obs.capture() as cap:
            with obs.span("datasets.build") as sp:
                sp.set("group", group)
                sp.set("attempt", attempt)
                obs.count("datasets.builds")
                with injection.activate(plan), injection.attempt_scope(attempt):
                    start = clock.now()
                    datasets = build_group(group, cfg)
                    duration = clock.now() - start
        blob = cap.blob()
    else:
        with injection.activate(plan), injection.attempt_scope(attempt):
            start = clock.now()
            datasets = build_group(group, cfg)
            duration = clock.now() - start
    event = BuildEvent(
        label=f"{group} -> {'+'.join(BUILD_GROUPS[group])}",
        phase="build",
        duration_s=duration,
        worker_pid=os.getpid(),
    )
    return datasets, event, blob


def _quarantine_cache_file(
    path: Path, name: str, reason: str, report: BuildReport
) -> None:
    """Rename an unreadable cache file to ``<name>.corrupt-<contenthash>``.

    Quarantining (instead of deleting or re-parsing on every run) keeps
    the evidence for post-mortems while guaranteeing the next probe sees
    a plain cache miss.  Racing processes may quarantine concurrently;
    losing the race is indistinguishable from the file having vanished.
    """
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        target = path.with_name(f"{path.name}.corrupt-{digest}")
        os.replace(path, target)
    except OSError:
        return  # vanished or unreadable: nothing left to quarantine
    report.quarantine(name, target.name, reason)


def _probe_cache(
    suite: Path,
    report: BuildReport,
    groups: dict[str, tuple[str, ...]] | None = None,
    *,
    counted: bool = True,
) -> tuple[dict[str, Dataset], list[str]]:
    """Load every valid cached dataset; return (loaded, stale groups).

    A dataset whose file is missing marks its whole build group stale
    (the group is the smallest rebuildable unit); an *unreadable* file
    (truncated, garbled, schema-stale) is additionally quarantined so it
    is never re-parsed on subsequent runs.  Datasets from other groups
    stay served from cache.  ``counted=False`` suppresses the obs
    hit/miss counters (used by the post-lock re-probe so counters
    reflect the first probe only).
    """
    loaded: dict[str, Dataset] = {}
    stale: list[str] = []
    with obs.span("datasets.cache.probe") as psp:
        for group, names in (groups or BUILD_GROUPS).items():
            for name in names:
                path = suite / f"{name}.jsonl"
                start = clock.now()
                try:
                    with obs.span("datasets.load") as sp:
                        sp.set("dataset", name)
                        dataset = load_dataset(path)
                except FileNotFoundError:
                    report.miss(name)
                    if counted:
                        obs.count("datasets.cache.misses")
                    if group not in stale:
                        stale.append(group)
                except (OSError, DatasetIOError) as exc:
                    _quarantine_cache_file(path, name, str(exc), report)
                    report.miss(name)
                    if counted:
                        obs.count("datasets.cache.misses")
                        obs.count("datasets.cache.quarantines")
                    if group not in stale:
                        stale.append(group)
                else:
                    report.record(name, "load", clock.now() - start)
                    report.hit(name)
                    if counted:
                        obs.count("datasets.cache.hits")
                    loaded[name] = dataset
        psp.set("hits", len(loaded))
        psp.set("stale_groups", len(stale))
    return loaded, stale


def _save_verified(
    dataset: Dataset,
    path: Path,
    name: str,
    *,
    policy: RetryPolicy,
    report: BuildReport,
    progress: ProgressHook,
) -> str | None:
    """Atomically save ``dataset`` and structurally verify the file.

    A damaged write (torn by the OS, or corrupted by an injected
    ``io.save`` fault) is quarantined and re-done up to the policy's
    attempt budget.  Returns None on success, else the failure reason.
    """
    reason = "save never attempted"
    for attempt in range(policy.max_attempts):
        with injection.attempt_scope(attempt):
            with report.timed(name, "save"):
                save_dataset(dataset, path)
        try:
            with report.timed(name, "verify"):
                verify_dataset_file(path)
        except DatasetIOError as exc:
            reason = f"save verification failed: {exc}"
            _quarantine_cache_file(path, name, reason, report)
            if attempt + 1 < policy.max_attempts:
                report.retry(name, reason)
                progress(f"{name}: {reason}; re-saving")
            continue
        return None
    return reason


def _groups_for(only: Sequence[str] | None) -> dict[str, tuple[str, ...]]:
    """The BUILD_GROUPS subset covering the requested dataset names.

    Raises:
        KeyError: for names outside Table 1.
    """
    if only is None:
        return dict(BUILD_GROUPS)
    wanted = set(only)
    unknown = wanted - set(table1_order())
    if unknown:
        raise KeyError(
            f"unknown dataset name(s) {sorted(unknown)}; "
            f"choose from {table1_order()}"
        )
    return {
        group: names
        for group, names in BUILD_GROUPS.items()
        if wanted & set(names)
    }


def provision_datasets(
    config: BuildConfig | None = None,
    *,
    use_cache: bool = True,
    jobs: int | None = None,
    report: BuildReport | None = None,
    progress: ProgressHook | None = None,
    fault_plan: FaultPlan | str | None = None,
    build_timeout: float | None = None,
    max_attempts: int | None = None,
    keep_going: bool = False,
    resume: bool = False,
    only: Sequence[str] | None = None,
) -> dict[str, Dataset]:
    """All Table 1 datasets for the given build config, cached on disk.

    Args:
        config: Build parameters (seed, scale); defaults to the canonical
            full-scale build.
        use_cache: Read/write the on-disk cache (set False to force a
            rebuild without touching the cache).
        jobs: Build worker processes for stale groups (default: the
            ``REPRO_BUILD_JOBS`` env var, else one per CPU; 1 = build
            in-process).
        report: Optional instrumentation sink for per-phase timings,
            cache counters, and the resilience trail.
        progress: Optional hook receiving human-readable status lines.
        fault_plan: Deterministic fault plan (object or spec string);
            None falls back to the ``REPRO_FAULT_PLAN`` env var.
        build_timeout: Per-attempt group build deadline in seconds; None
            falls back to ``REPRO_BUILD_TIMEOUT``, else unbounded.
        max_attempts: Retry budget per group (default 3).
        keep_going: On retry exhaustion, return the datasets that did
            build (missing names omitted) instead of raising.
        resume: Consult the suite's run ledger and report groups already
            completed by a prior interrupted run.
        only: Dataset names to provision (default: all of Table 1).  The
            build group is the smallest buildable unit, so every dataset
            of each covering group is returned.

    Raises:
        BuildFailure: a group exhausted its retries and ``keep_going``
            is False.
        FaultPlanError: ``fault_plan`` (or the env var) is malformed.
        KeyError: ``only`` names a dataset outside Table 1.
    """
    global _last_report
    cfg = config or BuildConfig(scale=DEFAULT_SCALE)
    rep = report if report is not None else BuildReport()
    _last_report = rep
    prog = progress if progress is not None else null_progress
    plan = _resolve_plan(fault_plan)
    policy = RetryPolicy(
        max_attempts=max_attempts if max_attempts is not None else DEFAULT_MAX_ATTEMPTS,
        timeout_s=resolve_build_timeout(build_timeout),
        seed=cfg.seed,
    )
    groups = _groups_for(only)
    names = [n for n in table1_order() if any(n in g for g in groups.values())]
    with obs.span("datasets.provision") as sp:
        sp.set("seed", cfg.seed)
        sp.set("scale", cfg.scale)
        sp.set("cached", use_cache)
        sp.set("datasets", len(names))
        with injection.activate(plan):
            if not use_cache:
                loaded, failures = _build_uncached(
                    cfg, groups, policy=policy, plan=plan, jobs=jobs,
                    report=rep, progress=prog,
                )
            else:
                loaded, failures = _build_cached(
                    cfg,
                    groups,
                    policy=policy,
                    plan=plan,
                    jobs=jobs,
                    report=rep,
                    progress=prog,
                    resume=resume,
                    keep_going=keep_going,
                )
    if failures and not keep_going:
        raise BuildFailure(failures)
    return {name: loaded[name] for name in names if name in loaded}


def _build_uncached(
    cfg: BuildConfig,
    groups: dict[str, tuple[str, ...]],
    *,
    policy: RetryPolicy,
    plan: FaultPlan | None,
    jobs: int | None,
    report: BuildReport,
    progress: ProgressHook,
) -> tuple[dict[str, Dataset], dict[str, str]]:
    """Build every group under supervision without touching the cache."""
    labels = list(groups)
    n_jobs = resolve_jobs(jobs, len(labels))
    progress(
        f"building {len(labels)} dataset group(s) across {n_jobs} worker(s) ..."
    )
    supervisor = BuildSupervisor(policy, plan=plan)
    loaded: dict[str, Dataset] = {}

    def on_success(group: str, payload: object) -> None:
        datasets, event, blob = payload
        obs.graft(blob)
        report.extend([event])
        progress(f"built {group} ({event.duration_s:.1f}s)")
        loaded.update(datasets)

    result = supervisor.run(
        _build_group_task,
        labels,
        (cfg, obs.enabled()),
        jobs=n_jobs,
        report=report,
        progress=progress,
        on_success=on_success,
    )
    return loaded, result.failures


def _build_cached(
    cfg: BuildConfig,
    groups: dict[str, tuple[str, ...]],
    *,
    policy: RetryPolicy,
    plan: FaultPlan | None,
    jobs: int | None,
    report: BuildReport,
    progress: ProgressHook,
    resume: bool,
    keep_going: bool,
) -> tuple[dict[str, Dataset], dict[str, str]]:
    """Serve the suite from cache, rebuilding stale groups under a lock."""
    suite = _suite_dir(cfg)
    ledger = RunLedger(suite / LEDGER_NAME, seed=cfg.seed, scale=cfg.scale)
    loaded, stale = _probe_cache(suite, report, groups)
    if resume:
        for group in sorted(ledger.completed()):
            group_names = groups.get(group, ())
            if group_names and group not in stale and all(
                name in loaded for name in group_names
            ):
                report.resume_group(group)
            elif group in stale:
                report.fault(
                    f"ledger marks {group} complete but its cache is stale; "
                    "rebuilding"
                )
    if not stale:
        progress(f"all {len(loaded)} datasets served from cache ({suite})")
        return loaded, {}
    suite.mkdir(parents=True, exist_ok=True)
    failures: dict[str, str] = {}
    lock = CacheLock(suite)
    lock_start = clock.now()
    with lock:
        waited = clock.now() - lock_start
        if waited > 0.1:
            report.record(suite.name, "lock-wait", waited)
            obs.observe("datasets.lock_wait_s", waited)
        # Another writer may have filled (part of) the cache while we
        # waited for the lock; probe again so we only rebuild what is
        # still stale.
        recheck = BuildReport()
        loaded2, stale = _probe_cache(suite, recheck, groups, counted=False)
        loaded.update(loaded2)
        # Datasets another writer produced while we waited count as hits.
        for name in loaded2:
            if name in report.cache_misses:
                report.cache_misses.remove(name)
                report.hit(name)
        if stale:
            ledger.clear(stale)
            # Cache files that were valid before the rebuild keep serving
            # reads; only datasets whose files were stale get saved, so an
            # invalidated dataset never touches its siblings' files.
            valid_before = set(loaded2)
            n_jobs = resolve_jobs(jobs, len(stale))
            progress(
                f"rebuilding {len(stale)} stale group(s) across "
                f"{n_jobs} worker(s) ..."
            )
            supervisor = BuildSupervisor(policy, plan=plan)

            def on_success(group: str, payload: object) -> None:
                datasets, event, blob = payload
                obs.graft(blob)
                report.extend([event])
                progress(f"built {group} ({event.duration_s:.1f}s)")
                saved: list[str] = []
                for name in groups[group]:
                    ds = datasets[name]
                    if name in valid_before:
                        loaded[name] = ds
                        saved.append(name)
                        continue
                    reason = _save_verified(
                        ds,
                        suite / f"{name}.jsonl",
                        name,
                        policy=policy,
                        report=report,
                        progress=progress,
                    )
                    if reason is None:
                        loaded[name] = ds
                        saved.append(name)
                        continue
                    report.fail_group(group, reason)
                    if not keep_going:
                        raise BuildFailure({group: reason})
                    failures[group] = reason
                if len(saved) == len(groups[group]):
                    ledger.mark(group, saved)

            result = supervisor.run(
                _build_group_task,
                stale,
                (cfg, obs.enabled()),
                jobs=n_jobs,
                report=report,
                progress=progress,
                on_success=on_success,
            )
            failures.update(result.failures)
    return loaded, failures


def provision_dataset(
    name: str,
    config: BuildConfig | None = None,
    *,
    use_cache: bool = True,
    jobs: int | None = None,
) -> Dataset:
    """One named dataset from the suite (builds only its group).

    Raises:
        KeyError: for names outside Table 1.
    """
    datasets = provision_datasets(
        config, use_cache=use_cache, jobs=jobs, only=[name]
    )
    return datasets[name]


def last_build_report() -> BuildReport | None:
    """The report from the most recent :func:`provision_datasets` call."""
    return _last_report


def build_summary() -> str:
    """Human-readable summary of the most recent provisioning call."""
    if _last_report is None:
        return "no dataset provisioning has run in this process"
    return _last_report.summary()
