"""repro.scenario: deterministic network failure & what-if engine.

The scenario layer answers "what happens to the measured Internet when
the network itself changes": a :class:`~repro.scenario.plan.ScenarioPlan`
describes timed network events (link failures, AS outages, regional
exchange outages, flap storms, depeerings, new transit relationships), a
:class:`~repro.scenario.timeline.ScenarioTimeline` applies and reverts
them against a :class:`~repro.topology.network.Topology` at congestion
bucket boundaries, and a :class:`~repro.scenario.run.ScenarioRun` threads
the timeline through the measurement pipeline to produce a dataset plus a
disjoint-path availability report
(:mod:`repro.scenario.availability`).

Everything is a pure function of ``(plan, seed)``: replaying the same
scenario yields byte-identical datasets, traced or not (asserted in CI's
``whatif-replay`` step).  The clause grammar is shared
with :mod:`repro.faults.plan`; the clause registry lives in
``docs/SCENARIOS.md``.
"""

from repro.scenario.availability import (
    MRAI_S,
    AvailabilityReport,
    analyze_availability,
)
from repro.scenario.plan import (
    SCENARIO_KINDS,
    ScenarioEvent,
    ScenarioPlan,
    ScenarioPlanError,
)
from repro.scenario.run import ScenarioReport, ScenarioRun, StormFlapModel
from repro.scenario.timeline import ScenarioError, ScenarioTimeline

__all__ = [
    "MRAI_S",
    "AvailabilityReport",
    "SCENARIO_KINDS",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioPlan",
    "ScenarioPlanError",
    "ScenarioReport",
    "ScenarioRun",
    "ScenarioTimeline",
    "StormFlapModel",
    "analyze_availability",
]
