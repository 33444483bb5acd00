"""Runtime fault tolerance: escalation, step halving, degradation,
supervised pools.

The paper's analyses *break* on hostile inputs -- truncated inductance
matrices go non-passive, ill-scaled MNA systems defeat plain LU, long
sweeps die mid-run.  This package is the layer that keeps production
runs alive through all of that.  It handles the failures that occur:
a singular or non-finite solve escalates to the next rung, a transient
step that still fails is halved, a hung or killed worker is reissued.
It never re-runs the same deterministic solve, which would fail the
same way.

* :mod:`~repro.resilience.policy` -- :class:`ResiliencePolicy`, which
  escalation rungs are enabled (default from ``REPRO_RESILIENCE``), and
  the step-halving budget.
* :mod:`~repro.resilience.report` -- :class:`SolveReport` /
  :class:`RunReport`: structured records of every rescue taken.
* :mod:`~repro.resilience.faults` -- seeded fault injection into named
  solve sites (``REPRO_FAULTS=chaos-<seed>`` for CI chaos runs).
* :mod:`~repro.resilience.degrade` -- sparsifier fallback chain
  (requested -> block-diagonal -> dense) with logged downgrades.
* :mod:`~repro.resilience.supervisor` / :mod:`~repro.resilience.budget`
  -- :func:`supervised_map`, the one map every sweep runs through, and
  its supervised process pool: per-chunk deadlines from a sweep time
  budget, a hung/killed-worker watchdog with pool restarts, poison-point
  quarantine, and a pool-to-serial circuit breaker.

The escalation chain itself lives in
:class:`repro.circuit.linalg.ResilientFactorization`, next to the raw
factorization it wraps.
"""

from repro.resilience.degrade import DegradationError, sparsify_with_fallback
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    inject_faults,
)
from repro.resilience.policy import DEFAULT_POLICY, ResiliencePolicy, default_policy
from repro.resilience.report import (
    RunReport,
    SolveAttempt,
    SolveReport,
    activate,
    current_run_report,
)
from repro.resilience.budget import TimeBudget
from repro.resilience.supervisor import (
    SupervisionStats,
    Supervisor,
    SupervisorConfig,
    supervised_init,
    supervised_map,
)

__all__ = [
    "DegradationError",
    "sparsify_with_fallback",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "inject_faults",
    "DEFAULT_POLICY",
    "ResiliencePolicy",
    "default_policy",
    "RunReport",
    "SolveAttempt",
    "SolveReport",
    "activate",
    "current_run_report",
    "SupervisionStats",
    "Supervisor",
    "SupervisorConfig",
    "TimeBudget",
    "supervised_init",
    "supervised_map",
]
