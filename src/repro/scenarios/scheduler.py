"""Batch scheduler: map scenario evaluations over a supervised pool.

:func:`run_sweep` maps :func:`~repro.scenarios.runner.evaluate_scenario`
over the scenarios still to compute with
:func:`~repro.resilience.supervisor.supervised_map` (stage ``"sweep"``):

* at width 1 every scenario is evaluated in process; otherwise the
  scenario list is shipped to each worker once and contiguous chunks run
  under the :class:`~repro.resilience.supervisor.Supervisor`, whose
  workers ship their span trees, metrics and run reports home;
* every call makes one stage memo (see :mod:`repro.scenarios.runner`)
  and ships it with the scenario list, so each distinct geometry, loop
  extraction, sparsifier apply and transient runs once per process: in
  process at width 1, once per worker that meets it in a pool.  The
  memo is dropped when the sweep returns;
* records land in the result list **by index**, so a sharded sweep is
  bit-identical to the serial one regardless of worker count or
  completion order;
* a pool that cannot be created (sandbox, fd exhaustion, an injected
  ``"sweep.pool"`` fault) degrades to the serial path -- recorded as a
  downgrade, never a failure -- and a *running* pool gets chunk
  deadlines, restarts of hung or killed workers, poison scenarios
  bisected out and quarantined as ``status: "quarantined"`` records, and
  a circuit breaker that trips to the serial path after
  :data:`~repro.resilience.supervisor.MAX_POOL_RESTARTS` restarts;
* every completed record is persisted to the
  :class:`~repro.scenarios.store.ResultStore` as it lands (per-scenario
  checkpointing), and on the next run stored records are resumed instead
  of recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.report import RunReport
from repro.resilience.supervisor import SupervisorConfig, supervised_map
from repro.scenarios.runner import evaluate_scenario, quarantined_record
from repro.scenarios.spec import Scenario, SweepSpec
from repro.scenarios.store import ResultStore


@dataclass
class SweepResult:
    """Outcome of one sweep batch.

    Attributes:
        records: One record per scenario, in grid-expansion order.
        report: Batch-level resilience log (pool downgrades, resumes,
            supervision events).
        resumed: Scenarios served from the result store.
        computed: Scenarios evaluated this run.
    """

    records: list[dict]
    report: RunReport = field(default_factory=RunReport)
    resumed: int = 0
    computed: int = 0

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] == "failed")

    @property
    def quarantined(self) -> int:
        return sum(
            1 for r in self.records if r["status"] == "quarantined"
        )


def _evaluate(scenarios: list[Scenario], memo: dict, i: int) -> dict:
    return evaluate_scenario(scenarios[i], memo)


def run_sweep(
    spec: SweepSpec | list[Scenario],
    store: ResultStore | None = None,
    workers: int | None = None,
    resume: bool = True,
    chunk: int | None = None,
    report: RunReport | None = None,
    config: SupervisorConfig | None = None,
) -> SweepResult:
    """Run a scenario sweep, sharded over a process pool.

    Args:
        spec: A sweep spec (expanded in deterministic order) or an
            explicit scenario list.
        store: Optional result store; completed records are persisted as
            they land and (with ``resume``) served back on the next run.
        workers: Pool width
            (:func:`repro.resilience.supervisor.worker_count` resolution:
            argument, then ``REPRO_WORKERS``, then CPU count); 1 forces
            the serial path.
        resume: Serve scenarios already in ``store`` instead of
            recomputing them.
        chunk: Scenarios per chunk; default auto
            (:func:`~repro.resilience.supervisor.chunk_indices`).
        report: Batch-level run report to append to; default fresh.
        config: Supervision knobs (deadlines, time budget, restart
            budget, worker rlimit); default
            :meth:`SupervisorConfig.from_env`.

    Returns:
        The :class:`SweepResult`; ``records`` is ordered like the
        expanded grid and is identical for any worker count.
    """
    scenarios = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    name = spec.name if isinstance(spec, SweepSpec) else "scenarios"
    report = report if report is not None else RunReport()
    records: list[dict | None] = [None] * len(scenarios)

    with span("sweep.scenarios", batch=name, scenarios=len(scenarios)):
        resumed = 0
        if store is not None and resume:
            done_ids = store.completed()
            for i, sc in enumerate(scenarios):
                sid = sc.scenario_id
                if sid not in done_ids:
                    continue
                record = store.load(sid)
                if record is None:
                    continue  # corrupt record: recompute
                records[i] = record
                resumed += 1
            if resumed:
                obs_metrics.counter("sweep.scenarios.resumed").inc(resumed)
                report.record_resume(
                    "sweep",
                    f"{resumed}/{len(scenarios)} scenarios already in "
                    f"{store.directory}",
                )

        todo = np.array(
            [i for i, r in enumerate(records) if r is None], dtype=int
        )

        def finish(i: int, record: dict) -> None:
            records[i] = record
            if store is not None:
                store.store(record)

        supervised_map(
            partial(_evaluate, scenarios, {}),
            todo,
            stage="sweep",
            on_done=finish,
            # A poison scenario becomes a degraded record -- stored and
            # aggregated like any other, never a batch abort.
            quarantine=lambda i, reason: finish(
                i, quarantined_record(scenarios[i], reason)
            ),
            workers=workers,
            chunk=chunk,
            report=report,
            config=config,
        )

    return SweepResult(
        records=records,  # type: ignore[arg-type]  # all filled above
        report=report,
        resumed=resumed,
        computed=int(todo.size),
    )


__all__ = ["SweepResult", "run_sweep"]
