"""Structured records of what the fault-tolerance layer actually did.

Two granularities:

* :class:`SolveReport` -- one linear solve: which escalation rungs were
  tried, why each failed, condition estimates, and which rung won.
* :class:`RunReport` -- one analysis run (a transient, a flow, a sweep):
  step halvings, sparsifier/reduction downgrades, resumed scenarios,
  supervision events, and any solve reports that needed escalation.

A run report can be *activated* for the current thread; solver internals
attach their escalation records to the active report without every call
site having to thread it through.  Activation nests (the inner report
wins) and is exception-safe.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator


@dataclass
class SolveAttempt:
    """One escalation rung's outcome inside a single linear solve.

    Attributes:
        rung: Rung name (``"lu"``, ``"equilibrated"``, ``"gmin"``,
            ``"lstsq"``).
        ok: Whether this rung produced an accepted solution.
        error: Failure description when ``ok`` is False.
        condition_estimate: Cheap condition estimate from the rung's
            factorization (max/min ``|diag(U)|``); None when the
            factorization itself failed.
        residual: Relative residual of the accepted/checked solution
            against the *original* matrix, when the rung computes one.
    """

    rung: str
    ok: bool
    error: str = ""
    condition_estimate: float | None = None
    residual: float | None = None


@dataclass
class SolveReport:
    """Escalation trace of one linear solve site.

    Attributes:
        site: Dotted solve-site name (``"transient"``, ``"dc.newton"``).
        attempts: Rung attempts in the order they were tried.
    """

    site: str
    attempts: list[SolveAttempt] = field(default_factory=list)

    def record(self, attempt: SolveAttempt) -> None:
        self.attempts.append(attempt)

    @property
    def winner(self) -> str | None:
        """Name of the rung that produced the accepted solution."""
        for attempt in reversed(self.attempts):
            if attempt.ok:
                return attempt.rung
        return None

    @property
    def escalated(self) -> bool:
        """True when the first rung did not win outright."""
        return self.winner is not None and (
            len(self.attempts) > 1 or self.attempts[0].rung != self.winner
        )

    @property
    def failed(self) -> bool:
        return self.winner is None and bool(self.attempts)

    def format(self) -> str:
        parts = []
        for a in self.attempts:
            status = "ok" if a.ok else f"failed ({a.error})"
            extra = ""
            if a.condition_estimate is not None:
                extra += f", cond~{a.condition_estimate:.2e}"
            if a.residual is not None:
                extra += f", resid {a.residual:.2e}"
            parts.append(f"{a.rung}: {status}{extra}")
        return f"[{self.site}] " + "; ".join(parts) if parts else f"[{self.site}] (no attempts)"


@dataclass
class RunEvent:
    """One noteworthy resilience action during a run.

    Attributes:
        kind: ``"downgrade"`` / ``"step-halving"`` / ``"resume"`` /
            ``"source-stepping"``, plus the supervision
            kinds ``"timeout"`` / ``"worker-lost"`` / ``"restart"`` /
            ``"bisect"`` / ``"quarantine"`` / ``"breaker"`` /
            ``"budget-exhausted"``.
        stage: Where it happened (``"sparsify"``, ``"transient"``, ...).
        detail: Human-readable specifics.
        span: Open-span path at recording time (``"flow.peec/flow.solve/
            circuit.transient"``), tying the event to the trace tree;
            empty outside any span.
    """

    kind: str
    stage: str
    detail: str
    span: str = ""

    def format(self) -> str:
        where = f" @ {self.span}" if self.span else ""
        return f"{self.kind} [{self.stage}] {self.detail}{where}"


class RunReport:
    """Resilience log of one analysis run.

    Collects :class:`RunEvent` records plus any :class:`SolveReport` that
    needed more than its first rung.  Analyses attach their report to the
    result object; flows aggregate one per model flavor.
    """

    def __init__(self) -> None:
        self.events: list[RunEvent] = []
        self.solve_reports: list[SolveReport] = []

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, stage: str, detail: str) -> None:
        from repro.obs.trace import current_span_path

        self.events.append(
            RunEvent(
                kind=kind, stage=stage, detail=detail,
                span=current_span_path(),
            )
        )

    def record_downgrade(self, stage: str, from_: str, to: str, reason: str) -> None:
        self.record("downgrade", stage, f"{from_} -> {to}: {reason}")

    def record_step_halving(self, stage: str, detail: str) -> None:
        self.record("step-halving", stage, detail)

    def record_resume(self, stage: str, detail: str) -> None:
        self.record("resume", stage, detail)

    def record_timeout(self, stage: str, detail: str) -> None:
        self.record("timeout", stage, detail)

    def record_restart(self, stage: str, detail: str) -> None:
        self.record("restart", stage, detail)

    def record_quarantine(self, stage: str, detail: str) -> None:
        self.record("quarantine", stage, detail)

    def record_breaker(self, stage: str, detail: str) -> None:
        self.record("breaker", stage, detail)

    def attach_solve_report(self, report: SolveReport) -> None:
        self.solve_reports.append(report)

    def merge(self, other: "RunReport") -> None:
        """Fold in a report recorded elsewhere (a pool worker's chunk).

        Its events' span paths are re-rooted under the span open here,
        where the worker's span tree is grafted too.
        """
        from repro.obs.trace import current_span_path

        prefix = current_span_path()
        for event in other.events:
            path = "/".join(p for p in (prefix, event.span) if p)
            self.events.append(replace(event, span=path))
        self.solve_reports.extend(other.solve_reports)

    # -- queries -----------------------------------------------------------

    def by_kind(self, kind: str) -> list[RunEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def downgrades(self) -> list[RunEvent]:
        return self.by_kind("downgrade")

    @property
    def timeouts(self) -> list[RunEvent]:
        return self.by_kind("timeout")

    @property
    def quarantines(self) -> list[RunEvent]:
        return self.by_kind("quarantine")

    @property
    def clean(self) -> bool:
        """True when the run needed no resilience action at all."""
        return not self.events and not self.solve_reports

    def format(self) -> str:
        lines = [e.format() for e in self.events]
        lines += [r.format() for r in self.solve_reports]
        if not lines:
            return "(clean run: no resilience actions)"
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events) + len(self.solve_reports)

    def __repr__(self) -> str:
        return (
            f"RunReport({len(self.events)} events, "
            f"{len(self.solve_reports)} escalated solves)"
        )


_LOCAL = threading.local()


def current_run_report() -> RunReport | None:
    """The innermost activated run report of this thread, if any."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def activate(report: RunReport) -> Iterator[RunReport]:
    """Make ``report`` the thread's active run report for the block."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(report)
    try:
        yield report
    finally:
        stack.pop()


def attach_solve_report(report: SolveReport) -> None:
    """Attach an escalated solve report to the active run report, if any."""
    active = current_run_report()
    if active is not None:
        active.attach_solve_report(report)


__all__ = [
    "SolveAttempt",
    "SolveReport",
    "RunEvent",
    "RunReport",
    "current_run_report",
    "activate",
    "attach_solve_report",
]
