"""Adaptive-step transient integration with local-truncation-error control.

The fixed-step engine (:mod:`repro.circuit.transient`) is ideal for the
benchmark comparisons (identical time grids).  For production-style runs
-- long quiet tails after a fast edge -- an adaptive step is far cheaper.
This module implements the classic SPICE recipe:

* step with trapezoidal;
* estimate the local truncation error from the divided third difference
  of each state (trapezoidal's LTE is ``-h^3 x'''/12``);
* accept and grow the step when the estimate is inside tolerance, reject
  and shrink when not.

Only linear circuits are supported (each accepted step size change costs
one refactorization; Newton-per-step nonlinear circuits would dominate
that cost anyway, so they stay on the fixed-step engine).

A step whose solve fails on every escalation rung is treated like an LTE
rejection: the step is halved, up to
:data:`~repro.resilience.policy.MAX_STEP_HALVINGS` times in a row, and
each halving is logged in the result's
:class:`~repro.resilience.report.RunReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.dc import dc_operating_point
from repro.circuit.linalg import (
    ResilientFactorization,
    SingularCircuitError,
    SweepAssembler,
)
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_span, span
from repro.perf.cache import FACTOR_CACHE_SIZE, LRUCache, quantize_alpha
from repro.resilience.policy import (
    MAX_STEP_HALVINGS, ResiliencePolicy, default_policy,
)
from repro.resilience.report import RunReport, activate, current_run_report


@dataclass
class AdaptiveResult:
    """Adaptive transient result (non-uniform time base).

    Attributes:
        times: Accepted time points [s].
        data: States at the accepted points, shape (len(times), columns).
        columns: Recorded column names.
        num_rejected: Steps rejected by the LTE controller.
        num_factorizations: Matrix factorizations performed.
        report: Resilience log (failed solves absorbed by halving the
            step).
    """

    times: np.ndarray
    data: np.ndarray
    columns: list[str]
    num_rejected: int
    num_factorizations: int
    report: RunReport | None = None

    def __post_init__(self) -> None:
        self._col_index = {name: i for i, name in enumerate(self.columns)}

    def voltage(self, node: str) -> np.ndarray:
        if node == "0":
            return np.zeros(len(self.times))
        return self.data[:, self._col_index[node]]

    def current(self, branch: str) -> np.ndarray:
        return self.data[:, self._col_index[branch]]

    def resampled(self, times: np.ndarray) -> "AdaptiveResult":
        """Interpolate onto a uniform grid (for waveform comparison)."""
        t = np.asarray(times, dtype=float)
        data = np.column_stack([
            np.interp(t, self.times, self.data[:, j])
            for j in range(self.data.shape[1])
        ])
        return AdaptiveResult(
            times=t, data=data, columns=self.columns,
            num_rejected=self.num_rejected,
            num_factorizations=self.num_factorizations,
            report=self.report,
        )


def adaptive_transient(
    circuit_or_system,
    t_stop: float,
    dt_initial: float,
    dt_min: float | None = None,
    dt_max: float | None = None,
    reltol: float = 1e-3,
    abstol: float = 1e-6,
    record=None,
    x0=None,
    policy: ResiliencePolicy | None = None,
) -> AdaptiveResult:
    """Run an LTE-controlled trapezoidal transient over [0, t_stop].

    Args:
        circuit_or_system: Linear circuit or prebuilt system.
        t_stop: End time [s].
        dt_initial: Starting step [s].
        dt_min: Smallest allowed step; default ``dt_initial / 1000``.
        dt_max: Largest allowed step; default ``t_stop / 20``.
        reltol: Relative LTE tolerance.
        abstol: Absolute LTE floor (volts/amps).
        record: Node/branch names to record; ``None`` records all.
        x0: Initial state (``None`` = DC operating point, ``"zero"`` = 0).
        policy: Resilience policy governing solver escalation; default
            from ``REPRO_RESILIENCE``.

    Returns:
        The accepted trajectory.
    """
    with span("circuit.transient.adaptive"):
        return _adaptive_solve(
            circuit_or_system, t_stop, dt_initial, dt_min, dt_max,
            reltol, abstol, record, x0, policy,
        )


def _adaptive_solve(
    circuit_or_system,
    t_stop: float,
    dt_initial: float,
    dt_min: float | None,
    dt_max: float | None,
    reltol: float,
    abstol: float,
    record,
    x0,
    policy: ResiliencePolicy | None,
) -> AdaptiveResult:
    system = (
        circuit_or_system
        if isinstance(circuit_or_system, MNASystem)
        else MNASystem(circuit_or_system)
    )
    if system.has_devices:
        raise ValueError(
            "adaptive_transient handles linear circuits; use "
            "transient_analysis for circuits with devices"
        )
    if dt_initial <= 0 or t_stop <= dt_initial:
        raise ValueError("need 0 < dt_initial < t_stop")
    dt_min = dt_min if dt_min is not None else dt_initial / 1000.0
    dt_max = dt_max if dt_max is not None else t_stop / 20.0

    g_matrix, c_matrix = system.build_matrices()
    assembler = SweepAssembler(g_matrix, c_matrix)

    policy = policy or default_policy()
    report = current_run_report()
    if report is None:
        report = RunReport()

    if x0 is None:
        with activate(report):
            x = dc_operating_point(system, t=0.0, policy=policy)
    elif isinstance(x0, str) and x0 == "zero":
        x = np.zeros(system.size)
    else:
        x = np.asarray(x0, dtype=float).copy()

    from repro.circuit.transient import _recorded_columns

    indices, names = _recorded_columns(system, record)

    times = [0.0]
    states = [x[indices]]
    history: list[tuple[float, np.ndarray]] = [(0.0, x.copy())]
    num_rejected = 0
    num_factor = 0

    # Bounded + quantized: the LTE controller walks through a continuum of
    # step sizes, and failed-solve step-halving re-approaches old alphas
    # with last-ulp differences; a raw float-keyed dict both grows without
    # bound and misses those near-equal revisits.
    factor_cache: LRUCache = LRUCache(FACTOR_CACHE_SIZE)

    def solve_step(x_now, t_now, h):
        nonlocal num_factor
        alpha = 2.0 / h
        key = quantize_alpha(alpha)
        factor = factor_cache.get(key)
        if factor is None:
            factor = ResilientFactorization(
                assembler.at_alpha(alpha), site="adaptive", policy=policy
            )
            factor_cache.put(key, factor)
            num_factor += 1
        rhs = (
            alpha * (c_matrix @ x_now)
            - g_matrix @ x_now
            + system.rhs(t_now + h)
            + system.rhs(t_now)
        )
        return factor.solve(rhs)

    t = 0.0
    h = dt_initial
    scale_limit = 2.0
    halvings = 0
    while t < t_stop - 1e-21:
        h = min(h, t_stop - t, dt_max)
        try:
            with activate(report):
                x_new = solve_step(x, t, h)
        except SingularCircuitError as exc:
            # A failed solve is handled like an LTE rejection: halve the
            # step, a bounded number of times in a row.
            if halvings < MAX_STEP_HALVINGS and h > dt_min * 1.0001:
                halvings += 1
                num_rejected += 1
                h = max(h * 0.5, dt_min)
                report.record_step_halving(
                    "adaptive",
                    f"t = {t:.6g}: solve failed, h -> {h:.3e}: {exc}",
                )
                continue
            raise
        halvings = 0

        # LTE estimate needs two history points for the third difference;
        # warm up with conservative acceptance.
        if len(history) >= 2:
            (t2, x2), (t1, x1) = history[-2], history[-1]
            lte = _trap_lte(t2, x2, t1, x1, t + h, x_new)
            tol = abstol + reltol * np.maximum(np.abs(x_new), np.abs(x))
            ratio = float(np.max(lte / tol))
            if ratio > 1.0 and h > dt_min * 1.0001:
                h = max(h * max(0.5, 0.9 / ratio ** (1 / 3)), dt_min)
                num_rejected += 1
                continue
            grow = 0.9 / max(ratio, 1e-6) ** (1 / 3)
            next_h = h * min(scale_limit, max(0.5, grow))
        else:
            next_h = h

        t += h
        x = x_new
        history.append((t, x.copy()))
        if len(history) > 3:
            history.pop(0)
        times.append(t)
        states.append(x[indices])
        h = min(max(next_h, dt_min), dt_max)

    obs_metrics.counter("adaptive.steps").inc(max(len(times) - 1, 0))
    obs_metrics.counter("adaptive.rejected").inc(num_rejected)
    cur = current_span()
    if cur is not None:
        cur.attrs.update(
            size=system.size,
            accepted=len(times) - 1,
            rejected=num_rejected,
            factorizations=num_factor,
        )
    return AdaptiveResult(
        times=np.asarray(times),
        data=np.asarray(states),
        columns=names,
        num_rejected=num_rejected,
        num_factorizations=num_factor,
        report=report,
    )


def _trap_lte(
    t0: float, x0: np.ndarray,
    t1: float, x1: np.ndarray,
    t2: float, x2: np.ndarray,
) -> np.ndarray:
    """Trapezoidal LTE estimate via the divided third difference.

    LTE ~ (h^3 / 12) |x'''|; x''' is estimated from the last three points
    (second divided difference of the first derivative).
    """
    h01 = t1 - t0
    h12 = t2 - t1
    d01 = (x1 - x0) / h01
    d12 = (x2 - x1) / h12
    x2nd = 2.0 * (d12 - d01) / (h01 + h12)
    # Third derivative from the change of curvature across the window.
    x3rd = np.abs(x2nd) / max((h01 + h12) / 2.0, 1e-21)
    return (h12**3 / 12.0) * x3rd
