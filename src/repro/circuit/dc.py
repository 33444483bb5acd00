"""DC operating-point analysis.

Solves ``G x + f(x) = b(t)`` with inductors as shorts and capacitors open.
Nonlinear circuits use damped Newton iteration with a gmin-stepping
fallback (progressively removing an artificial leak conductance), the
standard SPICE convergence aid.  Under the ``full`` resilience policy a
source-stepping ramp (scaling all independent sources up from a fraction
of their value, warm-starting each stage) is tried when gmin stepping
alone fails.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.circuit.linalg import (
    Factorization,
    ResilientFactorization,
    SingularCircuitError,
    add_gmin,
    solve_matrices,
)
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import current_run_report

#: Source fractions the ``full`` policy's source-stepping ramp solves in turn.
SOURCE_STEPS = (0.25, 0.5, 0.75, 1.0)


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge.

    Carries the iteration trace so a failure is diagnosable without
    rerunning: :attr:`residual_history` is the max-norm residual after
    each Newton iteration and :attr:`last_step` the max-norm of the last
    (damped) Newton update applied.
    """

    def __init__(
        self,
        message: str,
        residual_history: tuple[float, ...] = (),
        last_step: float | None = None,
    ) -> None:
        super().__init__(message)
        self.residual_history = tuple(residual_history)
        self.last_step = last_step

    def __str__(self) -> str:
        text = super().__str__()
        if self.residual_history:
            tail = self.residual_history[-5:]
            trace = ", ".join(f"{r:.3e}" for r in tail)
            prefix = "..., " if len(self.residual_history) > len(tail) else ""
            text += (
                f" [{len(self.residual_history)} iterations, "
                f"residuals: {prefix}{trace}"
            )
            if self.last_step is not None:
                text += f"; last step {self.last_step:.3e}"
            text += "]"
        return text


def _as_system(circuit_or_system) -> MNASystem:
    if isinstance(circuit_or_system, MNASystem):
        return circuit_or_system
    if isinstance(circuit_or_system, Circuit):
        return MNASystem(circuit_or_system)
    raise TypeError(f"expected Circuit or MNASystem, got {type(circuit_or_system)}")


def _newton(
    system: MNASystem,
    g_matrix,
    b: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    damping_limit: float,
    policy: ResiliencePolicy | None = None,
) -> np.ndarray:
    x = x0.copy()
    dense = not hasattr(g_matrix, "tocsc")
    residual_history: list[float] = []
    last_step: float | None = None
    iterations = obs_metrics.counter("newton.iterations.dc")
    for _ in range(max_iter):
        iterations.inc()
        f, jac_dev = system.eval_devices(x)
        residual = g_matrix @ x + f - b
        norm = float(np.max(np.abs(residual)))
        residual_history.append(norm)
        if norm < tol:
            return x
        if dense:
            jacobian = g_matrix + jac_dev
        else:
            jacobian = (g_matrix + jac_dev) if jac_dev is not None else g_matrix
            jacobian = np.asarray(jacobian)
        delta = ResilientFactorization(
            jacobian, site="dc.newton", policy=policy
        ).solve(-residual)
        step = float(np.max(np.abs(delta)))
        if step > damping_limit:
            delta = delta * (damping_limit / step)
            step = damping_limit
        last_step = step
        x = x + delta
    f, _ = system.eval_devices(x)
    residual = g_matrix @ x + f - b
    norm = float(np.max(np.abs(residual)))
    residual_history.append(norm)
    if norm < tol * 100:
        return x  # close enough; final refinement left to the caller
    raise ConvergenceError(
        f"DC Newton did not converge in {max_iter} iterations "
        f"(residual {norm:.3e})",
        residual_history=tuple(residual_history),
        last_step=last_step,
    )


def dc_operating_point(
    circuit_or_system,
    t: float = 0.0,
    gmin: float = 1e-12,
    tol: float = 1e-9,
    max_iter: int = 100,
    x0: np.ndarray | None = None,
    policy: ResiliencePolicy | None = None,
) -> np.ndarray:
    """Compute the DC operating point at source time ``t``.

    Args:
        circuit_or_system: A :class:`Circuit` or prebuilt :class:`MNASystem`.
        t: Time at which source waveforms are evaluated (sources are assumed
            static around this instant).
        gmin: Leak conductance added on node diagonals.
        tol: Newton residual tolerance (max-norm, amps).
        max_iter: Newton iteration cap per gmin stage.
        x0: Optional initial guess.
        policy: Resilience policy governing solver escalation and source
            stepping; default from ``REPRO_RESILIENCE``.

    Returns:
        The full MNA unknown vector x (node voltages then branch currents).

    Raises:
        ConvergenceError: Newton failed even with gmin (and, under the
            ``full`` policy, source) stepping.
        SingularCircuitError: The topology itself is singular.
    """
    system = _as_system(circuit_or_system)
    if not system.has_devices:
        g_matrix, _ = solve_matrices(*system.build_matrices())
        return linear_dc(system, g_matrix, t, gmin, policy)
    with span("circuit.dc", size=system.size, nonlinear=True):
        return _dc_solve(system, t, gmin, tol, max_iter, x0, policy)


def linear_dc(
    system: MNASystem, g_matrix, t: float = 0.0, gmin: float = 1e-12,
    policy: ResiliencePolicy | None = None,
) -> np.ndarray:
    """DC point of a circuit without devices: one solve of
    ``(G + gmin) x = b(t)``.

    ``g_matrix`` is G as :func:`~repro.circuit.linalg.solve_matrices`
    gives it, so the DC point factors dense or sparse like the
    transient's companion matrices.
    """
    with span("circuit.dc", size=system.size, nonlinear=False) as dc_span:
        g_dc = add_gmin(g_matrix, system.n, gmin)
        factor = ResilientFactorization(
            g_dc, site="dc", policy=policy or default_policy()
        )
        x = factor.solve(system.rhs(t))
        dc_span.attrs.update(
            format="sparse" if sp.issparse(g_dc) else "dense",
            factor_nnz=factor.factor_nnz,
        )
        return x


def _dc_solve(
    system: MNASystem,
    t: float,
    gmin: float,
    tol: float,
    max_iter: int,
    x0: np.ndarray | None,
    policy: ResiliencePolicy | None,
) -> np.ndarray:
    policy = policy or default_policy()
    g_matrix, _ = system.build_matrices()
    b = system.rhs(t)
    guess = np.zeros(system.size) if x0 is None else np.asarray(x0, dtype=float)

    # Gmin stepping: converge with a strong leak first, then tighten.
    stages = [1e-3, 1e-6, gmin] if gmin < 1e-6 else [1e-3, gmin]
    x = guess
    last_error: Exception | None = None
    for stage_gmin in stages:
        g_dc = add_gmin(g_matrix, system.n, stage_gmin)
        try:
            x = _newton(
                system, g_dc, b, x, tol, max_iter, damping_limit=1.0,
                policy=policy,
            )
            last_error = None
        except (ConvergenceError, SingularCircuitError) as exc:
            last_error = exc

    if last_error is not None and policy.source_stepping_enabled:
        # Source stepping: ramp every independent source up from a
        # fraction of its value, warm-starting each stage from the last.
        # The final stage solves the true system, so an accepted answer
        # is exact; intermediate failures just shrink the warm start.
        report = current_run_report()
        g_dc = add_gmin(g_matrix, system.n, stages[-1])
        x = guess
        for fraction in SOURCE_STEPS:
            try:
                x = _newton(
                    system, g_dc, fraction * b, x, tol, max_iter,
                    damping_limit=1.0, policy=policy,
                )
                stage_ok = True
                if fraction == SOURCE_STEPS[-1]:
                    last_error = None
            except (ConvergenceError, SingularCircuitError) as exc:
                stage_ok = False
                last_error = exc
            if report is not None:
                report.record(
                    "source-stepping", "dc",
                    f"source fraction {fraction:g}: "
                    f"{'ok' if stage_ok else 'failed'}",
                )

    if last_error is not None:
        if isinstance(last_error, ConvergenceError):
            raise ConvergenceError(
                f"DC operating point failed after gmin stepping: {last_error}",
                residual_history=last_error.residual_history,
                last_step=last_error.last_step,
            ) from last_error
        raise ConvergenceError(
            f"DC operating point failed after gmin stepping: {last_error}"
        ) from last_error
    return x
