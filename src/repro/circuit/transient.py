"""Transient analysis: trapezoidal / backward-Euler time stepping.

Integrates ``C dx/dt + G x + f(x) = b(t)`` with a fixed step.  The
first couple of steps always use backward Euler to damp the startup
transient of inconsistent initial conditions (standard practice;
trapezoidal rule would ring forever on them).

Circuits with nonlinear devices run damped Newton per step.  Linear
circuits step the whole run as one **block**: the companion matrix
``alpha C + G`` is factored once per step size through the escalation
chain, and every source is sampled once over the time grid.  G and C
are multiplied and factored dense or sparse as
:func:`~repro.circuit.linalg.solve_matrices` gives them.  In a dense
system, a step kind (backward Euler or trapezoidal) that the run takes
at least as many times as there are unknowns steps as a precomputed
linear map ``x <- P x + f_k`` (:func:`_propagates`); every other step is
one product plus the accepted LU's raw solve.  The block checks
finiteness once at its end.

A block that comes out non-finite, fails its factors' ``vouch``, or
whose factor is on a rung other than direct LU, re-runs from the initial
state **per step**.  There a step whose solve fails on every rung
(:class:`SingularCircuitError`) or whose Newton iteration does not
converge (:class:`ConvergenceError`) is halved into ``2^k``
backward-Euler substeps, up to
:data:`~repro.resilience.policy.MAX_STEP_HALVINGS` times; every rescue
is logged in the result's :class:`~repro.resilience.report.RunReport`.

The K-matrix element (inverse inductance, Section 4 of the paper) needs no
special handling here: :class:`MNASystem` already expresses it in the
``G``/``C`` matrices, which is exactly the "special circuit simulator that
can handle the K matrix" the paper calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.circuit.dc import ConvergenceError, dc_operating_point, linear_dc
from repro.circuit.linalg import (
    ResilientFactorization,
    SingularCircuitError,
    SweepAssembler,
    solve_matrices,
)
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import sample
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.policy import (
    MAX_STEP_HALVINGS, ResiliencePolicy, default_policy,
)
from repro.resilience.report import RunReport, activate, current_run_report


@dataclass
class TransientResult:
    """Time-domain simulation result.

    Attributes:
        times: Time points [s], shape (num_steps + 1,).
        data: Unknown trajectories, shape (num_steps + 1, recorded columns).
        columns: Names of recorded columns (node or branch names).
        system: The compiled MNA system.
        report: Resilience log of the run (escalated solves, step
            halvings).
    """

    times: np.ndarray
    data: np.ndarray
    columns: list[str]
    system: MNASystem
    report: RunReport | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self._col_index = {name: i for i, name in enumerate(self.columns)}

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a node (ground returns zeros)."""
        if node == "0":
            return np.zeros(len(self.times))
        return self._column(node)

    def current(self, branch: str) -> np.ndarray:
        """Current waveform of an inductor / K / V-source branch."""
        return self._column(branch)

    def _column(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self._col_index[name]]
        except KeyError:
            raise KeyError(
                f"{name!r} was not recorded; recorded columns: "
                f"{len(self.columns)} names (pass record=... to change)"
            ) from None


def _recorded_columns(system: MNASystem, record) -> tuple[list[int], list[str]]:
    """Resolve the record spec into (global indices, column names)."""
    if record is None:
        names = list(system.circuit.node_names)
        names += [
            name for name, _ in sorted(
                system._branch_index.items(), key=lambda kv: kv[1]
            )
        ]
        indices = [system.node_index(n) for n in system.circuit.node_names]
        indices += sorted(system._branch_index.values())
        return indices, names
    indices, names = [], []
    for name in record:
        try:
            idx = system.node_index(name)
            if idx < 0:
                continue
        except KeyError:
            idx = system.branch_index(name)
        indices.append(idx)
        names.append(name)
    return indices, names


#: Forcing rows the propagator forms per product: its scratch beyond the
#: recorded data stays at this many states.
_FORCING_ROWS = 256


def _propagates(product: str, steps: int, size: int) -> bool:
    """Whether ``steps`` steps of one kind (backward Euler or
    trapezoidal) advance as the linear map ``x <- P x + f_k``.

    Building that kind's ``P`` costs ``size`` right-hand sides through
    its LU, about what ``size`` LU steps cost; each step after that is
    one dense n^2 product instead of two products and a solve.  So the
    map pays once the run takes at least as many steps of the kind as
    there are unknowns: the two backward-Euler steps that start a
    trapezoidal run never do.  ``P`` is dense, so sparse systems keep
    the LU.
    """
    return product == "dense" and steps >= size


def _source_samples(
    system: MNASystem, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``b(t)`` over the whole time grid, on the rows the sources touch.

    Every waveform is sampled once over the grid
    (:func:`~repro.circuit.waveforms.sample`), and the rows are
    accumulated in :meth:`MNASystem.rhs`'s order with its operations, so
    a ``b`` rebuilt from them is bit-identical to ``system.rhs(t)``.

    Returns:
        ``(rows, values)``: the touched rows and their values, shape
        ``(len(times), len(rows))`` -- sources by steps, never n by steps.
    """
    circuit = system.circuit
    ni = circuit.node_index
    acc: dict[int, np.ndarray] = {}
    for src in circuit.isources:
        current = sample(src.waveform, times)
        a, c = ni(src.n_plus), ni(src.n_minus)
        if a >= 0:
            acc[a] = acc.get(a, 0.0) - current
        if c >= 0:
            acc[c] = acc.get(c, 0.0) + current
    for src in circuit.vsources:
        acc[system.branch_index(src.name)] = -sample(src.waveform, times)
    rows = np.array(sorted(acc), dtype=np.intp)
    values = np.zeros((len(times), rows.size))
    for j, row in enumerate(rows):
        values[:, j] = acc[row]
    return rows, values


def _step_rhs(g_matrix, c_matrix, x_old, b_old, b_new, alpha, use_be):
    """Right-hand side of one companion step ``(alpha C + G) x = rhs``.

    Both stepping paths evaluate exactly this expression, so they agree
    bit for bit whenever they use the same matrices.
    """
    if use_be:
        return c_matrix @ x_old * alpha + b_new
    return (alpha * (c_matrix @ x_old) - g_matrix @ x_old) + b_new + b_old


def _step_kinds(method: str, num_steps: int):
    """``(first, stop, use_be)`` runs of equal step kind over a run."""
    if method == "be":
        return [(0, num_steps, True)]
    runs = [(0, min(num_steps, 2), True)]
    if num_steps > 2:
        runs.append((2, num_steps, False))
    return runs


class _BlockStepper:
    """Raw-solve stepping of a linear circuit's run as one block.

    Holds the step-product matrices, the source values of
    :func:`_source_samples`, and the linear map of each step kind that
    :func:`_propagates` over the run's ``kinds``.  Steps of any other
    kind evaluate :func:`_step_rhs`, as the per-step path does, so on
    dense products their states are bit-identical to that path's.
    """

    def __init__(self, system, g_matrix, c_matrix, times, indices,
                 kinds) -> None:
        #: Format of the step-product matrices, as
        #: :func:`~repro.circuit.linalg.solve_matrices` chose it.
        self.product = "csr" if sp.issparse(g_matrix) else "dense"
        steps: dict[bool, int] = {}
        for first, stop, use_be in kinds:
            steps[use_be] = steps.get(use_be, 0) + stop - first
        #: The step kinds (``use_be``) that advance by the linear map.
        self.mapped = frozenset(
            use_be for use_be, count in steps.items()
            if _propagates(self.product, count, system.size)
        )
        self._g = g_matrix
        self._c = c_matrix
        self._size = system.size
        self._rows, self._values = _source_samples(system, times)
        self._indices = np.asarray(indices, dtype=np.intp)
        # use_be -> (raw solve, P, Q): one map per companion factor,
        # rebuilt only when the factor in charge changes.
        self._maps: dict[bool, tuple] = {}

    def _map(self, alpha, use_be, solve) -> tuple[np.ndarray, np.ndarray]:
        """``(P, Q)`` of one companion factor, from its raw solve.

        ``P = A^-1 (alpha C - G)`` (``A^-1 alpha C`` for backward Euler)
        and ``Q``, the columns of ``A^-1`` at the ``r`` source rows, from
        one solve of ``n + r`` right-hand sides: a factor-solve, never an
        explicit inverse.
        """
        entry = self._maps.get(use_be)
        if entry is None or entry[0] is not solve:
            n, rows = self._size, self._rows
            rhs = np.zeros((n, n + rows.size), order="F")
            rhs[:, :n] = alpha * self._c
            if not use_be:
                rhs[:, :n] -= self._g
            rhs[rows, n + np.arange(rows.size)] = 1.0
            maps = solve(rhs)
            entry = (solve, maps[:, :n].copy(), maps[:, n:].copy())
            self._maps[use_be] = entry
        return entry[1], entry[2]

    def run(self, x, segments, out) -> np.ndarray:
        """Step ``x`` through ``segments``.

        Args:
            x: State at the first segment's first step.
            segments: ``(first, stop, alpha, use_be, solve)`` runs of
                steps sharing one companion solve, in order.
            out: Recorded trajectories; rows ``first + 1 ..`` are written.

        Returns:
            The state after the last step, unchecked.
        """
        for segment in segments:
            use_be = segment[3]
            step = self._propagate if use_be in self.mapped else self._solve
            x = step(x, *segment, out)
        return x

    def _solve(self, x, first, stop, alpha, use_be, solve, out):
        """Steps ``first .. stop`` as :func:`_step_rhs` and a raw solve."""
        g, c, idx = self._g, self._c, self._indices
        rows, values, n = self._rows, self._values, self._size
        b_old = np.zeros(n)
        b_old[rows] = values[first]
        for k in range(first, stop):
            b_new = np.zeros(n)
            b_new[rows] = values[k + 1]
            x = solve(_step_rhs(g, c, x, b_old, b_new, alpha, use_be))
            out[k + 1] = x[idx]
            b_old = b_new
        return x

    def _propagate(self, x, first, stop, alpha, use_be, solve, out):
        """Steps ``first .. stop`` as ``x <- P x + F[k]``, the forcing
        ``F`` formed from the source samples :data:`_FORCING_ROWS` steps
        at a time."""
        p_map, q_map = self._map(alpha, use_be, solve)
        values, idx = self._values, self._indices
        for start in range(first, stop, _FORCING_ROWS):
            end = min(start + _FORCING_ROWS, stop)
            b = values[start + 1 : end + 1]
            if not use_be:
                b = values[start:end] + b
            states = b @ q_map.T
            for row in states:  # each row turns from f_k into x_k+1
                row += p_map @ x
                x = row
            out[start + 1 : end + 1] = states[:, idx]
        return x.copy()


def transient_analysis(
    circuit_or_system,
    t_stop: float,
    dt: float,
    method: str = "trap",
    x0=None,
    record=None,
    newton_tol: float = 1e-6,
    max_newton: int = 50,
    policy: ResiliencePolicy | None = None,
) -> TransientResult:
    """Run a fixed-step transient simulation over [0, t_stop].

    Args:
        circuit_or_system: Circuit or prebuilt :class:`MNASystem`.
        t_stop: End time [s].
        dt: Time step [s].
        method: ``"trap"`` (trapezoidal; BE for the first 2 steps) or
            ``"be"`` (backward Euler throughout -- more damping, first-order
            accurate; useful to expose trapezoidal ringing artifacts).
        x0: Initial state: ``None`` computes the DC operating point at
            t = 0; ``"zero"`` starts from the all-zero state (SPICE's UIC);
            or an explicit state vector.
        record: Node/branch names to record; ``None`` records everything.
        newton_tol: Per-step Newton residual tolerance (max-norm).
        max_newton: Newton iteration cap per step.
        policy: Resilience policy (escalation rungs); default from
            ``REPRO_RESILIENCE``.

    Returns:
        The recorded trajectories, with :attr:`TransientResult.report`
        describing every resilience action taken.
    """
    if method not in ("trap", "be"):
        raise ValueError(f"unknown method {method!r}")
    if dt <= 0 or t_stop <= dt:
        raise ValueError("need 0 < dt < t_stop")
    system = (
        circuit_or_system
        if isinstance(circuit_or_system, MNASystem)
        else MNASystem(circuit_or_system)
    )
    policy = policy or default_policy()
    report = current_run_report()
    if report is None:
        report = RunReport()
    g_matrix, c_matrix = system.build_matrices()
    if not system.has_devices:
        g_matrix, c_matrix = solve_matrices(g_matrix, c_matrix)
    sparse = sp.issparse(g_matrix)

    num_steps = int(round(t_stop / dt))
    times = np.arange(num_steps + 1) * dt
    indices, names = _recorded_columns(system, record)
    data = np.zeros((num_steps + 1, len(indices)))

    if x0 is None:
        with activate(report):
            if system.has_devices:
                x = dc_operating_point(system, t=0.0, policy=policy)
            else:
                x = linear_dc(system, g_matrix, 0.0, policy=policy)
    elif isinstance(x0, str) and x0 == "zero":
        x = np.zeros(system.size)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (system.size,):
            raise ValueError(
                f"x0 has shape {x.shape}, expected ({system.size},)"
            )
    data[0] = x[indices]

    # One factor per companion coefficient.  The run asks only for 1/dt,
    # 2/dt and 1/(dt/2^k) for halved substeps, each exactly 2^k fl(1/dt),
    # so the keys repeat bit for bit and number at most
    # MAX_STEP_HALVINGS + 1.
    factors: dict[float, ResilientFactorization] = {}
    assembler = SweepAssembler(g_matrix, c_matrix)
    rung_used: str | None = None

    def serves(alpha: float) -> str:
        """The step kind a factor serves, from its alpha alone: 2/dt is
        the trapezoidal factor, which also serves steps halved once."""
        if alpha == 1.0 / dt:
            return "be"
        if alpha == 2.0 / dt and method == "trap":
            return "trap"
        return "halved"

    def companion(alpha: float) -> ResilientFactorization:
        nonlocal rung_used
        factor = factors.get(alpha)
        if factor is None or factor.exhausted:
            # The union pattern is shared across all alphas; the
            # factorization is cached per alpha.  A chain whose every
            # rung failed is rebuilt, not kept: one bad solve must not
            # fail every later step at this alpha.
            with span(
                "circuit.transient.factor", size=system.size,
                format=assembler.mode, alpha=float(alpha),
                serves=serves(alpha),
            ) as factor_span:
                factor = ResilientFactorization(
                    assembler.at_alpha(alpha), site="transient", policy=policy
                )
                factor.direct_solver()
                factor_span.attrs.update(
                    rung=factor.rung, factor_nnz=factor.factor_nnz
                )
            factors[alpha] = factor
        rung_used = factor.rung
        return factor

    def linear_step(x_old, b_old, b_new, alpha, use_be):
        rhs = _step_rhs(g_matrix, c_matrix, x_old, b_old, b_new, alpha, use_be)
        return companion(alpha).solve(rhs)

    def one_step(x_old, f_old, b_old, b_new, alpha, use_be):
        if not system.has_devices:
            return linear_step(x_old, b_old, b_new, alpha, use_be)
        return _newton_step(
            system, g_matrix, c_matrix, assembler, x_old, f_old, b_old,
            b_new, alpha, use_be, newton_tol, max_newton, policy,
        )

    def halved_step(x_old, t_now, halvings):
        """Integrate [t_now, t_now + dt] as ``2^halvings`` BE substeps."""
        substeps = 2 ** halvings
        h = dt / substeps
        alpha_sub = 1.0 / h
        x_sub = x_old
        b_sub = system.rhs(t_now)
        f_sub, _ = (
            system.eval_devices(x_sub) if system.has_devices else (None, None)
        )
        for j in range(substeps):
            b_next_sub = system.rhs(t_now + (j + 1) * h)
            x_sub = one_step(x_sub, f_sub, b_sub, b_next_sub, alpha_sub, True)
            if system.has_devices:
                f_sub, _ = system.eval_devices(x_sub)
            b_sub = b_next_sub
        return x_sub

    steps_counter = obs_metrics.counter("transient.steps")
    halvings_counter = obs_metrics.counter("transient.step_halvings")

    def step_each() -> None:
        """Steps the run one solve at a time, with every rescue."""
        nonlocal x
        b_prev = system.rhs(times[0])
        f_prev, _ = (
            system.eval_devices(x) if system.has_devices else (None, None)
        )
        for k in range(num_steps):
            t_next = times[k + 1]
            b_next = system.rhs(t_next)
            use_be = method == "be" or k < 2
            alpha = (1.0 / dt) if use_be else (2.0 / dt)

            halvings = 0
            while True:
                try:
                    if halvings == 0:
                        x_new = one_step(x, f_prev, b_prev, b_next, alpha, use_be)
                    else:
                        x_new = halved_step(x, times[k], halvings)
                    break
                except (SingularCircuitError, ConvergenceError) as exc:
                    if halvings < MAX_STEP_HALVINGS:
                        halvings += 1
                        halvings_counter.inc()
                        report.record_step_halving(
                            "transient",
                            f"step {k + 1} -> {2 ** halvings} BE substeps "
                            f"(h = {dt / 2 ** halvings:.3e}): {exc}",
                        )
                        continue
                    raise
            x = x_new
            steps_counter.inc()
            if system.has_devices:
                f_prev, _ = system.eval_devices(x)
            data[k + 1] = x[indices]
            b_prev = b_next

    def step_block(stepper: _BlockStepper) -> bool:
        """Steps the run with raw solves or the propagator; False leaves
        ``x`` as it was.

        One finiteness check for the block; the companion factors go
        through the escalation chain, and any rung but direct LU makes
        the block fall back.
        """
        nonlocal x, propagated
        segments, used = [], []
        for first, stop, use_be in kinds:
            alpha = (1.0 / dt) if use_be else (2.0 / dt)
            factor = companion(alpha)
            solve = factor.direct_solver()
            if solve is None:
                return False
            segments.append((first, stop, alpha, use_be, solve))
            used.append(factor)
        x_end = stepper.run(x, segments, data)
        if not (np.all(np.isfinite(x_end)) and np.all(np.isfinite(data[1:]))):
            return False
        if not all(factor.vouch(x_end) for factor in used):
            return False
        x = x_end
        steps_counter.inc(num_steps)
        propagated = sum(
            stop - first for first, stop, _, use_be, _ in segments
            if use_be in stepper.mapped
        )
        return True

    kinds = _step_kinds(method, num_steps)
    blocks = replayed = propagated = 0
    with activate(report), span(
        "circuit.transient",
        size=system.size,
        steps=num_steps,
        method=method,
        sparse=sparse,
    ) as transient_span:
        stepper = None if system.has_devices else _BlockStepper(
            system, g_matrix, c_matrix, times, indices, kinds,
        )
        try:
            if stepper is None:
                step_each()
            else:
                blocks = 1
                if not step_block(stepper):
                    # Re-run from the initial state: the per-step path
                    # records every failure as before.
                    replayed = 1
                    step_each()
        finally:
            transient_span.attrs.update(
                path="per-step" if stepper is None else "block",
                blocks=blocks, replayed=replayed, propagated=propagated,
            )
            if stepper is not None:
                transient_span.attrs["product"] = stepper.product
            if rung_used is not None:
                transient_span.attrs["rung"] = rung_used

    return TransientResult(
        times=times, data=data, columns=names, system=system, report=report
    )


def _device_jacobian_system(
    assembler: SweepAssembler,
    alpha: float,
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
):
    """Sparse ``alpha C + G`` plus the device-Jacobian stamps.

    The handful of device triplets goes in as a sparse update, never
    materializing an n x n dense Jacobian for a sparse system.
    """
    base = assembler.at_alpha(alpha)
    rows, cols, vals = triplets
    if rows.size == 0:
        return base
    update = sp.coo_matrix((vals, (rows, cols)), shape=base.shape)
    return (base + update).tocsc()


def _newton_step(
    system: MNASystem,
    g_matrix,
    c_matrix,
    assembler: SweepAssembler,
    x_old: np.ndarray,
    f_old: np.ndarray,
    b_old: np.ndarray,
    b_new: np.ndarray,
    alpha: float,
    use_be: bool,
    tol: float,
    max_iter: int,
    policy: ResiliencePolicy | None = None,
) -> np.ndarray:
    """One implicit time step with damped Newton iteration."""
    x = x_old.copy()
    cx_old = c_matrix @ x_old
    residual_history: list[float] = []
    last_step: float | None = None
    dense_mode = assembler.mode == "dense"
    iterations = obs_metrics.counter("newton.iterations.transient")
    for _ in range(max_iter):
        iterations.inc()
        if dense_mode:
            f, jac_dev = system.eval_devices(x)
        else:
            f, dev_triplets = system.eval_devices_triplets(x)
        if use_be:
            residual = alpha * (c_matrix @ x - cx_old) + g_matrix @ x + f - b_new
        else:
            residual = (
                alpha * (c_matrix @ x - cx_old)
                + g_matrix @ x + f
                + g_matrix @ x_old + f_old
                - b_new - b_old
            )
        norm = float(np.max(np.abs(residual)))
        residual_history.append(norm)
        if norm < tol:
            return x
        if dense_mode:
            jacobian = assembler.at_alpha(alpha)
            if jac_dev is not None:
                jacobian = jacobian + jac_dev
        else:
            jacobian = _device_jacobian_system(assembler, alpha, dev_triplets)
        delta = ResilientFactorization(
            jacobian, site="transient.newton", policy=policy
        ).solve(-np.asarray(residual).ravel())
        step = float(np.max(np.abs(delta)))
        if step > 2.0:
            delta = delta * (2.0 / step)
            step = 2.0
        last_step = step
        x = x + delta
    raise ConvergenceError(
        f"transient Newton failed to converge at alpha={alpha:.3e} "
        f"(residual {residual_history[-1]:.3e})",
        residual_history=tuple(residual_history),
        last_step=last_step,
    )
