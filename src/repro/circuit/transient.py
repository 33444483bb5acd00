"""Transient analysis: trapezoidal / backward-Euler time stepping.

Integrates ``C dx/dt + G x + f(x) = b(t)`` with a fixed step.  The
first couple of steps always use backward Euler to damp the startup
transient of inconsistent initial conditions (standard practice;
trapezoidal rule would ring forever on them).

Circuits with nonlinear devices run damped Newton per step.  Linear
circuits step in **blocks**, one per checkpoint interval (the whole run
without a checkpoint): the companion matrix ``alpha C + G`` is factored
once per step size through the escalation chain, every source is
sampled once over the time grid, and each step is one product plus the
accepted LU's raw solve.  A block fires the ``transient.step`` fault
site once at its start and checks finiteness once at its end.

A block that raises or comes out non-finite, or whose factor is on a
rung other than direct LU, re-runs from its start state **per step**:
a failing step is retried (transient faults), then halved into ``2^k``
backward-Euler substeps (hard nonlinear steps), per the
:class:`~repro.resilience.policy.ResiliencePolicy`; every rescue is
logged in the result's :class:`~repro.resilience.report.RunReport`.
Long runs can checkpoint themselves periodically and resume after a
crash (see :class:`~repro.resilience.checkpoint.CheckpointConfig` and
the ``repro resume`` CLI command).

The K-matrix element (inverse inductance, Section 4 of the paper) needs no
special handling here: :class:`MNASystem` already expresses it in the
``G``/``C`` matrices, which is exactly the "special circuit simulator that
can handle the K matrix" the paper calls for.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.circuit.dc import ConvergenceError, dc_operating_point
from repro.circuit.linalg import (
    OperatorSystem,
    ResilientFactorization,
    SingularCircuitError,
    SweepAssembler,
)
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.perf.cache import FACTOR_CACHE_SIZE, LRUCache, quantize_alpha
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CheckpointConfig,
    finish_checkpoint,
    load_checkpoint,
    save_checkpoint,
    verify_fingerprint,
)
from repro.resilience.faults import InjectedFault
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import RunReport, activate, current_run_report


@dataclass
class TransientResult:
    """Time-domain simulation result.

    Attributes:
        times: Time points [s], shape (num_steps + 1,).
        data: Unknown trajectories, shape (num_steps + 1, recorded columns).
        columns: Names of recorded columns (node or branch names).
        system: The compiled MNA system.
        report: Resilience log of the run (retries, halvings, checkpoints).
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


def _unknown_names(system: MNASystem) -> list[str]:
    """Name of every MNA unknown, in state-vector order."""
    names = [""] * system.size
    for node in system.circuit.node_names:
        idx = system.node_index(node)
        if idx >= 0:
            names[idx] = node
    for name, idx in system._branch_index.items():
        names[idx] = name
    return names


def _embedded_deck(system: MNASystem, t_stop: float) -> str | None:
    """The circuit as SPICE text, or None if it has no SPICE form."""
    from repro.io.spice import write_spice

    out = io.StringIO()
    try:
        write_spice(system.circuit, out, t_stop=t_stop)
    except ValueError:
        return None
    text = out.getvalue()
    if len(text) > 8_000_000:  # don't balloon checkpoints of huge meshes
        return None
    return text


#: The step product reads G and C from CSR when their stored entries,
#: plus this allowance for the two sparse calls' fixed cost, are at most
#: an eighth of n^2 (see :func:`_product_format`).
_CSR_PRODUCT_ALLOWANCE = 4096


def _product_format(g_matrix, c_matrix) -> str:
    """Format of the matrices that form each step's ``alpha C x - G x``.

    ``"csr"`` when G and C together store few entries relative to n^2,
    ``"dense"`` otherwise; an operator-backed C applies itself
    (``"operator"``).  A dense product touches all n^2 entries of each
    matrix, a CSR one only the stored entries, at several times the cost
    per entry plus a fixed call overhead: the dense form wins for small
    or filled systems, CSR for large sparse ones.
    """
    from repro.circuit.operator import OperatorStampedMatrix

    if isinstance(c_matrix, OperatorStampedMatrix):
        return "operator"
    if sp.issparse(g_matrix):
        return "csr"
    n = g_matrix.shape[0]
    stored = np.count_nonzero(g_matrix) + np.count_nonzero(c_matrix)
    return "csr" if 8 * (stored + _CSR_PRODUCT_ALLOWANCE) <= n * n else "dense"


def _source_samples(
    system: MNASystem, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``b(t)`` over the whole time grid, on the rows the sources touch.

    Every waveform is evaluated once per time point, and the rows are
    accumulated in :meth:`MNASystem.rhs`'s order with its operations, so
    a ``b`` rebuilt from them is bit-identical to ``system.rhs(t)``.

    Returns:
        ``(rows, values)``: the touched rows and their values, shape
        ``(len(times), len(rows))`` -- sources by steps, never n by steps.
    """
    circuit = system.circuit
    ni = circuit.node_index
    acc: dict[int, np.ndarray] = {}

    def sample(waveform) -> np.ndarray:
        return np.array([waveform(t) for t in times], dtype=float)

    for src in circuit.isources:
        current = sample(src.waveform)
        a, c = ni(src.n_plus), ni(src.n_minus)
        if a >= 0:
            acc[a] = acc.get(a, 0.0) - current
        if c >= 0:
            acc[c] = acc.get(c, 0.0) + current
    for src in circuit.vsources:
        acc[system.branch_index(src.name)] = -sample(src.waveform)
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


def _step_kinds(method: str, k0: int, k1: int):
    """``(first, stop, use_be)`` runs of equal step kind in steps k0..k1."""
    if method == "be":
        return [(k0, k1, True)]
    runs = []
    if k0 < 2:
        runs.append((k0, min(k1, 2), True))
    if k1 > 2:
        runs.append((max(k0, 2), k1, False))
    return runs


class _BlockStepper:
    """Raw-solve stepping of a linear circuit between checkpoints.

    Holds what every block of one run shares: the step-product matrices
    in the format :func:`_product_format` picks, and the source values
    of :func:`_source_samples`.  Each step evaluates :func:`_step_rhs`,
    as the per-step path does, so on dense products the states are
    bit-identical to that path's.
    """

    def __init__(self, system, g_matrix, c_matrix, times, indices) -> None:
        self.product = _product_format(g_matrix, c_matrix)
        if self.product == "csr" and not sp.issparse(g_matrix):
            g_matrix = sp.csr_matrix(g_matrix)
            c_matrix = sp.csr_matrix(c_matrix)
        self._g = g_matrix
        self._c = c_matrix
        self._size = system.size
        self._rows, self._values = _source_samples(system, times)
        self._indices = np.asarray(indices, dtype=np.intp)

    def run(self, x, k0, segments, out) -> np.ndarray:
        """Step ``x`` through ``segments`` from step ``k0``.

        Args:
            x: State at step ``k0``.
            segments: ``(first, stop, alpha, use_be, solve)`` runs of
                steps sharing one companion solve, in order.
            out: Recorded trajectories; rows ``k0 + 1 ..`` are written.

        Returns:
            The state after the last step, unchecked.
        """
        g, c, idx = self._g, self._c, self._indices
        rows, values, n = self._rows, self._values, self._size
        b_old = np.zeros(n)
        b_old[rows] = values[k0]
        for first, stop, alpha, use_be, solve in segments:
            for k in range(first, stop):
                b_new = np.zeros(n)
                b_new[rows] = values[k + 1]
                x = solve(_step_rhs(g, c, x, b_old, b_new, alpha, use_be))
                out[k + 1] = x[idx]
                b_old = b_new
        return x


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
    checkpoint: CheckpointConfig | None = None,
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
        policy: Resilience policy (escalation rungs, retry budget, step
            halvings); default from ``REPRO_RESILIENCE``.
        checkpoint: Periodic snapshotting / resume configuration.  When
            given and the file exists (and matches this run), the
            simulation resumes from the last completed step; an
            unrecoverable failure writes an emergency snapshot before
            the exception propagates.

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
    report = current_run_report() or RunReport()
    g_matrix, c_matrix = system.build_matrices()
    sparse = sp.issparse(g_matrix)

    num_steps = int(round(t_stop / dt))
    times = np.arange(num_steps + 1) * dt
    indices, names = _recorded_columns(system, record)
    data = np.zeros((num_steps + 1, len(indices)))

    fingerprint = {
        "size": int(system.size),
        "num_steps": num_steps,
        "dt": float(dt),
        "t_stop": float(t_stop),
        "method": method,
        "columns": list(names),
    }
    start_step = 0
    x = None
    if checkpoint is not None and checkpoint.resume and checkpoint.path.exists():
        snap = load_checkpoint(checkpoint.path)
        verify_fingerprint(snap, "transient", fingerprint, checkpoint.path)
        start_step = int(snap.meta["step"])
        x = np.asarray(snap.arrays["x"], dtype=float)
        data[: start_step + 1] = snap.arrays["data"]
        report.record_resume(
            "transient",
            f"resumed from {checkpoint.path} at step {start_step}/{num_steps} "
            f"(t = {times[start_step]:.6g} s)",
        )

    if x is None:
        if x0 is None:
            with activate(report):
                x = dc_operating_point(system, t=0.0, policy=policy)
        elif isinstance(x0, str) and x0 == "zero":
            x = np.zeros(system.size)
        else:
            x = np.asarray(x0, dtype=float).copy()
            if x.shape != (system.size,):
                raise ValueError(
                    f"x0 has shape {x.shape}, expected ({system.size},)"
                )
        data[0] = x[indices]

    def save(step: int, reason: str) -> None:
        meta = {
            "fingerprint": fingerprint,
            "step": step,
            "reason": reason,
            "num_nodes": int(system.n),
            "unknowns": _unknown_names(system),
            "args": {
                "t_stop": float(t_stop),
                "dt": float(dt),
                "method": method,
                "record": None if record is None else list(record),
                "newton_tol": float(newton_tol),
                "max_newton": int(max_newton),
            },
        }
        deck = _embedded_deck(system, t_stop)
        if deck is not None:
            meta["deck"] = deck
        save_checkpoint(
            checkpoint.path, "transient", meta,
            {"x": x, "data": data[: step + 1]},
        )
        report.record_checkpoint(
            "transient", f"step {step}/{num_steps} -> {checkpoint.path} ({reason})"
        )

    # Bounded + quantized: step-halving produces one alpha per 2^k substep
    # size and near-equal alphas that differ only in the last ulps; a raw
    # float-keyed dict grows without bound and misses those near-equals.
    factor_cache: LRUCache = LRUCache(FACTOR_CACHE_SIZE)
    assembler = SweepAssembler(g_matrix, c_matrix)
    rung_used: str | None = None

    def companion(alpha: float, serves: str) -> ResilientFactorization:
        nonlocal rung_used
        key = quantize_alpha(alpha)
        factor = factor_cache.get(key)
        if factor is None:
            # The union pattern / operator wrapper is shared across all
            # alphas; the factorization (splu or the Krylov rung's
            # preconditioner factor) is cached per quantized alpha.
            with span(
                "circuit.transient.factor", size=system.size,
                format=assembler.mode, alpha=float(alpha), serves=serves,
            ) as factor_span:
                factor = ResilientFactorization(
                    assembler.at_alpha(alpha), site="transient", policy=policy
                )
                factor.direct_solver()
                factor_span.attrs["rung"] = factor.rung
            factor_cache.put(key, factor)
        rung_used = factor.rung
        return factor

    def linear_step(x_old, b_old, b_new, alpha, use_be):
        rhs = _step_rhs(g_matrix, c_matrix, x_old, b_old, b_new, alpha, use_be)
        if not use_be:
            serves = "trap"
        elif alpha == 1.0 / dt:
            serves = "be"
        else:  # a backward-Euler substep of a halved step
            serves = "halved"
        return companion(alpha, serves).solve(rhs)

    def one_step(x_old, f_old, b_old, b_new, alpha, use_be):
        faults.maybe_fail("transient.step")
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
    retries_counter = obs_metrics.counter("transient.retries")
    halvings_counter = obs_metrics.counter("transient.step_halvings")

    def step_each(k0: int, k1: int) -> None:
        """Steps ``k0 .. k1`` one solve at a time, with every rescue."""
        nonlocal x
        b_prev = system.rhs(times[k0])
        f_prev, _ = (
            system.eval_devices(x) if system.has_devices else (None, None)
        )
        for k in range(k0, k1):
            t_next = times[k + 1]
            b_next = system.rhs(t_next)
            use_be = method == "be" or k < 2
            alpha = (1.0 / dt) if use_be else (2.0 / dt)

            retries = 0
            halvings = 0
            while True:
                try:
                    if halvings == 0:
                        x_new = one_step(x, f_prev, b_prev, b_next, alpha, use_be)
                    else:
                        x_new = halved_step(x, times[k], halvings)
                    break
                except (SingularCircuitError, ConvergenceError,
                        InjectedFault) as exc:
                    if retries < policy.max_retries:
                        retries += 1
                        retries_counter.inc()
                        report.record_retry(
                            "transient",
                            f"step {k + 1} retry {retries}/"
                            f"{policy.max_retries}: {exc}",
                        )
                        continue
                    if halvings < policy.max_step_halvings:
                        halvings += 1
                        halvings_counter.inc()
                        retries = 0
                        report.record_step_halving(
                            "transient",
                            f"step {k + 1} -> {2 ** halvings} BE substeps "
                            f"(h = {dt / 2 ** halvings:.3e}): {exc}",
                        )
                        continue
                    if checkpoint is not None:
                        save(k, f"emergency: step {k + 1} failed")
                    raise
            x = x_new
            steps_counter.inc()
            if system.has_devices:
                f_prev, _ = system.eval_devices(x)
            data[k + 1] = x[indices]
            b_prev = b_next

    def step_block(stepper: _BlockStepper, k0: int, k1: int) -> bool:
        """Steps ``k0 .. k1`` with raw solves; False leaves ``x`` as it was.

        One ``transient.step`` fault site and one finiteness check per
        block; the companion factors go through the escalation chain,
        and any rung but direct LU makes the block fall back.
        """
        nonlocal x
        try:
            faults.maybe_fail("transient.step")
        except InjectedFault:
            return False
        segments, factors = [], []
        for first, stop, use_be in _step_kinds(method, k0, k1):
            alpha = (1.0 / dt) if use_be else (2.0 / dt)
            factor = companion(alpha, "be" if use_be else "trap")
            solve = factor.direct_solver()
            if solve is None:
                return False
            segments.append((first, stop, alpha, use_be, solve))
            factors.append(factor)
        x_end = stepper.run(x, k0, segments, data)
        if not (
            np.all(np.isfinite(x_end))
            and np.all(np.isfinite(data[k0 + 1 : k1 + 1]))
        ):
            return False
        if not all(factor.vouch(x_end) for factor in factors):
            return False
        x = x_end
        steps_counter.inc(k1 - k0)
        return True

    blocks = replayed = 0
    with activate(report), span(
        "circuit.transient",
        size=system.size,
        steps=num_steps,
        method=method,
        sparse=sparse,
    ) as transient_span:
        stepper = None if system.has_devices else _BlockStepper(
            system, g_matrix, c_matrix, times, indices
        )
        try:
            k = start_step
            while k < num_steps:
                stop = num_steps
                if checkpoint is not None:
                    stop = min(k + checkpoint.interval, num_steps)
                if stepper is None:
                    step_each(k, stop)
                else:
                    blocks += 1
                    if not step_block(stepper, k, stop):
                        # Re-run from the block's start state: the
                        # per-step path records every failure as before.
                        replayed += 1
                        step_each(k, stop)
                if checkpoint is not None and stop < num_steps:
                    save(stop, "periodic")
                k = stop
        finally:
            transient_span.attrs.update(
                path="per-step" if stepper is None else "block",
                blocks=blocks, replayed=replayed,
            )
            if stepper is not None:
                transient_span.attrs["product"] = stepper.product
            if rung_used is not None:
                transient_span.attrs["rung"] = rung_used

    finish_checkpoint(checkpoint)
    return TransientResult(
        times=times, data=data, columns=names, system=system, report=report
    )


def _device_jacobian_system(
    assembler: SweepAssembler,
    alpha: float,
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
):
    """``alpha C + G`` plus the device-Jacobian stamps, format-preserving.

    The sparse path adds the handful of device triplets as a sparse
    update -- never materializing an n x n dense Jacobian for a sparse
    system -- and the operator path composes them into the matvec and the
    near-field preconditioner of a new :class:`OperatorSystem`.
    """
    base = assembler.at_alpha(alpha)
    rows, cols, vals = triplets
    if assembler.mode == "sparse":
        if rows.size == 0:
            return base
        update = sp.coo_matrix((vals, (rows, cols)), shape=base.shape)
        return (base + update).tocsc()
    # Operator mode: keep the block operators matrix-free.
    update = sp.coo_matrix(
        (vals, (rows, cols)), shape=base.shape
    ).tocsr()

    def matvec(x: np.ndarray) -> np.ndarray:
        return base.matvec(x) + update @ x

    def materialize() -> np.ndarray:
        # Recorded dense fallback, built once per stagnated solve.
        return base.materialize() + update.toarray()  # qa: ignore[QA208]

    return OperatorSystem(
        matvec=matvec,
        precond=(base.precond + update).tocsc(),
        materialize=materialize,
        shape=base.shape,
        dtype=float,
    )


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
