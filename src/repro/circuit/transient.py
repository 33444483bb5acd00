"""Transient analysis: trapezoidal / backward-Euler time stepping.

Integrates ``C dx/dt + G x + f(x) = b(t)`` with a fixed step.  Linear
circuits factor the companion matrix once and reuse it every step;
circuits with nonlinear devices run damped Newton per step.  The first
couple of steps always use backward Euler to damp the startup transient
of inconsistent initial conditions (standard practice; trapezoidal rule
would ring forever on them).

A failing step is retried (transient faults), then halved into ``2^k``
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

    def companion(alpha: float) -> ResilientFactorization:
        key = quantize_alpha(alpha)
        factor = factor_cache.get(key)
        if factor is None:
            # The union pattern / operator wrapper is shared across all
            # alphas; the factorization (splu or the Krylov rung's
            # preconditioner factor) is cached per quantized alpha.
            factor = ResilientFactorization(
                assembler.at_alpha(alpha), site="transient", policy=policy
            )
            factor_cache.put(key, factor)
        return factor

    def linear_step(x_old, b_old, b_new, alpha, use_be):
        if use_be:
            rhs = c_matrix @ x_old * alpha + b_new
        else:
            rhs = (
                (alpha * (c_matrix @ x_old) - g_matrix @ x_old) + b_new + b_old
            )
        return companion(alpha).solve(rhs)

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
    with activate(report), span(
        "circuit.transient",
        size=system.size,
        steps=num_steps,
        method=method,
        sparse=sparse,
    ):
        b_prev = system.rhs(times[start_step])
        f_prev, _ = (
            system.eval_devices(x) if system.has_devices else (None, None)
        )
        since_checkpoint = 0
        for k in range(start_step, num_steps):
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
            since_checkpoint += 1
            if (
                checkpoint is not None
                and since_checkpoint >= checkpoint.interval
                and k + 1 < num_steps
            ):
                save(k + 1, "periodic")
                since_checkpoint = 0

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
