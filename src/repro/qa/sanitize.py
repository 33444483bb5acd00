"""Opt-in numerics sanitizer: instrument MNA, transient, and sparsifiers.

The ERC catches structural problems; this context manager catches the
*numerical* ones while code actually runs::

    from repro import qa

    with qa.sanitize() as guard:
        blocks = sparsifier.apply(extraction)      # SPD-checked on return
        result = transient_analysis(circuit, ...)  # NaN/energy-checked

Inside the ``with`` block three layers are instrumented (by patching the
classes, so it works no matter where they were imported from):

* :meth:`repro.circuit.mna.MNASystem.build_matrices` -- every dense
  inductance / K block of the circuit is checked for symmetry and
  positive definiteness (via :func:`repro.sparsify.stability.spd_margin`)
  before the matrices are handed to any solver.
* every concrete :class:`repro.sparsify.base.Sparsifier` strategy --
  returned blocks must be SPD, i.e. the sparsified system stays passive.
* :class:`repro.circuit.transient.TransientResult` -- state trajectories
  are checked for NaN/Inf, and (when the full state was recorded) for
  energy growth across source-free intervals: a passive circuit must not
  generate energy, the paper's definition of the truncation failure mode.

Violations are handled per :class:`SanitizePolicy`: ``"raise"`` (default)
raises :class:`PassivityError`, ``"warn"`` emits a :class:`RuntimeWarning`,
``"collect"`` only records -- in every mode the findings accumulate in
``guard.diagnostics``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.circuit.mna import MNASystem
from repro.circuit.transient import TransientResult
from repro.qa.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.sparsify.base import Sparsifier
from repro.sparsify.stability import DEFAULT_SYM_TOL, spd_margin


class PassivityError(RuntimeError):
    """A sanitizer check failed under the ``"raise"`` policy."""


@dataclass(frozen=True)
class SanitizePolicy:
    """What the sanitizer checks and what it does on a violation.

    Attributes:
        on_violation: ``"raise"`` | ``"warn"`` | ``"collect"``.
        check_spd: Verify symmetry/SPD of every L and K block at MNA
            compile time and on every sparsifier's output.
        check_finite: Reject NaN/Inf anywhere in recorded transient state.
        check_energy: Verify stored energy is non-increasing across
            source-free intervals (needs the full state recorded; skipped
            otherwise).
        spd_tol: Relative SPD margin (vs. largest diagonal entry) below
            which a block counts as non-passive.
        sym_tol: Relative asymmetry treated as round-off when
            symmetrizing (see :data:`repro.sparsify.stability.DEFAULT_SYM_TOL`).
        energy_rtol: Allowed relative energy growth across a source-free
            interval (integration round-off headroom).
        min_source_free_steps: Shortest source-free run of time steps the
            energy check considers.
    """

    on_violation: str = "raise"
    check_spd: bool = True
    check_finite: bool = True
    check_energy: bool = True
    spd_tol: float = 1e-12
    sym_tol: float = DEFAULT_SYM_TOL
    energy_rtol: float = 1e-6
    min_source_free_steps: int = 5

    def __post_init__(self) -> None:
        if self.on_violation not in ("raise", "warn", "collect"):
            raise ValueError(
                f"on_violation must be 'raise', 'warn', or 'collect', "
                f"got {self.on_violation!r}"
            )


class Sanitizer:
    """The active instrumentation; created by :func:`sanitize`."""

    def __init__(self, policy: SanitizePolicy) -> None:
        self.policy = policy
        self.diagnostics = DiagnosticReport()
        self._saved: list[tuple[type, str, object]] = []
        self._checked_systems: set[int] = set()

    # -- violation funnel --------------------------------------------------

    def _violation(self, rule: str, message: str, location: str,
                   hint: str) -> None:
        diag = Diagnostic(
            rule=rule,
            severity=Severity.ERROR,
            message=message,
            location=location,
            hint=hint,
        )
        self.diagnostics.add(diag)
        if self.policy.on_violation == "raise":
            raise PassivityError(diag.format())
        if self.policy.on_violation == "warn":
            warnings.warn(diag.format(), RuntimeWarning, stacklevel=3)

    # -- block checks ------------------------------------------------------

    def _check_block(self, label: str, matrix: np.ndarray, origin: str) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if not np.all(np.isfinite(matrix)):
            self._violation(
                "qa.nonfinite-matrix",
                f"{label} contains NaN/Inf entries",
                origin,
                "fix the extraction or sparsification producing the block",
            )
            return
        margin = spd_margin(matrix, sym_tol=self.policy.sym_tol)
        scale = float(np.abs(np.diagonal(matrix)).max()) if matrix.size else 1.0
        if margin <= self.policy.spd_tol * scale:
            kind = ("asymmetric" if margin == -np.inf
                    else "not positive definite")
            self._violation(
                "qa.non-spd",
                f"{label} is {kind} (SPD margin {margin:.3e}); the modeled "
                "system is active and can generate energy",
                origin,
                "use a passivity-preserving sparsifier or lower its "
                "threshold",
            )

    def _check_circuit_blocks(self, system: MNASystem) -> None:
        if id(system) in self._checked_systems:
            return
        self._checked_systems.add(id(system))
        circuit = system.circuit
        for lset in circuit.inductor_sets:
            self._check_block(
                f"inductance matrix of set {lset.name!r}", lset.matrix,
                f"mna({circuit.name})",
            )
        for kset in circuit.k_sets:
            self._check_block(
                f"K matrix of set {kset.name!r}", kset.kmatrix,
                f"mna({circuit.name})",
            )

    # -- transient checks --------------------------------------------------

    def _check_transient(self, result: TransientResult) -> None:
        if self.policy.check_finite and not np.all(np.isfinite(result.data)):
            bad_step = int(np.argmax(~np.all(np.isfinite(result.data), axis=1)))
            self._violation(
                "qa.nonfinite-state",
                f"transient state contains NaN/Inf from t = "
                f"{result.times[bad_step]:.3e} s",
                f"transient({result.system.circuit.name})",
                "the system is unstable or the matrix is near-singular; "
                "run `repro check` on the circuit",
            )
            return
        if self.policy.check_energy:
            self._check_energy(result)

    def _full_state(self, result: TransientResult) -> bool:
        return len(result.columns) == result.system.size

    def _check_energy(self, result: TransientResult) -> None:
        system = result.system
        circuit = system.circuit
        # The quadratic form 0.5 x^T C x is the stored energy only for the
        # plain RLC portion; skip when other dynamics are present or the
        # state was partially recorded.
        if (circuit.k_sets or circuit.macromodels or circuit.devices
                or not self._full_state(result)):
            return
        g_matrix, c_matrix = system.build_matrices()
        cx = c_matrix @ result.data.T
        energy = 0.5 * np.einsum("ts,st->t", result.data, cx)
        source_free = np.array(
            [not np.any(system.rhs(t)) for t in result.times]
        )
        floor = self.policy.energy_rtol * max(float(energy.max(initial=0.0)),
                                              1e-300)
        run_start = None
        for k in range(len(result.times) + 1):
            inside = k < len(result.times) and source_free[k]
            if inside and run_start is None:
                run_start = k
                continue
            if not inside and run_start is not None:
                if k - run_start > self.policy.min_source_free_steps:
                    seg = energy[run_start:k]
                    growth = float(np.max(seg - np.minimum.accumulate(seg)))
                    if growth > floor:
                        t0 = result.times[run_start]
                        self._violation(
                            "qa.energy-growth",
                            f"stored energy grew by {growth:.3e} J during "
                            f"the source-free interval starting at "
                            f"t = {t0:.3e} s; the circuit is active",
                            f"transient({circuit.name})",
                            "a non-SPD inductance block is the usual cause; "
                            "run `repro check` on the circuit",
                        )
                        return
                run_start = None

    # -- patching ----------------------------------------------------------

    def _patch(self, cls: type, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "Sanitizer":
        guard = self

        if self.policy.check_spd:
            original_build = MNASystem.build_matrices

            def build_matrices(self, fmt: str = "auto"):
                guard._check_circuit_blocks(self)
                return original_build(self, fmt)

            self._patch(MNASystem, "build_matrices", build_matrices)

            def _concrete_sparsifiers(base: type) -> Iterator[type]:
                for sub in base.__subclasses__():
                    if "apply" in sub.__dict__:
                        yield sub
                    yield from _concrete_sparsifiers(sub)

            for cls in set(_concrete_sparsifiers(Sparsifier)):
                original_apply = cls.__dict__["apply"]

                def apply(self, result, _original=original_apply,
                          _name=cls.__name__):
                    blocks = _original(self, result)
                    for j, (indices, matrix) in enumerate(blocks.blocks):
                        if len(indices) < 2:
                            continue
                        guard._check_block(
                            f"{blocks.kind} block {j} ({len(indices)} "
                            "branches)",
                            matrix,
                            f"sparsify({_name})",
                        )
                    return blocks

                self._patch(cls, "apply", apply)

        if self.policy.check_finite or self.policy.check_energy:
            original_post = TransientResult.__post_init__

            def __post_init__(self):
                original_post(self)
                guard._check_transient(self)

            self._patch(TransientResult, "__post_init__", __post_init__)

        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


def sanitize(policy: SanitizePolicy | None = None, **kwargs) -> Sanitizer:
    """Create the sanitizer context manager.

    Args:
        policy: A full policy, or None to build one from ``kwargs``
            (e.g. ``sanitize(on_violation="collect", check_energy=False)``).

    Returns:
        The (not yet entered) :class:`Sanitizer`.
    """
    if policy is not None and kwargs:
        raise ValueError("pass either a policy object or keyword overrides")
    if policy is None:
        policy = SanitizePolicy(**kwargs)
    return Sanitizer(policy)


__all__ = ["PassivityError", "SanitizePolicy", "Sanitizer", "sanitize"]
