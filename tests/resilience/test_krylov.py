"""The matrix-free krylov rung and its fallback into the direct chain.

Covers the PR 9 solve-tier contract: an :class:`OperatorSystem` input
prepends a preconditioned-GMRES rung to the escalation chain; the same
system expressed dense / sparse / operator yields the same answer; a
stagnating Krylov solve falls back to the materialized direct path and
records the downgrade; and the lstsq rescue rung refuses to densify
arbitrarily large sparse systems.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.linalg import (
    LSTSQ_DENSE_LIMIT,
    OperatorSystem,
    ResilientFactorization,
    SingularCircuitError,
    resilient_solve,
)
from repro.obs import metrics as obs_metrics
from repro.resilience import ResiliencePolicy, RunReport, activate, inject_faults

SAFE = ResiliencePolicy(escalation="safe")
FULL = ResiliencePolicy(escalation="full")


def _dense_system(n=24, seed=3, dtype=complex):
    """A well-conditioned diagonally dominant test matrix and RHS."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    if dtype is complex:
        a = a + 1j * rng.normal(size=(n, n)) * 0.1
    b = rng.normal(size=n) + (1j * rng.normal(size=n) if dtype is complex else 0.0)
    return a.astype(dtype), b.astype(dtype)


def _operator_system(a, lowrank_cols=0, seed=11):
    """Wrap dense ``a`` as an OperatorSystem.

    With ``lowrank_cols > 0``, splits ``a = precond + U @ V`` with a
    random rank-``lowrank_cols`` far field, exercising the Woodbury
    branch of the preconditioner.
    """
    n = a.shape[0]
    if lowrank_cols:
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n, lowrank_cols)).astype(a.dtype)
        v = rng.normal(size=(lowrank_cols, n)).astype(a.dtype)
        scale = np.abs(a).max() / max(np.abs(u @ v).max(), 1e-300)
        u = u * (0.05 * scale)
        precond = sp.csc_matrix(a - u @ v)
        lowrank = (u, v)
    else:
        precond = sp.csc_matrix(a)
        lowrank = None
    return OperatorSystem(
        matvec=lambda x: a @ x,
        precond=precond,
        materialize=lambda: np.asarray(a),
        shape=a.shape,
        dtype=a.dtype,
        lowrank=lowrank,
    )


def _as_form(a, form):
    if form == "dense":
        return a
    if form == "csr":
        return sp.csr_matrix(a)
    if form == "operator":
        return _operator_system(a)
    raise ValueError(form)


class TestChainOverMatrixForms:
    @pytest.mark.parametrize("form", ["dense", "csr", "operator"])
    def test_clean_solve_agrees_across_forms(self, form):
        a, b = _dense_system()
        x_ref = np.linalg.solve(a, b)
        with inject_faults():
            rf = ResilientFactorization(_as_form(a, form), site="t", policy=SAFE)
            x = rf.solve(b)
        assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("form", ["dense", "csr", "operator"])
    def test_winner_rung_per_form(self, form):
        a, b = _dense_system()
        with inject_faults():
            rf = ResilientFactorization(_as_form(a, form), site="t", policy=SAFE)
            rf.solve(b)
        expected = "krylov" if form == "operator" else "lu"
        assert rf.report.winner == expected

    @pytest.mark.parametrize("form", ["dense", "csr", "operator"])
    def test_real_companion_dtype(self, form):
        a, b = _dense_system(dtype=float)
        with inject_faults():
            x = resilient_solve(_as_form(a, form), b, site="t", policy=SAFE)
        assert np.isrealobj(x) or np.allclose(x.imag, 0.0)
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-12)


class TestKrylovRung:
    def test_woodbury_lowrank_preconditioner(self):
        a, b = _dense_system(n=40)
        system = _operator_system(a, lowrank_cols=5)
        with inject_faults():
            rf = ResilientFactorization(system, site="t", policy=SAFE)
            x = rf.solve(b)
        assert rf.report.winner == "krylov"
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-12)

    def test_metrics_incremented(self):
        a, b = _dense_system()
        solves0 = obs_metrics.counter("solver.krylov_solves").value
        with inject_faults():
            resilient_solve(_operator_system(a), b, site="t", policy=SAFE)
        assert obs_metrics.counter("solver.krylov_solves").value == solves0 + 1

    def test_reuses_factorization_across_solves(self):
        a, _ = _dense_system()
        rng = np.random.default_rng(5)
        with inject_faults():
            rf = ResilientFactorization(_operator_system(a), site="t", policy=SAFE)
            for _ in range(3):
                b = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
                assert np.allclose(a @ rf.solve(b), b, rtol=1e-9, atol=1e-12)
        assert rf.report.winner == "krylov"

    def test_requires_operator_input(self):
        # The krylov rung never appears for plain matrices: policy rungs
        # for a dense input must not contain it.
        a, _ = _dense_system()
        rf = ResilientFactorization(a, site="t", policy=SAFE)
        assert "krylov" not in rf._rungs


class TestKrylovFallback:
    #: Two GMRES iterations against an identity preconditioner cannot
    #: reach machine-level backward error on a random dense system, so
    #: the rung exhausts its budget and stagnates deterministically.
    TIGHT = ResiliencePolicy(
        escalation="safe", krylov_restart=2, krylov_maxiter=1,
        krylov_tol=1e-30, krylov_residual_tol=1e-15,
    )

    def _stagnating_system(self, n=18, seed=9):
        """Operator whose preconditioner is useless (identity).

        Under :attr:`TIGHT`'s two-iteration budget GMRES cannot meet the
        backward-error acceptance, so the chain must materialize the
        operator and fall back to the direct rungs.
        """
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 0.1 * np.eye(n)
        return a, OperatorSystem(
            matvec=lambda x: a @ x,
            precond=sp.identity(n, format="csc"),
            materialize=lambda: np.asarray(a),
            shape=a.shape,
            dtype=float,
        )

    def test_stagnation_falls_back_to_dense_direct(self):
        _, system = self._stagnating_system()
        b = np.ones(system.shape[0])
        fallbacks0 = obs_metrics.counter("solver.krylov_fallbacks").value
        stagnations0 = obs_metrics.counter("solver.krylov_stagnations").value
        with inject_faults():
            rf = ResilientFactorization(system, site="t", policy=self.TIGHT)
            x = rf.solve(b)
        # The answer comes from the materialized matrix via LU.
        assert np.allclose(system.materialize() @ x, b, rtol=1e-9, atol=1e-12)
        assert rf.report.winner == "lu"
        assert [a.rung for a in rf.report.attempts][0] == "krylov"
        assert obs_metrics.counter("solver.krylov_fallbacks").value == fallbacks0 + 1
        assert (
            obs_metrics.counter("solver.krylov_stagnations").value
            == stagnations0 + 1
        )

    def test_fallback_records_run_report_downgrade(self):
        _, system = self._stagnating_system()
        b = np.ones(system.shape[0])
        report = RunReport()
        with inject_faults(), activate(report):
            resilient_solve(system, b, site="t", policy=self.TIGHT)
        downgrades = report.downgrades
        assert len(downgrades) == 1
        assert "krylov" in downgrades[0].detail

    def test_materializes_at_most_once(self):
        _, system = self._stagnating_system()
        calls = []
        true_materialize = system.materialize
        system.materialize = lambda: calls.append(1) or true_materialize()
        b = np.ones(system.shape[0])
        with inject_faults():
            rf = ResilientFactorization(system, site="t", policy=self.TIGHT)
            rf.solve(b)
            rf.solve(2.0 * b)
        assert len(calls) == 1

    def test_singular_precond_escalates_not_crashes(self):
        # A singular preconditioner must fail the krylov rung cleanly
        # and hand over to the direct chain on the materialized matrix.
        n = 12
        rng = np.random.default_rng(2)
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        system = OperatorSystem(
            matvec=lambda x: a @ x,
            precond=sp.csc_matrix((n, n)),  # all-zero: splu must fail
            materialize=lambda: np.asarray(a),
            shape=a.shape,
            dtype=float,
        )
        b = np.ones(n)
        with inject_faults():
            x = resilient_solve(system, b, site="t", policy=self.TIGHT)
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-12)


class TestLstsqSizeGuard:
    def test_large_sparse_singular_system_is_refused(self):
        # Singular at grid scale: every cheaper rung fails, and the
        # lstsq rung must refuse to densify instead of allocating an
        # O(n^2) Gram matrix.
        n = LSTSQ_DENSE_LIMIT + 1
        singular = sp.eye(n, format="csr") * 0.0
        b = np.ones(n)
        with inject_faults():
            with pytest.raises(SingularCircuitError) as excinfo:
                resilient_solve(singular, b, site="t", policy=FULL)
        message = str(excinfo.value)
        assert "refuses to densify" in message
        assert "fix the topology" in message

    def test_small_sparse_singular_system_still_rescued(self):
        # Below the limit the rung still works: a consistent singular
        # system gets its minimum-norm solution.
        n = 8
        a = sp.csr_matrix(np.diag([1.0] * (n - 1) + [0.0]))
        b = np.zeros(n)
        b[0] = 1.0
        with inject_faults():
            x = resilient_solve(a, b, site="t", policy=FULL)
        assert np.allclose((a @ x)[0], 1.0, rtol=1e-6)


class TestFactorizationLifetime:
    """A dropped ResilientFactorization frees its factor without the
    cyclic garbage collector: the rung closure it stores must not refer
    back to it."""

    @staticmethod
    def _solve_and_drop(matrix, b):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            with inject_faults():
                rf = ResilientFactorization(matrix, site="t", policy=SAFE)
                rf.solve(b)
            refs = [weakref.ref(rf), weakref.ref(rf._solver)]
            del rf
            return [ref() is None for ref in refs]
        finally:
            gc.enable()

    def test_lu_rung_factor_is_freed(self, monkeypatch):
        import weakref

        from repro.circuit import linalg

        made = []

        class Tracked(linalg.Factorization):
            def __init__(self, matrix):
                super().__init__(matrix)
                made.append(weakref.ref(self))

        monkeypatch.setattr(linalg, "Factorization", Tracked)
        a, b = _dense_system()
        freed = self._solve_and_drop(a, b)
        assert made and all(ref() is None for ref in made)
        assert all(freed)

    def test_krylov_rung_closure_is_freed(self):
        a, b = _dense_system(n=40)
        assert all(self._solve_and_drop(_operator_system(a, 5), b))
