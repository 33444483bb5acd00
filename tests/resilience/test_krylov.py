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

from repro.circuit import linalg
from repro.circuit.linalg import (
    KRYLOV_RESIDUAL_TOL,
    LSTSQ_DENSE_LIMIT,
    OperatorSystem,
    ResilientFactorization,
    SingularCircuitError,
    resilient_solve,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracing
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


def _operator_system(a):
    """Wrap dense ``a`` as an OperatorSystem with an exact preconditioner."""
    return OperatorSystem(
        matvec=lambda x: a @ x,
        precond=sp.csc_matrix(a),
        materialize=lambda: np.asarray(a),
        shape=a.shape,
        dtype=a.dtype,
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


class TestKrylovSpans:
    def test_setup_and_gmres_spans(self):
        # A diagonal preconditioner leaves GMRES several iterations, so
        # the span's count is compared against a non-trivial delta.
        a, b = _dense_system(n=40)
        n = a.shape[0]
        system = OperatorSystem(
            matvec=lambda x: a @ x,
            precond=sp.diags(np.diagonal(a)).tocsc(),
            materialize=lambda: np.asarray(a),
            shape=a.shape,
            dtype=a.dtype,
        )
        iters0 = obs_metrics.counter("solver.krylov_iterations").value
        with inject_faults(), tracing() as trace:
            resilient_solve(system, b, site="t", policy=SAFE)
        iters = obs_metrics.counter("solver.krylov_iterations").value - iters0
        setup = trace.find("solver.krylov.setup")
        assert setup.attrs["size"] == n
        assert setup.attrs["precond_nnz"] == n
        assert setup.attrs["factor_nnz"] >= n
        gmres = [s for s in trace.iter_spans()
                 if s.name == "solver.krylov.gmres"]
        assert len(gmres) == 1
        assert iters > 1
        assert gmres[0].attrs["iterations"] == iters
        assert gmres[0].attrs["backward_error"] <= KRYLOV_RESIDUAL_TOL

    def test_direct_rungs_open_no_spans(self):
        a, b = _dense_system()
        with inject_faults(), tracing() as trace:
            resilient_solve(a, b, site="t", policy=SAFE)
            resilient_solve(sp.csc_matrix(a), b, site="t", policy=SAFE)
        assert trace.roots == []


class TestKrylovFallback:
    @pytest.fixture(autouse=True)
    def tight(self, monkeypatch):
        """Two GMRES iterations against an identity preconditioner cannot
        reach machine-level backward error on a random dense system, so
        the rung exhausts its budget and stagnates deterministically."""
        monkeypatch.setattr(linalg, "KRYLOV_RESTART", 2)
        monkeypatch.setattr(linalg, "KRYLOV_MAXITER", 1)
        monkeypatch.setattr(linalg, "KRYLOV_TOL", 1e-30)
        monkeypatch.setattr(linalg, "KRYLOV_RESIDUAL_TOL", 1e-15)

    def _stagnating_system(self, n=18, seed=9):
        """Operator whose preconditioner is useless (identity).

        Under the :meth:`tight` two-iteration budget GMRES cannot meet
        the backward-error acceptance, so the chain must materialize the
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
            rf = ResilientFactorization(system, site="t", policy=SAFE)
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
            resilient_solve(system, b, site="t", policy=SAFE)
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
            rf = ResilientFactorization(system, site="t", policy=SAFE)
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
            x = resilient_solve(system, b, site="t", policy=SAFE)
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
        assert all(self._solve_and_drop(_operator_system(a), b))
