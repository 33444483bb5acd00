"""Shared linear-algebra helpers for the circuit analyses.

Wraps dense LU (scipy.linalg) and sparse LU (SuperLU via scipy.sparse)
behind one interface so the DC/AC/transient engines don't care which
matrix format :meth:`MNASystem.build_matrices` chose.  Every sparse LU
in the program is :func:`sparse_lu`, and :func:`sparse_pays` is the one
rule that sends a dense-built linear system to it
(:func:`solve_matrices`).  Every LU factor, dense or sparse, runs on one
BLAS thread (:func:`~repro.circuit.blas.one_blas_thread`), and so do
the Krylov rung's GMRES iterations.

On top of the raw :class:`Factorization` sits the solver **escalation
chain** (:class:`ResilientFactorization`): direct LU, then equilibrated
(row/column-rescaled) LU, then a gmin-shifted solve with iterative
refinement, then Tikhonov-regularized least squares as the last resort.
Which rungs are available is governed by a
:class:`~repro.resilience.policy.ResiliencePolicy`; every attempt --
failure reason, condition estimate, accepted residual -- is recorded in
a :class:`~repro.resilience.report.SolveReport`.  The rescue rungs only
accept a solution whose residual against the *original* matrix passes
:data:`RESIDUAL_TOL` / :data:`LSTSQ_TOL`, so a genuinely singular,
inconsistent system still raises :class:`SingularCircuitError` no
matter how far the chain runs.

Two further pieces serve the sweep engines:

* the **matrix-free Krylov tier**: an :class:`OperatorSystem` wraps
  ``A = G + sigma C`` as a matvec plus a sparse near-field surrogate of
  ``A``; handing one to :class:`ResilientFactorization` prepends a
  ``"krylov"`` rung (preconditioned GMRES) to the chain, and stagnation
  falls back to the dense direct rungs -- recorded as a RunReport
  downgrade -- by materializing the operator exactly once.  The
  hierarchical loop sweep's mesh inductance is its one producer;
* the **union sweep pattern**: :class:`SweepPattern` preassembles the
  union CSC sparsity of (G, C) once and rebuilds ``G + j omega C`` /
  ``alpha C + G`` per point by writing a fresh data vector -- entry-wise
  the same arithmetic scipy's sparse add performs, so results stay
  bit-identical to the naive per-point construction.
  :class:`SweepAssembler` dispatches dense / sparse / matrix-free
  inputs to the right per-point construction.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuit.blas import one_blas_thread
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.faults import InjectedFault
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import (
    SolveAttempt,
    SolveReport,
    attach_solve_report,
    current_run_report,
)

#: Above this many unknowns the lstsq rescue rung refuses to densify a
#: sparse matrix: the O(n^2) Gram product would OOM at grid scale.
LSTSQ_DENSE_LIMIT = 4096

#: Relative diagonal shifts the gmin rung tries, times the largest diagonal.
GMIN_SHIFTS = (1e-10, 1e-7)

#: Refinement sweeps of the gmin rung against the original matrix.
REFINE_ITERS = 3

#: Largest ``max|Ax - b| / max|b|`` at which a gmin-rung solution passes.
RESIDUAL_TOL = 1e-8

#: Largest ``max|Ax - b| / max|b|`` at which a least-squares solution passes.
LSTSQ_TOL = 1e-6

#: GMRES stopping target of the krylov rung (not its acceptance test).
KRYLOV_TOL = 1e-9

#: GMRES restart length: Krylov subspace dimension per cycle.
KRYLOV_RESTART = 150

#: GMRES restart cycles before the krylov rung declares stagnation.
KRYLOV_MAXITER = 12

#: Largest normwise backward error at which a krylov solution passes.
KRYLOV_RESIDUAL_TOL = 1e-8

#: Relative pivot threshold of :func:`sparse_lu` (SPICE's PIVREL): a
#: diagonal pivot stands while it is at least this share of its column's
#: largest entry, so the zero diagonals of voltage-source rows pivot off.
PIVOT_THRESHOLD = 1e-3

#: Stored entries :func:`sparse_pays` adds for the fixed cost of a
#: sparse call before comparing against n^2.
SPARSE_ALLOWANCE = 4096


class SingularCircuitError(RuntimeError):
    """The MNA matrix is singular.

    Typical causes: a node with no DC path to ground (add a gmin or a leak
    resistor), ideal inductors in parallel with no series resistance, or a
    loop of ideal voltage sources.
    """


def sparse_lu(matrix) -> spla.SuperLU:
    """The sparse LU factor of ``matrix``: SuperLU in symmetric mode.

    MNA matrices are structurally near-symmetric, so the fill-reducing
    ordering is minimum degree on ``A + A^T`` and SuperLU keeps the
    diagonal pivots while they pass :data:`PIVOT_THRESHOLD`.  On the
    Table-1 companion matrices this stores about half the entries of
    the default COLAMD factor and a tenth of the dense one.
    """
    with one_blas_thread():
        return spla.splu(
            matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=PIVOT_THRESHOLD,
            options={"SymmetricMode": True},
        )


def sparse_pays(g_matrix, c_matrix) -> bool:
    """Whether ``alpha C + G`` is multiplied and factored sparse.

    True for sparse input, and for dense input whose G and C together
    store, with :data:`SPARSE_ALLOWANCE` for the sparse calls' fixed
    cost, at most an eighth of n^2 entries.  A dense product or LU
    touches all n^2 entries; the sparse ones touch only the stored
    entries (and the factor's fill), at several times the cost per
    entry: dense wins for small or filled systems, sparse for large
    sparse ones.
    """
    if sp.issparse(g_matrix):
        return True
    n = g_matrix.shape[0]
    stored = np.count_nonzero(g_matrix) + np.count_nonzero(c_matrix)
    return 8 * (stored + SPARSE_ALLOWANCE) <= n * n


def solve_matrices(g_matrix, c_matrix) -> tuple:
    """``(G, C)`` in the format that multiplies and factors them.

    CSR copies of dense-built matrices when :func:`sparse_pays`, the
    matrices themselves otherwise.  The linear DC point and transient
    both take their matrices from here.
    """
    if sp.issparse(g_matrix) or not sparse_pays(g_matrix, c_matrix):
        return g_matrix, c_matrix
    return sp.csr_matrix(g_matrix), sp.csr_matrix(c_matrix)


class Factorization:
    """LU factorization of a real or complex system matrix."""

    def __init__(self, matrix) -> None:
        self._sparse = sp.issparse(matrix)
        try:
            # scipy only *warns* (LinAlgWarning) on an exactly-singular
            # diagonal and hands back a factorization that produces inf on
            # solve; escalate it to the actionable error right away.
            with warnings.catch_warnings():
                warnings.simplefilter("error", sla.LinAlgWarning)
                if self._sparse:
                    self._lu = sparse_lu(matrix)
                else:
                    with one_blas_thread():
                        self._lu = sla.lu_factor(np.asarray(matrix))
        except (RuntimeError, ValueError, np.linalg.LinAlgError,
                sla.LinAlgWarning) as exc:
            raise SingularCircuitError(
                f"MNA matrix factorization failed: {exc}"
            ) from exc

    @property
    def nnz(self) -> int:
        """Stored entries of the factor: n^2 dense, SuperLU's L and U."""
        if self._sparse:
            return int(self._lu.nnz)
        return int(self._lu[0].size)

    @property
    def condition_estimate(self) -> float:
        """Cheap conditioning proxy: ``max|diag(U)| / min|diag(U)|``."""
        if self._sparse:
            u_diag = np.abs(self._lu.U.diagonal())
        else:
            u_diag = np.abs(np.diagonal(self._lu[0]))
        if u_diag.size == 0:
            return 1.0
        smallest = float(u_diag.min())
        if smallest == 0.0:
            return np.inf
        return float(u_diag.max()) / smallest

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b."""
        if self._sparse:
            x = self._lu.solve(b)
        else:
            x = sla.lu_solve(self._lu, b)
        if not np.all(np.isfinite(x)):
            raise SingularCircuitError(
                "MNA solve produced non-finite values; the circuit matrix is "
                "singular or catastrophically ill-conditioned"
            )
        return x

    def raw_solver(self) -> Callable[[np.ndarray], np.ndarray]:
        """The bare LAPACK ``getrs`` / SuperLU solve of this factor.

        No argument or finiteness checks and no copy of the right-hand
        side, which it may overwrite; on finite input the result is
        bit-identical to :meth:`solve`.  For callers that step thousands
        of solves and check their states in bulk.
        """
        if self._sparse:
            return self._lu.solve
        lu, piv = self._lu
        (getrs,) = sla.get_lapack_funcs(("getrs",), (lu,))

        def solve(b: np.ndarray) -> np.ndarray:
            return getrs(lu, piv, b, overwrite_b=True)[0]

        return solve


def add_gmin(g_matrix, num_nodes: int, gmin: float):
    """Return G with ``gmin`` added on the node-voltage diagonal.

    Keeps floating nodes (capacitor-only islands, off transistors) from
    making the DC matrix singular -- the same trick every SPICE uses.
    """
    if gmin <= 0.0:
        return g_matrix
    if sp.issparse(g_matrix):
        diag = sp.coo_matrix(
            (np.full(num_nodes, gmin), (np.arange(num_nodes), np.arange(num_nodes))),
            shape=g_matrix.shape,
        )
        return (g_matrix + diag).tocsr()
    g = g_matrix.copy()
    idx = np.arange(num_nodes)
    g[idx, idx] += gmin
    return g


def _max_abs(matrix) -> float:
    if sp.issparse(matrix):
        data = matrix.tocoo().data
        return float(np.abs(data).max(initial=0.0))
    return float(np.abs(matrix).max(initial=0.0))


def _relative_residual(matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``max|Ax - b|`` scaled by ``max|b|``.

    Deliberately NOT the normwise backward error ``/ (|A||x| + |b|)``: a
    shifted pseudo-solution of an inconsistent system has a huge ``|x|``
    that deflates the backward error below any tolerance.  Scaling by the
    right-hand side alone rejects such fabricated answers no matter how
    large the solution grew.
    """
    r = matrix @ x - b
    return float(np.abs(r).max(initial=0.0)) / max(
        float(np.abs(b).max(initial=0.0)), 1e-300
    )


def _identity_like(matrix, scale: float):
    n = matrix.shape[0]
    if sp.issparse(matrix):
        return sp.identity(n, format="csc", dtype=matrix.dtype) * scale
    return np.eye(n, dtype=np.asarray(matrix).dtype) * scale


class OperatorSystem:
    """``A = G + sigma C`` as a matrix-free system for the Krylov rung.

    Carries everything the iterative solve needs without ever forming the
    dense matrix:

    Attributes:
        matvec: Apply ``A`` to a vector (complex-safe).
        precond: Sparse surrogate of ``A`` -- ``G`` plus the exact near
            field of ``sigma C`` -- cheap to factor with ``splu``.  The
            compressed far field is left to ``matvec``.
        materialize: Build the dense ``A`` -- called at most once, only
            when the Krylov rung fails and the chain falls back to the
            direct rungs.
        shape: System shape ``(n, n)``.
        dtype: ``complex`` for AC points, ``float`` for companion
            matrices.
    """

    def __init__(
        self,
        matvec: Callable[[np.ndarray], np.ndarray],
        precond: sp.spmatrix,
        materialize: Callable[[], np.ndarray],
        shape: tuple[int, int],
        dtype,
    ) -> None:
        self._matvec = matvec
        self.precond = precond
        self.materialize = materialize
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(x)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(x)

    def __repr__(self) -> str:
        return (
            f"OperatorSystem(shape={self.shape}, dtype={self.dtype}, "
            f"precond_nnz={self.precond.nnz})"
        )


def _finish(site_r: str, x: np.ndarray) -> np.ndarray:
    """A rung's solution, after fault injection and the finiteness check.

    A module function, not a method: the rung closures that call it are
    stored on their :class:`ResilientFactorization`, and a closure over
    ``self`` would make a reference cycle that keeps every factorization
    alive until the cyclic garbage collector runs.
    """
    x = faults.corrupt_solution(site_r, x)
    if not np.all(np.isfinite(x)):
        raise SingularCircuitError(
            f"solve at {site_r} produced non-finite values"
        )
    return x


class ResilientFactorization:
    """The escalation chain: LU -> equilibrated LU -> gmin -> lstsq.

    Drop-in replacement for :class:`Factorization` at the engines' solve
    sites.  Factorization is lazy and per-rung; a rung that fails (at
    factor time or at solve time, e.g. a non-finite solution) is recorded
    in :attr:`report` and the next enabled rung takes over -- also for
    every subsequent :meth:`solve` call, so a cached factorization that
    went bad once does not get re-tried every time step.

    An :class:`OperatorSystem` input prepends the matrix-free ``krylov``
    rung (preconditioned GMRES) to the chain; if it stagnates, the
    operator is materialized exactly once -- recorded as a RunReport
    downgrade -- and the direct rungs take over on the dense matrix.

    A caller that steps thousands of solves with one matrix (a linear
    transient) takes the accepted LU's bare solve from
    :meth:`direct_solver` and checks its states once per block with
    :meth:`vouch`, which keeps the rung bookkeeping of :meth:`solve`.

    Args:
        matrix: The system matrix (dense ndarray, scipy sparse, or an
            :class:`OperatorSystem`).
        site: Dotted solve-site name for fault injection and reporting;
            rung sub-sites are ``"<site>.krylov"``, ``"<site>.lu"``,
            ``"<site>.equilibrated"``, ``"<site>.gmin"``,
            ``"<site>.lstsq"``.
        policy: Escalation policy (which rungs); default from
            ``REPRO_RESILIENCE``.
        report: Optional existing :class:`SolveReport` to append to.
    """

    def __init__(
        self,
        matrix,
        site: str = "linalg",
        policy: ResiliencePolicy | None = None,
        report: SolveReport | None = None,
    ) -> None:
        self._matrix = matrix
        self.site = site
        self.policy = policy or default_policy()
        self.report = report if report is not None else SolveReport(site=site)
        self._rungs = self.policy.rungs
        if isinstance(matrix, OperatorSystem):
            self._rungs = ("krylov",) + self._rungs
        self._dense_fallback = None
        self._rung_index = 0
        self._solver = None
        self._raw = None
        self._cond: float | None = None
        self._nnz: int | None = None
        self._ok_recorded = False
        self._attached = False

    # -- rung preparation --------------------------------------------------

    def _note(self, factor: Factorization) -> None:
        """Record the size and conditioning of the rung's factor."""
        self._cond = factor.condition_estimate
        self._nnz = factor.nnz

    def _prepare(self, rung: str):
        """Factor the matrix for ``rung``; returns a solve closure."""
        site_r = f"{self.site}.{rung}"
        faults.maybe_fail(site_r)
        if rung == "krylov":
            return self._prepare_krylov(site_r, self._matrix)
        matrix = self._matrix
        if isinstance(matrix, OperatorSystem):
            matrix = self._materialize_operator(rung)
        matrix = faults.corrupt_matrix(site_r, matrix)
        if rung == "lu":
            return self._prepare_lu(site_r, matrix)
        if rung == "equilibrated":
            return self._prepare_equilibrated(site_r, matrix)
        if rung == "gmin":
            return self._prepare_gmin(site_r, matrix)
        if rung == "lstsq":
            return self._prepare_lstsq(site_r, matrix)
        raise ValueError(f"unknown escalation rung {rung!r}")

    def _materialize_operator(self, rung: str) -> np.ndarray:
        """Dense fallback of an operator system, built at most once.

        Reaching this means the Krylov rung failed; the downgrade is
        recorded so a run that silently lost the matrix-free fast path is
        visible in its report.
        """
        if self._dense_fallback is None:
            obs_metrics.counter("solver.krylov_fallbacks").inc()
            report = current_run_report()
            if report is not None:
                report.record_downgrade(
                    "solver",
                    "krylov matrix-free",
                    f"dense {rung}",
                    f"krylov rung failed at solve site {self.site!r}",
                )
            self._dense_fallback = self._matrix.materialize()
        return self._dense_fallback

    def _prepare_krylov(self, site_r: str, system):
        """Preconditioned GMRES over the matrix-free operator.

        The preconditioner is :func:`sparse_lu` of the sparse near field
        ``G + sigma * near``, factored once per system; the compressed
        far field enters only through the operator matvec, and GMRES
        pays for it in iterations.  The factorization runs
        under a ``solver.krylov.setup`` span and every solve under a
        ``solver.krylov.gmres`` span carrying its iteration count and
        backward error.

        Acceptance is on the normwise *backward error*
        ``max|Ax - b| / (max|A| max|x| + max|b|)`` computed with a true
        operator matvec: the honest "as good as a backward-stable direct
        solve" criterion.  A plain b-relative residual would be bounded
        below by ``cond(A) * eps`` -- unreachable for the ill-conditioned
        MNA systems the dense LU rung accepts without any check -- while
        the backward error reaches machine level whenever the solve is
        LU-quality."""
        if not isinstance(system, OperatorSystem):
            raise SingularCircuitError(
                f"krylov rung at {site_r} requires an OperatorSystem input"
            )
        n = system.shape[0]
        with span(
            "solver.krylov.setup", size=n, precond_nnz=int(system.precond.nnz)
        ) as setup_span:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", sla.LinAlgWarning)
                    m_factor = sparse_lu(system.precond)
            except (RuntimeError, ValueError, np.linalg.LinAlgError,
                    sla.LinAlgWarning) as exc:
                raise SingularCircuitError(
                    f"krylov preconditioner factorization failed: {exc}"
                ) from exc
            self._nnz = int(m_factor.nnz)
            setup_span.attrs["factor_nnz"] = self._nnz
        u_diag = np.abs(m_factor.U.diagonal())
        smallest = float(u_diag.min()) if u_diag.size else 1.0
        self._cond = (
            float(u_diag.max()) / smallest if smallest > 0.0 else np.inf
        )
        precond_scale = (
            float(np.abs(system.precond.data).max())
            if system.precond.nnz else 1.0
        )
        a_op = spla.LinearOperator(
            system.shape, matvec=system.matvec, dtype=system.dtype
        )
        m_op = spla.LinearOperator(
            system.shape, matvec=m_factor.solve, dtype=system.dtype
        )
        restart = min(KRYLOV_RESTART, n)
        # Iteration budget is staged: with the near-field preconditioner
        # almost every solve converges within the first couple of
        # restart cycles, and the full budget is only spent when the
        # cheap attempt's backward error does not pass.
        first = min(2, KRYLOV_MAXITER)
        budgets = [c for c in (first, KRYLOV_MAXITER - first) if c > 0]

        def backward_error(x: np.ndarray, b_arr: np.ndarray) -> float:
            r = np.abs(system.matvec(x) - b_arr).max(initial=0.0)
            scale = (
                precond_scale * float(np.abs(x).max(initial=0.0))
                + float(np.abs(b_arr).max(initial=0.0))
            )
            return float(r) / max(scale, 1e-300)

        def run(b: np.ndarray):
            b_arr = np.asarray(b, dtype=system.dtype)
            iters = [0]

            def _count(_):
                iters[0] += 1

            obs_metrics.counter("solver.krylov_solves").inc()
            # The Arnoldi products and preconditioner solves run on one
            # BLAS thread too: with two threads, GMRES on the loop sweep
            # took up to 6x as long for the same iterations.
            with span("solver.krylov.gmres") as gmres_span, \
                    one_blas_thread():
                x = None
                error = np.inf
                info = 0
                for cycles in budgets:
                    x, info = spla.gmres(
                        a_op, b_arr, x0=x, rtol=KRYLOV_TOL,
                        atol=0.0, restart=restart, maxiter=cycles, M=m_op,
                        callback=_count, callback_type="pr_norm",
                    )
                    x = _finish(site_r, x)
                    error = backward_error(x, b_arr)
                    if error <= KRYLOV_RESIDUAL_TOL:
                        break
                gmres_span.attrs.update(
                    iterations=iters[0], backward_error=error
                )
                obs_metrics.counter("solver.krylov_iterations").inc(iters[0])
                if error <= KRYLOV_RESIDUAL_TOL:
                    return x, error
                obs_metrics.counter("solver.krylov_stagnations").inc()
                raise SingularCircuitError(
                    f"krylov (gmres) solve at {site_r} did not converge: "
                    f"info={info}, {iters[0]} iterations, backward error "
                    f"{error:.3e} exceeds {KRYLOV_RESIDUAL_TOL:.1e}"
                )

        return run

    def _prepare_lu(self, site_r: str, matrix):
        factor = Factorization(matrix)
        self._note(factor)
        self._raw = factor.raw_solver()

        def run(b: np.ndarray):
            return _finish(site_r, factor.solve(b)), None

        return run

    def _prepare_equilibrated(self, site_r: str, matrix):
        """Row/column-rescaled LU: cures badly scaled (e.g. mixed-unit)
        systems that defeat plain partial pivoting."""
        if sp.issparse(matrix):
            a = matrix.tocsr()
            # O(n) vectors of row/column maxima, not an O(n^2) densify.
            row = np.abs(a).max(axis=1).toarray().ravel()  # qa: ignore[QA208]
            row[row == 0.0] = 1.0
            r_inv = sp.diags(1.0 / row)
            scaled = r_inv @ a
            col = np.abs(scaled).max(axis=0).toarray().ravel()  # qa: ignore[QA208]
            col[col == 0.0] = 1.0
            c_inv = sp.diags(1.0 / col)
            scaled = (scaled @ c_inv).tocsc()
        else:
            a = np.asarray(matrix)
            row = np.abs(a).max(axis=1)
            row[row == 0.0] = 1.0
            scaled = a / row[:, None]
            col = np.abs(scaled).max(axis=0)
            col[col == 0.0] = 1.0
            scaled = scaled / col[None, :]
        factor = Factorization(scaled)
        self._note(factor)

        def run(b: np.ndarray):
            y = factor.solve(np.asarray(b) / row)
            return _finish(site_r, y / col), None

        return run

    def _prepare_gmin(self, site_r: str, matrix):
        """Diagonal-shifted factorization with iterative refinement
        against the original matrix; accepted only below
        :data:`RESIDUAL_TOL`, so the shift cannot smuggle in a wrong
        answer."""
        diag = matrix.diagonal()
        scale = float(np.abs(diag).max(initial=0.0)) or _max_abs(matrix) or 1.0
        factor = None
        for shift in GMIN_SHIFTS:
            shifted = matrix + _identity_like(matrix, shift * scale)
            try:
                factor = Factorization(shifted)
                break
            except SingularCircuitError:
                continue
        if factor is None:
            raise SingularCircuitError(
                f"gmin rung: no diagonal shift in {GMIN_SHIFTS} "
                "produced a factorable matrix"
            )
        self._note(factor)
        original = self._matrix

        def run(b: np.ndarray):
            x = factor.solve(b)
            for _ in range(REFINE_ITERS):
                x = x + factor.solve(b - original @ x)
            x = _finish(site_r, x)
            residual = _relative_residual(original, x, b)
            if residual > RESIDUAL_TOL:
                raise SingularCircuitError(
                    f"gmin rung residual {residual:.3e} exceeds tolerance "
                    f"{RESIDUAL_TOL:.1e}; the system is "
                    "inconsistent, not merely ill-conditioned"
                )
            return x, residual

        return run

    def _prepare_lstsq(self, site_r: str, matrix):
        """Tikhonov-regularized normal equations -- the last resort.

        Produces the minimum-norm least-squares solution; only accepted
        when the system is (numerically) consistent, because for an
        inconsistent system "a" solution is worse than an error."""
        if sp.issparse(matrix):
            n = matrix.shape[0]
            if n > LSTSQ_DENSE_LIMIT:
                raise SingularCircuitError(
                    f"lstsq rescue rung refuses to densify a {n}x{n} sparse "
                    f"system (limit {LSTSQ_DENSE_LIMIT}): the dense Gram "
                    "product would need "
                    f"{2 * 8 * n * n / 1e9:.1f} GB and O(n^3) work at grid "
                    "scale. The system is singular past every cheaper rung; "
                    "fix the topology (floating node, inductor-only loop, "
                    "voltage-source loop) or add a gmin leak instead of "
                    "relying on the least-squares last resort"
                )
            # Guarded: small-n only, and only after every sparse-capable
            # rung has already failed.
            a = np.asarray(matrix.todense())  # qa: ignore[QA208]
        else:
            a = np.asarray(matrix)
        gram = a.conj().T @ a
        lam = 1e-12 * max(float(np.abs(np.diagonal(gram)).max(initial=0.0)), 1e-300)
        factor = Factorization(gram + lam * np.eye(a.shape[0], dtype=gram.dtype))
        self._note(factor)

        def run(b: np.ndarray):
            x = factor.solve(a.conj().T @ np.asarray(b))
            x = _finish(site_r, x)
            residual = _relative_residual(a, x, b)
            if residual > LSTSQ_TOL:
                raise SingularCircuitError(
                    f"regularized-lstsq residual {residual:.3e} exceeds "
                    f"tolerance {LSTSQ_TOL:.1e}; refusing the "
                    "least-squares pseudo-solution of an inconsistent system"
                )
            return x, residual

        return run

    # -- the chain ---------------------------------------------------------

    @property
    def rung(self) -> str:
        """The rung currently in charge."""
        return self._rungs[min(self._rung_index, len(self._rungs) - 1)]

    @property
    def exhausted(self) -> bool:
        """True once every rung has failed: the chain can solve nothing."""
        return self._rung_index >= len(self._rungs)

    @property
    def factor_nnz(self) -> int | None:
        """Stored entries of the factor in charge; None before factoring."""
        return self._nnz

    def _attach_once(self) -> None:
        if not self._attached:
            self._attached = True
            attach_solve_report(self.report)

    def _ready(self):
        """The solve closure of the rung in charge, factored on first use."""
        if self._solver is None:
            self._solver = self._prepare(self._rungs[self._rung_index])
        return self._solver

    def _escalate(self, exc: Exception) -> None:
        """Record the rung in charge as failed and hand over to the next."""
        self.report.record(SolveAttempt(
            rung=self.rung, ok=False, error=str(exc),
            condition_estimate=self._cond,
        ))
        obs_metrics.counter("solver.escalation_attempts").inc()
        self._attach_once()
        self._rung_index += 1
        self._solver = None
        self._raw = None
        self._cond = None
        self._nnz = None
        self._ok_recorded = False

    def _accept(self, residual: float | None) -> None:
        """Record the rung in charge's first accepted solution."""
        if self._ok_recorded:
            return
        self._ok_recorded = True
        self.report.record(SolveAttempt(
            rung=self.rung, ok=True,
            condition_estimate=self._cond, residual=residual,
        ))
        if self._rung_index > 0:
            self._attach_once()
            obs_metrics.counter("solver.escalated_solves").inc()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b, escalating through the enabled rungs."""
        last_exc: Exception | None = None
        while self._rung_index < len(self._rungs):
            try:
                x, residual = self._ready()(b)
            except (SingularCircuitError, InjectedFault) as exc:
                self._escalate(exc)
                last_exc = exc
                continue
            self._accept(residual)
            return x
        raise SingularCircuitError(
            f"all {len(self._rungs)} escalation rung(s) failed at solve site "
            f"{self.site!r} -- {self.report.format()}"
        ) from last_exc

    def direct_solver(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Factor now; the bare solve of an accepted direct-LU rung.

        Prepares the rung in charge, escalating past every rung whose
        factorization fails exactly as :meth:`solve` would, so
        factor-time faults fire and are recorded here.  Returns
        :meth:`Factorization.raw_solver` when the chain settled on
        ``"lu"``, and None when another rung is in charge or every rung
        failed (:meth:`solve` then escalates or raises as usual).
        """
        while self._rung_index < len(self._rungs):
            try:
                self._ready()
            except (SingularCircuitError, InjectedFault) as exc:
                self._escalate(exc)
                continue
            return self._raw
        return None

    def vouch(self, x: np.ndarray) -> bool:
        """Run the solve-site checks on a finite state the raw solve made.

        Callers that step with :meth:`direct_solver` check a whole block
        of states at once and call this once per block, where
        :meth:`solve` would check every solution.  An injected ``nan``
        fault fires here and fails the rung, escalating as in
        :meth:`solve`; otherwise the rung's success is recorded.

        Returns:
            Whether ``x`` passed.
        """
        try:
            _finish(f"{self.site}.{self.rung}", x)
        except SingularCircuitError as exc:
            self._escalate(exc)
            return False
        self._accept(None)
        return True


def resilient_solve(
    matrix,
    b: np.ndarray,
    site: str = "linalg",
    policy: ResiliencePolicy | None = None,
    report: SolveReport | None = None,
) -> np.ndarray:
    """One-shot ``A x = b`` through the escalation chain."""
    return ResilientFactorization(
        matrix, site=site, policy=policy, report=report
    ).solve(b)


# -- sweep assembly ----------------------------------------------------------


class SweepPattern:
    """Union CSC pattern of (G, C), assembled once per sweep.

    The serial sweep loops used to rebuild ``(G + 1j*omega*C).tocsc()``
    from scratch at every frequency -- a structural merge plus a CSR->CSC
    conversion whose cost rivals the solve for well-conditioned systems.
    This class does the merge once: the union sparsity (stored-zero
    entries dropped, exactly as scipy's binary ops drop exact-zero
    results) with G's and C's values scattered onto it, so each point
    only computes a fresh data vector.

    Bit-identity with the naive construction holds because the per-entry
    arithmetic is the same IEEE operations in the same order: scipy
    computes ``g + (1j*omega)*c`` entry-wise over the union, and float
    addition is commutative.  The one structural exception is
    ``omega == 0``, where scipy prunes the C-only entries (``1j*0*c``
    collapses to exact zero); :meth:`at_omega` special-cases it to the
    legacy construction.
    """

    def __init__(self, g_matrix: sp.spmatrix, c_matrix: sp.spmatrix) -> None:
        if g_matrix.shape != c_matrix.shape:
            raise ValueError(
                f"G/C shape mismatch: {g_matrix.shape} vs {c_matrix.shape}"
            )
        self._g = g_matrix.tocsr()
        self._c = c_matrix.tocsr()
        self.shape = g_matrix.shape
        nr, nc = self.shape
        g_coo = self._g.tocoo()
        c_coo = self._c.tocoo()
        g_keep = g_coo.data != 0.0
        c_keep = c_coo.data != 0.0
        g_keys = (
            g_coo.col[g_keep].astype(np.int64) * nr
            + g_coo.row[g_keep].astype(np.int64)
        )
        c_keys = (
            c_coo.col[c_keep].astype(np.int64) * nr
            + c_coo.row[c_keep].astype(np.int64)
        )
        # Sorted unique keys in (col, row) order == canonical CSC layout.
        union, inverse = np.unique(
            np.concatenate([g_keys, c_keys]), return_inverse=True
        )
        self._indices = (union % nr).astype(np.int32)
        counts = np.bincount((union // nr).astype(np.intp), minlength=nc)
        self._indptr = np.zeros(nc + 1, dtype=np.int32)
        np.cumsum(counts, out=self._indptr[1:])
        self._g_data = np.zeros(union.size)
        self._g_data[inverse[: g_keys.size]] = g_coo.data[g_keep]
        self._c_data = np.zeros(union.size)
        self._c_data[inverse[g_keys.size:]] = c_coo.data[c_keep]

    def _assemble(self, data: np.ndarray) -> sp.csc_matrix:
        mat = sp.csc_matrix(
            (data, self._indices, self._indptr), shape=self.shape, copy=False
        )
        mat.has_sorted_indices = True
        return mat

    def at_omega(self, omega: float) -> sp.csc_matrix:
        """``(G + 1j*omega*C)`` in CSC, bit-identical to the naive build."""
        if omega == 0.0:
            # scipy prunes the C-only entries at omega = 0; keep the
            # legacy structure so downstream factors match bitwise.
            return (self._g + 1j * omega * self._c).tocsc()
        return self._assemble(self._g_data + (1j * omega) * self._c_data)

    def at_alpha(self, alpha: float) -> sp.csc_matrix:
        """``(alpha*C + G)`` in CSC for companion-matrix sweeps."""
        if alpha == 0.0:
            return (alpha * self._c + self._g).tocsc()
        return self._assemble(self._g_data + alpha * self._c_data)


class SweepAssembler:
    """Per-point system assembly for dense / sparse / matrix-free sweeps.

    One object per sweep, built from its (G, C):

    * dense arrays -> plain dense arithmetic;
    * sparse matrices -> :class:`SweepPattern` data updates
      (bit-identical, no per-point structural merge);
    * any other C is matrix-free: it exposes ``near_sparse()`` (its
      exact near field, sparse), ``far_matvec`` (the product of the
      rest) and ``to_dense()``, as the hierarchical loop sweep's mesh
      inductance does.  :meth:`at_omega` then gives
      :class:`OperatorSystem` instances that solve through the Krylov
      rung.  The near system ``G + j omega near`` is both the ``splu``
      preconditioner and the near part of the product, so a product is
      one sparse matvec plus ``j omega`` times the far one; only a
      chain that falls back densifies.  Such a sweep has no companion
      form.
    """

    def __init__(self, g_matrix, c_matrix) -> None:
        self._g = g_matrix
        self._c = c_matrix
        if not (isinstance(c_matrix, np.ndarray) or sp.issparse(c_matrix)):
            self.mode = "operator"
            g_sparse = g_matrix.tocsr() if sp.issparse(g_matrix) else (
                sp.csr_matrix(np.asarray(g_matrix))
            )
            self._g = g_sparse
            self._near = SweepPattern(g_sparse, c_matrix.near_sparse())
        elif sp.issparse(g_matrix):
            self.mode = "sparse"
            self._pattern = SweepPattern(g_matrix, c_matrix)
        else:
            self.mode = "dense"

    @property
    def size(self) -> int:
        return int(self._g.shape[0])

    def at_omega(self, omega: float):
        """The AC system ``G + j omega C`` for one frequency point."""
        if self.mode == "dense":
            return self._g + 1j * omega * self._c
        if self.mode == "sparse":
            return self._pattern.at_omega(omega)
        g, c = self._g, self._c
        near = self._near.at_omega(omega)

        def matvec(x: np.ndarray) -> np.ndarray:
            return near @ x + (1j * omega) * c.far_matvec(x)

        def materialize() -> np.ndarray:
            # Recorded dense fallback, built once per stagnated solve.
            return g.toarray() + 1j * omega * c.to_dense()  # qa: ignore[QA208]

        return OperatorSystem(
            matvec=matvec,
            precond=near,
            materialize=materialize,
            shape=g.shape,
            dtype=complex,
        )

    def at_alpha(self, alpha: float):
        """The companion system ``alpha C + G`` for one step size."""
        if self.mode == "dense":
            return alpha * self._c + self._g
        return self._pattern.at_alpha(alpha)
