"""LU factors run on one BLAS thread (``repro.circuit.blas``)."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro.circuit import blas
from repro.circuit.linalg import (
    Factorization, OperatorSystem, ResilientFactorization,
)


@pytest.fixture
def controls():
    found = blas._controls()
    if not found:
        pytest.skip("no OpenBLAS with a thread-count entry is loaded")
    return found


def _counts(controls):
    return [get() for get, _ in controls]


def test_one_blas_thread_sets_one_thread_and_restores_the_counts(controls):
    before = _counts(controls)
    with blas.one_blas_thread():
        assert _counts(controls) == [1] * len(controls)
    assert _counts(controls) == before
    with pytest.raises(RuntimeError), blas.one_blas_thread():
        raise RuntimeError("a failed factor")
    assert _counts(controls) == before


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_lu_factors_run_on_one_thread(controls, monkeypatch, fmt):
    module, name = {
        "dense": (scipy.linalg, "lu_factor"),
        "sparse": (scipy.sparse.linalg, "splu"),
    }[fmt]
    seen = []
    factor = getattr(module, name)

    def watched(*args, **kwargs):
        seen.append(_counts(controls))
        return factor(*args, **kwargs)

    monkeypatch.setattr(module, name, watched)
    before = _counts(controls)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
    b = rng.standard_normal(150)
    x = Factorization(a if fmt == "dense" else scipy.sparse.csr_matrix(a)
                      ).solve(b)
    assert seen == [[1] * len(controls)]
    assert _counts(controls) == before
    assert np.allclose(a @ x, b, rtol=0, atol=1e-10)


def test_gmres_runs_on_one_thread(controls, monkeypatch):
    seen = []
    gmres = scipy.sparse.linalg.gmres

    def watched(*args, **kwargs):
        seen.append(_counts(controls))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", watched)
    before = _counts(controls)
    rng = np.random.default_rng(0)
    n = 150
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         ) / n + 4.0 * np.eye(n)
    # The diagonal alone preconditions: GMRES has to iterate.
    system = OperatorSystem(
        matvec=lambda x: a @ x, precond=scipy.sparse.diags(np.diag(a)),
        materialize=lambda: a, shape=a.shape, dtype=complex,
    )
    b = rng.standard_normal(n)
    x = ResilientFactorization(system, site="test").solve(b)
    assert seen and all(c == [1] * len(controls) for c in seen)
    assert _counts(controls) == before
    # GMRES stops at a 1e-9 relative residual.
    assert np.allclose(a @ x, b, rtol=0, atol=1e-8)


def test_without_openblas_the_context_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_controls", lambda: ())
    with blas.one_blas_thread():
        pass
