"""SweepAssembler: per-point sweep systems are the plain expressions.

The AC and companion sweeps build ``G + 1j*omega*C`` and ``alpha*C + G``
per point with plain dense or sparse arithmetic, in the format
``build_matrices()`` gave.  These tests pin that a sparse point system
factors from the CSC matrix the naive construction gives -- same
structure arrays, same data bits -- at every sweep point, including the
pruning edge cases (stored zeros, omega == 0), and that dense input
stays dense arithmetic.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.linalg import SweepAssembler


def _random_gc(n=30, density=0.12, seed=0, stored_zeros=False):
    rng = np.random.default_rng(seed)
    g = sp.random(n, n, density=density, random_state=rng.integers(2**31))
    c = sp.random(n, n, density=density, random_state=rng.integers(2**31))
    g = (g + sp.eye(n)).tocsr()
    c = c.tocsr()
    if stored_zeros:
        # Explicit zeros survive tocsr() but scipy's binary ops prune
        # them, and so do the point systems.
        g = g.copy()
        g.data[:3] = 0.0
        c = c.copy()
        c.data[-2:] = 0.0
    return g, c


def _assert_bit_identical(built, legacy):
    built = built.tocsc()
    assert legacy.format == "csc"
    np.testing.assert_array_equal(built.indptr, legacy.indptr)
    np.testing.assert_array_equal(built.indices, legacy.indices)
    assert built.data.tobytes() == legacy.data.tobytes()


class TestAtOmega:
    @pytest.mark.parametrize("omega", [1.0, 2 * np.pi * 1e9, 1e-3, 1e12])
    def test_bit_identical_to_naive_build(self, omega):
        g, c = _random_gc()
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_omega(omega), (g + 1j * omega * c).tocsc()
        )

    def test_stored_zeros_are_pruned_like_scipy(self):
        g, c = _random_gc(stored_zeros=True)
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_omega(3.0), (g + 3.0j * c).tocsc()
        )

    def test_omega_zero_matches_legacy_structure(self):
        # scipy prunes the C-only entries at omega = 0 (1j*0*c collapses
        # to exact zero); the point system keeps that structure, so
        # downstream factorizations match bitwise.
        g, c = _random_gc(seed=4)
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_omega(0.0), (g + 0.0j * c).tocsc()
        )

    def test_disjoint_patterns(self):
        n = 10
        g = sp.diags([2.0] * n).tocsr()
        c = sp.diags([1.0] * (n - 1), offsets=1).tocsr()
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_omega(7.0), (g + 7.0j * c).tocsc()
        )

    def test_many_points_share_one_pattern(self):
        g, c = _random_gc(seed=8)
        assembler = SweepAssembler(g, c)
        for omega in np.logspace(3, 11, 9):
            _assert_bit_identical(
                assembler.at_omega(float(omega)),
                (g + 1j * float(omega) * c).tocsc(),
            )


class TestAtAlpha:
    @pytest.mark.parametrize("alpha", [1.0, 2.0 / 1e-12, 1e-9])
    def test_bit_identical_to_naive_build(self, alpha):
        g, c = _random_gc(seed=2)
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_alpha(alpha), (alpha * c + g).tocsc()
        )

    def test_alpha_zero_matches_legacy_structure(self):
        g, c = _random_gc(seed=5)
        assembler = SweepAssembler(g, c)
        _assert_bit_identical(
            assembler.at_alpha(0.0), (0.0 * c + g).tocsc()
        )


class TestSweepAssembler:
    def test_dense_mode_is_plain_arithmetic(self):
        g = np.eye(4)
        c = np.diag([1.0, 2.0, 3.0, 4.0])
        assembler = SweepAssembler(g, c)
        assert assembler.mode == "dense"
        np.testing.assert_array_equal(
            assembler.at_omega(2.0), g + 2.0j * c
        )
        np.testing.assert_array_equal(
            assembler.at_alpha(3.0), 3.0 * c + g
        )

    def test_sparse_mode_is_plain_arithmetic(self):
        g, c = _random_gc(seed=6)
        assembler = SweepAssembler(g, c)
        assert assembler.mode == "sparse"
        _assert_bit_identical(
            assembler.at_omega(5.0), (g + 5.0j * c).tocsc()
        )
        _assert_bit_identical(
            assembler.at_alpha(3.0), (3.0 * c + g).tocsc()
        )
        # Entry for entry the dense arithmetic, stored zeros pruned.
        dense = SweepAssembler(g.toarray(), c.toarray())
        assert np.array_equal(
            assembler.at_omega(5.0).toarray(), dense.at_omega(5.0)
        )
        assert np.array_equal(
            assembler.at_alpha(3.0).toarray(), dense.at_alpha(3.0)
        )
