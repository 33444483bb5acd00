"""MNA stamping: matrices of known small circuits."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit


def dense_reference(system: MNASystem) -> tuple[np.ndarray, np.ndarray]:
    """(G, C) as the dense assembly built them: the stamps' COO
    ``toarray()``, then the dense inductance blocks added into C."""
    gr, gc, gv, cr, cc, cv, blocks = system._stamp_entries()
    shape = (system.size, system.size)
    g = sp.coo_matrix((gv, (gr, gc)), shape=shape).toarray()
    c = sp.coo_matrix((cv, (cr, cc)), shape=shape).toarray()
    for off, block in blocks:
        c[off : off + block.shape[0], off : off + block.shape[1]] += block
    return g, c


def assert_same_bits(actual, expected: np.ndarray) -> None:
    """Equal values and equal signs of zero, densifying ``actual``."""
    if sp.issparse(actual):
        actual = actual.toarray()
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def dense_matrices(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """``build_matrices()`` of a circuit the format rule keeps dense."""
    g, c = MNASystem(circuit).build_matrices()
    assert isinstance(g, np.ndarray) and isinstance(c, np.ndarray)
    return g, c


def _divider():
    c = Circuit("t")
    c.add_resistor("r1", "a", "b", 2.0)
    c.add_resistor("r2", "b", GROUND, 2.0)
    return c


def _capacitor():
    c = Circuit("t")
    c.add_capacitor("c1", "a", GROUND, 3e-12)
    return c


def _inductor():
    c = Circuit("t")
    c.add_inductor("l", "a", GROUND, 2e-9)
    return c


def _mutual():
    c = Circuit("t")
    c.add_inductor("l1", "a", GROUND, 1e-9)
    c.add_inductor("l2", "b", GROUND, 4e-9)
    c.add_mutual("m", "l1", "l2", 1e-9)
    return c


def _kset():
    c = Circuit("t")
    c.add_k_set("ks", [("a", GROUND)], np.array([[2e9]]))
    return c


def _grounded():
    c = Circuit("t")
    c.add_resistor("r", "a", GROUND, 1.0)
    return c


def _mixed():
    """Every stamp kind: R, C, scalar L with a mutual, two inductor sets,
    a K-set, a macromodel and voltage sources."""
    c = Circuit("mixed")
    c.add_vsource("v1", "in", GROUND, 1.0)
    c.add_resistor("r1", "in", "a", 5.0)
    c.add_capacitor("c1", "a", GROUND, 1e-12)
    c.add_capacitor("c2", "a", "b", 2e-13)
    c.add_inductor("l1", "b", "c", 1e-9)
    c.add_inductor("l2", "c", GROUND, 2e-9)
    c.add_mutual("m12", "l1", "l2", 3e-10)
    c.add_inductor_set("ls", [("a", "d"), ("d", GROUND)],
                       np.array([[1e-9, 3e-10], [3e-10, 2e-9]]))
    c.add_inductor_set("lt", [("b", "e"), ("e", "f")],
                       np.array([[4e-9, -0.0], [0.0, 1e-9]]))
    c.add_k_set("ks", [("f", GROUND), ("e", GROUND)],
                np.array([[2e9, -5e8], [-5e8, 1e9]]))
    c.add_macromodel(
        "rom", [("c", GROUND)],
        np.array([[1.0, 0.2], [-0.2, 3.0]]),
        np.array([[1e-12, 0.0], [0.0, 2e-12]]),
        np.array([[0.5], [0.25]]),
    )
    c.add_vsource("v2", "d", "e", 0.5)
    return c


def _order_sensitive():
    """A node whose conductances 1.0, 1e-16, 1e-16 sum to 1.0 in stamp
    order and to 1.0000000000000002 if the small ones pair first."""
    c = Circuit("order")
    c.add_resistor("r0", "a", GROUND, 1.0)
    c.add_resistor("r1", "a", GROUND, 1e16)
    c.add_resistor("r2", "a", GROUND, 1e16)
    return c


class TestDimensions:
    def test_unknown_ordering(self):
        c = Circuit("t")
        c.add_resistor("r", "a", "b", 1.0)
        c.add_inductor("l", "b", GROUND, 1e-9)
        c.add_vsource("v", "a", GROUND, 1.0)
        system = MNASystem(c)
        assert system.n == 2
        assert system.m_l == 1
        assert system.p == 1
        assert system.size == 4
        assert system.branch_index("l") == 2
        assert system.branch_index("v") == 3

    def test_set_branch_indexing(self):
        c = Circuit("t")
        c.add_inductor_set("ls", [("a", "b"), ("b", GROUND)],
                           np.array([[1e-9, 0.0], [0.0, 1e-9]]))
        system = MNASystem(c)
        assert system.branch_index("ls[0]") == 2
        assert system.branch_index("ls[1]") == 3

    def test_unknown_branch_raises(self):
        c = Circuit("t")
        c.add_resistor("r", "a", GROUND, 1.0)
        with pytest.raises(KeyError):
            MNASystem(c).branch_index("nope")


class TestStamps:
    def test_resistor_divider_matrix(self):
        g, _ = dense_matrices(_divider())
        expected = np.array([[0.5, -0.5], [-0.5, 1.0]])
        assert np.allclose(g, expected)

    def test_capacitor_stamp(self):
        _, cap = dense_matrices(_capacitor())
        assert cap[0, 0] == pytest.approx(3e-12)

    def test_inductor_skew_structure(self):
        g, cap = dense_matrices(_inductor())
        # KCL row gets +i; branch row gets -v; C gets L.
        assert g[0, 1] == 1.0
        assert g[1, 0] == -1.0
        assert cap[1, 1] == pytest.approx(2e-9)
        # Skew part means G + G^T is PSD (zero here).
        assert np.allclose(g + g.T, 0.0)

    def test_mutual_inductor_stamp(self):
        _, cap = dense_matrices(_mutual())
        assert cap[2, 3] == pytest.approx(1e-9)
        assert cap[3, 2] == pytest.approx(1e-9)

    def test_kset_stamp(self):
        g, cap = dense_matrices(_kset())
        # Branch row: di/dt - K v = 0 -> C=1 on branch, G = -K on (branch, a).
        assert cap[1, 1] == 1.0
        assert g[1, 0] == pytest.approx(-2e9)
        assert g[0, 1] == 1.0  # KCL

    def test_ground_entries_skipped(self):
        g, _ = dense_matrices(_grounded())
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0)


class TestOneBuild:
    """``build_matrices()`` sums the stamps into CSR in stamp order; its
    matrices are the dense reference assembly's, bit for bit."""

    @pytest.mark.parametrize("make", [
        _divider, _capacitor, _inductor, _mutual, _kset, _grounded,
        _mixed, _order_sensitive,
    ], ids=lambda make: make.__name__.lstrip("_"))
    def test_matches_the_dense_reference(self, make):
        system = MNASystem(make())
        g, c = system.build_matrices()
        g_ref, c_ref = dense_reference(system)
        assert_same_bits(g, g_ref)
        assert_same_bits(c, c_ref)

    def test_duplicates_sum_in_stamp_order(self):
        g, _ = dense_matrices(_order_sensitive())
        assert g[0, 0] == 1.0 != (1e-16 + 1e-16) + 1.0

    def test_sparse_build_is_csr_of_the_reference(self):
        # A 300-section RC ladder with an inductor set passes the rule.
        c = Circuit("ladder")
        c.add_vsource("vin", "in", GROUND, 1.0)
        prev = "in"
        for k in range(300):
            c.add_resistor(f"r{k}", prev, f"n{k}", 2.0)
            c.add_capacitor(f"c{k}", f"n{k}", GROUND, 2e-15)
            prev = f"n{k}"
        c.add_inductor_set("ls", [("n10", "n11"), ("n20", "n21")],
                           np.array([[1e-9, 3e-10], [3e-10, 2e-9]]))
        # Two mutuals that cancel leave exact zeros, which are not stored.
        c.add_inductor("la", "n30", "n31", 1e-9)
        c.add_inductor("lb", "n40", "n41", 1e-9)
        c.add_mutual("mab", "la", "lb", 3e-10)
        c.add_mutual("mba", "la", "lb", -3e-10)
        system = MNASystem(c)
        built = system.build_matrices()
        for matrix, ref in zip(built, dense_reference(system)):
            assert matrix.format == "csr"
            expected = sp.csr_matrix(ref)
            assert np.array_equal(matrix.indptr, expected.indptr)
            assert np.array_equal(matrix.indices, expected.indices)
            assert matrix.data.tobytes() == expected.data.tobytes()

    def test_built_once(self):
        system = MNASystem(_mixed())
        assert system.build_matrices() is system.build_matrices()


class TestRHS:
    def test_isource_direction(self):
        c = Circuit("t")
        c.add_resistor("r", "a", "b", 1.0)
        c.add_isource("i", "a", "b", 2.0)
        b = MNASystem(c).rhs(0.0)
        # Current drawn from n_plus and injected into n_minus.
        assert b[c.node_index("a")] == -2.0
        assert b[c.node_index("b")] == 2.0

    def test_vsource_sign(self):
        c = Circuit("t")
        c.add_vsource("v", "a", GROUND, 5.0)
        c.add_resistor("r", "a", GROUND, 1.0)
        system = MNASystem(c)
        b = system.rhs(0.0)
        assert b[system.branch_index("v")] == -5.0

    def test_time_varying(self):
        from repro.circuit.waveforms import Ramp

        c = Circuit("t")
        c.add_vsource("v", "a", GROUND, Ramp(0, 1, 0, 1e-9))
        c.add_resistor("r", "a", GROUND, 1.0)
        system = MNASystem(c)
        assert system.rhs(0.5e-9)[system.branch_index("v")] == pytest.approx(-0.5)


class TestPassivityStructure:
    def test_g_plus_gt_is_psd_for_rlc(self, signal_grid_extraction):
        # The skew coupling convention must leave G + G^T PSD -- the
        # property PRIMA's passivity proof needs.
        c = Circuit("t")
        c.add_resistor("r1", "a", "b", 10.0)
        c.add_capacitor("c1", "b", GROUND, 1e-12)
        c.add_inductor("l1", "b", "c", 1e-9)
        c.add_resistor("r2", "c", GROUND, 5.0)
        g, cap = dense_matrices(c)
        eig_g = np.linalg.eigvalsh(g + g.T)
        eig_c = np.linalg.eigvalsh((cap + cap.T) / 2)
        assert eig_g.min() > -1e-12
        assert eig_c.min() > -1e-15
