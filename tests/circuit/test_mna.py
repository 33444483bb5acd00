"""MNA stamping: matrices of known small circuits."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit


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
        c = Circuit("t")
        c.add_resistor("r1", "a", "b", 2.0)
        c.add_resistor("r2", "b", GROUND, 2.0)
        g, _ = MNASystem(c).build_matrices(fmt="dense")
        expected = np.array([[0.5, -0.5], [-0.5, 1.0]])
        assert np.allclose(g, expected)

    def test_capacitor_stamp(self):
        c = Circuit("t")
        c.add_capacitor("c1", "a", GROUND, 3e-12)
        _, cap = MNASystem(c).build_matrices(fmt="dense")
        assert cap[0, 0] == pytest.approx(3e-12)

    def test_inductor_skew_structure(self):
        c = Circuit("t")
        c.add_inductor("l", "a", GROUND, 2e-9)
        g, cap = MNASystem(c).build_matrices(fmt="dense")
        # KCL row gets +i; branch row gets -v; C gets L.
        assert g[0, 1] == 1.0
        assert g[1, 0] == -1.0
        assert cap[1, 1] == pytest.approx(2e-9)
        # Skew part means G + G^T is PSD (zero here).
        assert np.allclose(g + g.T, 0.0)

    def test_mutual_inductor_stamp(self):
        c = Circuit("t")
        c.add_inductor("l1", "a", GROUND, 1e-9)
        c.add_inductor("l2", "b", GROUND, 4e-9)
        c.add_mutual("m", "l1", "l2", 1e-9)
        _, cap = MNASystem(c).build_matrices(fmt="dense")
        assert cap[2, 3] == pytest.approx(1e-9)
        assert cap[3, 2] == pytest.approx(1e-9)

    def test_dense_and_sparse_agree(self):
        c = Circuit("t")
        c.add_resistor("r", "a", "b", 5.0)
        c.add_capacitor("c1", "b", GROUND, 1e-12)
        c.add_inductor_set("ls", [("a", GROUND), ("b", GROUND)],
                           np.array([[1e-9, 3e-10], [3e-10, 2e-9]]))
        c.add_vsource("v", "a", GROUND, 1.0)
        system = MNASystem(c)
        gd, cd = system.build_matrices(fmt="dense")
        gs, cs = system.build_matrices(fmt="sparse")
        assert np.allclose(gd, gs.toarray())
        assert np.allclose(cd, cs.toarray())
        assert sp.issparse(gs)

    def test_formats_are_dense_and_sparse(self):
        c = Circuit("t")
        c.add_resistor("r", "a", GROUND, 1.0)
        with pytest.raises(ValueError, match="unknown format"):
            MNASystem(c).build_matrices("operator")

    def test_kset_stamp(self):
        c = Circuit("t")
        kmatrix = np.array([[2e9]])
        c.add_k_set("ks", [("a", GROUND)], kmatrix)
        g, cap = MNASystem(c).build_matrices(fmt="dense")
        # Branch row: di/dt - K v = 0 -> C=1 on branch, G = -K on (branch, a).
        assert cap[1, 1] == 1.0
        assert g[1, 0] == pytest.approx(-2e9)
        assert g[0, 1] == 1.0  # KCL

    def test_ground_entries_skipped(self):
        c = Circuit("t")
        c.add_resistor("r", "a", GROUND, 1.0)
        g, _ = MNASystem(c).build_matrices(fmt="dense")
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0)


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
        g, cap = MNASystem(c).build_matrices(fmt="dense")
        eig_g = np.linalg.eigvalsh(g + g.T)
        eig_c = np.linalg.eigvalsh((cap + cap.T) / 2)
        assert eig_g.min() > -1e-12
        assert eig_c.min() > -1e-15
