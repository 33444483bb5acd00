"""Series-node selection and static condensation of ``G + s C``."""

import numpy as np
import pytest

from repro.circuit.linalg import add_gmin, condense
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit


def _rl_chain():
    """a -R- m -L- b -R- ground, plus a leak from a to ground."""
    c = Circuit("rl")
    c.add_resistor("ra", "a", "m", 2.0)
    c.add_inductor("l1", "m", "b", 1e-9)
    c.add_resistor("rb", "b", GROUND, 3.0)
    c.add_resistor("rg", "a", GROUND, 5.0)
    return c


def _names(system, indices):
    by_index = {system.node_index(n): n for n in system.circuit.node_names}
    return sorted(by_index[int(i)] for i in indices)


class TestSeriesNodes:
    def test_resistor_inductor_midpoints_qualify(self):
        system = MNASystem(_rl_chain())
        # a has two resistors; m and b each join one R to one L.
        assert _names(system, system.series_nodes()) == ["b", "m"]

    def test_excluded_port_node_stays(self):
        system = MNASystem(_rl_chain())
        port = system.node_index("m")
        assert _names(system, system.series_nodes(exclude=(port,))) == ["b"]

    def test_any_other_element_blocks_a_node(self):
        c = _rl_chain()
        c.add_capacitor("cm", "m", GROUND, 1e-15)
        c.add_vsource("vb", "b", GROUND, 0.0)
        system = MNASystem(c)
        assert system.series_nodes().size == 0

    def test_inductor_set_branches_count_as_inductive(self):
        c = Circuit("set")
        c.add_resistor("r0", "a", "m0", 1.0)
        c.add_resistor("r1", "a", "m1", 1.0)
        c.add_inductor_set(
            "lf", [("m0", "b"), ("m1", "b")],
            np.array([[1e-9, 0.5e-9], [0.5e-9, 1e-9]]),
        )
        c.add_resistor("rb", "b", GROUND, 1.0)
        system = MNASystem(c)
        assert _names(system, system.series_nodes()) == ["m0", "m1"]

    def test_resistor_between_two_candidates_keeps_one(self):
        # p -L- x -R- y -L- q: x and y both qualify alone, but a
        # resistor joins them, so only the first is condensed and the
        # condensed block of G stays diagonal.
        c = Circuit("pair")
        c.add_inductor("l1", "p", "x", 1e-9)
        c.add_resistor("rxy", "x", "y", 1.0)
        c.add_inductor("l2", "y", "q", 1e-9)
        c.add_resistor("rp", "p", GROUND, 1.0)
        c.add_resistor("rq", "q", GROUND, 1.0)
        c.add_capacitor("cp", "p", GROUND, 1e-15)
        c.add_capacitor("cq", "q", GROUND, 1e-15)
        system = MNASystem(c)
        assert _names(system, system.series_nodes()) == ["x"]


class TestCondense:
    @staticmethod
    def _system():
        system = MNASystem(_rl_chain())
        g, c = system.build_matrices("dense")
        return system, add_gmin(g, system.n, 1e-12), c

    @pytest.mark.parametrize("omega", [0.0, 2e8, 6e10])
    def test_matches_full_solve(self, omega):
        system, g, c = self._system()
        internal = system.series_nodes(exclude=(system.node_index("a"),))
        g_bb, c_bb, keep = condense(g, c, internal)
        assert len(keep) == system.size - internal.size
        b = np.zeros(system.size, dtype=complex)
        b[system.node_index("a")] = 1.0
        full = np.linalg.solve(g + 1j * omega * c, b)
        reduced = np.linalg.solve(g_bb + 1j * omega * c_bb, b[keep])
        assert np.allclose(reduced, full[keep], rtol=1e-12, atol=0.0)

    def test_nothing_to_condense_is_the_identity(self):
        _, g, c = self._system()
        g_bb, c_bb, keep = condense(g, c, [])
        assert g_bb is g and c_bb is c
        assert np.array_equal(keep, np.arange(g.shape[0]))

    def test_rejects_frequency_dependent_unknowns(self):
        system, g, c = self._system()
        m = system.node_index("m")
        c = c.copy()
        c[m, m] = 1e-15
        with pytest.raises(ValueError, match="no C entries"):
            condense(g, c, [m])

    def test_rejects_coupled_unknowns(self):
        system, g, c = self._system()
        m, b = system.node_index("m"), system.node_index("b")
        g = g.copy()
        g[m, b] = g[b, m] = -1.0
        with pytest.raises(ValueError, match="diagonal"):
            condense(g, c, [m, b])
