"""Property-based tests of the circuit engine on randomized networks.

These pin down structural theorems rather than specific values:

* reciprocity: transfer impedance of a passive RLC network is symmetric
  (Z_ij = Z_ji);
* passivity: a source-free RLC network only ever dissipates the energy
  stored in its initial state;
* the K-matrix element is exactly equivalent to the L element for any
  SPD inductance matrix;
* DC superposition: responses to independent sources add.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.ac import ac_impedance
from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis


def random_rlc(rng: np.random.Generator, num_nodes: int = 6) -> Circuit:
    """A random connected passive RLC network over ``num_nodes`` nodes."""
    circuit = Circuit("random")
    names = [f"n{k}" for k in range(num_nodes)]
    # Spanning chain of resistors guarantees connectivity + DC paths.
    prev = GROUND
    for name in names:
        circuit.add_resistor(
            f"rspan_{name}", prev, name, float(rng.uniform(1.0, 200.0))
        )
        prev = name
    # Random extra elements.
    for k in range(num_nodes):
        a, b = rng.choice(num_nodes + 1, size=2, replace=False)
        na = GROUND if a == num_nodes else names[a]
        nb = GROUND if b == num_nodes else names[b]
        kind = rng.integers(3)
        if kind == 0:
            circuit.add_resistor(f"r{k}", na, nb,
                                 float(rng.uniform(1.0, 500.0)))
        elif kind == 1:
            circuit.add_capacitor(f"c{k}", na, nb,
                                  float(rng.uniform(1e-15, 1e-12)))
        else:
            circuit.add_series_rl(
                f"s{k}", na, nb,
                float(rng.uniform(0.5, 20.0)),
                float(rng.uniform(1e-11, 5e-9)),
            )
    return circuit


class TestReciprocity:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_transfer_impedance_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_rlc(rng)
        freq = [float(rng.uniform(1e8, 1e10))]
        system = MNASystem(circuit)
        g, c = system.build_matrices()
        assert isinstance(g, np.ndarray)  # small: dense by the rule

        def transfer(inject: str, sense: str) -> complex:
            b = np.zeros(system.size, dtype=complex)
            b[system.node_index(inject)] = 1.0
            omega = 2 * np.pi * freq[0]
            x = np.linalg.solve(g + 1j * omega * c, b)
            return complex(x[system.node_index(sense)])

        z_ab = transfer("n0", "n3")
        z_ba = transfer("n3", "n0")
        assert z_ab == pytest.approx(z_ba, rel=1e-8)


class TestPassivity:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_source_free_network_decays(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_rlc(rng, num_nodes=5)
        system = MNASystem(circuit)
        # Start from a random bounded state and let it relax.
        x0 = rng.uniform(-1.0, 1.0, size=system.size)
        res = transient_analysis(system, 2e-9, 2e-12, x0=x0)
        data = res.data
        assert np.all(np.isfinite(data))
        # Late-time amplitude must not exceed the initial amplitude scale:
        # the network has no sources, so energy can only decrease.
        start_amp = np.max(np.abs(data[:3]))
        late_amp = np.max(np.abs(data[-max(3, len(data) // 10):]))
        assert late_amp <= start_amp * 1.5 + 1e-9


class TestKEquivalence:
    @given(seed=st.integers(0, 1000), size=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_k_element_equals_l_element(self, seed, size):
        rng = np.random.default_rng(seed)
        # Random SPD inductance matrix.
        a = rng.normal(size=(size, size))
        l_matrix = (a @ a.T) * 1e-10 + np.eye(size) * 1e-9

        def build(kind: str) -> Circuit:
            circuit = Circuit(kind)
            branches = []
            for j in range(size):
                circuit.add_resistor(f"r{j}", "p", f"x{j}",
                                     float(rng.uniform(1, 20)))
                branches.append((f"x{j}", GROUND))
            if kind == "L":
                circuit.add_inductor_set("s", branches, l_matrix)
            else:
                circuit.add_k_set("s", branches, np.linalg.inv(l_matrix))
            return circuit

        freqs = [1e8, 1e9, 1e10]
        # Seed both builds with identical resistor draws.
        rng = np.random.default_rng(seed + 1)
        z_l = ac_impedance(build("L"), freqs, ("p", GROUND))
        rng = np.random.default_rng(seed + 1)
        z_k = ac_impedance(build("K"), freqs, ("p", GROUND))
        assert np.allclose(z_l, z_k, rtol=1e-8)


class TestSuperposition:
    @given(
        seed=st.integers(0, 1000),
        i1=st.floats(-1e-3, 1e-3),
        i2=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=20, deadline=None)
    def test_dc_responses_add(self, seed, i1, i2):
        def build(a: float, b: float) -> Circuit:
            rng = np.random.default_rng(seed)
            circuit = random_rlc(rng, num_nodes=4)
            circuit.add_isource("s1", GROUND, "n0", a)
            circuit.add_isource("s2", GROUND, "n2", b)
            return circuit

        v_both = dc_operating_point(build(i1, i2))
        v_1 = dc_operating_point(build(i1, 0.0))
        v_2 = dc_operating_point(build(0.0, i2))
        assert np.allclose(v_both, v_1 + v_2, atol=1e-9)
