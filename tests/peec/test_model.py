"""PEEC circuit compilation."""

import numpy as np
import pytest

from repro.extraction.capacitance import CapacitanceModel
from repro.geometry import build_signal_over_grid
from repro.obs.trace import tracing
from repro.peec.model import PEECOptions, build_peec_model
from repro.sparsify import BlockDiagonalSparsifier, KMatrixSparsifier


@pytest.fixture(scope="module")
def structure():
    return build_signal_over_grid(length=200e-6, returns_per_side=2, pitch=8e-6)


class TestRLCStructure:
    def test_every_segment_gets_r_and_l(self, structure):
        layout, _ = structure
        model = build_peec_model(layout)
        inplane = [s for s in layout.segments if s.direction.value != "z"]
        assert len(model.circuit.resistors) >= len(inplane)
        assert model.circuit.num_inductor_branches == len(inplane)

    def test_rc_model_has_no_inductors(self, structure):
        layout, _ = structure
        model = build_peec_model(
            layout, PEECOptions(include_inductance=False)
        )
        assert model.circuit.num_inductor_branches == 0
        assert model.circuit.num_mutual_terms == 0

    def test_dense_model_couples_all_parallel_pairs(self, structure):
        layout, _ = structure
        model = build_peec_model(layout)
        n_x = len([s for s in layout.segments if s.direction.value == "x"])
        n_y = len([s for s in layout.segments if s.direction.value == "y"])
        expected = n_x * (n_x - 1) // 2 + n_y * (n_y - 1) // 2
        assert model.circuit.num_mutual_terms == expected

    def test_assembly_span_counts_coupling_pairs(self):
        layout, _ = build_signal_over_grid(
            length=200e-6, returns_per_side=2, pitch=4e-6
        )
        with tracing() as trace:
            build_peec_model(layout)
        inplane = [s for s in layout.segments if s.direction.value != "z"]
        found = trace.find("peec.assembly").attrs["coupling_pairs"]
        assert found == len(CapacitanceModel().coupling_pairs(inplane)) > 0
        with tracing() as trace:
            build_peec_model(layout, PEECOptions(include_coupling_caps=False))
        assert trace.find("peec.assembly").attrs["coupling_pairs"] == 0

    def test_ground_caps_present(self, structure):
        layout, _ = structure
        model = build_peec_model(layout)
        grounded = [c for c in model.circuit.capacitors if c.n2 == "0"]
        assert grounded

    def test_coupling_caps_optional(self):
        # Tight pitch so adjacent lines fall within the coupling cutoff.
        layout, _ = build_signal_over_grid(
            length=200e-6, returns_per_side=2, pitch=3e-6,
            signal_width=1e-6,
        )
        with_cc = build_peec_model(layout)
        without_cc = build_peec_model(
            layout, PEECOptions(include_coupling_caps=False)
        )
        assert len(with_cc.circuit.capacitors) > len(without_cc.circuit.capacitors)

    def test_segment_splitting_multiplies_elements(self, structure):
        layout, _ = structure
        coarse = build_peec_model(layout)
        fine = build_peec_model(layout, PEECOptions(max_segment_length=50e-6))
        assert fine.circuit.num_inductor_branches > \
            coarse.circuit.num_inductor_branches


class TestNodeMapping:
    def test_taps_resolve_to_nodes(self, structure):
        layout, ports = structure
        model = build_peec_model(layout)
        drv = model.node_at(ports["driver"])
        rcv = model.node_at(ports["receiver"])
        assert drv != rcv

    def test_distant_tap_rejected(self, structure):
        from repro.geometry.clocktree import TapPoint

        layout, _ = structure
        model = build_peec_model(layout)
        with pytest.raises(ValueError):
            model.node_at(TapPoint("sig", 5e-3, 5e-3, "M6", "far"))

    def test_unknown_net_rejected(self, structure):
        from repro.geometry.clocktree import TapPoint

        layout, _ = structure
        model = build_peec_model(layout)
        with pytest.raises(KeyError):
            model.node_at(TapPoint("ghost", 0.0, 0.0, "M6", "g"))

    def test_nodes_of_net_filters(self, structure):
        layout, _ = structure
        model = build_peec_model(layout)
        sig_nodes = model.nodes_of_net("sig")
        assert sig_nodes
        assert all(model.node_info[n][0] == "sig" for n in sig_nodes)


class TestViasAndGrid:
    def test_grid_vias_become_resistors(self, small_grid_layout):
        model = build_peec_model(
            small_grid_layout, PEECOptions(include_inductance=False)
        )
        via_rs = [r for r in model.circuit.resistors if r.name.startswith("Rv_")]
        assert len(via_rs) == len(small_grid_layout.vias)


class TestSparsifierIntegration:
    def test_block_diagonal_reduces_mutuals(self, structure):
        layout, _ = structure
        dense = build_peec_model(layout)
        sparse = build_peec_model(
            layout,
            PEECOptions(sparsifier=BlockDiagonalSparsifier(num_sections=4)),
        )
        assert sparse.circuit.num_mutual_terms < dense.circuit.num_mutual_terms
        assert len(sparse.circuit.inductor_sets) > 1

    def test_k_matrix_model_builds_k_sets(self, structure):
        layout, _ = structure
        model = build_peec_model(
            layout, PEECOptions(sparsifier=KMatrixSparsifier(threshold=0.0))
        )
        assert model.circuit.k_sets
        assert not model.circuit.inductor_sets

    def test_mutual_min_coupling_prefilter(self, structure):
        layout, _ = structure
        full = build_peec_model(layout)
        filtered = build_peec_model(
            layout, PEECOptions(mutual_min_coupling=0.2)
        )
        assert filtered.circuit.num_mutual_terms < full.circuit.num_mutual_terms
