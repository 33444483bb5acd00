"""Chern-style capacitance models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.capacitance import (
    CapacitanceModel,
    coupling_capacitance_per_length,
    ground_capacitance_per_length,
)
from repro.geometry.structures import build_bus
from repro.geometry.layout import Layout, NetKind
from repro.geometry.segment import Direction, default_layer_stack


class TestGroundCapacitance:
    def test_typical_magnitude(self):
        # On-chip ground cap is famously ~0.1-0.2 fF/um.
        c = ground_capacitance_per_length(2e-6, 1e-6, 5e-6)
        assert 0.5e-10 < c < 3e-10  # F/m = 0.05-0.3 fF/um

    def test_wider_is_more(self):
        narrow = ground_capacitance_per_length(1e-6, 1e-6, 3e-6)
        wide = ground_capacitance_per_length(4e-6, 1e-6, 3e-6)
        assert wide > narrow

    def test_higher_above_plane_is_less(self):
        low = ground_capacitance_per_length(2e-6, 1e-6, 1e-6)
        high = ground_capacitance_per_length(2e-6, 1e-6, 6e-6)
        assert high < low

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ground_capacitance_per_length(0.0, 1e-6, 1e-6)

    @given(
        width=st.floats(0.2e-6, 20e-6),
        thickness=st.floats(0.2e-6, 3e-6),
        height=st.floats(0.3e-6, 10e-6),
    )
    @settings(max_examples=50)
    def test_always_positive(self, width, thickness, height):
        assert ground_capacitance_per_length(width, thickness, height) > 0


class TestCouplingCapacitance:
    def test_tighter_spacing_is_more(self):
        tight = coupling_capacitance_per_length(1e-6, 0.5e-6, 3e-6, 2e-6)
        loose = coupling_capacitance_per_length(1e-6, 2e-6, 3e-6, 2e-6)
        assert tight > loose

    def test_rejects_zero_spacing(self):
        with pytest.raises(ValueError):
            coupling_capacitance_per_length(1e-6, 0.0, 3e-6, 2e-6)

    def test_never_negative(self):
        c = coupling_capacitance_per_length(0.1e-6, 10e-6, 10e-6, 0.1e-6)
        assert c >= 0.0


class TestCapacitanceModel:
    def test_segment_ground_capacitance_scales_with_length(self):
        layout, _ = build_bus(num_signals=1, length=200e-6, edge_grounds=False)
        model = CapacitanceModel()
        seg = layout.segments_of("bus0")[0]
        c = model.segment_ground_capacitance(seg, layout)
        layout2, _ = build_bus(num_signals=1, length=400e-6, edge_grounds=False)
        seg2 = layout2.segments_of("bus0")[0]
        c2 = model.segment_ground_capacitance(seg2, layout2)
        assert c2 == pytest.approx(2 * c, rel=1e-9)

    def test_coupling_pairs_found_for_adjacent_lines(self):
        layout, _ = build_bus(num_signals=2, pitch=3e-6, wire_width=1e-6,
                              edge_grounds=False)
        pairs = CapacitanceModel().coupling_pairs(layout.segments)
        assert len(pairs) == 1
        i, j, c = pairs[0]
        assert c > 0

    def test_coupling_cutoff(self):
        layout, _ = build_bus(num_signals=2, pitch=50e-6, edge_grounds=False)
        model = CapacitanceModel(coupling_max_gap=5e-6)
        pairs = model.coupling_pairs(layout.segments)
        assert pairs == []

    def test_no_coupling_across_layers(self):
        layout = Layout(default_layer_stack(6))
        layout.add_net("a", NetKind.SIGNAL)
        layout.add_net("b", NetKind.SIGNAL)
        layout.add_wire("a", "M5", Direction.X, (0.0, 0.0), 100e-6, 1e-6)
        layout.add_wire("b", "M6", Direction.X, (0.0, 0.0), 100e-6, 1e-6)
        assert CapacitanceModel().coupling_pairs(layout.segments) == []

    def test_segment_at_substrate_rejected(self):
        layout = Layout(default_layer_stack(6))
        layout.add_net("a", NetKind.SIGNAL)
        from repro.geometry.segment import Segment

        seg = Segment(net="a", layer="M6", direction=Direction.X,
                      origin=(0.0, 0.0, 0.0), length=1e-6, width=1e-6,
                      thickness=1e-6, name="s")
        with pytest.raises(ValueError):
            CapacitanceModel().segment_ground_capacitance(seg, layout)
