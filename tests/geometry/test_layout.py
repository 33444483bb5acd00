"""Layout container: nodes, wires, vias, pads, validation."""

import pytest

from repro.geometry.layout import Layout, NetKind, quantize_point
from repro.geometry.segment import Direction, default_layer_stack


@pytest.fixture
def layout():
    return Layout(default_layer_stack(6), name="t")


class TestNets:
    def test_add_net_idempotent(self, layout):
        a = layout.add_net("sig", NetKind.SIGNAL)
        b = layout.add_net("sig", NetKind.SIGNAL)
        assert a == b

    def test_add_net_conflicting_kind_rejected(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        with pytest.raises(ValueError):
            layout.add_net("sig", NetKind.POWER)

    def test_supply_kind_classification(self):
        assert NetKind.POWER.is_supply
        assert NetKind.GROUND.is_supply
        assert NetKind.SHIELD.is_supply
        assert not NetKind.SIGNAL.is_supply


class TestWires:
    def test_add_wire_splits_at_breakpoints(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        segs = layout.add_wire(
            "sig", "M6", Direction.X, (0.0, 0.0), 100e-6, 2e-6,
            breakpoints=[30e-6, 70e-6],
        )
        assert len(segs) == 3
        assert [round(s.length * 1e6) for s in segs] == [30, 40, 30]
        # Adjacent pieces share terminals.
        for a, b in zip(segs, segs[1:]):
            assert quantize_point(a.endpoints()[1]) == quantize_point(
                b.endpoints()[0]
            )

    def test_add_wire_ignores_out_of_range_breakpoints(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        segs = layout.add_wire(
            "sig", "M6", Direction.X, (0.0, 0.0), 100e-6, 2e-6,
            breakpoints=[-5e-6, 0.0, 100e-6, 150e-6],
        )
        assert len(segs) == 1

    def test_add_wire_sits_on_layer(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        (seg,) = layout.add_wire("sig", "M3", Direction.Y, (0.0, 0.0), 50e-6, 1e-6)
        layer = layout.layer("M3")
        assert seg.origin[2] == pytest.approx(layer.z_bottom)
        assert seg.thickness == pytest.approx(layer.thickness)

    def test_wire_requires_registered_net(self, layout):
        with pytest.raises(ValueError):
            layout.add_wire("ghost", "M6", Direction.X, (0.0, 0.0), 1e-6, 1e-6)

    def test_wire_rejects_z_direction(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        with pytest.raises(ValueError):
            layout.add_wire("sig", "M6", Direction.Z, (0.0, 0.0), 1e-6, 1e-6)

    def test_unknown_layer(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        with pytest.raises((KeyError, ValueError)):
            layout.add_wire("sig", "M99", Direction.X, (0.0, 0.0), 1e-6, 1e-6)


class TestViasAndPads:
    def test_via_endpoints_at_layer_centers(self, layout):
        layout.add_net("VDD", NetKind.POWER)
        via = layout.add_via("VDD", 1e-6, 2e-6, "M5", "M6", 1e-6)
        bottom, top = layout.via_endpoints(via)
        assert bottom[2] == pytest.approx(layout.layer("M5").z_center)
        assert top[2] == pytest.approx(layout.layer("M6").z_center)

    def test_via_rejects_inverted_layers(self, layout):
        layout.add_net("VDD", NetKind.POWER)
        with pytest.raises(ValueError):
            layout.add_via("VDD", 0.0, 0.0, "M6", "M5", 1e-6)

    def test_validate_flags_floating_via(self, layout):
        layout.add_net("VDD", NetKind.POWER)
        layout.add_wire("VDD", "M5", Direction.X, (0.0, 0.0), 10e-6, 2e-6)
        layout.add_via("VDD", 500e-6, 500e-6, "M5", "M6", 1e-6)
        problems = layout.validate()
        assert any("via" in p for p in problems)

    def test_validate_flags_floating_pad(self, layout):
        layout.add_net("VDD", NetKind.POWER)
        layout.add_wire("VDD", "M6", Direction.X, (0.0, 0.0), 10e-6, 2e-6)
        layout.add_pad("VDD", 555e-6, 1e-6)
        problems = layout.validate()
        assert any("pad" in p for p in problems)

    def test_pad_on_wire_end_passes(self, layout):
        layout.add_net("VDD", NetKind.POWER)
        (seg,) = layout.add_wire("VDD", "M6", Direction.X, (0.0, 0.0), 10e-6, 2e-6)
        end = seg.endpoints()[0]
        layout.add_pad("VDD", end[0], end[1])
        assert layout.validate() == []


class TestQueries:
    def test_segments_of_and_kind_queries(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_net("GND", NetKind.GROUND)
        layout.add_wire("sig", "M6", Direction.X, (0.0, 0.0), 10e-6, 1e-6)
        layout.add_wire("GND", "M6", Direction.X, (0.0, 5e-6), 10e-6, 1e-6)
        assert len(layout.segments_of("sig")) == 1
        assert len(layout.supply_segments()) == 1
        assert len(layout.signal_segments()) == 1

    def test_bounding_box(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_wire("sig", "M6", Direction.X, (1e-6, 2e-6), 10e-6, 1e-6)
        lo, hi = layout.bounding_box()
        assert lo[0] == pytest.approx(1e-6)
        assert hi[0] == pytest.approx(11e-6)

    def test_bounding_box_empty_raises(self, layout):
        with pytest.raises(ValueError):
            layout.bounding_box()

    def test_net_is_connected(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_wire("sig", "M6", Direction.X, (0.0, 0.0), 10e-6, 1e-6,
                        breakpoints=[5e-6])
        assert layout.net_is_connected("sig")
        layout.add_wire("sig", "M6", Direction.X, (0.0, 50e-6), 10e-6, 1e-6)
        assert not layout.net_is_connected("sig")

    def test_stats_counts(self, layout):
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_net("GND", NetKind.GROUND)
        layout.add_wire("sig", "M6", Direction.X, (0.0, 0.0), 10e-6, 1e-6)
        layout.add_wire("GND", "M5", Direction.X, (0.0, 0.0), 10e-6, 1e-6)
        stats = layout.stats()
        assert stats["segments"] == 2
        assert stats["segments_signal"] == 1
        assert stats["segments_ground"] == 1


class TestNodeQuantization:
    def test_quantize_point_merges_close_points(self):
        a = quantize_point((1e-6, 2e-6, 3e-6))
        b = quantize_point((1e-6 + 1e-11, 2e-6, 3e-6))
        assert a == b

    def test_quantize_point_separates_distant_points(self):
        a = quantize_point((1e-6, 2e-6, 3e-6))
        b = quantize_point((1.001e-6, 2e-6, 3e-6))
        assert a != b
