"""FastHenry-style loop extraction."""

import math

import numpy as np
import pytest

from repro.constants import MU0
from repro.extraction.filaments import FilamentGrid
from repro.extraction.inductance import (
    mutual_inductance_filaments,
    self_inductance_bar,
)
from repro.geometry import build_shielded_line, build_signal_over_grid
from repro.geometry.clocktree import TapPoint
from repro.geometry.layout import Layout, NetKind
from repro.geometry.segment import Direction, default_layer_stack
from repro.loop.extractor import (
    LoopExtractionResult,
    LoopPort,
    extract_loop_impedance,
)


def make_port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


@pytest.fixture(scope="module")
def extraction(signal_grid_structure):
    layout, ports = signal_grid_structure
    freqs = np.logspace(7, 10.7, 8)
    return extract_loop_impedance(
        layout, make_port(ports), freqs, max_segment_length=150e-6
    )


class TestFrequencyTrends:
    def test_resistance_rises_with_frequency(self, extraction):
        r = extraction.resistance
        assert r[-1] > r[0]
        assert np.all(np.diff(r) > -1e-9)  # monotone (numerically)

    def test_inductance_falls_with_frequency(self, extraction):
        l = extraction.inductance
        assert l[-1] < l[0]
        assert np.all(np.diff(l) < 1e-15)

    def test_inductance_magnitude_sane(self, extraction):
        # A 300-um loop with ~8-um pitch returns: a few hundred pH/mm.
        l = extraction.inductance
        assert 1e-11 < l[0] < 1e-9

    def test_low_frequency_resistance_is_dc_resistance(
        self, signal_grid_structure
    ):
        layout, ports = signal_grid_structure
        res = extract_loop_impedance(
            layout, make_port(ports), [1e5], max_segment_length=150e-6
        )
        # Compute the DC loop resistance independently: signal series R
        # plus the parallel combination of the return paths, via a purely
        # resistive solve.
        from repro.circuit.ac import ac_impedance
        from repro.circuit.netlist import Circuit
        from repro.extraction.resistance import segment_resistance
        from repro.geometry.layout import quantize_point

        circuit = Circuit("dc")
        nodes = {}

        def node(p):
            key = quantize_point(p)
            return nodes.setdefault(key, f"n{len(nodes)}")

        layer_map = {l.name: l for l in layout.layers}
        for k, seg in enumerate(layout.segments):
            a, b = seg.endpoints()
            circuit.add_resistor(
                f"r{k}", node(a), node(b),
                segment_resistance(seg, layer_map[seg.layer]),
            )
        lay = layout.layer(ports["driver"].layer)
        p_sig = node((ports["driver"].x, ports["driver"].y, lay.z_center))
        p_ref = node((ports["gnd_driver"].x, ports["gnd_driver"].y, lay.z_center))
        s_sig = node((ports["receiver"].x, ports["receiver"].y, lay.z_center))
        s_ref = node((ports["gnd_receiver"].x, ports["gnd_receiver"].y, lay.z_center))
        circuit.add_resistor("short", s_sig, s_ref, 1e-6)
        z_dc = ac_impedance(circuit, [0.0], (p_sig, p_ref), gmin=1e-12)
        assert res.resistance[0] == pytest.approx(float(z_dc[0].real), rel=0.01)

    def test_dc_entry_inductance_is_nan(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        res = extract_loop_impedance(
            layout, make_port(ports), [0.0, 1e9],
            max_segment_length=150e-6,
        )
        assert np.isnan(res.inductance[0])
        assert np.isfinite(res.inductance[1])


class TestOptions:
    def test_explicit_filament_grid(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        res = extract_loop_impedance(
            layout, make_port(ports), [1e9], filaments=FilamentGrid(2, 1),
            max_segment_length=150e-6,
        )
        import math

        expected = 2 * sum(  # 2 width filaments per split piece
            max(1, math.ceil(s.length / 150e-6))
            for s in layout.segments if s.direction.value != "z"
        )
        assert res.num_filaments == expected

    def test_interpolated_at(self, extraction):
        freqs = extraction.frequencies
        mid = np.sqrt(freqs[0] * freqs[1])
        z = extraction.at(mid)
        assert min(extraction.resistance[0], extraction.resistance[1]) <= \
            z.real <= max(extraction.resistance[0], extraction.resistance[1])

    def test_empty_frequencies_rejected(self, signal_grid_structure):
        layout, ports = signal_grid_structure
        with pytest.raises(ValueError):
            extract_loop_impedance(layout, make_port(ports), [])

    def test_at_on_descending_grid(self):
        # Regression: a high-to-low sweep hands np.interp a descending
        # abscissa, for which it silently returns garbage.  at() must
        # sort internally.
        freqs = np.array([1e10, 1e9, 1e8])
        z = np.array([3.0 + 30.0j, 2.0 + 20.0j, 1.0 + 10.0j])
        res = LoopExtractionResult(
            frequencies=freqs, impedance=z, num_filaments=0
        )
        for f, zv in zip(freqs, z):
            assert res.at(f) == zv
        mid = res.at(5.5e8)  # halfway between the 1e8 and 1e9 points
        assert mid == pytest.approx(1.5 + 15.0j)

    def test_at_on_unsorted_grid(self):
        freqs = np.array([1e9, 1e7, 1e10, 1e8])
        z = np.array([3.0 + 3j, 1.0 + 1j, 4.0 + 4j, 2.0 + 2j])
        res = LoopExtractionResult(
            frequencies=freqs, impedance=z, num_filaments=0
        )
        for f, zv in zip(freqs, z):
            assert res.at(f) == zv

    def test_at_returns_exact_stored_values_at_grid_points(self, extraction):
        # Exactly at a grid frequency there must be no interpolation
        # round-off: the stored value comes back bit-for-bit.
        for f, zv in zip(extraction.frequencies, extraction.impedance):
            assert extraction.at(float(f)) == complex(zv)

    def test_shields_reduce_loop_inductance(self):
        base_layout, base_ports = build_shielded_line(
            length=400e-6, with_shields=False, outer_pitch=20e-6,
        )
        shield_layout, shield_ports = build_shielded_line(
            length=400e-6, with_shields=True, shield_spacing=2e-6,
            outer_pitch=20e-6,
        )
        z_base = extract_loop_impedance(
            base_layout, make_port(base_ports), [2e9],
            max_segment_length=200e-6,
        )
        z_shield = extract_loop_impedance(
            shield_layout, make_port(shield_ports), [2e9],
            max_segment_length=200e-6,
        )
        assert z_shield.inductance[0] < z_base.inductance[0]


class TestClosedForms:
    """The loop extractor against closed forms, on a two-wire line."""

    @staticmethod
    def two_wire(length, width, spacing):
        """Signal and GND bars on M6, centers ``spacing`` apart, driven at
        x = 0 and shorted at x = ``length``; L at 100 kHz."""
        layout = Layout(default_layer_stack(6), name="two_wire")
        layout.add_net("sig", NetKind.SIGNAL)
        layout.add_net("GND", NetKind.GROUND)
        for net, y in (("sig", 0.0), ("GND", spacing)):
            layout.add_wire(net, "M6", Direction.X, (0.0, y - width / 2),
                            length, width)
        port = LoopPort(
            signal=TapPoint("sig", 0.0, 0.0, "M6"),
            reference=TapPoint("GND", 0.0, spacing, "M6"),
            short_signal=TapPoint("sig", length, 0.0, "M6"),
            short_reference=TapPoint("GND", length, spacing, "M6"),
        )
        result = extract_loop_impedance(layout, port, [1e5])
        return float(result.inductance[0]), layout.layer("M6").thickness

    @pytest.mark.parametrize("length, width, spacing", [
        (1000e-6, 2e-6, 10e-6),
        (2000e-6, 1e-6, 20e-6),
    ])
    def test_two_wire_loop_inductance(self, length, width, spacing):
        loop_l, thickness = self.two_wire(length, width, spacing)
        # The partial-inductance identity: a loop of two equal bars
        # carrying opposite currents has L = 2 (L_self - M).
        partial = 2.0 * (
            self_inductance_bar(length, width, thickness)
            - mutual_inductance_filaments(0.0, length, 0.0, length, spacing)
        )
        assert loop_l == pytest.approx(partial, rel=1e-8)
        # Grover's long two-wire line, each bar replaced by its geometric
        # mean distance g = 0.2235 (w + t).  End effects keep the
        # extracted L a few tenths of a percent low for l/d >= 100 (about
        # 1% at l/d = 25).
        gmd = 0.2235 * (width + thickness)
        grover = MU0 * length / math.pi * math.log(spacing / gmd)
        assert loop_l == pytest.approx(grover, rel=5e-3)
