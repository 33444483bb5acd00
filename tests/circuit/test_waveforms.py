"""Source waveforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.waveforms import DC, PWL, Pulse, Ramp, SineWave, sample


class TestDC:
    def test_constant(self):
        w = DC(3.3)
        assert w(0.0) == 3.3
        assert w(1e9) == 3.3


class TestRamp:
    def test_shape(self):
        w = Ramp(0.0, 1.2, delay=1e-9, rise_time=2e-9)
        assert w(0.0) == 0.0
        assert w(1e-9) == 0.0
        assert w(2e-9) == pytest.approx(0.6)
        assert w(3e-9) == pytest.approx(1.2)
        assert w(10e-9) == 1.2

    def test_falling(self):
        w = Ramp(1.2, 0.0, delay=0.0, rise_time=1e-9)
        assert w(0.5e-9) == pytest.approx(0.6)

    def test_rejects_zero_rise(self):
        with pytest.raises(ValueError):
            Ramp(0, 1, 0, 0.0)

    @given(t=st.floats(0, 1e-6))
    @settings(max_examples=50)
    def test_bounded(self, t):
        w = Ramp(0.2, 1.0, 1e-9, 3e-9)
        assert 0.2 <= w(t) <= 1.0


class TestPulse:
    def test_single_pulse_phases(self):
        w = Pulse(v0=0.0, v1=1.0, delay=1e-9, rise_time=1e-9,
                  fall_time=1e-9, width=2e-9, period=0.0)
        assert w(0.5e-9) == 0.0
        assert w(1.5e-9) == pytest.approx(0.5)
        assert w(3e-9) == 1.0
        assert w(4.5e-9) == pytest.approx(0.5)
        assert w(10e-9) == 0.0

    def test_periodic(self):
        w = Pulse(v0=0.0, v1=1.0, delay=0.0, rise_time=1e-9,
                  fall_time=1e-9, width=1e-9, period=10e-9)
        assert w(1.5e-9) == w(11.5e-9)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Pulse(0, 1, rise_time=0.0)

    def test_rejects_period_shorter_than_shape(self):
        # Regression: a period shorter than rise + width + fall would
        # silently truncate the pulse mid-edge on every wrap.
        with pytest.raises(ValueError, match="period"):
            Pulse(v0=0.0, v1=1.0, rise_time=1e-9, fall_time=1e-9,
                  width=2e-9, period=3e-9)

    def test_period_exactly_covering_shape_is_fine(self):
        w = Pulse(v0=0.0, v1=1.0, rise_time=1e-9, fall_time=1e-9,
                  width=2e-9, period=4e-9)
        assert w(0.5e-9) == pytest.approx(0.5)

    def test_zero_period_means_single_pulse(self):
        w = Pulse(v0=0.0, v1=1.0, rise_time=1e-9, fall_time=1e-9,
                  width=2e-9, period=0.0)
        assert w(100e-9) == 0.0


class TestPWL:
    def test_interpolation_and_clamping(self):
        w = PWL(points=((1e-9, 0.0), (2e-9, 1.0), (4e-9, -1.0)))
        assert w(0.0) == 0.0
        assert w(1.5e-9) == pytest.approx(0.5)
        assert w(3e-9) == pytest.approx(0.0)
        assert w(9e-9) == -1.0

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            PWL(points=((1e-9, 0.0), (1e-9, 1.0)))

    def test_requires_points(self):
        with pytest.raises(ValueError):
            PWL(points=())

    def test_time_axis_is_precomputed_once(self):
        # Regression: __call__ sits in the transient inner loop and used
        # to rebuild the times list on every evaluation; the axis is now
        # cached at construction on the frozen instance.
        w = PWL(points=((0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)))
        assert w._times == (0.0, 1e-9, 2e-9)
        assert w._times is w._times  # stable cached object
        assert w(0.5e-9) == pytest.approx(0.5)
        assert w(1.5e-9) == pytest.approx(0.75)

    def test_points_are_normalized_to_float_tuples(self):
        # Integer/mixed input points are coerced once at construction so
        # the interpolation arithmetic never re-coerces in the hot loop.
        w = PWL(points=[(0, 0), (2, 4)])
        assert w.points == ((0.0, 0.0), (2.0, 4.0))
        assert w(1) == pytest.approx(2.0)


class TestSine:
    def test_values(self):
        w = SineWave(offset=0.5, amplitude=0.5, frequency=1e9)
        assert w(0.0) == pytest.approx(0.5)
        assert w(0.25e-9) == pytest.approx(1.0)
        assert w(0.75e-9) == pytest.approx(0.0)

    def test_holds_before_delay(self):
        w = SineWave(offset=0.5, amplitude=0.5, frequency=1e9, delay=1e-9)
        assert w(0.5e-9) == 0.5

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            SineWave(0, 1, 0.0)


def _grid(*events):
    """A step grid plus every event time, and points before and after."""
    steps = np.arange(-5, 400) * 1.7e-12
    return np.concatenate([steps, np.asarray(events, dtype=float),
                           [-1e-9, 1e-6]])


class TestSample:
    """``sample(times)`` repeats the scalar arithmetic: bit-identical."""

    @pytest.mark.parametrize("waveform, events", [
        (DC(3.3), ()),
        (Ramp(0.0, 1.2, 50e-12, 40e-12), (50e-12, 90e-12)),
        (Ramp(1, 0, 0.0, 7e-12), (0.0, 7e-12)),
        (Pulse(0.1, 1.2, 20e-12, 5e-12, 7e-12, 30e-12),
         (20e-12, 25e-12, 55e-12, 62e-12)),
        (Pulse(0.0, 1.0, 3e-12, 5e-12, 7e-12, 20e-12, 45e-12),
         (3e-12, 8e-12, 28e-12, 35e-12, 48e-12, 93e-12, 138e-12)),
        (PWL(((0.0, 0.0), (0.1e-9, 1e-3), (0.25e-9, -2e-3),
              (0.4e-9, 0.5e-3))), (0.0, 0.1e-9, 0.25e-9, 0.4e-9)),
        (PWL(((0.2e-9, 1.5),)), (0.2e-9,)),
    ])
    def test_matches_per_point_calls(self, waveform, events):
        times = _grid(*events)
        expected = np.array([waveform(t) for t in times], dtype=float)
        assert sample(waveform, times).tobytes() == expected.tobytes()

    def test_waveforms_without_a_method_go_point_by_point(self):
        times = _grid(0.3e-9)
        for waveform in (SineWave(0.5, 1.0, 2e9, 0.1e-9),
                         lambda t: 2.0 * t + 1.0):
            assert not hasattr(waveform, "sample")
            expected = np.array([waveform(t) for t in times])
            assert sample(waveform, times).tobytes() == expected.tobytes()
