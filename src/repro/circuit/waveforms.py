"""Time-domain source waveforms.

Every independent source carries a waveform object: a callable mapping time
[s] to value (volts or amperes).  The shapes here cover everything the
paper's experiments need -- DC rails, clock edges (:class:`Pulse`,
:class:`Ramp`), piecewise-linear background-activity profiles (:class:`PWL`)
and sinusoids for AC sanity checks.

:func:`sample` evaluates a waveform over a whole time grid at once.  The
shapes with a ``sample(times)`` method repeat their scalar arithmetic
operation for operation, so the samples are bit-identical to calling the
waveform once per point.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


def sample(waveform, times) -> np.ndarray:
    """``waveform`` at every point of ``times``, as a float array.

    Uses the waveform's own ``sample(times)`` when it has one; any other
    callable (a :class:`SineWave`, whose ``np.sin`` could differ from
    ``math.sin`` in the last ulp, or a plain function) is called once per
    point.
    """
    vectorized = getattr(waveform, "sample", None)
    if vectorized is not None:
        return vectorized(times)
    return np.array([waveform(t) for t in times], dtype=float)


@dataclass(frozen=True)
class DC:
    """Constant value."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value

    def sample(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value, dtype=float)


@dataclass(frozen=True)
class Ramp:
    """Single transition from ``v0`` to ``v1`` starting at ``delay``.

    Linear over ``rise_time``; holds ``v1`` afterwards.  The canonical
    clock-edge stimulus for delay measurements.
    """

    v0: float
    v1: float
    delay: float
    rise_time: float

    def __post_init__(self) -> None:
        if self.rise_time <= 0:
            raise ValueError("rise_time must be positive")

    def __call__(self, t: float) -> float:
        if t <= self.delay:
            return self.v0
        if t >= self.delay + self.rise_time:
            return self.v1
        frac = (t - self.delay) / self.rise_time
        return self.v0 + (self.v1 - self.v0) * frac

    def sample(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        frac = (t - self.delay) / self.rise_time
        ramp = self.v0 + (self.v1 - self.v0) * frac
        return np.where(
            t <= self.delay, float(self.v0),
            np.where(t >= self.delay + self.rise_time, float(self.v1), ramp),
        )


@dataclass(frozen=True)
class Pulse:
    """SPICE-style periodic pulse.

    Args mirror SPICE's PULSE(): initial value, pulsed value, delay, rise
    time, fall time, pulse width, period.  ``period = 0`` gives a single
    pulse.
    """

    v0: float
    v1: float
    delay: float = 0.0
    rise_time: float = 1e-12
    fall_time: float = 1e-12
    width: float = 1e-9
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.rise_time <= 0 or self.fall_time <= 0:
            raise ValueError("rise/fall times must be positive")
        if self.width < 0:
            raise ValueError("width must be non-negative")
        shape = self.rise_time + self.width + self.fall_time
        if 0.0 < self.period < shape:
            # The modulo wrap in __call__ would silently truncate the
            # pulse mid-rise/mid-fall every cycle.
            raise ValueError(
                f"period {self.period:g} is shorter than "
                f"rise_time + width + fall_time = {shape:g}; the pulse "
                "shape would be truncated by the periodic wrap"
            )

    def __call__(self, t: float) -> float:
        if t <= self.delay:
            return self.v0
        t_rel = t - self.delay
        if self.period > 0:
            t_rel = t_rel % self.period
        if t_rel < self.rise_time:
            return self.v0 + (self.v1 - self.v0) * t_rel / self.rise_time
        t_rel -= self.rise_time
        if t_rel < self.width:
            return self.v1
        t_rel -= self.width
        if t_rel < self.fall_time:
            return self.v1 + (self.v0 - self.v1) * t_rel / self.fall_time
        return self.v0

    def sample(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        t_rise = t - self.delay
        if self.period > 0:
            t_rise = np.remainder(t_rise, self.period)
        t_high = t_rise - self.rise_time
        t_fall = t_high - self.width
        rise = self.v0 + (self.v1 - self.v0) * t_rise / self.rise_time
        fall = self.v1 + (self.v0 - self.v1) * t_fall / self.fall_time
        return np.select(
            [t <= self.delay, t_rise < self.rise_time,
             t_high < self.width, t_fall < self.fall_time],
            [float(self.v0), rise, float(self.v1), fall],
            default=float(self.v0),
        )


@dataclass(frozen=True)
class PWL:
    """Piecewise-linear waveform through (time, value) points.

    Holds the first value before the first point and the last value after
    the last point.  Used for the "time-varying current sources" that model
    background switching activity ("the current value changes with time
    during the simulation, to account for different parts of the chip
    switching at different times").
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("PWL needs at least one point")
        # Normalize and precompute the time axis ONCE: __call__ sits in
        # the transient inner loop (every rhs() evaluation), and
        # rebuilding the times list there made each lookup O(n) in list
        # construction on top of the O(log n) bisect.  The dataclass is
        # frozen, so the caches go in via object.__setattr__.
        points = tuple((float(p[0]), float(p[1])) for p in self.points)
        object.__setattr__(self, "points", points)
        times = tuple(p[0] for p in points)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL times must be strictly increasing")
        object.__setattr__(self, "_times", times)

    def __call__(self, t: float) -> float:
        times: tuple[float, ...] = self._times
        if t <= times[0]:
            return self.points[0][1]
        if t >= times[-1]:
            return self.points[-1][1]
        i = bisect.bisect_right(times, t)
        t0, v0 = self.points[i - 1]
        t1, v1 = self.points[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def sample(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        first, last = self.points[0][1], self.points[-1][1]
        if len(self.points) == 1:
            return np.full(t.shape, first)
        knots = np.asarray(self._times)
        values = np.array([p[1] for p in self.points])
        i = np.clip(np.searchsorted(knots, t, side="right"), 1, knots.size - 1)
        t0, v0 = knots[i - 1], values[i - 1]
        t1, v1 = knots[i], values[i]
        inside = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return np.where(
            t <= knots[0], first, np.where(t >= knots[-1], last, inside)
        )


@dataclass(frozen=True)
class SineWave:
    """Offset sinusoid: ``offset + amplitude * sin(2 pi f (t - delay))``."""

    offset: float
    amplitude: float
    frequency: float
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency * (t - self.delay)
        )
