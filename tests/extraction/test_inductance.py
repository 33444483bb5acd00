"""Partial-inductance formulas: analytic cross-checks and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MU0
from repro.extraction.inductance import (
    mutual_between_segments,
    mutual_inductance_bars,
    mutual_inductance_bars_batch,
    mutual_inductance_filaments,
    mutual_inductance_filaments_grover,
    self_inductance_bar,
)
from repro.geometry.segment import Direction, Segment


class TestSelfInductance:
    def test_typical_onchip_value(self):
        # ~1.4 nH for a 1 mm x 2 um x 1 um line: the textbook rule of thumb
        # "about 1.4 pH/um" for on-chip wires.
        value = self_inductance_bar(1e-3, 2e-6, 1e-6)
        assert value == pytest.approx(1.40e-9, rel=0.02)

    def test_grows_superlinearly_with_length(self):
        l1 = self_inductance_bar(100e-6, 2e-6, 1e-6)
        l2 = self_inductance_bar(200e-6, 2e-6, 1e-6)
        assert l2 > 2 * l1  # the log term grows too

    def test_wider_wire_has_less_inductance(self):
        narrow = self_inductance_bar(1e-3, 1e-6, 1e-6)
        wide = self_inductance_bar(1e-3, 10e-6, 1e-6)
        assert wide < narrow

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self_inductance_bar(0.0, 1e-6, 1e-6)

    @given(
        length=st.floats(10e-6, 10e-3),
        width=st.floats(0.1e-6, 20e-6),
        thickness=st.floats(0.1e-6, 5e-6),
    )
    @settings(max_examples=60)
    def test_always_positive(self, length, width, thickness):
        assert self_inductance_bar(length, width, thickness) > 0.0


class TestFilamentMutual:
    def test_matches_grover_closed_form(self):
        for length, rho in [(1e-3, 5e-6), (200e-6, 2e-6), (2e-3, 50e-6)]:
            a = mutual_inductance_filaments(0, length, 0, length, rho)
            b = mutual_inductance_filaments_grover(length, rho)
            assert a == pytest.approx(b, rel=1e-12)

    def test_long_filament_asymptote(self):
        # l >> d: M -> (mu0/2pi) l [ln(2l/d) - 1].
        length, rho = 10e-3, 1e-6
        expected = (MU0 / (2 * math.pi)) * length * (
            math.log(2 * length / rho) - 1.0
        )
        value = mutual_inductance_filaments(0, length, 0, length, rho)
        assert value == pytest.approx(expected, rel=1e-3)

    def test_reciprocity_with_offsets(self):
        a = mutual_inductance_filaments(0, 1e-3, 0.4e-3, 1.2e-3, 7e-6)
        b = mutual_inductance_filaments(0.4e-3, 1.2e-3, 0, 1e-3, 7e-6)
        assert a == pytest.approx(b, rel=1e-12)

    def test_translation_invariance(self):
        shift = 3.3e-3
        a = mutual_inductance_filaments(0, 1e-3, 0.2e-3, 0.8e-3, 5e-6)
        b = mutual_inductance_filaments(shift, shift + 1e-3,
                                        shift + 0.2e-3, shift + 0.8e-3, 5e-6)
        assert a == pytest.approx(b, rel=1e-9)

    def test_decays_with_distance(self):
        values = [
            mutual_inductance_filaments(0, 1e-3, 0, 1e-3, d)
            for d in (1e-6, 3e-6, 10e-6, 30e-6, 100e-6)
        ]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_superposition_over_subsegments(self):
        # M(total) = M(first half) + M(second half) for a split filament.
        whole = mutual_inductance_filaments(0, 1e-3, 0, 1e-3, 5e-6)
        first = mutual_inductance_filaments(0, 0.5e-3, 0, 1e-3, 5e-6)
        second = mutual_inductance_filaments(0.5e-3, 1e-3, 0, 1e-3, 5e-6)
        assert whole == pytest.approx(first + second, rel=1e-12)

    def test_collinear_non_overlapping(self):
        value = mutual_inductance_filaments(0, 1e-3, 1.5e-3, 2.5e-3, 0.0)
        assert value > 0.0

    def test_collinear_overlapping_rejected(self):
        with pytest.raises(ValueError):
            mutual_inductance_filaments(0, 1e-3, 0.5e-3, 1.5e-3, 0.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            mutual_inductance_filaments(0, 1e-3, 0, 1e-3, -1e-6)

    def test_vectorized_matches_scalar(self):
        rho = np.array([1e-6, 5e-6, 20e-6])
        vec = mutual_inductance_filaments(0, 1e-3, 0, 1e-3, rho)
        for k, r in enumerate(rho):
            assert vec[k] == pytest.approx(
                mutual_inductance_filaments(0, 1e-3, 0, 1e-3, float(r))
            )

    @given(
        length=st.floats(50e-6, 5e-3),
        rho=st.floats(0.5e-6, 200e-6),
        offset=st.floats(-2e-3, 2e-3),
    )
    @settings(max_examples=80)
    def test_mutual_below_geometric_mean_of_selfs(self, length, rho, offset):
        # Physical bound: coupling coefficient < 1 for distinct filaments.
        m = mutual_inductance_filaments(
            0, length, offset, offset + length, rho
        )
        self_l = self_inductance_bar(length, 0.5e-6, 0.5e-6)
        assert abs(m) < self_l

    @given(
        rho1=st.floats(1e-6, 50e-6),
        rho2=st.floats(1e-6, 50e-6),
    )
    @settings(max_examples=40)
    def test_monotone_decay_property(self, rho1, rho2):
        lo, hi = sorted((rho1, rho2))
        if hi - lo < 1e-9:
            return
        m_near = mutual_inductance_filaments(0, 1e-3, 0, 1e-3, lo)
        m_far = mutual_inductance_filaments(0, 1e-3, 0, 1e-3, hi)
        assert m_near >= m_far


class TestBarMutual:
    def test_converges_with_subdivision(self):
        args = (0, 1e-3, 0, 1e-3, 4e-6, 0.0, 2e-6, 1e-6, 2e-6, 1e-6)
        values = [mutual_inductance_bars(*args, subdivisions=n)
                  for n in (1, 2, 3, 5, 7)]
        diffs = [abs(a - b) for a, b in zip(values, values[1:])]
        assert diffs[-1] < diffs[0]
        assert values[-1] == pytest.approx(values[-2], rel=1e-3)

    def test_far_bars_match_center_filament(self):
        far = mutual_inductance_bars(
            0, 1e-3, 0, 1e-3, 100e-6, 0.0, 2e-6, 1e-6, 2e-6, 1e-6,
            subdivisions=3,
        )
        fil = mutual_inductance_filaments(0, 1e-3, 0, 1e-3, 100e-6)
        assert far == pytest.approx(fil, rel=1e-4)

    def test_auto_subdivision_selects_by_distance(self):
        near = mutual_inductance_bars(
            0, 1e-3, 0, 1e-3, 3e-6, 0.0, 2e-6, 1e-6, 2e-6, 1e-6
        )
        near_fine = mutual_inductance_bars(
            0, 1e-3, 0, 1e-3, 3e-6, 0.0, 2e-6, 1e-6, 2e-6, 1e-6,
            subdivisions=3,
        )
        assert near == pytest.approx(near_fine, rel=1e-12)

    def test_rejects_bad_subdivision(self):
        with pytest.raises(ValueError):
            mutual_inductance_bars(
                0, 1e-3, 0, 1e-3, 4e-6, 0, 1e-6, 1e-6, 1e-6, 1e-6,
                subdivisions=0,
            )


class TestSegmentMutual:
    def seg(self, direction, origin, length=200e-6):
        return Segment(net="s", layer="M6", direction=direction,
                       origin=origin, length=length, width=2e-6,
                       thickness=1e-6, name="t")

    def test_parallel_segments(self):
        a = self.seg(Direction.X, (0.0, 0.0, 1e-6))
        b = self.seg(Direction.X, (0.0, 10e-6, 1e-6))
        m = mutual_between_segments(a, b)
        expected = mutual_inductance_filaments(0, 200e-6, 0, 200e-6, 10e-6)
        assert m == pytest.approx(expected, rel=0.02)

    def test_orthogonal_rejected(self):
        a = self.seg(Direction.X, (0.0, 0.0, 1e-6))
        b = self.seg(Direction.Y, (0.0, 10e-6, 1e-6))
        with pytest.raises(ValueError):
            mutual_between_segments(a, b)

    def test_symmetric_in_arguments(self):
        a = self.seg(Direction.Y, (0.0, 0.0, 1e-6))
        b = self.seg(Direction.Y, (6e-6, 50e-6, 1e-6), length=100e-6)
        assert mutual_between_segments(a, b) == pytest.approx(
            mutual_between_segments(b, a), rel=1e-12
        )


def reference_bar_mutual(start1, end1, start2, end2, d_width, d_thick,
                         width1, thick1, width2, thick2, subdivisions):
    """The bar mutual as the mean over all n^4 filament pairs.

    The kernel's definition, evaluated the direct way: every pair of
    centroid filaments of the two ``n x n`` cross-section subdivisions.
    """
    def offsets(extent):
        if subdivisions == 1:
            return np.zeros(1)
        edges = np.linspace(-extent / 2.0, extent / 2.0, subdivisions + 1)
        return (edges[:-1] + edges[1:]) / 2.0

    dw = (d_width + offsets(width2)[None, :]
          - offsets(width1)[:, None]).ravel()
    dt = (d_thick + offsets(thick2)[None, :]
          - offsets(thick1)[:, None]).ravel()
    dws, dts = np.meshgrid(dw, dt, indexing="ij")
    rho = np.hypot(dws, dts).ravel()
    return float(np.mean(
        mutual_inductance_filaments(start1, end1, start2, end2, rho)
    ))


def random_bar_pairs(seed, count, equal_sections):
    """Random close bar pairs; the first quarter touch side by side and
    the next quarter are collinear neighbours along the axis."""
    rng = np.random.default_rng(seed)
    start1 = rng.uniform(0, 100e-6, count)
    end1 = start1 + rng.uniform(20e-6, 300e-6, count)
    start2 = rng.uniform(0, 100e-6, count)
    end2 = start2 + rng.uniform(20e-6, 300e-6, count)
    d_width = rng.uniform(1e-6, 30e-6, count)
    d_thick = rng.uniform(0.0, 5e-6, count)
    width1 = rng.uniform(0.5e-6, 10e-6, count)
    thick1 = rng.uniform(0.2e-6, 2e-6, count)
    width2 = width1.copy() if equal_sections else \
        rng.uniform(0.5e-6, 10e-6, count)
    thick2 = thick1.copy() if equal_sections else \
        rng.uniform(0.2e-6, 2e-6, count)
    q = count // 4
    d_width[:q] = 0.5 * (width1[:q] + width2[:q])
    d_thick[:q] = 0.0
    d_width[q:2 * q] = 0.0
    d_thick[q:2 * q] = 0.0
    start2[q:2 * q] = end1[q:2 * q]
    return (start1, end1, start2, end2, d_width, d_thick,
            width1, thick1, width2, thick2)


class TestEqualSectionKernel:
    """Equal cross sections take the (2n-1)^2 distinct separations; the
    n^4 mean of :func:`reference_bar_mutual` is the reference."""

    @pytest.mark.parametrize("subdivisions", [2, 3, 5])
    def test_matches_the_n4_mean(self, subdivisions):
        args = random_bar_pairs(subdivisions, 400, equal_sections=True)
        batched = mutual_inductance_bars_batch(
            *args, subdivisions=subdivisions
        )
        reference = np.array([
            reference_bar_mutual(*(a[k] for a in args), subdivisions)
            for k in range(400)
        ])
        assert np.all(np.abs(batched - reference)
                      <= 1e-13 * np.abs(reference))

    @pytest.mark.parametrize("subdivisions", [2, 3, 5])
    def test_unequal_sections_are_the_n4_mean_bit_for_bit(
        self, subdivisions
    ):
        args = random_bar_pairs(10 + subdivisions, 64, equal_sections=False)
        batched = mutual_inductance_bars_batch(
            *args, subdivisions=subdivisions
        )
        for k in range(64):
            assert batched[k] == reference_bar_mutual(
                *(a[k] for a in args), subdivisions
            )

    def test_a_pair_has_the_same_bits_alone_and_in_a_mixed_batch(self):
        equal = random_bar_pairs(21, 40, equal_sections=True)
        unequal = random_bar_pairs(22, 40, equal_sections=False)
        mixed = tuple(np.concatenate([a, b])[::-1]
                      for a, b in zip(equal, unequal))
        batched = mutual_inductance_bars_batch(*mixed, subdivisions=3)
        for k in range(80):
            alone = mutual_inductance_bars_batch(
                *(a[k:k + 1] for a in mixed), subdivisions=3
            )
            assert alone[0] == batched[k]
            assert mutual_inductance_bars(
                *(a[k] for a in mixed), subdivisions=3
            ) == batched[k]


class TestBarMutualBatch:
    """Batched close-pair kernel must be bit-identical to the scalar one."""

    @staticmethod
    def random_pairs(seed, count):
        rng = np.random.default_rng(seed)
        start1 = rng.uniform(0, 100e-6, count)
        end1 = start1 + rng.uniform(20e-6, 300e-6, count)
        start2 = rng.uniform(0, 100e-6, count)
        end2 = start2 + rng.uniform(20e-6, 300e-6, count)
        d_width = rng.uniform(1e-6, 30e-6, count)
        d_thick = rng.uniform(0.0, 5e-6, count)
        width1 = rng.uniform(0.5e-6, 10e-6, count)
        thick1 = rng.uniform(0.2e-6, 2e-6, count)
        width2 = rng.uniform(0.5e-6, 10e-6, count)
        thick2 = rng.uniform(0.2e-6, 2e-6, count)
        return (start1, end1, start2, end2, d_width, d_thick,
                width1, thick1, width2, thick2)

    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 5])
    def test_bit_identical_to_scalar(self, subdivisions):
        args = self.random_pairs(seed=subdivisions, count=32)
        batched = mutual_inductance_bars_batch(
            *args, subdivisions=subdivisions
        )
        for k in range(32):
            scalar = mutual_inductance_bars(
                *(a[k] for a in args), subdivisions=subdivisions
            )
            assert batched[k] == scalar  # exact, not approx

    def test_single_pair(self):
        m = mutual_inductance_bars_batch(
            np.array([0.0]), np.array([1e-3]),
            np.array([0.0]), np.array([1e-3]),
            np.array([4e-6]), np.array([0.0]),
            np.array([1e-6]), np.array([1e-6]),
            np.array([1e-6]), np.array([1e-6]),
            subdivisions=3,
        )
        scalar = mutual_inductance_bars(
            0.0, 1e-3, 0.0, 1e-3, 4e-6, 0.0,
            1e-6, 1e-6, 1e-6, 1e-6, subdivisions=3,
        )
        assert m.shape == (1,)
        assert m[0] == scalar

    def test_rejects_bad_subdivisions(self):
        with pytest.raises(ValueError):
            mutual_inductance_bars_batch(
                np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
                np.full(1, 4e-6), np.zeros(1),
                np.full(1, 1e-6), np.full(1, 1e-6),
                np.full(1, 1e-6), np.full(1, 1e-6),
                subdivisions=0,
            )
