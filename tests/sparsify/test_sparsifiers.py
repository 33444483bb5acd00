"""Section-4 sparsification strategies."""

import numpy as np
import pytest

from repro.extraction.partial_matrix import extract_partial_inductance
from repro.geometry.segment import Direction, Segment
from repro.sparsify import (
    BlockDiagonalSparsifier,
    DenseInductance,
    HaloSparsifier,
    KMatrixSparsifier,
    ShellSparsifier,
    TruncationSparsifier,
    is_positive_definite,
    min_eigenvalue,
    sparsity_ratio,
)
from repro.obs.trace import tracing
from repro.sparsify.base import InductanceBlocks, traced_apply


def lines(num=8, pitch=4e-6, length=400e-6, net="s"):
    return [
        Segment(net=net, layer="M6", direction=Direction.X,
                origin=(0.0, k * pitch, 7e-6), length=length,
                width=1e-6, thickness=0.5e-6, name=f"l{k}")
        for k in range(num)
    ]


@pytest.fixture(scope="module")
def extraction():
    return extract_partial_inductance(lines())


class TestStability:
    def test_pd_checks(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(np.diag([1.0, -0.1, 1.0]))
        assert not is_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_min_eigenvalue(self):
        assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)

    def test_sparsity_ratio(self):
        m = np.eye(4)
        assert sparsity_ratio(m) == 1.0
        m[0, 1] = m[1, 0] = 0.5
        assert sparsity_ratio(m) == pytest.approx(1.0 - 2 / 12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_positive_definite(np.ones((2, 3)))


class TestBlocksContainer:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            InductanceBlocks(
                kind="L",
                blocks=[([0, 1], np.eye(2)), ([1, 2], np.eye(2))],
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            InductanceBlocks(kind="X", blocks=[])

    def test_to_dense_roundtrip(self, extraction):
        blocks = DenseInductance().apply(extraction)
        assert np.allclose(blocks.to_dense(), extraction.matrix)


class TestTruncation:
    def test_zero_threshold_keeps_all(self, extraction):
        blocks = TruncationSparsifier(threshold=0.0).apply(extraction)
        assert np.allclose(blocks.to_dense(), extraction.matrix)

    def test_full_threshold_drops_all(self, extraction):
        blocks = TruncationSparsifier(threshold=1.0).apply(extraction)
        dense = blocks.to_dense()
        assert np.count_nonzero(dense - np.diag(np.diagonal(dense))) == 0

    def test_threshold_monotone_sparsity(self, extraction):
        s1 = sparsity_ratio(
            TruncationSparsifier(0.05).apply(extraction).to_dense()
        )
        s2 = sparsity_ratio(
            TruncationSparsifier(0.3).apply(extraction).to_dense()
        )
        assert s2 >= s1

    def test_truncation_can_break_positive_definiteness(self):
        # The paper's warning, demonstrated: tightly coupled long parallel
        # lines truncated at an unlucky threshold go indefinite.
        extraction = extract_partial_inductance(
            lines(num=12, pitch=1.5e-6, length=2000e-6)
        )
        assert extraction.is_positive_definite()
        broke = False
        for threshold in (0.3, 0.4, 0.5, 0.6, 0.7):
            dense = TruncationSparsifier(threshold).apply(extraction).to_dense()
            if not is_positive_definite(dense):
                broke = True
                assert min_eigenvalue(dense) < 0.0
                break
        assert broke, "expected truncation to produce an indefinite matrix"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TruncationSparsifier(threshold=1.5)


class TestBlockDiagonal:
    def test_partition_covers_all_segments(self, extraction):
        sparsifier = BlockDiagonalSparsifier(num_sections=3)
        blocks = sparsifier.apply(extraction)
        covered = sorted(i for idx, _ in blocks.blocks for i in idx)
        assert covered == list(range(extraction.size))

    def test_always_positive_definite(self, extraction):
        for sections in (1, 2, 4, 8):
            blocks = BlockDiagonalSparsifier(num_sections=sections).apply(
                extraction
            )
            assert is_positive_definite(blocks.to_dense(extraction.size))

    def test_single_section_is_dense(self, extraction):
        blocks = BlockDiagonalSparsifier(num_sections=1).apply(extraction)
        assert np.allclose(blocks.to_dense(), extraction.matrix)

    def test_focus_net_lands_in_one_block(self):
        segs = lines(num=6)
        # Mark the middle two lines as the focus signal.
        segs[2] = Segment(net="clk", layer="M6", direction=Direction.X,
                          origin=segs[2].origin, length=segs[2].length,
                          width=1e-6, thickness=0.5e-6, name="c0")
        segs[3] = Segment(net="clk", layer="M6", direction=Direction.X,
                          origin=segs[3].origin, length=segs[3].length,
                          width=1e-6, thickness=0.5e-6, name="c1")
        extraction = extract_partial_inductance(segs)
        sparsifier = BlockDiagonalSparsifier(
            num_sections=3, axis=1, focus_nets=("clk",)
        )
        sections = sparsifier.partition(extraction)
        containing = [sec for sec in sections if 2 in sec]
        assert containing and 3 in containing[0]

    def test_more_sections_fewer_mutuals(self, extraction):
        m2 = BlockDiagonalSparsifier(num_sections=2).apply(extraction)
        m8 = BlockDiagonalSparsifier(num_sections=8).apply(extraction)
        assert m8.num_mutuals < m2.num_mutuals


class TestShell:
    def test_result_positive_definite(self, extraction):
        blocks = ShellSparsifier(radius=10e-6).apply(extraction)
        assert is_positive_definite(blocks.to_dense(extraction.size))

    def test_far_couplings_dropped(self, extraction):
        blocks = ShellSparsifier(radius=10e-6).apply(extraction)
        dense = blocks.to_dense(extraction.size)
        # Lines 0 and 7 are 28 um apart > radius.
        assert dense[0, 7] == 0.0
        assert dense[0, 1] != 0.0

    def test_diagonal_shifted_down(self, extraction):
        blocks = ShellSparsifier(radius=10e-6).apply(extraction)
        dense = blocks.to_dense(extraction.size)
        assert np.all(np.diagonal(dense) < np.diagonal(extraction.matrix))

    def test_auto_radius_quantile(self, extraction):
        # 8 lines at 4 um pitch: 28 parallel pairs, 7 of them nearest
        # neighbours at one (rounding-dusted) distance.  The radius must
        # not land on a tie: equidistant pairs are kept or dropped
        # together, and the kept fraction never falls below the request.
        total = extraction.num_mutuals
        assert total == 28
        kept = {}
        for fraction in (0.1, 0.2, 0.25, 0.3, 0.5, 0.9, 1.0):
            radius = ShellSparsifier.auto_radius(extraction, fraction)
            blocks = ShellSparsifier(radius=radius).apply(extraction)
            kept[fraction] = blocks.num_mutuals
            assert kept[fraction] / total >= fraction
        assert kept[0.1] == kept[0.2] == kept[0.25] == 7
        dense = ShellSparsifier(
            radius=ShellSparsifier.auto_radius(extraction, 0.1)
        ).apply(extraction).to_dense()
        assert all(dense[k, k + 1] != 0.0 for k in range(7))
        assert kept[0.3] == 13
        assert kept[1.0] == 28
        assert sorted(kept.values()) == list(kept.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            ShellSparsifier(radius=-1.0)
        with pytest.raises(ValueError):
            ShellSparsifier(grow_factor=0.9)


class TestHalo:
    def make_extraction_with_shield(self):
        segs = [
            Segment(net="a", layer="M6", direction=Direction.X,
                    origin=(0.0, 0.0, 7e-6), length=400e-6,
                    width=1e-6, thickness=0.5e-6, name="a"),
            Segment(net="GND", layer="M6", direction=Direction.X,
                    origin=(0.0, 4e-6, 7e-6), length=400e-6,
                    width=1e-6, thickness=0.5e-6, name="g"),
            Segment(net="b", layer="M6", direction=Direction.X,
                    origin=(0.0, 8e-6, 7e-6), length=400e-6,
                    width=1e-6, thickness=0.5e-6, name="b"),
        ]
        return extract_partial_inductance(segs)

    def test_shield_blocks_coupling_across_it(self):
        extraction = self.make_extraction_with_shield()
        blocks = HaloSparsifier(supply_nets=("GND",)).apply(extraction)
        dense = blocks.to_dense(extraction.size)
        assert dense[0, 2] == 0.0  # a-b blocked by the GND line between
        # Couplings to the bounding return shift to ~zero (the return-
        # limited formulation folds them into the loop inductance).
        assert abs(dense[0, 1]) < 0.05 * abs(extraction.matrix[0, 1])
        # Self terms are return-shifted downward...
        assert dense[0, 0] < extraction.matrix[0, 0]
        # ...and the result stays positive definite.
        assert is_positive_definite(dense)

    def test_span_counts_blocked_pairs(self):
        # The screened a-b pair is a dropped mutual that mutuals_kept
        # cannot tell from an orthogonal zero; the span names it.
        extraction = self.make_extraction_with_shield()
        with tracing() as trace:
            traced_apply(HaloSparsifier(supply_nets=("GND",)), extraction)
        assert trace.find("sparsify.halo").attrs["blocked"] == 1
        with tracing() as trace:
            traced_apply(HaloSparsifier(supply_nets=("VDD",)), extraction)
        assert trace.find("sparsify.halo").attrs["blocked"] == 0

    def test_drop_only_variant_can_lose_passivity(self):
        # The ablation's negative control: geometric dropping without the
        # return shift is just truncation and is not passivity-safe.
        extraction = self.make_extraction_with_shield()
        blocks = HaloSparsifier(
            supply_nets=("GND",), shift=False
        ).apply(extraction)
        dense = blocks.to_dense(extraction.size)
        assert dense[0, 2] == 0.0
        assert dense[0, 0] == extraction.matrix[0, 0]  # no shift applied

    def test_no_supply_keeps_everything(self, extraction):
        blocks = HaloSparsifier(supply_nets=("VDD",)).apply(extraction)
        assert np.allclose(blocks.to_dense(extraction.size), extraction.matrix)

    def test_short_jog_does_not_block(self):
        segs = [
            Segment(net="a", layer="M6", direction=Direction.X,
                    origin=(0.0, 0.0, 7e-6), length=400e-6,
                    width=1e-6, thickness=0.5e-6, name="a"),
            Segment(net="GND", layer="M6", direction=Direction.X,
                    origin=(0.0, 4e-6, 7e-6), length=20e-6,  # short stub
                    width=1e-6, thickness=0.5e-6, name="g"),
            Segment(net="b", layer="M6", direction=Direction.X,
                    origin=(0.0, 8e-6, 7e-6), length=400e-6,
                    width=1e-6, thickness=0.5e-6, name="b"),
        ]
        extraction = extract_partial_inductance(segs)
        blocks = HaloSparsifier(supply_nets=("GND",),
                                min_overlap_fraction=0.5).apply(extraction)
        dense = blocks.to_dense(extraction.size)
        assert dense[0, 2] != 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HaloSparsifier(min_overlap_fraction=0.0)


class TestKMatrix:
    def test_zero_threshold_is_exact_inverse(self, extraction):
        blocks = KMatrixSparsifier(threshold=0.0).apply(extraction)
        assert blocks.kind == "K"
        _, kmatrix = blocks.blocks[0]
        assert np.allclose(kmatrix @ extraction.matrix, np.eye(extraction.size),
                           atol=1e-6)

    def test_k_is_more_local_than_l(self, extraction):
        # The normalized far-off-diagonal K entries decay faster than L's:
        # that locality is the method's selling point.
        kmatrix = KMatrixSparsifier(threshold=0.0).apply(extraction).blocks[0][1]
        l_matrix = extraction.matrix

        def far_ratio(m):
            d = np.sqrt(np.abs(np.diagonal(m)))
            norm = np.abs(m) / np.outer(d, d)
            return norm[0, -1]

        assert far_ratio(kmatrix) < far_ratio(l_matrix)

    def test_truncated_k_stays_pd_where_l_breaks(self):
        extraction = extract_partial_inductance(
            lines(num=12, pitch=1.5e-6, length=2000e-6)
        )
        blocks = KMatrixSparsifier(threshold=0.05).apply(extraction)
        _, kmatrix = blocks.blocks[0]
        assert is_positive_definite(kmatrix)
        assert sparsity_ratio(kmatrix) > 0.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            KMatrixSparsifier(threshold=-0.1)


class TestTruncationDiagonalGuard:
    """Regression: a zero/near-zero/non-finite L_ii used to flow into the
    coupling quotient as NaN/inf, and `NaN < threshold` being False meant
    the drop mask silently kept those mutuals.  Now the malformed
    extraction is refused outright."""

    def make_result(self, diag_override):
        from repro.extraction.partial_matrix import PartialInductanceResult

        segs = lines(num=4)
        result = extract_partial_inductance(segs)
        matrix = result.matrix.copy()
        for i, value in diag_override.items():
            matrix[i, i] = value
        return PartialInductanceResult(segments=segs, matrix=matrix)

    def test_zero_diagonal_rejected(self):
        bad = self.make_result({1: 0.0})
        with pytest.raises(ValueError, match="strictly positive self"):
            TruncationSparsifier().apply(bad)

    def test_near_zero_diagonal_rejected(self):
        bad = self.make_result({2: 1e-30})
        with pytest.raises(ValueError, match="segment indices \\[2\\]"):
            TruncationSparsifier().apply(bad)

    def test_nan_diagonal_rejected(self):
        bad = self.make_result({0: float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            TruncationSparsifier().apply(bad)

    def test_negative_diagonal_rejected(self):
        bad = self.make_result({3: -1e-12})
        with pytest.raises(ValueError, match="strictly positive"):
            TruncationSparsifier().apply(bad)

    def test_offender_list_is_capped(self):
        bad = self.make_result({i: 0.0 for i in range(4)})
        with pytest.raises(ValueError, match="0, 1, 2, 3"):
            TruncationSparsifier().apply(bad)

    def test_healthy_extraction_unaffected(self, extraction):
        blocks = TruncationSparsifier(threshold=0.0).apply(extraction)
        assert blocks.kind == "L"
