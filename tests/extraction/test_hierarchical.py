"""Hierarchical (cluster tree + ACA) partial-inductance engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.hierarchical import (
    DEFAULT_TOL,
    MAX_ACA_RANK,
    aca,
    build_cluster_tree,
    build_hierarchical_operator,
    extract_hierarchical,
    is_admissible,
)
from repro.extraction.partial_matrix import (
    extract_for_layout,
    extract_partial_inductance,
)
from repro.geometry.segment import Direction, Segment
from repro.scenarios.variants import VARIANTS, build_variant
from repro.sparsify.stability import is_positive_definite

#: Loose end-to-end bound: ACA's per-block relative Frobenius tolerance
#: is DEFAULT_TOL = 1e-6; entrywise max error across all blocks stays
#: orders of magnitude under this.
E2E_RTOL = 1e-4


def stripe_grid(num_lines=12, pieces=6, pitch=4e-6, length=240e-6):
    segments = []
    for i in range(num_lines):
        line = Segment(net=f"n{i}", layer="M6", direction=Direction.X,
                       origin=(0.0, i * pitch, 7e-6), length=length,
                       width=1e-6, thickness=0.5e-6, name=f"s{i}")
        segments.extend(line.split(pieces))
    return segments


def max_rel_error(approx, exact):
    return float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))


def operator_case(segments, leaf_size):
    exact = extract_partial_inductance(segments).matrix
    operator = build_hierarchical_operator(segments, leaf_size=leaf_size)
    return segments, exact, operator


class TestClusterTree:
    def test_leaves_partition_indices(self):
        lo = np.random.default_rng(0).uniform(0, 1, size=(40, 3))
        hi = lo + 0.01
        root = build_cluster_tree(lo, hi, leaf_size=4)
        leaves = []

        def walk(node):
            if node.is_leaf:
                leaves.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(root)
        seen = np.concatenate([leaf.indices for leaf in leaves])
        assert sorted(seen.tolist()) == list(range(40))
        assert all(leaf.size <= 4 for leaf in leaves)

    def test_boxes_contain_members(self):
        rng = np.random.default_rng(1)
        lo = rng.uniform(0, 1, size=(25, 3))
        hi = lo + rng.uniform(0, 0.1, size=(25, 3))
        root = build_cluster_tree(lo, hi, leaf_size=5)

        def walk(node):
            assert np.all(lo[node.indices] >= node.lo - 1e-15)
            assert np.all(hi[node.indices] <= node.hi + 1e-15)
            if not node.is_leaf:
                walk(node.left)
                walk(node.right)

        walk(root)

    def test_admissibility_needs_positive_distance(self):
        lo = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        hi = lo + 0.6  # overlapping boxes
        a = build_cluster_tree(lo[:1], hi[:1], leaf_size=1)
        b = build_cluster_tree(lo[1:], hi[1:], leaf_size=1)
        assert a.distance(b) == 0.0
        assert not is_admissible(a, b, eta=100.0)

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            build_cluster_tree(np.zeros((2, 3)), np.ones((2, 3)), leaf_size=0)


class TestACA:
    @staticmethod
    def smooth_matrix(m, n):
        i = np.arange(m)[:, None]
        j = np.arange(n)[None, :]
        return 1.0 / (1.0 + np.abs(3.0 * i - 2.0 * j) + i + j)

    def test_compresses_smooth_kernel(self):
        a = self.smooth_matrix(40, 30)
        uv = aca(lambda i: a[i], lambda j: a[:, j], 40, 30, tol=1e-8)
        assert uv is not None
        u, v = uv
        assert u.shape[1] < 30
        rel = np.linalg.norm(u @ v - a) / np.linalg.norm(a)
        assert rel < 1e-6

    def test_exact_low_rank_recovers_rank(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
        uv = aca(lambda i: a[i], lambda j: a[:, j], 30, 25, tol=1e-10)
        assert uv is not None
        u, v = uv
        assert u.shape[1] <= 6
        assert np.linalg.norm(u @ v - a) <= 1e-8 * np.linalg.norm(a)

    def test_returns_none_on_rank_cap(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 60))  # full rank, incompressible
        uv = aca(lambda i: a[i], lambda j: a[:, j], 60, 60,
                 tol=1e-14, max_rank=5)
        assert uv is None

    def test_zero_matrix_gives_rank_zero(self):
        a = np.zeros((8, 9))
        uv = aca(lambda i: a[i], lambda j: a[:, j], 8, 9, tol=1e-6)
        assert uv is not None
        u, v = uv
        assert u.shape == (8, 0) or np.allclose(u @ v, 0.0)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            aca(lambda i: np.zeros(3), lambda j: np.zeros(3), 3, 3, tol=0.0)

    def test_rank_cap_default_is_sane(self):
        assert 16 <= MAX_ACA_RANK <= 256


class TestOperator:
    @pytest.fixture(scope="class")
    def case(self):
        return operator_case(stripe_grid(), leaf_size=8)

    def test_to_dense_matches_exact(self, case):
        _, exact, operator = case
        assert max_rel_error(operator.to_dense(), exact) <= E2E_RTOL

    def test_dense_is_symmetric(self, case):
        _, _, operator = case
        dense = operator.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_dense_is_positive_definite(self, case):
        _, _, operator = case
        assert is_positive_definite(operator.to_dense())

    def test_matvec_agrees_with_dense(self, case):
        _, _, operator = case
        dense = operator.to_dense()
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(operator.n)
            y = operator.matvec(x)
            ref = dense @ x
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matvec_rejects_bad_shape(self, case):
        _, _, operator = case
        with pytest.raises(ValueError):
            operator.matvec(np.zeros(operator.n + 1))

    def test_actually_compresses(self, case):
        _, exact, operator = case
        stats = operator.stats()
        assert stats["num_far_blocks"] > 0
        assert stats["memory_bytes"] < exact.nbytes
        assert stats["compression"] > 1.0

    def test_stats_fields(self, case):
        _, _, operator = case
        stats = operator.stats()
        for key in ("n", "num_far_blocks", "max_rank", "memory_bytes",
                    "dense_bytes", "compression", "aca_fallbacks",
                    "eta", "tol", "leaf_size"):
            assert key in stats

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            build_hierarchical_operator(stripe_grid(4, 2), eta=0.0)


class TestOperatorLargerGrid(TestOperator):
    """The same checks on 15 stripes of 16 pieces at leaf size 16
    (n = 240), a far field of 27 blocks."""

    @pytest.fixture(scope="class")
    def case(self):
        return operator_case(stripe_grid(15, 16, length=200e-6), leaf_size=16)


class TestVariantFamilies:
    """to_dense() matches exact assembly across all eight families."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_exact_within_tolerance(self, variant):
        layout, _ = build_variant(variant, length=400e-6)
        exact, indices = extract_for_layout(layout)
        hier, hier_indices = extract_for_layout(
            layout, assembly="hierarchical", leaf_size=4
        )
        assert hier_indices == indices
        assert hier.size == exact.size
        assert max_rel_error(hier.matrix, exact.matrix) <= E2E_RTOL

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_stays_positive_definite(self, variant):
        layout, _ = build_variant(variant, length=400e-6)
        hier, _ = extract_for_layout(
            layout, assembly="hierarchical", leaf_size=4
        )
        assert hier.is_positive_definite()


class TestExtractionDispatch:
    def test_unknown_assembly_raises(self):
        with pytest.raises(ValueError, match="assembly"):
            extract_partial_inductance(stripe_grid(4, 2), assembly="magic")

    def test_hier_knobs_rejected_for_exact(self):
        with pytest.raises(ValueError, match="hierarchical"):
            extract_partial_inductance(stripe_grid(4, 2), tol=1e-6)

    def test_result_duck_type(self):
        segments = stripe_grid(6, 3)
        result = extract_partial_inductance(
            segments, assembly="hierarchical", leaf_size=4
        )
        exact = extract_partial_inductance(segments)
        assert result.size == exact.size
        assert result.num_mutuals == exact.num_mutuals
        assert result.coupling_coefficient(0, 1) == pytest.approx(
            exact.coupling_coefficient(0, 1), rel=1e-6
        )

    def test_rejects_vias(self):
        via = Segment(net="s", layer="M6", direction=Direction.Z,
                      origin=(0, 0, 1e-6), length=1e-6, width=1e-6,
                      thickness=1e-6, name="via")
        with pytest.raises(ValueError):
            extract_hierarchical([via])

    def test_default_tol_is_tight(self):
        assert DEFAULT_TOL <= 1e-4


class TestRandomizedAgainstExact:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_grids_match_exact(self, seed):
        rng = np.random.default_rng(seed)
        segments = []
        y = 0.0
        for k in range(int(rng.integers(6, 12))):
            y += float(rng.uniform(2e-6, 10e-6))
            line = Segment(
                net="s", layer="M6", direction=Direction.X,
                origin=(float(rng.uniform(0, 50e-6)), y, 7e-6),
                length=float(rng.uniform(60e-6, 300e-6)),
                width=float(rng.uniform(0.5e-6, 3e-6)),
                thickness=0.5e-6, name=f"r{k}",
            )
            segments.extend(line.split(int(rng.integers(1, 5))))
        exact = extract_partial_inductance(segments).matrix
        operator = build_hierarchical_operator(segments, leaf_size=4)
        assert max_rel_error(operator.to_dense(), exact) <= E2E_RTOL
