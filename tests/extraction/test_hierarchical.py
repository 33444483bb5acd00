"""Hierarchical (cluster tree + ACA) partial-inductance engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction import hierarchical
from repro.extraction.hierarchical import (
    DEFAULT_ETA,
    DEFAULT_LEAF_SIZE,
    DEFAULT_TOL,
    MAX_ACA_RANK,
    _collect_block_pairs,
    aca,
    build_cluster_tree,
    build_hierarchical_operator,
    extract_hierarchical,
    is_admissible,
)
from repro.extraction.partial_matrix import (
    CLOSE_PAIR_CHUNK,
    _segment_arrays,
    extract_for_layout,
    extract_partial_inductance,
    mutual_for_pairs,
)
from repro.geometry.pairs import SegmentTable
from repro.geometry.segment import Direction, Segment
from repro.loop.extractor import _loop_network
from repro.obs.trace import tracing
from repro.scenarios.variants import VARIANTS, build_variant
from repro.sparsify.stability import is_positive_definite
from tests.loop.test_operator_extraction import _clock_loop

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


def clock_filaments(die, branches, branch_length, pitch):
    """The filaments of a clock-net loop sweep at a top frequency of
    10^10.5 Hz, as the e2e loop-sweep workloads cut them."""
    layout, port, max_segment_length = _clock_loop(
        die, branches, branch_length, pitch
    )
    network = _loop_network(layout, port, 10 ** 10.5, max_segment_length,
                            assembly="hierarchical")
    return network.extraction.segments


def reference_aca(entry_row, entry_col, num_rows, num_cols, tol, max_rank):
    """Partial-pivot ACA of one block, one row and one column call per
    cross: the routine the lockstep :func:`aca` replaced."""
    us, vs = [], []
    row_unused = np.ones(num_rows, dtype=bool)
    col_unused = np.ones(num_cols, dtype=bool)
    approx_norm2 = 0.0
    i = 0
    for _ in range(min(num_rows, num_cols, max_rank)):
        residual_row = np.array(entry_row(i), dtype=float, copy=True)
        for u, v in zip(us, vs):
            residual_row -= u[i] * v
        row_unused[i] = False
        candidates = np.where(col_unused, np.abs(residual_row), -1.0)
        j = int(np.argmax(candidates))
        pivot = residual_row[j]
        if candidates[j] <= 0.0 or pivot == 0.0:
            break
        v = residual_row / pivot
        residual_col = np.array(entry_col(j), dtype=float, copy=True)
        for u, w in zip(us, vs):
            residual_col -= w[j] * u
        u = residual_col
        col_unused[j] = False
        us.append(u)
        vs.append(v)
        uu = float(u @ u)
        vv = float(v @ v)
        cross = 0.0
        for u_prev, v_prev in zip(us[:-1], vs[:-1]):
            cross += float(u_prev @ u) * float(v_prev @ v)
        approx_norm2 += uu * vv + 2.0 * cross
        if approx_norm2 <= 0.0 or uu * vv <= (tol * tol) * approx_norm2:
            break
        if not row_unused.any():
            break
        i = int(np.argmax(np.where(row_unused, np.abs(u), -1.0)))
    else:
        return None
    if not us:
        return np.zeros((num_rows, 0)), np.zeros((0, num_cols))
    return np.column_stack(us), np.vstack(vs)


def reference_blocks(segments, leaf_size=DEFAULT_LEAF_SIZE,
                     max_rank=MAX_ACA_RANK):
    """The per-block assembly the batched build replaced: one
    ``mutual_for_pairs`` call per same-cluster or near block, and one per
    row or column of the per-block ACA.

    Returns the symmetric ``(indices, matrix)``, near ``(rows, cols,
    matrix)`` and far ``(rows, cols, u, v)`` blocks in build order.
    """
    table = SegmentTable.from_segments(segments)
    sym, near, far = [], [], []
    for axis in (0, 1):
        global_of = np.flatnonzero(table.axis == axis)
        if global_of.size < 2:
            continue
        arrays = _segment_arrays(table, global_of)
        root = build_cluster_tree(table.lo[global_of], table.hi[global_of],
                                  leaf_size=leaf_size)
        near_pairs, far_pairs, leaves = [], [], []
        _collect_block_pairs(root, root, DEFAULT_ETA, near_pairs, far_pairs,
                             leaves)

        def entries(rows, cols):
            return mutual_for_pairs(*arrays, rows, cols, 4.0, 3)

        def dense_block(ii, jj):
            return entries(np.repeat(ii, jj.size),
                           np.tile(jj, ii.size)).reshape(ii.size, jj.size)

        for leaf in leaves:
            ii = leaf.indices
            block = np.zeros((ii.size, ii.size))
            if ii.size > 1:
                iu, ju = np.triu_indices(ii.size, k=1)
                vals = entries(ii[iu], ii[ju])
                block[iu, ju] = vals
                block[ju, iu] = vals
            sym.append((global_of[ii], block))
        for a, b in near_pairs:
            near.append((global_of[a.indices], global_of[b.indices],
                         dense_block(a.indices, b.indices)))
        for a, b in far_pairs:
            ii, jj = a.indices, b.indices
            uv = reference_aca(
                lambda i: entries(np.full(jj.size, ii[i]), jj),
                lambda j: entries(ii, np.full(ii.size, jj[j])),
                ii.size, jj.size, DEFAULT_TOL, max_rank,
            )
            if uv is None:
                near.append((global_of[ii], global_of[jj],
                             dense_block(ii, jj)))
            else:
                far.append((global_of[ii], global_of[jj], *uv))
    return sym, near, far


def assert_blocks_identical(operator, reference):
    """Every stored block of ``operator`` equals the reference's, bit for
    bit and in the same order."""
    sym, near, far = reference
    got = (
        [(b.indices, b.matrix) for b in operator.sym_blocks],
        [(b.rows, b.cols, b.matrix) for b in operator.near_blocks],
        [(b.rows, b.cols, b.u, b.v) for b in operator.far_blocks],
    )
    for mine, theirs in zip(got, (sym, near, far)):
        assert len(mine) == len(theirs)
        for block, ref in zip(mine, theirs):
            for x, y in zip(block, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)


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


def aca_one(a, tol, max_rank=MAX_ACA_RANK):
    """The ACA routine on one explicit block ``a``."""
    rows, cols = np.arange(a.shape[0]), np.arange(a.shape[1])
    factors, _ = aca(lambda r, c: a[r, c], [(rows, cols)], tol, max_rank)
    return factors[0]


class TestACA:
    @staticmethod
    def smooth_matrix(m, n):
        i = np.arange(m)[:, None]
        j = np.arange(n)[None, :]
        return 1.0 / (1.0 + np.abs(3.0 * i - 2.0 * j) + i + j)

    def test_compresses_smooth_kernel(self):
        a = self.smooth_matrix(40, 30)
        uv = aca_one(a, tol=1e-8)
        assert uv is not None
        u, v = uv
        assert u.shape[1] < 30
        rel = np.linalg.norm(u @ v - a) / np.linalg.norm(a)
        assert rel < 1e-6

    def test_exact_low_rank_recovers_rank(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
        uv = aca_one(a, tol=1e-10)
        assert uv is not None
        u, v = uv
        assert u.shape[1] <= 6
        assert np.linalg.norm(u @ v - a) <= 1e-8 * np.linalg.norm(a)

    def test_returns_none_on_rank_cap(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 60))  # full rank, incompressible
        assert aca_one(a, tol=1e-14, max_rank=5) is None

    def test_zero_matrix_gives_rank_zero(self):
        a = np.zeros((8, 9))
        uv = aca_one(a, tol=1e-6)
        assert uv is not None
        u, v = uv
        assert u.shape == (8, 0) or np.allclose(u @ v, 0.0)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            aca_one(np.zeros((3, 3)), tol=0.0)

    def test_rank_cap_default_is_sane(self):
        assert 16 <= MAX_ACA_RANK <= 256

    def test_lockstep_blocks_compress_as_alone(self):
        """Blocks of different ranks in one lockstep run: each ends as it
        does alone, bit for bit, and the run takes as many rounds as its
        slowest block."""
        rng = np.random.default_rng(5)
        a = self.smooth_matrix(40, 30)
        b = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 9))
        c = rng.standard_normal((40, 40))  # incompressible
        kernel = np.zeros((92, 79))
        kernel[:40, :30] = a
        kernel[40:52, 30:39] = b
        kernel[52:, 39:] = c
        blocks = [(np.arange(40), np.arange(30)),
                  (np.arange(40, 52), np.arange(30, 39)),
                  (np.arange(52, 92), np.arange(39, 79))]
        calls = []

        def entries(rows, cols):
            calls.append(rows.size)
            return kernel[rows, cols]

        factors, rounds = aca(entries, blocks, tol=1e-8, max_rank=30)
        alone = [aca_one(m, 1e-8, 30) for m in (a, b, c)]
        assert factors[2] is None and alone[2] is None  # c hit the cap
        for got, want in zip(factors[:2], alone[:2]):
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert rounds == 30
        assert len(calls) == 2 * rounds


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

    def test_complex_matvec_agrees_with_dense(self, case):
        _, _, operator = case
        dense = operator.to_dense()
        rng = np.random.default_rng(8)
        x = rng.standard_normal(operator.n) + 1j * rng.standard_normal(
            operator.n
        )
        y = operator.matvec(x)
        ref = dense @ x
        assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))

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


class TestBatchedBuild:
    """The batched build stores every block bit for bit as the per-block
    reference assembly does."""

    @pytest.mark.parametrize("grid, leaf_size", [
        ((12, 6), 8),
        ((15, 16, 4e-6, 200e-6), 16),
    ])
    def test_operator_grids(self, grid, leaf_size):
        segments = stripe_grid(*grid)
        operator = build_hierarchical_operator(segments, leaf_size=leaf_size)
        assert operator.far_blocks
        assert_blocks_identical(
            operator, reference_blocks(segments, leaf_size=leaf_size)
        )

    def test_smoke_loop_geometry(self):
        segments = clock_filaments(200e-6, 2, 60e-6, 50e-6)
        assert len(segments) == 344
        operator = build_hierarchical_operator(segments)
        assert operator.far_blocks
        assert_blocks_identical(operator, reference_blocks(segments))

    def test_rank_cap_fallback_beside_converged_blocks(self, monkeypatch):
        """A rank cap of 10 sends the far blocks of rank 11 and 14 to the
        exact fallback while their neighbours of rank 8 and 9 converge in
        the same lockstep run."""
        monkeypatch.setattr(hierarchical, "MAX_ACA_RANK", 10)
        segments = stripe_grid(15, 16, length=200e-6)
        operator = build_hierarchical_operator(segments, leaf_size=16)
        assert operator.aca_fallbacks > 0
        assert operator.far_blocks
        assert_blocks_identical(operator, reference_blocks(
            segments, leaf_size=16, max_rank=10,
        ))


class TestBatchingTrace:
    def test_spans_record_the_batching(self, monkeypatch):
        """``kernel_calls`` counts the kernel calls: the near field's
        slices plus at most two per ACA round, however many far blocks
        the rounds serve."""
        calls = []

        def counted(*args):
            calls.append(args[6].size)
            return mutual_for_pairs(*args)

        monkeypatch.setattr(hierarchical, "mutual_for_pairs", counted)
        segments = stripe_grid(12, 40, length=480e-6)
        with tracing() as trace:
            operator = build_hierarchical_operator(segments, leaf_size=8)
        root = trace.find("extraction.hierarchical").attrs
        (far,) = [s.attrs for s in trace.iter_spans()
                  if s.name == "hierarchical.far"]
        ranks = [blk.rank for blk in operator.far_blocks]
        assert root["kernel_calls"] == len(calls)
        assert root["far_rank"] == sum(ranks)
        assert operator.aca_fallbacks == 0
        assert far["aca_rounds"] in (max(ranks), max(ranks) + 1)
        near_pairs = sum(b.indices.size * (b.indices.size - 1) // 2
                         for b in operator.sym_blocks)
        near_pairs += sum(b.matrix.size for b in operator.near_blocks)
        near_calls = -(-near_pairs // CLOSE_PAIR_CHUNK)
        assert max(calls[:near_calls]) <= CLOSE_PAIR_CHUNK
        far_calls = len(calls) - near_calls
        assert far["aca_rounds"] <= far_calls <= 2 * far["aca_rounds"]
        # One call per block and cross would make at least two per block.
        assert len(operator.far_blocks) > far_calls

    def test_seed0_loop_geometry_counts(self):
        """The 944 filaments of the seed-0 ``loop_sweep_hier`` geometry:
        86 kernel calls where one per block and cross made 1676."""
        segments = clock_filaments(400e-6, 3, 120e-6, 60e-6)
        with tracing() as trace:
            build_hierarchical_operator(segments)
        root = trace.find("extraction.hierarchical").attrs
        rounds = [s.attrs["aca_rounds"] for s in trace.iter_spans()
                  if s.name == "hierarchical.far"]
        assert (root["kernel_calls"], root["far_rank"]) == (86, 715)
        assert max(rounds) == root["max_rank"] == 16

    def test_build_peak_memory_is_bounded(self):
        """The near field goes through the kernel in slices.  At 944
        filaments the sliced build peaks at about 21 MiB; one call over
        the whole near field peaked at 74 MiB."""
        segments = clock_filaments(400e-6, 3, 120e-6, 60e-6)
        assert len(segments) == 944
        tracemalloc.start()
        try:
            build_hierarchical_operator(segments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
