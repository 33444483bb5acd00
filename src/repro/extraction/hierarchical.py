"""Hierarchical far-field partial-inductance engine (H-matrix + ACA).

The paper's Section-4 warning -- clock plus power-grid topologies lead to
"mutual inductance of the order of 10G" terms -- is a statement about the
*dense* partial-L matrix: every one of the O(n^2) parallel pairs gets an
exact mutual.  Its own loop extractor cites multipole-accelerated
FastHenry as the way out, and this module is that idea in H-matrix form:

* a **cluster tree** per direction group, built by axis-aligned bisection
  of the segment bounding boxes (leaf size ~32),
* an **admissibility rule** ``max(diam_A, diam_B) < eta * dist(A, B)``
  that splits cluster pairs into *near* blocks -- evaluated exactly with
  the same vectorized filament/bar kernels the dense assembly uses
  (:func:`repro.extraction.partial_matrix.mutual_for_pairs`) -- and
  *far* blocks,
* **ACA** (adaptive cross approximation with partial pivoting) that
  builds each far block as a rank-``r`` outer product ``U @ V`` from
  ``O(r)`` sampled rows and columns, to a relative Frobenius tolerance;
  a block that refuses to converge by :data:`MAX_ACA_RANK` falls back to
  an exact near block, so compression never costs correctness,
* a :class:`HierarchicalPartialL` operator exposing ``matvec`` (O(near +
  sum r*(m+n)) instead of O(n^2)), ``to_dense()`` for small-n
  validation / MNA hand-off, and memory/compression stats.

The QA passivity checker stays the guard: the sparsifier-style adapter
(:class:`repro.sparsify.hierarchical.HierarchicalSparsifier`) verifies
the materialized matrix is SPD before MNA consumes it and falls back to
exact assembly -- recorded in RunReport -- when ACA truncation pushed it
off the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.extraction.inductance import self_inductance_bar
from repro.extraction.partial_matrix import (
    _segment_arrays,
    coupling_coefficient,
    mutual_for_pairs,
    reject_vias,
    structural_mutual_count,
)
from repro.geometry.segment import Segment
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: Default admissibility parameter: a cluster pair is far when the larger
#: cluster diameter is below ``eta`` times the box-to-box distance.
DEFAULT_ETA = 2.0

#: Default ACA stopping tolerance (relative Frobenius norm per block).
DEFAULT_TOL = 1e-6

#: Default cluster-tree leaf size.
DEFAULT_LEAF_SIZE = 32

#: Rank cap per far block; hitting it without converging falls the block
#: back to exact evaluation (never a silently bad approximation).
MAX_ACA_RANK = 96


# -- cluster tree ------------------------------------------------------------


@dataclass
class Cluster:
    """A node of the per-direction-group cluster tree.

    Attributes:
        indices: Group-local segment positions owned by this cluster.
        lo: Elementwise minimum corner of the members' bounding boxes.
        hi: Elementwise maximum corner.
        left: First half after bisection (None for leaves).
        right: Second half after bisection (None for leaves).
    """

    indices: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    left: "Cluster | None" = None
    right: "Cluster | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def diameter(self) -> float:
        """Diagonal of the cluster bounding box [m]."""
        return float(np.linalg.norm(self.hi - self.lo))

    def distance(self, other: "Cluster") -> float:
        """Box-to-box distance [m]; zero when the boxes touch/overlap."""
        gap = np.maximum(
            np.maximum(self.lo - other.hi, other.lo - self.hi), 0.0
        )
        return float(np.linalg.norm(gap))


def build_cluster_tree(
    lo_corners: np.ndarray,
    hi_corners: np.ndarray,
    leaf_size: int = DEFAULT_LEAF_SIZE,
) -> Cluster:
    """Axis-aligned bisection tree over segment bounding boxes.

    Each level splits along the longest bounding-box axis at the median
    of the member box centers (stable argsort halves, so the tree is
    deterministic and balanced regardless of coordinate degeneracies).
    """
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    lo_corners = np.asarray(lo_corners, dtype=float)
    hi_corners = np.asarray(hi_corners, dtype=float)
    centers = (lo_corners + hi_corners) / 2.0

    def build(idx: np.ndarray) -> Cluster:
        lo = lo_corners[idx].min(axis=0)
        hi = hi_corners[idx].max(axis=0)
        node = Cluster(indices=idx, lo=lo, hi=hi)
        if idx.size > leaf_size:
            axis = int(np.argmax(hi - lo))
            order = np.argsort(centers[idx, axis], kind="stable")
            half = idx.size // 2
            node.left = build(idx[order[:half]])
            node.right = build(idx[order[half:]])
        return node

    return build(np.arange(lo_corners.shape[0]))


def is_admissible(a: Cluster, b: Cluster, eta: float) -> bool:
    """Far-field admissibility: ``max(diam) < eta * dist`` with dist > 0."""
    dist = a.distance(b)
    return dist > 0.0 and max(a.diameter, b.diameter) < eta * dist


def _collect_block_pairs(
    a: Cluster, b: Cluster, eta: float,
    near: list, far: list, diag: list,
) -> None:
    """Partition the (a x b) interaction into near/far/diagonal blocks."""
    if a is b:
        if a.is_leaf:
            diag.append(a)
        else:
            _collect_block_pairs(a.left, a.left, eta, near, far, diag)
            _collect_block_pairs(a.left, a.right, eta, near, far, diag)
            _collect_block_pairs(a.right, a.right, eta, near, far, diag)
        return
    if is_admissible(a, b, eta):
        far.append((a, b))
        return
    if a.is_leaf and b.is_leaf:
        near.append((a, b))
        return
    # Refine the larger cluster (leaves cannot split further).
    if not a.is_leaf and (b.is_leaf or a.diameter >= b.diameter):
        _collect_block_pairs(a.left, b, eta, near, far, diag)
        _collect_block_pairs(a.right, b, eta, near, far, diag)
    else:
        _collect_block_pairs(a, b.left, eta, near, far, diag)
        _collect_block_pairs(a, b.right, eta, near, far, diag)


# -- adaptive cross approximation --------------------------------------------


def aca(
    entry_row: Callable[[int], np.ndarray],
    entry_col: Callable[[int], np.ndarray],
    num_rows: int,
    num_cols: int,
    tol: float,
    max_rank: int = MAX_ACA_RANK,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Partial-pivot ACA of an ``num_rows x num_cols`` block.

    ``entry_row(i)`` / ``entry_col(j)`` evaluate one exact row / column
    of the block.  Returns ``(U, V)`` with ``A ~= U @ V`` such that the
    estimated relative Frobenius error is below ``tol``, or ``None``
    when ``max_rank`` crosses were not enough (the caller should fall
    back to exact evaluation).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
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
            # The sampled residual row is exactly zero: the remaining
            # residual is (numerically) rank-deficient; accept.
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
        next_candidates = np.where(row_unused, np.abs(u), -1.0)
        i = int(np.argmax(next_candidates))
    else:
        return None  # rank cap hit before the tolerance
    if not us:
        return (
            np.zeros((num_rows, 0)),
            np.zeros((0, num_cols)),
        )
    return np.column_stack(us), np.vstack(vs)


# -- the compressed operator -------------------------------------------------


@dataclass
class DenseBlock:
    """Exactly evaluated off-diagonal block (mirrored implicitly)."""

    rows: np.ndarray
    cols: np.ndarray
    matrix: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.matrix.nbytes + self.rows.nbytes + self.cols.nbytes)


@dataclass
class SymmetricBlock:
    """Same-cluster leaf block: symmetric, zero diagonal (diag is global)."""

    indices: np.ndarray
    matrix: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.matrix.nbytes + self.indices.nbytes)


@dataclass
class LowRankBlock:
    """ACA-compressed far-field block ``U @ V`` (mirrored implicitly)."""

    rows: np.ndarray
    cols: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.u.shape[1])

    @property
    def nbytes(self) -> int:
        return int(
            self.u.nbytes + self.v.nbytes + self.rows.nbytes
            + self.cols.nbytes
        )


class HierarchicalPartialL:
    """Compressed partial-inductance operator: exact near + low-rank far.

    The operator is symmetric by construction: off-diagonal blocks are
    stored once and applied in both orientations.  ``matvec`` is the
    production interface; ``to_dense`` materializes the full matrix for
    small-n validation and for MNA consumers that need entries.
    """

    def __init__(
        self,
        diag: np.ndarray,
        sym_blocks: list[SymmetricBlock],
        near_blocks: list[DenseBlock],
        far_blocks: list[LowRankBlock],
        params: dict | None = None,
        aca_fallbacks: int = 0,
    ) -> None:
        self.diag = np.asarray(diag, dtype=float)
        self.sym_blocks = sym_blocks
        self.near_blocks = near_blocks
        self.far_blocks = far_blocks
        self.params = dict(params or {})
        self.aca_fallbacks = int(aca_fallbacks)

    @property
    def n(self) -> int:
        return int(self.diag.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = L @ x`` without ever forming the dense matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(
                f"matvec expects shape ({self.n},), got {x.shape}"
            )
        y = self.diag * x
        for blk in self.sym_blocks:
            y[blk.indices] += blk.matrix @ x[blk.indices]
        for blk in self.near_blocks:
            y[blk.rows] += blk.matrix @ x[blk.cols]
            y[blk.cols] += blk.matrix.T @ x[blk.rows]
        for blk in self.far_blocks:
            y[blk.rows] += blk.u @ (blk.v @ x[blk.cols])
            y[blk.cols] += blk.v.T @ (blk.u.T @ x[blk.rows])
        return y

    def to_dense(self) -> np.ndarray:
        """Materialize the full symmetric matrix (small-n validation)."""
        obs_metrics.counter("hierarchical.to_dense_calls").inc()
        out = np.zeros((self.n, self.n))
        np.fill_diagonal(out, self.diag)
        for blk in self.sym_blocks:
            out[np.ix_(blk.indices, blk.indices)] += blk.matrix
        for blk in self.near_blocks:
            out[np.ix_(blk.rows, blk.cols)] = blk.matrix
            out[np.ix_(blk.cols, blk.rows)] = blk.matrix.T
        for blk in self.far_blocks:
            approx = blk.u @ blk.v
            out[np.ix_(blk.rows, blk.cols)] = approx
            out[np.ix_(blk.cols, blk.rows)] = approx.T
        return out

    def near_block_diagonal(self) -> sp.csr_matrix:
        """Exact near field as a sparse matrix.

        The diagonal, the same-cluster leaf blocks, and the exact
        off-diagonal near blocks (both orientations): everything the
        operator stores exactly, leaving only the ACA-compressed far
        field out.  It is the preconditioner seed for the Krylov solve
        tier — cheap to factor with ``splu`` and never densifies the far
        field, which reaches the solve only through :meth:`matvec`.
        """
        n = self.n
        rows = [np.arange(n)]
        cols = [np.arange(n)]
        vals = [self.diag]
        for blk in self.sym_blocks:
            rr, cc = np.meshgrid(blk.indices, blk.indices, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(blk.matrix.ravel())
        for blk in self.near_blocks:
            rr, cc = np.meshgrid(blk.rows, blk.cols, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(blk.matrix.ravel())
            # The mirrored orientation: value M[i, j] lands at
            # (cols[j], rows[i]), so the same raveled data pairs with the
            # swapped coordinate arrays.
            rows.append(cc.ravel())
            cols.append(rr.ravel())
            vals.append(blk.matrix.ravel())
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        return mat.tocsr()

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the compressed representation."""
        total = int(self.diag.nbytes)
        for blk in self.sym_blocks:
            total += blk.nbytes
        for blk in self.near_blocks:
            total += blk.nbytes
        for blk in self.far_blocks:
            total += blk.nbytes
        return total

    def stats(self) -> dict:
        """Memory / compression / rank statistics for reports and bench."""
        dense_bytes = 8 * self.n * self.n
        memory = self.memory_bytes
        ranks = [blk.rank for blk in self.far_blocks]
        return {
            "n": self.n,
            "num_sym_blocks": len(self.sym_blocks),
            "num_near_blocks": len(self.near_blocks),
            "num_far_blocks": len(self.far_blocks),
            "aca_fallbacks": self.aca_fallbacks,
            "max_rank": max(ranks) if ranks else 0,
            "mean_rank": float(np.mean(ranks)) if ranks else 0.0,
            "memory_bytes": memory,
            "dense_bytes": dense_bytes,
            "compression": dense_bytes / memory if memory else float("inf"),
            **{k: v for k, v in self.params.items()},
        }


# -- builder -----------------------------------------------------------------


def _group_corners(segments: list[Segment], indices: list[int]):
    """(lo, hi) bounding-box corner arrays for a direction group."""
    lo = np.array([segments[i].origin for i in indices], dtype=float)
    hi = np.array([segments[i].end for i in indices], dtype=float)
    return lo, hi


def build_hierarchical_operator(
    segments: list[Segment],
    eta: float = DEFAULT_ETA,
    tol: float = DEFAULT_TOL,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    close_ratio: float = 4.0,
    close_subdivisions: int = 3,
) -> HierarchicalPartialL:
    """Build the compressed partial-L operator for in-plane segments.

    Near-field blocks reproduce the dense assembly bit for bit (same
    kernels, same close-pair classification); far-field blocks carry the
    ACA truncation error, bounded per block by ``tol`` in relative
    Frobenius norm.
    """
    reject_vias(segments)
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    n = len(segments)
    diag = np.array([
        self_inductance_bar(s.length, s.width, s.thickness)
        for s in segments
    ])

    sym_blocks: list[SymmetricBlock] = []
    near_blocks: list[DenseBlock] = []
    far_blocks: list[LowRankBlock] = []
    fallbacks = 0

    with span(
        "extraction.hierarchical", segments=n, eta=eta, tol=tol,
        leaf_size=leaf_size,
    ) as sp:
        for direction_axis in (0, 1):
            indices = [
                i for i, s in enumerate(segments)
                if s.direction.axis == direction_axis
            ]
            if len(indices) < 2:
                continue
            arrays = _segment_arrays(segments, indices)
            start, end, ta, tb, width, thick = arrays
            global_of = np.array(indices)

            with span(
                "hierarchical.tree", axis=direction_axis,
                segments=len(indices),
            ):
                root = build_cluster_tree(
                    *_group_corners(segments, indices), leaf_size=leaf_size
                )
                near: list[tuple[Cluster, Cluster]] = []
                far: list[tuple[Cluster, Cluster]] = []
                diag_leaves: list[Cluster] = []
                _collect_block_pairs(
                    root, root, eta, near, far, diag_leaves
                )

            def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                return mutual_for_pairs(
                    start, end, ta, tb, width, thick, rows, cols,
                    close_ratio, close_subdivisions,
                )

            def dense_block(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
                rows = np.repeat(ii, jj.size)
                cols = np.tile(jj, ii.size)
                return entries(rows, cols).reshape(ii.size, jj.size)

            with span(
                "hierarchical.near", axis=direction_axis,
                blocks=len(near) + len(diag_leaves),
            ):
                for leaf in diag_leaves:
                    ii = leaf.indices
                    m = ii.size
                    block = np.zeros((m, m))
                    if m > 1:
                        iu, ju = np.triu_indices(m, k=1)
                        vals = entries(ii[iu], ii[ju])
                        block[iu, ju] = vals
                        block[ju, iu] = vals
                    sym_blocks.append(SymmetricBlock(
                        indices=global_of[ii], matrix=block,
                    ))
                for a, b in near:
                    near_blocks.append(DenseBlock(
                        rows=global_of[a.indices],
                        cols=global_of[b.indices],
                        matrix=dense_block(a.indices, b.indices),
                    ))

            with span(
                "hierarchical.far", axis=direction_axis, blocks=len(far),
            ):
                for a, b in far:
                    ii, jj = a.indices, b.indices
                    uv = aca(
                        lambda i: entries(
                            np.full(jj.size, ii[i]), jj
                        ),
                        lambda j: entries(
                            ii, np.full(ii.size, jj[j])
                        ),
                        ii.size, jj.size, tol,
                    )
                    if uv is None:
                        # The block resisted compression: keep it exact.
                        fallbacks += 1
                        near_blocks.append(DenseBlock(
                            rows=global_of[ii], cols=global_of[jj],
                            matrix=dense_block(ii, jj),
                        ))
                        continue
                    far_blocks.append(LowRankBlock(
                        rows=global_of[ii], cols=global_of[jj],
                        u=uv[0], v=uv[1],
                    ))

        op = HierarchicalPartialL(
            diag=diag,
            sym_blocks=sym_blocks,
            near_blocks=near_blocks,
            far_blocks=far_blocks,
            params={
                "eta": float(eta), "tol": float(tol),
                "leaf_size": int(leaf_size),
            },
            aca_fallbacks=fallbacks,
        )
        stats = op.stats()
        sp.attrs.update(
            near_blocks=stats["num_near_blocks"] + stats["num_sym_blocks"],
            far_blocks=stats["num_far_blocks"],
            max_rank=stats["max_rank"],
            aca_fallbacks=stats["aca_fallbacks"],
            compression=round(stats["compression"], 3),
        )
        obs_metrics.gauge("hierarchical.compression_ratio").set(
            stats["compression"]
        )
        obs_metrics.gauge("hierarchical.max_rank").set(stats["max_rank"])
        obs_metrics.counter("hierarchical.far_blocks").inc(
            stats["num_far_blocks"]
        )
        obs_metrics.counter("hierarchical.aca_fallbacks").inc(fallbacks)
    return op


# -- extraction-level result -------------------------------------------------


class HierarchicalPartialInductanceResult:
    """Hierarchical counterpart of :class:`PartialInductanceResult`.

    Duck-type compatible with the dense result (``segments``, ``size``,
    ``matrix``, ``num_mutuals``, ``coupling_coefficient``,
    ``is_positive_definite``), plus the compressed ``operator``.  The
    ``matrix`` property materializes -- and caches -- the dense form on
    first access; large-n consumers should stay on ``operator.matvec``.
    """

    def __init__(
        self, segments: list[Segment], operator: HierarchicalPartialL
    ) -> None:
        self.segments = list(segments)
        self.operator = operator
        self._dense: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.operator.n

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.operator.to_dense()
        return self._dense

    @property
    def num_mutuals(self) -> int:
        """Number of structural couplings (parallel same-axis pairs)."""
        return structural_mutual_count(self.segments)

    def coupling_coefficient(self, i: int, j: int) -> float:
        """Dimensionless k_ij = M_ij / sqrt(L_ii * L_jj)."""
        return coupling_coefficient(self.matrix, self.segments, i, j)

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.matrix)
            return True
        except np.linalg.LinAlgError:
            return False

    def stats(self) -> dict:
        """The operator's memory/compression statistics."""
        return self.operator.stats()


def extract_hierarchical(
    segments: list[Segment],
    eta: float = DEFAULT_ETA,
    tol: float = DEFAULT_TOL,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    close_ratio: float = 4.0,
    close_subdivisions: int = 3,
) -> HierarchicalPartialInductanceResult:
    """Hierarchical extraction behind ``assembly="hierarchical"``.

    Memoized through the :mod:`repro.perf.cache` content-addressed store
    under a key that covers the exact geometry *and* every
    value-affecting parameter -- ``eta``, ``tol``, ``leaf_size``, and
    the close-pair settings -- so changing a knob always recomputes.
    """
    reject_vias(segments)
    from repro.perf import cache as perf_cache

    digest = perf_cache.fingerprint_segments(
        segments,
        {
            "assembly": "hierarchical",
            "eta": float(eta),
            "tol": float(tol),
            "leaf_size": int(leaf_size),
            "close_ratio": float(close_ratio),
            "close_subdivisions": int(close_subdivisions),
        },
    )
    with span(
        "extraction.partial_L", segments=len(segments),
        assembly="hierarchical",
    ) as sp:
        cached = perf_cache.load_operator(digest)
        if cached is not None:
            sp.attrs["cached"] = True
            return HierarchicalPartialInductanceResult(
                segments=list(segments), operator=cached
            )
        sp.attrs["cached"] = False
        operator = build_hierarchical_operator(
            segments, eta=eta, tol=tol, leaf_size=leaf_size,
            close_ratio=close_ratio, close_subdivisions=close_subdivisions,
        )
        perf_cache.store_operator(digest, operator)
        return HierarchicalPartialInductanceResult(
            segments=list(segments), operator=operator
        )


__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_TOL",
    "DEFAULT_LEAF_SIZE",
    "MAX_ACA_RANK",
    "Cluster",
    "build_cluster_tree",
    "is_admissible",
    "aca",
    "DenseBlock",
    "SymmetricBlock",
    "LowRankBlock",
    "HierarchicalPartialL",
    "HierarchicalPartialInductanceResult",
    "build_hierarchical_operator",
    "extract_hierarchical",
]
