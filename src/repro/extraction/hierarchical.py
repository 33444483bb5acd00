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

The kernel is paid per call as well as per entry, so the build batches
it: each direction group's near field goes through
:func:`~repro.extraction.partial_matrix.mutual_for_pairs` in slices of
:data:`~repro.extraction.partial_matrix.CLOSE_PAIR_CHUNK` pairs, and
:func:`aca` runs every far block in lockstep, one row call and one
column call per round.  Each block's pivots and arithmetic are those of
a block compressed alone, so every stored block is the same bit for bit.

The QA passivity checker stays the guard: the sparsifier-style adapter
(:class:`repro.sparsify.hierarchical.HierarchicalSparsifier`) verifies
the materialized matrix is SPD before MNA consumes it and falls back to
exact assembly -- recorded in RunReport -- when ACA truncation pushed it
off the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.extraction.inductance import self_inductance_bar
from repro.extraction.partial_matrix import (
    CLOSE_PAIR_CHUNK,
    _segment_arrays,
    coupling_coefficient,
    mutual_for_pairs,
    reject_vias,
    structural_mutual_count,
)
from repro.geometry.pairs import SegmentTable
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


def _kernel_values(
    entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
    sizes: list[int],
    request: Callable[[int], tuple[np.ndarray, np.ndarray]],
    chunk: int | None = None,
) -> list[np.ndarray]:
    """Kernel values of requests ``0 .. len(sizes) - 1``, as views of one
    array: ``request(k)`` gives request k's ``(rows, cols)`` pairs, and
    ``sizes[k]`` their count.

    The pairs go through one ``entries`` call, or through one per
    ``chunk`` pairs; each slice then builds only the requests it
    overlaps, so no pair list longer than a slice and its two end
    requests is ever held.
    """
    if not sizes:
        return []
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=int)))
    total = int(bounds[-1])
    values = np.empty(total)
    step = chunk or max(total, 1)
    for s in range(0, total, step):
        e = min(s + step, total)
        first = int(np.searchsorted(bounds, s, side="right")) - 1
        last = int(np.searchsorted(bounds, e, side="left"))
        pairs = [request(k) for k in range(first, last)]
        lo = s - int(bounds[first])
        values[s:e] = entries(
            np.concatenate([r for r, _ in pairs])[lo:lo + e - s],
            np.concatenate([c for _, c in pairs])[lo:lo + e - s],
        )
    return np.split(values, bounds[1:-1])


class _Cross:
    """One block's partial-pivot ACA: its crosses so far and next pivots.

    ``budget`` counts the crosses left before the rank cap.  A block is
    ``done`` once accepted, with ``factors`` ``(U, V)``, or once its
    budget ran out unconverged, with ``factors`` None.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 budget: int) -> None:
        self.rows = rows
        self.cols = cols
        self.budget = budget
        self.us: list[np.ndarray] = []
        self.vs: list[np.ndarray] = []
        self.row_unused = np.ones(rows.size, dtype=bool)
        self.col_unused = np.ones(cols.size, dtype=bool)
        self.norm2 = 0.0
        self.i = 0
        self.j = 0
        self.v = np.empty(0)
        self.done = budget <= 0
        self.factors: tuple[np.ndarray, np.ndarray] | None = None

    def _accept(self) -> None:
        self.done = True
        if not self.us:
            self.factors = (
                np.zeros((self.rows.size, 0)), np.zeros((0, self.cols.size))
            )
        else:
            self.factors = (np.column_stack(self.us), np.vstack(self.vs))

    def take_row(self, row: np.ndarray) -> bool:
        """Pivot on the sampled row; False when that accepts the block."""
        residual = row.copy()
        for u, v in zip(self.us, self.vs):
            residual -= u[self.i] * v
        self.row_unused[self.i] = False
        candidates = np.where(self.col_unused, np.abs(residual), -1.0)
        j = int(np.argmax(candidates))
        pivot = residual[j]
        if candidates[j] <= 0.0 or pivot == 0.0:
            # The sampled residual row is exactly zero: the remaining
            # residual is (numerically) rank-deficient; accept.
            self._accept()
            return False
        self.j = j
        self.v = residual / pivot
        return True

    def take_col(self, col: np.ndarray, tol: float) -> None:
        """Complete the cross with the sampled column; test convergence."""
        u = col.copy()
        for u_prev, w in zip(self.us, self.vs):
            u -= w[self.j] * u_prev
        v = self.v
        self.col_unused[self.j] = False
        self.us.append(u)
        self.vs.append(v)
        uu = float(u @ u)
        vv = float(v @ v)
        cross = 0.0
        for u_prev, v_prev in zip(self.us[:-1], self.vs[:-1]):
            cross += float(u_prev @ u) * float(v_prev @ v)
        self.norm2 += uu * vv + 2.0 * cross
        if (self.norm2 <= 0.0 or uu * vv <= (tol * tol) * self.norm2
                or not self.row_unused.any()):
            self._accept()
            return
        self.i = int(np.argmax(np.where(self.row_unused, np.abs(u), -1.0)))
        self.budget -= 1
        self.done = self.budget == 0  # the rank cap before the tolerance


def aca(
    entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
    blocks: list[tuple[np.ndarray, np.ndarray]],
    tol: float,
    max_rank: int = MAX_ACA_RANK,
) -> tuple[list[tuple[np.ndarray, np.ndarray] | None], int]:
    """Partial-pivot ACA of many blocks in lockstep.

    ``blocks`` lists each block's ``(rows, cols)`` indices, and
    ``entries(rows, cols)`` evaluates the kernel at explicit index pairs.
    Every round samples the pivot row of each open block in one
    ``entries`` call, then the pivot column of each block that still
    needs one in a second.  A block's pivots, stopping test and
    arithmetic are those it would have compressed alone.

    Returns:
        Per block, ``(U, V)`` with ``A ~= U @ V`` to an estimated
        relative Frobenius error below ``tol``, or None when
        ``max_rank`` crosses were not enough (the caller falls back to
        exact evaluation); and the number of rounds run.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    crosses = [
        _Cross(rows, cols, min(rows.size, cols.size, max_rank))
        for rows, cols in blocks
    ]

    def sample(requests: list[tuple[np.ndarray, np.ndarray]]):
        return _kernel_values(
            entries, [r.size for r, _ in requests], requests.__getitem__
        )

    active = [c for c in crosses if not c.done]
    rounds = 0
    while active:
        rounds += 1
        samples = sample([(np.full(c.cols.size, c.rows[c.i]), c.cols)
                          for c in active])
        active = [c for c, row in zip(active, samples) if c.take_row(row)]
        samples = sample([(c.rows, np.full(c.rows.size, c.cols[c.j]))
                          for c in active])
        for c, col in zip(active, samples):
            c.take_col(col, tol)
        active = [c for c in active if not c.done]
    return [c.factors for c in crosses], rounds


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
    stored once and applied in both orientations.  ``matvec`` applies the
    whole operator and ``far_matvec`` the compressed far field alone;
    ``to_dense`` materializes the full matrix for small-n validation and
    for MNA consumers that need entries.
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
        """``y = L @ x`` for a real or complex ``x``, without ever forming
        the dense matrix."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(
                f"matvec expects shape ({self.n},), got {x.shape}"
            )
        y = self.diag * x + self.far_matvec(x)
        for blk in self.sym_blocks:
            y[blk.indices] += blk.matrix @ x[blk.indices]
        for blk in self.near_blocks:
            y[blk.rows] += blk.matrix @ x[blk.cols]
            y[blk.cols] += blk.matrix.T @ x[blk.rows]
        return y

    @cached_property
    def _far_stack(self) -> sp.csr_matrix:
        """Every far block's V on its columns over its Uᵀ on its rows,
        stacked once: the 2K x n factor ``S`` of ``F = Sᵀ P S``, with K
        the summed ranks and ``P`` the swap of the two halves.

        Built straight in CSR, one row per block and rank, its entries on
        the block's own index order.
        """
        pieces = [(blk.cols, blk.v) for blk in self.far_blocks]
        pieces += [(blk.rows, blk.u.T) for blk in self.far_blocks]
        if not pieces:
            return sp.csr_matrix((0, self.n))
        widths = np.repeat([idx.size for idx, _ in pieces],
                           [m.shape[0] for _, m in pieces])
        return sp.csr_matrix((
            np.concatenate([m.ravel() for _, m in pieces]),
            np.concatenate([np.tile(idx, m.shape[0]) for idx, m in pieces]),
            np.concatenate(([0], np.cumsum(widths))),
        ), shape=(widths.size, self.n))

    def far_matvec(self, x: np.ndarray) -> np.ndarray:
        """The compressed far field's product ``F x``: both orientations
        of every block in one product by the stacked factor and one by
        its transpose.  A complex ``x`` goes as its real and imaginary
        parts side by side, in the same pass."""
        stack = self._far_stack
        k = stack.shape[0] // 2
        complex_x = np.iscomplexobj(x)
        if complex_x:
            x = np.ascontiguousarray(x, dtype=complex).view(float)
            x = x.reshape(-1, 2)
        z = stack @ x
        y = stack.T @ np.concatenate((z[k:], z[:k]))
        return y.view(complex)[:, 0] if complex_x else y

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
        field, which reaches the solve only through :meth:`far_matvec`.
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


def _exact_blocks(
    entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
    leaves: list[Cluster],
    pairs: list[tuple[Cluster, Cluster]],
    global_of: np.ndarray,
) -> tuple[list[SymmetricBlock], list[DenseBlock]]:
    """The same-cluster blocks of ``leaves`` and the dense blocks of the
    cluster ``pairs``, from one batch of kernel calls.

    The batch goes in slices of :data:`CLOSE_PAIR_CHUNK` pairs: one call
    over a whole direction group's near field would hold every pair's
    temporaries at once, and one call per block pays the kernel's fixed
    cost per block.
    """
    upper = [np.triu_indices(leaf.size, k=1) for leaf in leaves]

    def request(k: int) -> tuple[np.ndarray, np.ndarray]:
        if k < len(leaves):
            iu, ju = upper[k]
            return leaves[k].indices[iu], leaves[k].indices[ju]
        a, b = pairs[k - len(leaves)]
        return np.repeat(a.indices, b.size), np.tile(b.indices, a.size)

    sizes = [iu.size for iu, _ in upper] + [a.size * b.size for a, b in pairs]
    values = _kernel_values(entries, sizes, request, CLOSE_PAIR_CHUNK)
    sym = []
    for leaf, (iu, ju), vals in zip(leaves, upper, values):
        block = np.zeros((leaf.size, leaf.size))
        block[iu, ju] = vals
        block[ju, iu] = vals
        sym.append(SymmetricBlock(indices=global_of[leaf.indices],
                                  matrix=block))
    dense = [
        DenseBlock(
            rows=global_of[a.indices], cols=global_of[b.indices],
            # A copy: a view would keep the whole batch alive.
            matrix=vals.reshape(a.size, b.size).copy(),
        )
        for (a, b), vals in zip(pairs, values[len(leaves):])
    ]
    return sym, dense


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
    kernel_calls = 0

    with span(
        "extraction.hierarchical", segments=n, eta=eta, tol=tol,
        leaf_size=leaf_size,
    ) as sp:
        table = SegmentTable.from_segments(segments)
        for direction_axis in (0, 1):
            global_of = np.flatnonzero(table.axis == direction_axis)
            if global_of.size < 2:
                continue
            arrays = _segment_arrays(table, global_of)
            start, end, ta, tb, width, thick = arrays

            with span(
                "hierarchical.tree", axis=direction_axis,
                segments=global_of.size,
            ):
                root = build_cluster_tree(
                    table.lo[global_of], table.hi[global_of],
                    leaf_size=leaf_size,
                )
                near: list[tuple[Cluster, Cluster]] = []
                far: list[tuple[Cluster, Cluster]] = []
                diag_leaves: list[Cluster] = []
                _collect_block_pairs(
                    root, root, eta, near, far, diag_leaves
                )

            def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                nonlocal kernel_calls
                kernel_calls += 1
                return mutual_for_pairs(
                    start, end, ta, tb, width, thick, rows, cols,
                    close_ratio, close_subdivisions,
                )

            with span(
                "hierarchical.near", axis=direction_axis,
                blocks=len(near) + len(diag_leaves),
            ):
                sym, dense = _exact_blocks(
                    entries, diag_leaves, near, global_of
                )
                sym_blocks += sym
                near_blocks += dense

            with span(
                "hierarchical.far", axis=direction_axis, blocks=len(far),
            ) as far_span:
                factors, rounds = aca(
                    entries, [(a.indices, b.indices) for a, b in far], tol,
                    MAX_ACA_RANK,
                )
                far_span.attrs["aca_rounds"] = rounds
                for (a, b), uv in zip(far, factors):
                    if uv is not None:
                        far_blocks.append(LowRankBlock(
                            rows=global_of[a.indices],
                            cols=global_of[b.indices], u=uv[0], v=uv[1],
                        ))
                # The blocks that resisted compression stay exact.
                resisted = [pair for pair, uv in zip(far, factors)
                            if uv is None]
                fallbacks += len(resisted)
                near_blocks += _exact_blocks(
                    entries, [], resisted, global_of
                )[1]

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
            far_rank=sum(blk.rank for blk in far_blocks),
            aca_fallbacks=stats["aca_fallbacks"],
            kernel_calls=kernel_calls,
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
