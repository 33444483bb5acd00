"""Assembly of the dense partial-inductance matrix for a layout.

Produces the matrix the whole of Section 4 of the paper is about: one row
per in-plane conductor segment, diagonal = partial self inductances,
off-diagonal = partial mutual inductances between all pairs of parallel
segments (orthogonal pairs couple zero by symmetry).  The matrix is dense
-- "large clock net topologies along with power grid can lead to ... mutual
inductance of the order of 10G" -- which is why the sparsification and
model-order-reduction machinery in :mod:`repro.sparsify` and
:mod:`repro.mor` exists, and why :mod:`repro.extraction.hierarchical`
compresses the far field instead of storing it.

Assembly is fully vectorized: all far pairs are evaluated with the exact
center-filament formula in one numpy pass per direction group, and close
pairs (where cross-section size matters) are re-evaluated with the
subdivided bar integral in batched passes over the close-pair index set.
A pair is *close* when the edge-to-edge (surface) separation of the two
cross sections -- not the center-to-center distance, which misclassifies
wide bars whose edges nearly touch -- falls inside ``close_ratio`` times
the largest cross-section dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.extraction.inductance import (
    KERNEL_REVISION,
    mutual_inductance_bars_batch,
    mutual_inductance_filaments,
    self_inductance_bar,
)
from repro.geometry.layout import Layout
from repro.geometry.pairs import SegmentTable
from repro.geometry.segment import Direction, Segment
from repro.obs.trace import span

#: Close-pair bar integrals are batched in slices of this many pairs to
#: bound peak memory (each pair expands to ``subdivisions**4`` filament
#: separations).
CLOSE_PAIR_CHUNK = 4096


def structural_mutual_count(segments: list[Segment]) -> int:
    """Number of structural mutual couplings: parallel same-axis pairs.

    This is a property of the geometry, not of the matrix values: a
    mutual that evaluates to exactly zero by symmetric cancellation
    (twisted-bundle layouts are engineered for it) is still a coupling
    the model carries, so counting nonzero entries would undercount.
    """
    counts: dict[int, int] = {}
    for seg in segments:
        axis = seg.direction.axis
        counts[axis] = counts.get(axis, 0) + 1
    return sum(k * (k - 1) // 2 for k in counts.values())


@dataclass
class PartialInductanceResult:
    """Dense partial-inductance extraction result.

    Attributes:
        segments: The in-plane segments, in matrix order.
        matrix: Symmetric positive-definite partial-L matrix [H],
            shape (n, n).
    """

    segments: list[Segment]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        """Number of self inductances (matrix dimension)."""
        return self.matrix.shape[0]

    @property
    def num_mutuals(self) -> int:
        """Number of structural couplings (parallel same-axis pairs)."""
        return structural_mutual_count(self.segments)

    def coupling_coefficient(self, i: int, j: int) -> float:
        """Dimensionless k_ij = M_ij / sqrt(L_ii * L_jj)."""
        return coupling_coefficient(self.matrix, self.segments, i, j)

    def is_positive_definite(self) -> bool:
        """Cholesky-based positive-definiteness check."""
        try:
            np.linalg.cholesky(self.matrix)
            return True
        except np.linalg.LinAlgError:
            return False


def coupling_coefficient(
    matrix: np.ndarray, segments: list[Segment], i: int, j: int
) -> float:
    """k_ij = M_ij / sqrt(L_ii * L_jj), guarded against degenerate rows.

    A nonpositive diagonal entry means the segment's self inductance is
    broken (degenerate geometry or a corrupted matrix); dividing by its
    square root would silently return NaN or garbage, so it raises
    instead, naming the offending row.
    """
    for k in (i, j):
        diag = float(matrix[k, k])
        if not diag > 0.0:
            name = segments[k].name if k < len(segments) else ""
            raise ValueError(
                f"nonpositive self inductance L[{k},{k}] = {diag:.6g} H "
                f"(segment {name!r}); coupling coefficients are undefined "
                "for a degenerate row"
            )
    return float(matrix[i, j] / math.sqrt(matrix[i, i] * matrix[j, j]))


def reject_vias(segments: list[Segment]) -> None:
    """Raise when any segment is a via (Z direction)."""
    for seg in segments:
        if seg.direction == Direction.Z:
            raise ValueError(
                f"segment {seg.name!r} is a via (Z direction); exclude vias "
                "from inductance extraction"
            )


def _segment_arrays(table: SegmentTable, indices: np.ndarray):
    """Columns (start, end, trans-a, trans-b, width, thickness) of a
    same-axis index group, read from the segment table."""
    axis = int(table.axis[indices[0]])
    trans_axes = [a for a in range(3) if a != axis]
    centers = table.center[indices]
    return (
        table.start[indices], table.stop[indices],
        centers[:, trans_axes[0]], centers[:, trans_axes[1]],
        table.width[indices], table.thickness[indices],
    )


def _close_mask(
    dw: np.ndarray,
    dt: np.ndarray,
    gap_z: np.ndarray,
    w1: np.ndarray,
    t1: np.ndarray,
    w2: np.ndarray,
    t2: np.ndarray,
    close_ratio: float,
) -> np.ndarray:
    """Edge-to-edge close-pair classification.

    ``dw``/``dt`` are center-to-center transverse offsets along the
    width and thickness axes and ``gap_z`` the axial span-to-span gap
    (0 for overlapping spans).  The surface separation subtracts the
    two half-cross-sections per transverse axis (clipped at touching),
    so wide bars whose edges nearly touch classify as close even when
    their centers are many cross-sections apart.  Including the axial
    gap keeps the classification a true 3-D edge-to-edge distance:
    laterally adjacent pieces far apart along the axis -- where the
    single-filament Neumann integral is already accurate to
    O((cross-section / distance)^2) -- stay on the cheap path instead
    of paying the subdivided bar integral.
    """
    gap_w = np.maximum(np.abs(dw) - 0.5 * (w1 + w2), 0.0)
    gap_t = np.maximum(np.abs(dt) - 0.5 * (t1 + t2), 0.0)
    sep = np.hypot(np.hypot(gap_w, gap_t), gap_z)
    max_cross = np.maximum.reduce([w1, t1, w2, t2])
    return sep < close_ratio * max_cross


def mutual_for_pairs(
    start: np.ndarray,
    end: np.ndarray,
    ta: np.ndarray,
    tb: np.ndarray,
    width: np.ndarray,
    thick: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    close_ratio: float,
    close_subdivisions: int,
) -> np.ndarray:
    """Mutual inductances for explicit same-direction index pairs [H].

    The shared pair kernel of both assemblies: the dense path feeds it
    every upper-triangle pair, the hierarchical engine feeds it near
    blocks and ACA-sampled rows/columns.  Far pairs use the exact
    center-filament formula in one vectorized pass; close pairs (by
    edge-to-edge separation) are re-evaluated with the subdivided bar
    integral, batched over the close-pair index set.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    dw = ta[cols] - ta[rows]
    dt = tb[cols] - tb[rows]
    rho = np.hypot(dw, dt)
    mutual = np.atleast_1d(np.asarray(
        mutual_inductance_filaments(
            start[rows], end[rows], start[cols], end[cols], rho
        ),
        dtype=float,
    ))
    gap_z = np.maximum(
        np.maximum(start[rows], start[cols])
        - np.minimum(end[rows], end[cols]),
        0.0,
    )
    close = np.nonzero(_close_mask(
        dw, dt, gap_z, width[rows], thick[rows], width[cols], thick[cols],
        close_ratio,
    ))[0]
    for c0 in range(0, close.size, CLOSE_PAIR_CHUNK):
        k = close[c0:c0 + CLOSE_PAIR_CHUNK]
        a = rows[k]
        b = cols[k]
        mutual[k] = mutual_inductance_bars_batch(
            start[a], end[a], start[b], end[b],
            dw[k], dt[k],
            width[a], thick[a], width[b], thick[b],
            subdivisions=close_subdivisions,
        )
    return mutual


def extract_partial_inductance(
    segments: list[Segment],
    close_ratio: float = 4.0,
    close_subdivisions: int = 3,
    block: int = 512,
    assembly: str = "exact",
    eta: float | None = None,
    tol: float | None = None,
    leaf_size: int | None = None,
):
    """Compute the partial-inductance matrix (or operator) [H].

    Args:
        segments: In-plane segments (Z-direction segments are rejected;
            the PEEC model treats vias as resistive).
        close_ratio: Pairs whose edge-to-edge separation is below
            ``close_ratio * max cross-section dimension`` are
            re-evaluated with cross-section subdivision.
        close_subdivisions: Filaments per transverse axis for close pairs.
        block: Row-block size bounding peak memory of the vectorized pass.
        assembly: ``"exact"`` (dense, every mutual computed and stored)
            or ``"hierarchical"`` (cluster-tree near/far split with
            ACA-compressed far field; see
            :mod:`repro.extraction.hierarchical`).
        eta: Hierarchical admissibility parameter (``diam/dist < eta``);
            hierarchical assembly only.
        tol: Hierarchical ACA relative-error tolerance; hierarchical
            assembly only.
        leaf_size: Hierarchical cluster-tree leaf size; hierarchical
            assembly only.

    Returns:
        :class:`PartialInductanceResult` for exact assembly, or a
        :class:`repro.extraction.hierarchical.
        HierarchicalPartialInductanceResult` (duck-type compatible, with
        an ``operator`` attribute) for hierarchical assembly.
    """
    reject_vias(segments)
    if assembly == "hierarchical":
        from repro.extraction import hierarchical as hier

        kwargs = {}
        if eta is not None:
            kwargs["eta"] = eta
        if tol is not None:
            kwargs["tol"] = tol
        if leaf_size is not None:
            kwargs["leaf_size"] = leaf_size
        return hier.extract_hierarchical(
            segments, close_ratio=close_ratio,
            close_subdivisions=close_subdivisions, **kwargs,
        )
    if assembly != "exact":
        raise ValueError(
            f"unknown assembly {assembly!r}; expected 'exact' or "
            "'hierarchical'"
        )
    if eta is not None or tol is not None or leaf_size is not None:
        raise ValueError(
            "eta/tol/leaf_size only apply to assembly='hierarchical'"
        )

    # Content-addressed memoization: the matrix is a pure function of the
    # geometry, the close-pair parameters and the kernel revision
    # (``block`` only bounds peak memory, so it stays out of the key).
    # Import lazily -- repro.perf sits above the extraction layer in the
    # package graph.
    from repro.perf import cache as perf_cache

    digest = perf_cache.fingerprint_segments(
        segments,
        {"close_ratio": float(close_ratio),
         "close_subdivisions": int(close_subdivisions),
         "kernel": KERNEL_REVISION},
    )
    with span("extraction.partial_L", segments=len(segments)) as sp:
        cached = perf_cache.load_matrix(digest)
        if cached is not None:
            sp.attrs["cached"] = True
            return PartialInductanceResult(
                segments=list(segments), matrix=cached
            )
        sp.attrs["cached"] = False
        matrix = _assemble_matrix(
            segments, close_ratio, close_subdivisions, block
        )
        perf_cache.store_matrix(digest, matrix)
        return PartialInductanceResult(segments=list(segments), matrix=matrix)


def _assemble_matrix(
    segments: list[Segment],
    close_ratio: float,
    close_subdivisions: int,
    block: int,
) -> np.ndarray:
    """The vectorized dense assembly behind the cache lookup."""
    n = len(segments)
    matrix = np.zeros((n, n))
    for i, seg in enumerate(segments):
        matrix[i, i] = self_inductance_bar(seg.length, seg.width, seg.thickness)

    table = SegmentTable.from_segments(segments)
    for direction_axis in (0, 1):
        idx = np.flatnonzero(table.axis == direction_axis)
        if idx.size < 2:
            continue
        start, end, ta, tb, width, thick = _segment_arrays(table, idx)
        m = idx.size
        for r0 in range(0, m, block):
            r1 = min(r0 + block, m)
            rows = slice(r0, r1)
            # Broadcast rows x all-columns; keep upper triangle only.
            col_idx = np.arange(m)[None, :]
            row_idx = np.arange(r0, r1)[:, None]
            upper = col_idx > row_idx
            pair_rows, pair_cols = np.nonzero(upper)
            if pair_rows.size == 0:
                continue
            pr = pair_rows + r0
            pc = pair_cols
            mutual = mutual_for_pairs(
                start, end, ta, tb, width, thick, pr, pc,
                close_ratio, close_subdivisions,
            )
            gi = idx[pr]
            gj = idx[pc]
            matrix[gi, gj] = mutual
            matrix[gj, gi] = mutual
    return matrix


def extract_for_layout(
    layout: Layout, **kwargs
) -> tuple[PartialInductanceResult, list[int]]:
    """Extract the partial-L matrix for a layout's in-plane segments.

    Accepts every :func:`extract_partial_inductance` keyword, including
    ``assembly="hierarchical"``.

    Returns:
        (result, segment_indices): ``segment_indices[k]`` is the index into
        ``layout.segments`` of matrix row ``k``.
    """
    indices = [
        i for i, s in enumerate(layout.segments) if s.direction != Direction.Z
    ]
    result = extract_partial_inductance(
        [layout.segments[i] for i in indices], **kwargs
    )
    return result, indices
