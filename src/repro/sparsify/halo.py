"""Halo (return-limited) sparsification -- Shepard et al. (paper ref [15]).

"It is based on the assumption that the currents of signal lines return
within the region enclosed by the nearest same-direction power-ground
lines": each conductor's return current is assigned to the supply lines
bounding its *halo*, so

* couplings between conductors screened from each other by a supply line
  are dropped, and
* the retained partial inductances (self and mutual) are *shifted* by the
  mutual inductance to the assumed return at the halo boundary -- the
  same shift-truncate mathematics as the shell method, but with the
  radius determined by the actual power-grid geometry instead of a free
  parameter.

Without the shift, plain geometric dropping is just truncation by another
name and can lose positive definiteness; with it, every current is paired
with a nearby return and the matrix stays diagonally dominant.  This is a
geometric rule, so unlike :mod:`~repro.sparsify.shell` it needs to know
which nets are supply -- pass ``supply_nets``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.inductance import mutual_inductance_filaments
from repro.extraction.partial_matrix import PartialInductanceResult
from repro.geometry.pairs import BLOCK, SegmentTable
from repro.obs.trace import current_span
from repro.sparsify.base import InductanceBlocks, Sparsifier
from repro.sparsify.stability import is_positive_definite


@dataclass
class HaloSparsifier(Sparsifier):
    """Return-limited inductances bounded by power/ground halos.

    Attributes:
        supply_nets: Names of power/ground/shield nets whose lines bound
            the halos and carry the assumed returns.
        min_overlap_fraction: A supply line blocks a pair only when it
            axially overlaps at least this fraction of the pair's common
            span (a short jog does not screen a long bus).
        same_layer_only: Restrict blocking to supply lines on the same
            layer (coplanar screening); ``False`` lets planes on other
            layers block too.
        shift: Apply the return-shift to retained entries (the actual
            return-limited formulation).  ``False`` gives the naive
            drop-only variant, kept for the ablation benchmark -- it can
            and does lose passivity.
    """

    supply_nets: tuple[str, ...] = ("VDD", "GND")
    min_overlap_fraction: float = 0.5
    same_layer_only: bool = True
    shift: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.min_overlap_fraction <= 1.0:
            raise ValueError("min_overlap_fraction must be in (0, 1]")

    # -- geometry helpers ---------------------------------------------------

    def _supply_indices(self, result: PartialInductanceResult) -> np.ndarray:
        return np.array([
            k for k, s in enumerate(result.segments)
            if s.net in self.supply_nets
        ], dtype=np.intp)

    def _halo_radii(
        self, table: SegmentTable, supply: np.ndarray
    ) -> np.ndarray:
        """Distance from each segment to its nearest parallel supply return."""
        n = len(table)
        radii = np.full(n, np.inf)
        k = supply[None, :]
        for r0 in range(0, n if supply.size else 0, BLOCK):
            i = np.arange(r0, min(r0 + BLOCK, n))[:, None]
            returns = (table.axis[k] == table.axis[i]) & (k != i)
            if self.same_layer_only:
                returns &= table.layer[k] == table.layer[i]
            returns &= (
                table.overlap(i, k)
                >= self.min_overlap_fraction * table.length[i]
            )
            dist = np.where(returns, table.transverse_distance(i, k), np.inf)
            radii[i[:, 0]] = dist.min(axis=1)
        return radii

    def _blocked(
        self,
        table: SegmentTable,
        supply: np.ndarray,
        i: np.ndarray,
        j: np.ndarray,
    ) -> np.ndarray:
        """Mask of the pairs (i, j) that a supply segment screens.

        A screen lies strictly between the pair in the in-plane
        transverse direction, so a pair member never screens itself and a
        vertically stacked pair has no screen.
        """
        out = np.zeros(i.size, dtype=bool)
        k = supply[None, :]
        for p0 in range(0, i.size if supply.size else 0, BLOCK):
            a = i[p0:p0 + BLOCK, None]
            b = j[p0:p0 + BLOCK, None]
            t = 1 - table.axis[a]
            ti, tj = table.center[a, t], table.center[b, t]
            tk = table.center[k, t]
            starts = table.start[a], table.start[b]
            stops = table.stop[a], table.stop[b]
            lo = np.maximum(*starts)
            hi = np.minimum(*stops)
            # Axially disjoint pairs are screened over their joint extent.
            disjoint = hi - lo <= 0
            lo = np.where(disjoint, np.minimum(*starts), lo)
            hi = np.where(disjoint, np.maximum(*stops), hi)
            ov = np.minimum(table.stop[k], hi) - np.maximum(table.start[k], lo)
            screens = (
                (table.axis[k] == table.axis[a])
                & (np.minimum(ti, tj) < tk) & (tk < np.maximum(ti, tj))
                & (ov >= self.min_overlap_fraction * (hi - lo))
            )
            if self.same_layer_only:
                screens &= (
                    (table.layer[k] == table.layer[a])
                    | (table.layer[k] == table.layer[b])
                )
            out[p0:p0 + BLOCK] = screens.any(axis=1)
        return out

    # -- the strategy ------------------------------------------------------------

    def apply(self, result: PartialInductanceResult) -> InductanceBlocks:
        table = SegmentTable.from_segments(result.segments)
        n = result.size
        supply = self._supply_indices(result)
        matrix = result.matrix.copy()
        radii = self._halo_radii(table, supply)

        if self.shift:
            # Self terms: pair every conductor's current with a return at
            # its halo boundary.
            f = np.flatnonzero(np.isfinite(radii))
            matrix[f, f] -= mutual_inductance_filaments(
                table.start[f], table.stop[f], table.start[f], table.stop[f],
                radii[f],
            )

        blocked = 0
        for i, j in table.pairs():
            coupled = result.matrix[i, j] != 0.0
            i, j = i[coupled], j[coupled]
            screened = self._blocked(table, supply, i, j)
            blocked += int(screened.sum())
            matrix[i[screened], j[screened]] = 0.0
            matrix[j[screened], i[screened]] = 0.0
            if not self.shift:
                continue
            # The tighter of the two halos carries the assumed return;
            # couplings to the bounding return itself shift to ~zero.
            i, j = i[~screened], j[~screened]
            radius = np.minimum(radii[i], radii[j])
            f = np.isfinite(radius)
            i, j = i[f], j[f]
            matrix[i, j] = matrix[j, i] = matrix[i, j] - (
                mutual_inductance_filaments(
                    table.start[i], table.stop[i],
                    table.start[j], table.stop[j], radius[f],
                )
            )
        cur = current_span()
        if cur is not None:
            cur.attrs["blocked"] = blocked

        if self.shift and not is_positive_definite(matrix):
            raise RuntimeError(
                "return-limited (halo) matrix lost positive definiteness; "
                "the layout's power grid is too sparse to bound the halos "
                "-- add returns or use the shell method"
            )
        return InductanceBlocks(kind="L", blocks=[(list(range(n)), matrix)])
