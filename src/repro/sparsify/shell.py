"""Shell (shift-truncate) sparsification -- Krauter & Pileggi (paper ref [13]).

"One approach associates each segment with a distributed current return
path out to a shell of some radius.  Segments with spacing more than this
radius are assumed to have no inductive coupling.  The inductance values of
the segments within the radius are shifted to account for those entries
that were dropped as a result of truncation.  This shift-truncate method
can guarantee to generate positive definite sparse approximations."

Mechanically: every partial inductance -- self and retained mutual -- is
reduced by the mutual inductance to a fictitious coaxial return shell at
radius ``r0``; couplings beyond ``r0`` become (approximately) zero and are
dropped exactly.  Because every segment's current is now paired with its
own shell return, rows become diagonally dominant and positive
definiteness is restored.  "This approach leads to complications in
determining the value of the shell radius": we expose ``radius`` directly
and also provide :meth:`ShellSparsifier.auto_radius`, a simple
coverage-based stand-in for the moment-matching radius selection of SPIE
(paper ref [14]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.inductance import mutual_inductance_filaments
from repro.extraction.partial_matrix import PartialInductanceResult
from repro.geometry.pairs import SegmentTable
from repro.sparsify.base import InductanceBlocks, Sparsifier
from repro.sparsify.stability import is_positive_definite

#: Relative spacing below which two pair distances count as one tie
#: group in :meth:`ShellSparsifier.auto_radius`.
TIE = 1e-9


@dataclass
class ShellSparsifier(Sparsifier):
    """Shift-truncate with a coaxial return shell of radius ``radius``.

    Attributes:
        radius: Shell radius [m]; couplings between parallel segments
            whose transverse (axis-normal) center distance reaches it are
            dropped.
        grow_factor: If the shifted matrix is (numerically) not positive
            definite, the radius is grown by this factor and the shift
            recomputed, up to ``max_grow`` times.
        max_grow: Growth attempts before giving up.
    """

    radius: float = 30e-6
    grow_factor: float = 1.5
    max_grow: int = 4

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.grow_factor <= 1.0:
            raise ValueError("grow_factor must exceed 1")

    @staticmethod
    def auto_radius(result: PartialInductanceResult, keep_fraction: float = 0.2) -> float:
        """Smallest radius keeping at least ``keep_fraction`` of the pairs.

        A pragmatic replacement for the moment-based radius of SPIE: sort
        all parallel-pair distances into tie groups (relative spacing below
        ``TIE``) and place the radius halfway between the last kept group
        and the next, or just past the farthest pair.  The radius never
        sits on a pair distance, so equidistant pairs are kept or dropped
        together and ``keep_fraction=1.0`` keeps every pair.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        table = SegmentTable.from_segments(result.segments)
        dists = np.sort(np.concatenate(
            [np.empty(0)]
            + [table.transverse_distance(i, j) for i, j in table.pairs()]
        ))
        if not dists.size:
            return 1e-6
        # Index of the last pair of each tie group, and the pairs kept by
        # a radius just past it.
        last = np.append(
            np.flatnonzero(np.diff(dists) > TIE * dists[1:]), dists.size - 1
        )
        k = last[np.argmax((last + 1) / dists.size >= keep_fraction)]
        if k + 1 < dists.size:
            return float((dists[k] + dists[k + 1]) / 2)
        return float(dists[k] * (1.0 + TIE))

    def _shifted_matrix(
        self, result: PartialInductanceResult, table: SegmentTable,
        radius: float,
    ) -> np.ndarray:
        matrix = result.matrix
        out = np.zeros_like(matrix)
        # Shell mutual for segment i: coupling of its own span to a parallel
        # filament at the shell radius (its distributed return).
        shell_self = mutual_inductance_filaments(
            table.start, table.stop, table.start, table.stop,
            np.full(len(table), radius),
        )
        np.fill_diagonal(out, np.diagonal(matrix) - shell_self)
        for i, j in table.pairs():
            near = table.transverse_distance(i, j) < radius
            i, j = i[near], j[near]
            # Pairwise shift: mutual between segment i's span and segment
            # j's span moved out to the shell radius.
            shift = mutual_inductance_filaments(
                table.start[i], table.stop[i], table.start[j], table.stop[j],
                radius,
            )
            out[i, j] = out[j, i] = matrix[i, j] - shift
        return out

    def apply(self, result: PartialInductanceResult) -> InductanceBlocks:
        table = SegmentTable.from_segments(result.segments)
        radius = self.radius
        shifted = self._shifted_matrix(result, table, radius)
        attempts = 0
        while not is_positive_definite(shifted) and attempts < self.max_grow:
            radius *= self.grow_factor
            shifted = self._shifted_matrix(result, table, radius)
            attempts += 1
        if not is_positive_definite(shifted):
            raise RuntimeError(
                f"shell sparsification stayed indefinite up to radius "
                f"{radius:.3e} m; the layout may contain segments longer than "
                "any sensible shell"
            )
        n = result.size
        return InductanceBlocks(kind="L", blocks=[(list(range(n)), shifted)])
