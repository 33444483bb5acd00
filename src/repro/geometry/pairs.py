"""Structure-of-arrays segment table and vectorized segment-pair queries.

Every scan that decides which segment pairs couple (coupling
capacitance, the shell and halo sparsifiers, the overlap check) reads a
:class:`SegmentTable` instead of looping over :class:`Segment` objects.
Columns and pair helpers repeat the float arithmetic of the ``Segment``
properties and scalar helpers, so a scan selects the same pairs and
values as the loop it replaced; ``transverse_distance`` alone may
differ by one ulp (``np.hypot`` vs ``math.hypot``) on pairs whose two
transverse components are both nonzero.  See DESIGN.md section 5l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.segment import Direction, Segment

#: Rows per pair block: a block holds at most ``BLOCK * n`` candidate
#: pairs, the same bound as the dense partial-L assembly's row blocks.
BLOCK = 512

_AXIS = {direction: direction.axis for direction in Direction}


def _codes(names: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes (in order of first appearance) and the code table."""
    table: dict[str, int] = {}
    codes = np.fromiter(
        (table.setdefault(name, len(table)) for name in names),
        dtype=np.intp, count=len(names),
    )
    return codes, tuple(table)


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Per-segment geometry of a segment list as column arrays.

    Row ``k`` describes ``segments[k]``.  Attributes:
        axis: Current axis (0 = x, 1 = y, 2 = z for vias).
        layer, net: Integer codes, equal for equal names.
        nets: Net names, indexed by net code.
        lo, hi: Minimal and maximal bounding-box corners, shape (n, 3).
        start, stop: Axial extent along the current axis.
        center: Bar center, shape (n, 3).
        width, thickness, length: Bar dimensions.
    """

    axis: np.ndarray
    layer: np.ndarray
    net: np.ndarray
    nets: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    center: np.ndarray
    width: np.ndarray
    thickness: np.ndarray
    length: np.ndarray

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> "SegmentTable":
        n = len(segments)
        axis = np.fromiter(
            (_AXIS[s.direction] for s in segments), dtype=np.intp, count=n
        )
        layer, _ = _codes([s.layer for s in segments])
        net, nets = _codes([s.net for s in segments])
        lo = np.array([s.origin for s in segments], dtype=float).reshape(n, 3)
        length = np.array([s.length for s in segments], dtype=float)
        width = np.array([s.width for s in segments], dtype=float)
        thickness = np.array([s.thickness for s in segments], dtype=float)
        # Segment.extents: the length lies along the axis, the width along
        # x (y for X segments), the thickness along z (y for vias).
        extents = np.stack([
            np.where(axis == 0, length, width),
            np.where(axis == 1, length, np.where(axis == 0, width, thickness)),
            np.where(axis == 2, length, thickness),
        ], axis=1)
        start = lo[np.arange(n), axis]
        return cls(
            axis=axis, layer=layer, net=net, nets=nets,
            lo=lo, hi=lo + extents, start=start, stop=start + length,
            center=lo + extents / 2, width=width, thickness=thickness,
            length=length,
        )

    def __len__(self) -> int:
        return self.axis.size

    def pairs(
        self, same_layer: bool = False
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(i, j)`` index blocks of same-axis in-plane pairs, ``i < j``.

        Blocks come in lexicographic order, each covering at most
        :data:`BLOCK` rows ``i``.  Vias (axis 2) pair with nothing;
        ``same_layer`` also requires equal layers.
        """
        n = len(self)
        for r0 in range(0, n, BLOCK):
            rows = np.arange(r0, min(r0 + BLOCK, n))[:, None]
            cols = np.arange(r0, n)[None, :]
            mask = (
                (cols > rows)
                & (self.axis[cols] == self.axis[rows])
                & (self.axis[rows] != 2)
            )
            if same_layer:
                mask &= self.layer[cols] == self.layer[rows]
            i, j = np.nonzero(mask)
            if i.size:
                yield i + r0, j + r0

    # -- pair helpers: broadcast over index arrays of any shape ----------

    def overlap(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Axial overlap of same-axis pairs (``Segment.axial_overlap``)."""
        hi = np.minimum(self.stop[i], self.stop[j])
        lo = np.maximum(self.start[i], self.start[j])
        return np.maximum(hi - lo, 0.0)

    def gap(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Face-to-face bounding-box distance (``Segment.gap``)."""
        d = np.maximum(
            np.maximum(self.lo[j] - self.hi[i], self.lo[i] - self.hi[j]), 0.0
        )
        return np.sqrt(
            d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
            + d[..., 2] * d[..., 2]
        )

    def transverse_distance(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Center distance normal to the shared axis of same-axis pairs.

        ``Segment.transverse_distance``, up to the one-ulp ``hypot``
        difference noted in the module docstring.
        """
        delta = self.center[i] - self.center[j]
        axis = self.axis[i]
        first = np.where(axis == 0, delta[..., 1], delta[..., 0])
        second = np.where(axis == 2, delta[..., 1], delta[..., 2])
        return np.hypot(first, second)
