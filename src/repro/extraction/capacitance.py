"""Chern-style empirical capacitance models.

The paper computes interconnect ground and coupling capacitance "using
Chern models or commercial extraction tools".  The Chern coefficients are
proprietary-foundry-calibrated; we substitute the published Sakurai-Tamaru
empirical forms (same family: area + fringe ground capacitance and a
power-law coupling term), which reproduce the geometric trends -- wider
lines and thinner dielectrics raise ground capacitance, tighter spacing
raises coupling -- that drive the paper's conclusions.  DESIGN.md records
the substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.constants import EPS0, EPS_R_SIO2
from repro.geometry.layout import Layout
from repro.geometry.pairs import SegmentTable
from repro.geometry.segment import Segment


def ground_capacitance_per_length(
    width: float,
    thickness: float,
    height: float,
    eps_r: float = EPS_R_SIO2,
) -> float:
    """Capacitance per unit length of a line over a ground plane [F/m].

    Sakurai-Tamaru single-line formula (area + fringe)::

        C = eps * [ 1.15 (w/h) + 2.80 (t/h)^0.222 ]

    Args:
        width: Line width [m].
        thickness: Line thickness [m].
        height: Dielectric height between line bottom and the plane [m].
        eps_r: Relative dielectric permittivity.
    """
    if width <= 0 or thickness <= 0 or height <= 0:
        raise ValueError("width, thickness, height must be positive")
    eps = EPS0 * eps_r
    return eps * (1.15 * (width / height) + 2.80 * (thickness / height) ** 0.222)


def coupling_capacitance_per_length(
    thickness: float,
    spacing: float,
    height: float,
    width: float,
    eps_r: float = EPS_R_SIO2,
) -> float:
    """Coupling capacitance per unit length of two parallel lines [F/m].

    Sakurai-Tamaru coupled-line term::

        C_c = eps * [ 0.03 (w/h) + 0.83 (t/h) - 0.07 (t/h)^0.222 ] (s/h)^-1.34

    Args:
        thickness: Line thickness [m].
        spacing: Edge-to-edge spacing [m].
        height: Height above the reference plane [m].
        width: Line width [m].
        eps_r: Relative dielectric permittivity.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    eps = EPS0 * eps_r
    geo = 0.03 * (width / height) + 0.83 * (thickness / height) \
        - 0.07 * (thickness / height) ** 0.222
    return eps * max(geo, 0.0) * (spacing / height) ** -1.34


@dataclass
class CapacitanceModel:
    """Capacitance extraction over a layout.

    Produces the two capacitance populations of the paper's PEEC model:
    grounded capacitance for every segment (the C of each RLC-pi section)
    and coupling capacitance "between all pairs of adjacent lines".

    Attributes:
        eps_r: Dielectric relative permittivity.
        coupling_max_gap: Ignore coupling beyond this edge-to-edge gap [m].
            (Unlike the inductance matrix, the capacitance matrix *can* be
            truncated without passivity problems -- Section 4 of the paper.)
    """

    eps_r: float = EPS_R_SIO2
    coupling_max_gap: float = 5e-6

    def segment_ground_capacitance(self, segment: Segment, layout: Layout) -> float:
        """Total grounded capacitance of one segment [F].

        Height is taken to the substrate (z = 0); stacked-conductor
        shielding of the field is ignored, which is the standard
        pre-layout simplification.
        """
        height = segment.origin[2]
        if height <= 0:
            raise ValueError(
                f"segment {segment.name!r} sits at z<=0; ground capacitance "
                "needs a positive dielectric height"
            )
        c_per_len = ground_capacitance_per_length(
            segment.width, segment.thickness, height, self.eps_r
        )
        return c_per_len * segment.length

    def coupling_pairs(
        self, segments: Sequence[Segment]
    ) -> list[tuple[int, int, float]]:
        """(i, j, C) coupling capacitances between adjacent parallel lines.

        Only same-layer parallel in-plane segments (vias are skipped) with
        positive axial overlap and an edge gap in ``(0,
        coupling_max_gap]`` couple; C is the per-length coupling times the
        overlap length.  Indices point into ``segments``, and pairs come in
        ``(i, j)`` order, the order callers sum them in.
        """
        table = SegmentTable.from_segments(segments)
        out: list[tuple[int, int, float]] = []
        for i, j in table.pairs(same_layer=True):
            overlap = table.overlap(i, j)
            gap = table.gap(i, j)
            keep = (overlap > 0) & (gap > 0) & (gap <= self.coupling_max_gap)
            for a, b, ov, g in zip(
                i[keep].tolist(), j[keep].tolist(),
                overlap[keep].tolist(), gap[keep].tolist(),
            ):
                sa, sb = segments[a], segments[b]
                c = coupling_capacitance_per_length(
                    sa.thickness, g, sa.origin[2], min(sa.width, sb.width),
                    self.eps_r,
                ) * ov
                if c > 0:
                    out.append((a, b, c))
        return out
