"""Rectangular conductor segments and routing layers.

A :class:`Segment` is an axis-aligned rectangular bar of metal: the atomic
unit of both extraction and PEEC modeling.  Each segment carries current
along a single axis (its :class:`Direction`), has a rectangular cross
section (width x thickness), and belongs to a named net on a named layer.

Coordinates are SI meters.  A segment is anchored by its *origin* -- the
corner with minimal coordinates -- plus its length along the current
direction, its width transverse in-plane, and its thickness in z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace


class Direction(enum.Enum):
    """Current-flow axis of a conductor segment."""

    X = "x"
    Y = "y"
    Z = "z"  # vias

    @property
    def axis(self) -> int:
        """Index of the direction axis into an (x, y, z) triple."""
        return {"x": 0, "y": 1, "z": 2}[self.value]

    def is_parallel_to(self, other: "Direction") -> bool:
        """True when two directions share the same axis."""
        return self.axis == other.axis


@dataclass(frozen=True)
class Layer:
    """A routing layer in the metal stack.

    Attributes:
        name: Layer name, e.g. ``"M3"``.
        index: 0-based position in the stack (0 = lowest).
        z_bottom: Height of the layer's bottom face above substrate [m].
        thickness: Metal thickness [m].
        sheet_resistance: Sheet resistance [ohm/square].
        pitch_direction: Preferred routing direction on this layer.

    The dielectric gap between two layers is ``upper.z_bottom -
    lower.z_top``.
    """

    name: str
    index: int
    z_bottom: float
    thickness: float
    sheet_resistance: float
    pitch_direction: Direction

    @property
    def z_center(self) -> float:
        """Height of the layer's vertical mid-plane [m]."""
        return self.z_bottom + 0.5 * self.thickness

    @property
    def z_top(self) -> float:
        """Height of the layer's top face [m]."""
        return self.z_bottom + self.thickness


def default_layer_stack(num_layers: int = 6) -> list[Layer]:
    """Build a generic high-performance-CMOS metal stack circa 2001.

    Lower layers are thin with high sheet resistance; upper (global) layers
    are thick, low-resistance copper -- the regime where the paper says
    inductance matters ("reductions in wire resistance as a result of copper
    interconnects and wider upper-layer metal lines").

    Args:
        num_layers: Number of metal layers (2..8 are sensible).

    Returns:
        Layers ordered bottom (index 0) to top.
    """
    if not 1 <= num_layers <= 10:
        raise ValueError(f"num_layers must be in [1, 10], got {num_layers}")
    layers = []
    z = 0.8e-6  # first dielectric above substrate
    for i in range(num_layers):
        # Thickness and sheet rho graded from local to global metal.
        frac = i / max(num_layers - 1, 1)
        thickness = (0.35 + 0.85 * frac) * 1e-6
        sheet_res = 0.070 * (1.0 - 0.75 * frac) + 0.008
        dielectric = (0.45 + 0.45 * frac) * 1e-6  # gap above this layer
        direction = Direction.X if i % 2 == 0 else Direction.Y
        layers.append(
            Layer(
                name=f"M{i + 1}",
                index=i,
                z_bottom=z,
                thickness=thickness,
                sheet_resistance=sheet_res,
                pitch_direction=direction,
            )
        )
        z += thickness + dielectric
    return layers


@dataclass(frozen=True)
class Segment:
    """An axis-aligned rectangular conductor segment.

    Attributes:
        net: Name of the electrical net the segment belongs to.
        layer: Name of the routing layer (``"VIA"`` conventionally for vias).
        direction: Current-flow axis.
        origin: Minimal-coordinate corner (x, y, z) [m].
        length: Extent along ``direction`` [m].
        width: In-plane transverse extent [m].  For Z-direction segments
            (vias) this is the x extent.
        thickness: Vertical extent for X/Y segments; for Z segments the
            y extent [m].
        name: Optional unique name; generators fill this in.
    """

    net: str
    layer: str
    direction: Direction
    origin: tuple[float, float, float]
    length: float
    width: float
    thickness: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0 or self.thickness <= 0:
            raise ValueError(
                f"segment dimensions must be positive: length={self.length}, "
                f"width={self.width}, thickness={self.thickness}"
            )

    # -- derived geometry -----------------------------------------------

    @property
    def extents(self) -> tuple[float, float, float]:
        """(dx, dy, dz) bounding-box extents of the bar [m]."""
        axis = self.direction.axis
        if axis == 0:
            return (self.length, self.width, self.thickness)
        if axis == 1:
            return (self.width, self.length, self.thickness)
        return (self.width, self.thickness, self.length)

    @property
    def end(self) -> tuple[float, float, float]:
        """Maximal-coordinate corner of the bar."""
        dx, dy, dz = self.extents
        ox, oy, oz = self.origin
        return (ox + dx, oy + dy, oz + dz)

    @property
    def center(self) -> tuple[float, float, float]:
        """Geometric center of the bar."""
        dx, dy, dz = self.extents
        ox, oy, oz = self.origin
        return (ox + dx / 2, oy + dy / 2, oz + dz / 2)

    @property
    def axis_start(self) -> float:
        """Start coordinate along the current direction."""
        return self.origin[self.direction.axis]

    @property
    def axis_end(self) -> float:
        """End coordinate along the current direction."""
        return self.axis_start + self.length

    @property
    def cross_section_area(self) -> float:
        """Cross-section area normal to current flow [m^2]."""
        return self.width * self.thickness

    @property
    def volume(self) -> float:
        """Conductor volume [m^3]."""
        return self.length * self.cross_section_area

    def endpoints(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Electrical terminal points: centers of the two end faces.

        These are the points at which the segment connects to neighbouring
        segments in the PEEC circuit graph.
        """
        cx, cy, cz = self.center
        axis = self.direction.axis
        start = [cx, cy, cz]
        stop = [cx, cy, cz]
        start[axis] = self.axis_start
        stop[axis] = self.axis_end
        return (tuple(start), tuple(stop))

    # -- pairwise relations ----------------------------------------------

    def is_parallel(self, other: "Segment") -> bool:
        """True when the two segments carry current along the same axis."""
        return self.direction.is_parallel_to(other.direction)

    def axial_overlap(self, other: "Segment") -> float:
        """Length of the axial-projection overlap with a parallel segment [m].

        Zero when the segments do not overlap along the shared axis (they may
        still couple inductively; overlap is used only as a coupling-strength
        heuristic by sparsification rules).
        """
        if not self.is_parallel(other):
            raise ValueError("axial_overlap requires parallel segments")
        lo = max(self.axis_start, other.axis_start)
        hi = min(self.axis_end, other.axis_end)
        return max(0.0, hi - lo)

    def center_distance(self, other: "Segment") -> float:
        """Center-to-center Euclidean distance [m]."""
        a, b = self.center, other.center
        return math.dist(a, b)

    def transverse_distance(self, other: "Segment") -> float:
        """Center-to-center distance in the plane normal to the shared axis [m].

        This is the distance that controls the mutual inductance of two
        parallel conductors; requires parallel segments.
        """
        if not self.is_parallel(other):
            raise ValueError("transverse_distance requires parallel segments")
        axis = self.direction.axis
        a, b = self.center, other.center
        deltas = [a[i] - b[i] for i in range(3) if i != axis]
        return math.hypot(*deltas)

    def gap(self, other: "Segment") -> float:
        """Minimum face-to-face distance between the two bounding boxes [m].

        Zero when the boxes touch or overlap.  Used by capacitance models
        (adjacent-line coupling) and by halo/shell sparsification rules.
        """
        total = 0.0
        for axis in range(3):
            lo_a, hi_a = self.origin[axis], self.end[axis]
            lo_b, hi_b = other.origin[axis], other.end[axis]
            d = max(lo_b - hi_a, lo_a - hi_b, 0.0)
            total += d * d
        return math.sqrt(total)

    def split(self, num_pieces: int) -> list["Segment"]:
        """Split the segment into ``num_pieces`` equal-length series pieces.

        Used to refine the RLC-pi discretization of long lines.
        """
        if num_pieces < 1:
            raise ValueError(f"num_pieces must be >= 1, got {num_pieces}")
        if num_pieces == 1:
            return [self]
        piece_len = self.length / num_pieces
        axis = self.direction.axis
        pieces = []
        for i in range(num_pieces):
            origin = list(self.origin)
            origin[axis] += i * piece_len
            pieces.append(
                replace(
                    self,
                    origin=tuple(origin),
                    length=piece_len,
                    name=f"{self.name}.p{i}" if self.name else f"p{i}",
                )
            )
        return pieces

    def widthwise_strips(self, num_strips: int) -> list["Segment"]:
        """Split the segment into side-by-side strips of equal width.

        The paper notes that partial-inductance formulas "do not consider
        skin effect, hence very wide conductors must be split into narrower
        lines before computing inductance"; this performs that split.
        """
        if num_strips < 1:
            raise ValueError(f"num_strips must be >= 1, got {num_strips}")
        if num_strips == 1:
            return [self]
        strip_width = self.width / num_strips
        axis = self.direction.axis
        # Width lies along: y for X-segments, x for Y-segments, x for Z.
        width_axis = 1 if axis == 0 else 0
        strips = []
        for i in range(num_strips):
            origin = list(self.origin)
            origin[width_axis] += i * strip_width
            strips.append(
                replace(
                    self,
                    origin=tuple(origin),
                    width=strip_width,
                    name=f"{self.name}.s{i}" if self.name else f"s{i}",
                )
            )
        return strips
