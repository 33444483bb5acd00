"""Layout container: nets, segments, vias, pads, and connectivity queries.

A :class:`Layout` aggregates everything the PEEC model builder needs: the
layer stack, the conductor segments of every net, the vias that connect
layers, and the pads where external supply enters the chip.  It also owns
the *node map* -- the quantization of 3-D points into electrical nodes --
which is how geometry becomes a circuit graph.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import networkx as nx
import numpy as np

from repro.geometry.pairs import BLOCK, SegmentTable
from repro.geometry.segment import Direction, Layer, Segment

#: Quantization grid for node identification [m].  Points closer than this
#: are considered electrically identical.
NODE_GRID = 1e-10


def quantize_point(point: tuple[float, float, float]) -> tuple[int, int, int]:
    """Map a 3-D point to its integer node-grid key."""
    return tuple(int(round(c / NODE_GRID)) for c in point)


class NetKind(Enum):
    """Electrical role of a net; drives PEEC modeling decisions."""

    SIGNAL = "signal"
    POWER = "power"
    GROUND = "ground"
    SHIELD = "shield"

    @property
    def is_supply(self) -> bool:
        """True for nets that serve as current-return infrastructure."""
        return self in (NetKind.POWER, NetKind.GROUND, NetKind.SHIELD)


@dataclass(frozen=True)
class Net:
    """A named electrical net."""

    name: str
    kind: NetKind


@dataclass(frozen=True)
class Via:
    """A vertical connection between two layers.

    The paper's PEEC model treats vias as pure resistances ("Via resistances
    between adjacent metal layers"); inductance of short vias is negligible
    compared to the in-plane wiring.
    """

    net: str
    x: float
    y: float
    layer_bottom: str
    layer_top: str
    width: float
    name: str = ""


@dataclass(frozen=True)
class Pad:
    """A supply pad on the top routing layer.

    External power/ground reaches the chip through pads; each pad carries the
    package lead + bump parasitics modeled in :mod:`repro.peec.package`.
    """

    net: str
    x: float
    y: float
    name: str = ""


class Layout:
    """A complete interconnect layout.

    Args:
        layers: Metal stack, ordered bottom to top.
        name: Optional human-readable layout name.
    """

    def __init__(self, layers: list[Layer], name: str = "layout") -> None:
        if not layers:
            raise ValueError("layout requires at least one layer")
        self.name = name
        self.layers = list(layers)
        self._layer_by_name = {layer.name: layer for layer in self.layers}
        if len(self._layer_by_name) != len(self.layers):
            raise ValueError("duplicate layer names in stack")
        self.nets: dict[str, Net] = {}
        self.segments: list[Segment] = []
        self.vias: list[Via] = []
        self.pads: list[Pad] = []
        self._auto_index = 0

    # -- construction ------------------------------------------------------

    def add_net(self, name: str, kind: NetKind) -> Net:
        """Register a net; idempotent when the kind matches."""
        existing = self.nets.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"net {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {kind}"
                )
            return existing
        net = Net(name=name, kind=kind)
        self.nets[name] = net
        return net

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        try:
            return self._layer_by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown layer {name!r}; stack has {sorted(self._layer_by_name)}"
            ) from None

    def add_segment(self, segment: Segment) -> Segment:
        """Add a conductor segment, auto-naming it if unnamed."""
        if segment.net not in self.nets:
            raise ValueError(f"segment references unregistered net {segment.net!r}")
        if segment.layer not in self._layer_by_name:
            raise ValueError(f"segment references unknown layer {segment.layer!r}")
        if not segment.name:
            segment = Segment(
                net=segment.net,
                layer=segment.layer,
                direction=segment.direction,
                origin=segment.origin,
                length=segment.length,
                width=segment.width,
                thickness=segment.thickness,
                name=f"seg{self._auto_index}",
            )
        self._auto_index += 1
        self.segments.append(segment)
        return segment

    def add_wire(
        self,
        net: str,
        layer: str,
        direction: Direction,
        start: tuple[float, float],
        length: float,
        width: float,
        breakpoints: Iterable[float] = (),
        name: str = "",
    ) -> list[Segment]:
        """Add an in-plane wire, split at the given axial ``breakpoints``.

        Args:
            net: Net name (must be registered).
            layer: Layer name; the wire sits at the layer's z extent.
            direction: X or Y.
            start: (x, y) of the wire origin corner.
            length: Wire length along ``direction`` [m].
            width: Wire width [m].
            breakpoints: Absolute axial coordinates at which the wire must be
                cut so vias/taps land on segment endpoints.
            name: Base name; pieces get ``.0``, ``.1`` ... suffixes.

        Returns:
            The created segments, in axial order.
        """
        if direction == Direction.Z:
            raise ValueError("add_wire is for in-plane wires; use add_via")
        layer_obj = self.layer(layer)
        axis_start = start[direction.axis]
        axis_end = axis_start + length
        cuts = sorted(
            {axis_start, axis_end}
            | {b for b in breakpoints if axis_start < b < axis_end}
        )
        segments = []
        base = name or f"{net}_w{self._auto_index}"
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            if direction == Direction.X:
                origin = (lo, start[1], layer_obj.z_bottom)
            else:
                origin = (start[0], lo, layer_obj.z_bottom)
            segments.append(
                self.add_segment(
                    Segment(
                        net=net,
                        layer=layer,
                        direction=direction,
                        origin=origin,
                        length=hi - lo,
                        width=width,
                        thickness=layer_obj.thickness,
                        name=f"{base}.{i}",
                    )
                )
            )
        return segments

    def add_via(
        self,
        net: str,
        x: float,
        y: float,
        layer_bottom: str,
        layer_top: str,
        width: float,
        name: str = "",
    ) -> Via:
        """Add a via connecting two layers at (x, y)."""
        if net not in self.nets:
            raise ValueError(f"via references unregistered net {net!r}")
        bottom = self.layer(layer_bottom)
        top = self.layer(layer_top)
        if bottom.index >= top.index:
            raise ValueError(
                f"layer_bottom {layer_bottom!r} must be below layer_top {layer_top!r}"
            )
        via = Via(
            net=net,
            x=x,
            y=y,
            layer_bottom=layer_bottom,
            layer_top=layer_top,
            width=width,
            name=name or f"via{len(self.vias)}",
        )
        self.vias.append(via)
        return via

    def add_pad(self, net: str, x: float, y: float, name: str = "") -> Pad:
        """Add a supply pad at (x, y) on the top layer."""
        if net not in self.nets:
            raise ValueError(f"pad references unregistered net {net!r}")
        pad = Pad(net=net, x=x, y=y, name=name or f"pad{len(self.pads)}")
        self.pads.append(pad)
        return pad

    # -- queries -------------------------------------------------------------

    def segments_of(self, net: str) -> list[Segment]:
        """All segments belonging to ``net``."""
        return [s for s in self.segments if s.net == net]

    def supply_segments(self) -> list[Segment]:
        """Segments of power/ground/shield nets."""
        return [s for s in self.segments if self.nets[s.net].kind.is_supply]

    def signal_segments(self) -> list[Segment]:
        """Segments of signal nets."""
        return [s for s in self.segments if self.nets[s.net].kind == NetKind.SIGNAL]

    def bounding_box(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Axis-aligned bounding box over all segments."""
        if not self.segments:
            raise ValueError("layout has no segments")
        los = [min(s.origin[a] for s in self.segments) for a in range(3)]
        his = [max(s.end[a] for s in self.segments) for a in range(3)]
        return (tuple(los), tuple(his))

    # -- connectivity ---------------------------------------------------------

    def via_endpoints(self, via: Via) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """3-D points where a via meets its bottom and top layers."""
        bottom = self.layer(via.layer_bottom)
        top = self.layer(via.layer_top)
        return (
            (via.x, via.y, bottom.z_center),
            (via.x, via.y, top.z_center),
        )

    def connectivity_graph(self) -> nx.Graph:
        """Electrical connectivity graph: quantized points as nodes.

        Segment terminals and via endpoints become graph nodes; each segment
        and via contributes an edge.  Used to validate that generated
        layouts are internally connected per net.
        """
        graph = nx.Graph()
        for seg in self.segments:
            a, b = seg.endpoints()
            graph.add_edge(quantize_point(a), quantize_point(b),
                           kind="segment", name=seg.name, net=seg.net)
        for via in self.vias:
            a, b = self.via_endpoints(via)
            graph.add_edge(quantize_point(a), quantize_point(b),
                           kind="via", name=via.name, net=via.net)
        return graph

    def net_is_connected(self, net: str) -> bool:
        """True when all segments/vias of ``net`` form one connected piece."""
        graph = nx.Graph()
        for seg in self.segments_of(net):
            a, b = seg.endpoints()
            graph.add_edge(quantize_point(a), quantize_point(b))
        for via in self.vias:
            if via.net == net:
                a, b = self.via_endpoints(via)
                graph.add_edge(quantize_point(a), quantize_point(b))
        if graph.number_of_nodes() == 0:
            return False
        return nx.is_connected(graph)

    def find_overlaps(self, net: str | None = None) -> list[tuple[str, str]]:
        """Pairs of segments from *different* nets whose bodies overlap.

        Physical overlap between distinct nets is a layout bug (a short in
        real silicon, and a source of pathological extraction values
        here).  ``net`` restricts the check to pairs involving that net.

        Returns:
            (segment name, segment name) pairs, empty when clean.
        """
        table = SegmentTable.from_segments(self.segments)
        names = [s.name for s in self.segments]
        n = len(names)
        if net is None:
            rows = np.arange(n)
        elif net in table.nets:
            rows = np.flatnonzero(table.net == table.nets.index(net))
        else:
            return []
        shrunk = table.hi - 1e-12
        b = np.arange(n)[None, :]
        out: list[tuple[str, str]] = []
        for r0 in range(0, rows.size, BLOCK):
            a = rows[r0:r0 + BLOCK, None]
            hit = table.net[b] != table.net[a]
            if net is None:
                hit &= b > a  # each unordered pair once
            hit &= np.all(
                (table.lo[a] < shrunk[b]) & (table.lo[b] < shrunk[a]), axis=2
            )
            for x, y in zip(*np.nonzero(hit)):
                out.append((names[a[x, 0]], names[y]))
        return out

    def validate(self) -> list[str]:
        """Check structural invariants; returns a list of problem strings.

        An empty list means the layout is well-formed: every via lands on
        wire metal of its own net at both ends, every pad has metal under
        it, and every multi-segment net is connected.
        """
        problems: list[str] = []
        terminal_nets: dict[tuple[int, int, int], set[str]] = defaultdict(set)
        for seg in self.segments:
            for point in seg.endpoints():
                terminal_nets[quantize_point(point)].add(seg.net)
        for via in self.vias:
            for point in self.via_endpoints(via):
                key = quantize_point(point)
                if via.net not in terminal_nets.get(key, set()):
                    problems.append(
                        f"via {via.name} ({via.net}) endpoint {point} does not "
                        f"land on a segment terminal of its net"
                    )
        # Pads must sit on a segment terminal of their net (any layer; the
        # package model attaches wherever supply metal tops out).
        terminal_xy: dict[tuple[int, int], set[str]] = defaultdict(set)
        for seg in self.segments:
            for point in seg.endpoints():
                qx, qy, _ = quantize_point(point)
                terminal_xy[(qx, qy)].add(seg.net)
        for pad in self.pads:
            qx, qy, _ = quantize_point((pad.x, pad.y, 0.0))
            if pad.net not in terminal_xy.get((qx, qy), set()):
                problems.append(
                    f"pad {pad.name} ({pad.net}) at ({pad.x}, {pad.y}) does not "
                    f"coincide with a segment terminal of its net"
                )
        for net in self.nets:
            count = len(self.segments_of(net))
            if count > 1 and not self.net_is_connected(net):
                problems.append(f"net {net!r} is not connected ({count} segments)")
        return problems

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Composition counts used by the Figure-2 style model report."""
        by_kind: dict[str, int] = defaultdict(int)
        for seg in self.segments:
            by_kind[self.nets[seg.net].kind.value] += 1
        return {
            "segments": len(self.segments),
            "vias": len(self.vias),
            "pads": len(self.pads),
            "nets": len(self.nets),
            **{f"segments_{k}": v for k, v in sorted(by_kind.items())},
        }

    def __repr__(self) -> str:
        return (
            f"Layout({self.name!r}, layers={len(self.layers)}, "
            f"nets={len(self.nets)}, segments={len(self.segments)}, "
            f"vias={len(self.vias)}, pads={len(self.pads)})"
        )
