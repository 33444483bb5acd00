"""Layout -> PEEC circuit compilation.

The central constructor of the detailed model (paper Figure 2):

* every in-plane metal segment becomes an RLC-pi section -- series
  resistance + partial self inductance between its end nodes, half its
  grounded capacitance at each end;
* partial mutual inductances couple all parallel segments (optionally
  filtered through a Section-4 :class:`~repro.sparsify.base.Sparsifier`);
* coupling capacitance connects adjacent parallel lines;
* vias become resistances between layers.

Device decap, switching activity, and package attachments are separate
composable passes (:mod:`repro.peec.decap`, :mod:`~repro.peec.activity`,
:mod:`~repro.peec.package`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import GROUND, Circuit
from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.partial_matrix import (
    PartialInductanceResult,
    extract_partial_inductance,
)
from repro.extraction.resistance import segment_resistance, via_resistance
from repro.geometry.clocktree import TapPoint
from repro.geometry.layout import Layout, quantize_point
from repro.geometry.segment import Direction, Segment
from repro.obs.trace import Span, span
from repro.sparsify.base import (
    DenseInductance,
    InductanceBlocks,
    Sparsifier,
    traced_apply,
)


@dataclass
class PEECOptions:
    """Knobs of the PEEC compilation.

    Attributes:
        include_inductance: ``True`` builds the RLC model; ``False`` the RC
            model (the paper's "PEEC (RC)" baseline in Table 1).
        sparsifier: Section-4 strategy for the mutual-inductance structure;
            ``None`` keeps the full dense matrix (detailed PEEC).
        include_coupling_caps: Extract coupling capacitance between
            adjacent lines.
        capacitance: Capacitance model parameters.
        max_segment_length: Split segments longer than this into series
            pi-sections before extraction [m]; ``None`` keeps the
            generator's segmentation.
        max_strip_width: Split conductors wider than this into parallel
            strips before inductance extraction [m] -- the paper's "very
            wide conductors must be split into narrower lines before
            computing inductance", which lets high-frequency current crowd
            toward a wide line's edges.  ``None`` disables.
        mutual_min_coupling: Mutual terms with coupling coefficient below
            this are not even extracted (pure noise floor; distinct from
            Section-4 sparsification, which operates on physically
            meaningful couplings).  0 extracts everything.
        fallback: Degrade gracefully when the requested sparsifier fails
            or produces a non-passive (indefinite) inductance structure:
            fall back to block-diagonal sparsification, then to the dense
            matrix, recording the downgrade in the active
            :class:`~repro.resilience.report.RunReport`.  ``False``
            propagates the failure (pre-resilience behavior).
    """

    include_inductance: bool = True
    sparsifier: Sparsifier | None = None
    include_coupling_caps: bool = True
    capacitance: CapacitanceModel = field(default_factory=CapacitanceModel)
    max_segment_length: float | None = None
    max_strip_width: float | None = None
    mutual_min_coupling: float = 0.0
    fallback: bool = True


class PEECModel:
    """A compiled PEEC circuit plus the geometry-to-circuit bookkeeping.

    Attributes:
        circuit: The simulatable netlist.
        layout: Source layout.
        options: Compilation options used.
        inductance: The raw extraction result (``None`` for RC models).
        node_info: node name -> (net, layer) for attachment passes.
    """

    def __init__(
        self,
        circuit: Circuit,
        layout: Layout,
        options: PEECOptions,
        inductance: PartialInductanceResult | None,
        node_by_point: dict[tuple[int, int, int], str],
        node_info: dict[str, tuple[str, str]],
        terminals: dict[str, list[tuple[tuple[float, float, float], str]]],
    ) -> None:
        self.circuit = circuit
        self.layout = layout
        self.options = options
        self.inductance = inductance
        self._node_by_point = node_by_point
        self.node_info = node_info
        self._terminals = terminals

    def node_at_point(self, point: tuple[float, float, float]) -> str:
        """Circuit node at an exact geometric point (raises if absent)."""
        key = quantize_point(point)
        try:
            return self._node_by_point[key]
        except KeyError:
            raise KeyError(
                f"no circuit node at {point}; use node_at() for nearest-"
                "terminal lookup"
            ) from None

    def node_at(self, tap: TapPoint, tolerance: float = 1e-6) -> str:
        """Circuit node nearest to a tap point on the tap's net.

        Args:
            tap: Where a device wants to attach.
            tolerance: Maximum acceptable distance [m]; generator-produced
                taps coincide exactly with terminals.
        """
        layer = self.layout.layer(tap.layer)
        target = (tap.x, tap.y, layer.z_center)
        candidates = self._terminals.get(tap.net)
        if not candidates:
            raise KeyError(f"net {tap.net!r} has no terminals in this model")
        best_point, best_node = min(
            candidates, key=lambda pn: math.dist(pn[0], target)
        )
        if math.dist(best_point, target) > tolerance:
            raise ValueError(
                f"nearest terminal of net {tap.net!r} is "
                f"{math.dist(best_point, target):.3e} m from tap "
                f"{tap.name!r}; exceeds tolerance {tolerance:.1e}"
            )
        return best_node

    def pad_nodes(self) -> dict[str, tuple[str, str]]:
        """pad name -> (circuit node, net) for every pad in the layout.

        Useful for exposing pads as reduction ports and attaching the
        package model from a host circuit.
        """
        out: dict[str, tuple[str, str]] = {}
        for pad in self.layout.pads:
            layers = sorted(
                (self.layout.layer(lay).index, lay)
                for _, (net, lay) in self.node_info.items()
                if net == pad.net
            )
            if not layers:
                raise KeyError(f"net {pad.net!r} has no nodes in the model")
            top_layer = layers[-1][1]
            node = self.node_at(
                TapPoint(pad.net, pad.x, pad.y, top_layer, pad.name)
            )
            out[pad.name] = (node, pad.net)
        return out

    def nodes_of_net(self, net: str, layer: str | None = None) -> list[str]:
        """All circuit nodes belonging to a net (optionally one layer)."""
        return sorted(
            node
            for node, (n, lay) in self.node_info.items()
            if n == net and (layer is None or lay == layer)
        )

    def stats(self) -> dict[str, int]:
        """Circuit composition (Table-1 columns)."""
        return self.circuit.stats()


def _split_segments(
    layout: Layout,
    max_length: float | None,
    max_width: float | None = None,
) -> list[tuple[Segment, tuple, tuple]]:
    """Refine segments; returns (segment, terminal A, terminal B) triples.

    Axial pieces keep their own endpoints.  Width-split strips are bonded
    at their *parent piece's* endpoints (the strips of one wire are a
    single electrical conductor, exactly like the loop extractor's
    filaments), so connectivity with abutting segments and vias survives.
    """
    out: list[tuple[Segment, tuple, tuple]] = []
    for seg in layout.segments:
        if max_length is None or seg.length <= max_length:
            pieces = [seg]
        else:
            pieces = seg.split(max(1, int(math.ceil(seg.length / max_length))))
        for piece in pieces:
            a, b = piece.endpoints()
            if max_width is not None and seg.direction != Direction.Z:
                strips = max(1, int(math.ceil(piece.width / max_width)))
            else:
                strips = 1
            if strips == 1:
                out.append((piece, a, b))
            else:
                for strip in piece.widthwise_strips(strips):
                    out.append((strip, a, b))
    return out


def build_peec_model(layout: Layout, options: PEECOptions | None = None) -> PEECModel:
    """Compile a layout into a PEEC circuit.

    Args:
        layout: The interconnect layout (validated or generator-produced).
        options: Compilation options; defaults to the full detailed RLC
            model with dense mutual inductance.

    Returns:
        The compiled model.
    """
    options = options or PEECOptions()
    with span(
        "peec.assembly",
        layout=layout.name,
        segments=len(layout.segments),
        inductance=options.include_inductance,
    ) as sp:
        return _build_peec_model(layout, options, sp)


def _build_peec_model(
    layout: Layout, options: PEECOptions, sp: Span
) -> PEECModel:
    circuit = Circuit(name=f"peec:{layout.name}")

    segments = _split_segments(
        layout, options.max_segment_length, options.max_strip_width
    )

    node_by_point: dict[tuple[int, int, int], str] = {}
    node_info: dict[str, tuple[str, str]] = {}
    terminals: dict[str, list[tuple[tuple[float, float, float], str]]] = {}
    registered: set[tuple[str, tuple[int, int, int]]] = set()

    def node_for(point: tuple[float, float, float], net: str, layer: str) -> str:
        key = quantize_point(point)
        name = node_by_point.get(key)
        if name is None:
            name = f"n{len(node_by_point)}"
            node_by_point[key] = name
            node_info[name] = (net, layer)
        # A point shared by two nets (abutting segments) must be findable
        # through either net's tap lookup.
        if (net, key) not in registered:
            registered.add((net, key))
            terminals.setdefault(net, []).append((point, name))
        return name

    # -- segment branches -----------------------------------------------
    branch_nodes: list[tuple[str, str]] = []
    inplane: list[Segment] = []
    for seg, a, b in segments:
        if seg.direction == Direction.Z:
            continue
        na = node_for(a, seg.net, seg.layer)
        nb = node_for(b, seg.net, seg.layer)
        inplane.append(seg)
        branch_nodes.append((na, nb))

    layer_of = {layer.name: layer for layer in layout.layers}
    if options.include_inductance:
        extraction = extract_partial_inductance(inplane)
        if options.mutual_min_coupling > 0.0:
            matrix = extraction.matrix
            diag = np.sqrt(np.diagonal(matrix))
            rel = np.abs(matrix) / np.outer(diag, diag)
            drop = rel < options.mutual_min_coupling
            np.fill_diagonal(drop, False)
            matrix[drop] = 0.0
        sparsifier = options.sparsifier or DenseInductance()
        if options.fallback:
            from repro.resilience.degrade import sparsify_with_fallback

            blocks, _ = sparsify_with_fallback(extraction, sparsifier)
        else:
            blocks = traced_apply(sparsifier, extraction)
        _stamp_rl(circuit, inplane, branch_nodes, blocks, layer_of)
    else:
        extraction = None
        for k, seg in enumerate(inplane):
            na, nb = branch_nodes[k]
            circuit.add_resistor(
                f"R_{seg.name}", na, nb,
                segment_resistance(seg, layer_of[seg.layer]),
            )

    # -- grounded capacitance (half at each end of every segment) ----------
    cap_at_node: dict[str, float] = {}
    for k, seg in enumerate(inplane):
        c_total = options.capacitance.segment_ground_capacitance(seg, layout)
        na, nb = branch_nodes[k]
        cap_at_node[na] = cap_at_node.get(na, 0.0) + c_total / 2.0
        cap_at_node[nb] = cap_at_node.get(nb, 0.0) + c_total / 2.0
    for node, cap in sorted(cap_at_node.items()):
        circuit.add_capacitor(f"Cg_{node}", node, GROUND, cap)

    # -- coupling capacitance ----------------------------------------------
    coupling = (
        options.capacitance.coupling_pairs(inplane)
        if options.include_coupling_caps else []
    )
    sp.attrs["coupling_pairs"] = len(coupling)
    if coupling:
        pair_caps: dict[tuple[str, str], float] = {}
        for i, j, c in coupling:
            ends_i = branch_nodes[i]
            ends_j = branch_nodes[j]
            # Pair nearest ends: start-with-start when spans are aligned.
            si, sj = inplane[i], inplane[j]
            if abs(si.axis_start - sj.axis_start) <= abs(si.axis_start - sj.axis_end):
                pairs = [(ends_i[0], ends_j[0]), (ends_i[1], ends_j[1])]
            else:
                pairs = [(ends_i[0], ends_j[1]), (ends_i[1], ends_j[0])]
            for na, nb in pairs:
                if na == nb:
                    continue
                key = (na, nb) if na < nb else (nb, na)
                pair_caps[key] = pair_caps.get(key, 0.0) + c / 2.0
        for (na, nb), cap in sorted(pair_caps.items()):
            circuit.add_capacitor(f"Cc_{na}_{nb}", na, nb, cap)

    # -- vias -------------------------------------------------------------------
    for via in layout.vias:
        bottom, top = layout.via_endpoints(via)
        kb = quantize_point(bottom)
        kt = quantize_point(top)
        if kb not in node_by_point or kt not in node_by_point:
            raise ValueError(
                f"via {via.name} does not land on segment terminals; run "
                "layout.validate() to diagnose"
            )
        circuit.add_resistor(
            f"Rv_{via.name}",
            node_by_point[kb],
            node_by_point[kt],
            via_resistance(via),
        )

    return PEECModel(
        circuit=circuit,
        layout=layout,
        options=options,
        inductance=extraction,
        node_by_point=node_by_point,
        node_info=node_info,
        terminals=terminals,
    )


def _stamp_rl(
    circuit: Circuit,
    inplane: list[Segment],
    branch_nodes: list[tuple[str, str]],
    blocks: InductanceBlocks,
    layer_of: dict,
) -> None:
    """Emit R + L(set) series branches for every segment."""
    for k, seg in enumerate(inplane):
        na, _ = branch_nodes[k]
        mid = circuit.node(f"m{k}")
        circuit.add_resistor(
            f"R_{seg.name}", na, mid,
            segment_resistance(seg, layer_of[seg.layer]),
        )
    for b, (indices, matrix) in enumerate(blocks.blocks):
        branches = tuple(
            (f"m{k}", branch_nodes[k][1]) for k in indices
        )
        if blocks.kind == "L":
            circuit.add_inductor_set(f"Lp{b}", branches, matrix)
        else:
            circuit.add_k_set(f"Kp{b}", branches, matrix)
