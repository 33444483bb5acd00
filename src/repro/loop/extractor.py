"""FastHenry-style frequency-dependent loop R/L extraction.

"The loop inductance model defines a port at the driver side of the signal
line and shorts the receiver side (which actually sees a capacitive load)
to the local ground, since inductance extraction is performed independent
of capacitance.  Typically, an extraction tool such as FastHenry is used
to obtain the impedance over a frequency range."  (Paper, Section 5.)

The physics: each conductor is subdivided into parallel filaments, each a
resistance in series with its partial self inductance and fully mutually
coupled to every other filament.  Solving the resulting R + jwL network at
each frequency lets current redistribute among filaments, which is exactly
how skin and proximity effects make R rise and L fall with frequency
(Figure 3b).  Exact assembly solves the network in mesh currents, as
FastHenry does (:class:`_MeshSystem`): one unknown per independent loop
of the filament graph plus one for the port.  Hierarchical assembly
stamps the same branch table as an MNA circuit whose compressed
inductance operator the Krylov rung solves matrix-free.  Multipole
acceleration (FastHenry's contribution) only matters at far larger
problem sizes.

Capacitance is deliberately ignored; that omission is the loop model's
central accuracy limitation ("the interconnect and device decoupling
capacitances strongly affect current return paths"), quantified by the
Figure-4/Table-1 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import Circuit
from repro.obs.trace import span
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import RunReport, current_run_report
from repro.extraction.filaments import FilamentGrid, filaments_for_skin_depth
from repro.extraction.partial_matrix import extract_partial_inductance
from repro.extraction.resistance import (
    resistivity_of, segment_resistance, via_resistance,
)
from repro.geometry.clocktree import TapPoint
from repro.geometry.layout import Layout, quantize_point
from repro.geometry.segment import Direction, Segment

#: Leak [S] from every node and filament midpoint to a datum.  The
#: network has no ground of its own: the MNA solve takes its reference
#: from this leak, and the mesh solve adds the leak's effect on Z.
GMIN = 1e-12


@dataclass(frozen=True)
class LoopPort:
    """The two-terminal port of a loop extraction.

    Attributes:
        signal: Tap on the signal net at the driver end.
        reference: Tap on the return (ground) net near the driver.
        short_signal: Tap on the signal net at the receiver end.
        short_reference: Tap on the return net near the receiver; the
            receiver end is shorted here.
    """

    signal: TapPoint
    reference: TapPoint
    short_signal: TapPoint
    short_reference: TapPoint


@dataclass
class LoopExtractionResult:
    """Loop impedance over frequency.

    Attributes:
        frequencies: Sweep frequencies [Hz].
        impedance: Complex loop impedance Z(f) [ohm].
        num_filaments: Total filament branches in the solve.
        report: Resilience log of the sweep (escalated solves and
            supervision events).
    """

    frequencies: np.ndarray
    impedance: np.ndarray
    num_filaments: int
    report: RunReport | None = None

    @property
    def resistance(self) -> np.ndarray:
        """Loop resistance R(f) [ohm]."""
        return np.real(self.impedance)

    @property
    def inductance(self) -> np.ndarray:
        """Loop inductance L(f) [H]; the DC entry (f == 0) is NaN."""
        omega = 2.0 * np.pi * self.frequencies
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                omega > 0.0, np.imag(self.impedance) / omega, np.nan
            )

    def at(self, frequency: float) -> complex:
        """Complex impedance at one frequency.

        Exact stored values are returned at grid points; between points,
        R and X are interpolated linearly.  The sweep grid is sorted
        internally first -- ``np.interp`` silently returns garbage for
        descending or unsorted abscissae, which is exactly what a
        high-to-low sweep produces.
        """
        freqs = np.asarray(self.frequencies, dtype=float)
        order = np.argsort(freqs, kind="stable")
        freqs = freqs[order]
        z = np.asarray(self.impedance)[order]
        i = int(np.searchsorted(freqs, frequency))
        if i < len(freqs) and freqs[i] == frequency:
            return complex(z[i])
        re = np.interp(frequency, freqs, z.real)
        im = np.interp(frequency, freqs, z.imag)
        return complex(re, im)


@dataclass
class _Network:
    """The filament network as one branch table.

    Branches ``0 .. num_filaments - 1`` are the filaments, in the order
    of the partial-L extraction; the vias follow, and the receiver short
    is last.  Nodes are the quantized segment end points, numbered in
    the order first seen.  A branch current flows from its tail to its
    head.

    Attributes:
        extraction: Partial-L result over the filaments (a dense
            ``matrix``, or a hierarchical ``operator``).
        num_segments: In-plane segments the filaments split.
        num_filaments: Filament branches.
        num_nodes: Network nodes.
        tails: Start node of each branch.
        heads: End node of each branch.
        resistance: Branch resistances [ohm].
        names: Branch element names, for the MNA stamp.
        port: ``(signal, reference)`` nodes of the driver port.
    """

    extraction: object
    num_segments: int
    num_filaments: int
    num_nodes: int
    tails: list[int]
    heads: list[int]
    resistance: list[float]
    names: list[str]
    port: tuple[int, int]


def _loop_network(
    layout: Layout,
    port: LoopPort,
    f_max: float,
    max_segment_length: float | None = None,
    filaments: FilamentGrid | str = "auto",
    short_resistance: float = 1e-6,
    assembly: str = "exact",
    eta: float | None = None,
    tol: float | None = None,
    leaf_size: int | None = None,
) -> _Network:
    """Filaments, partial L and branch table of a loop extraction.

    The arguments are :func:`extract_loop_impedance`'s; ``f_max`` is the
    highest sweep frequency, which sizes ``"auto"`` filament grids.  Each
    parent segment's filaments share its end nodes (they are bonded at
    the segment boundaries, the standard FastHenry discretization).
    """
    segments: list[Segment] = []
    for seg in layout.segments:
        if seg.direction == Direction.Z:
            continue
        if max_segment_length is not None and seg.length > max_segment_length:
            segments.extend(seg.split(int(math.ceil(seg.length / max_segment_length))))
        else:
            segments.append(seg)

    layer_of = {layer.name: layer for layer in layout.layers}
    fils: list[Segment] = []
    ends = []
    for seg in segments:
        if isinstance(filaments, FilamentGrid):
            grid = filaments
        else:
            grid = filaments_for_skin_depth(
                seg.width, seg.thickness, f_max,
                resistivity_of(layer_of[seg.layer]), max_per_axis=5,
            )
        bonds = seg.endpoints()
        for fil in grid.split_segment(seg):
            fils.append(fil)
            ends.append(bonds)

    extraction = extract_partial_inductance(
        fils, assembly=assembly, eta=eta, tol=tol, leaf_size=leaf_size
    )

    nodes: dict[tuple[int, int, int], int] = {}

    def node(point: tuple[float, float, float]) -> int:
        return nodes.setdefault(quantize_point(point), len(nodes))

    tails: list[int] = []
    heads: list[int] = []
    resistance: list[float] = []
    names: list[str] = []
    for k, (fil, (a, b)) in enumerate(zip(fils, ends)):
        tails.append(node(a))
        heads.append(node(b))
        resistance.append(segment_resistance(fil, layer_of[fil.layer]))
        names.append(f"R{k}")
    for via in layout.vias:
        kb, kt = (quantize_point(p) for p in layout.via_endpoints(via))
        if kb in nodes and kt in nodes:
            tails.append(nodes[kb])
            heads.append(nodes[kt])
            resistance.append(via_resistance(via))
            names.append(f"Rv_{via.name}")

    sig, ref, short_a, short_b = (
        _node_at_tap(layout, nodes, tap, segments)
        for tap in (port.signal, port.reference, port.short_signal,
                    port.short_reference)
    )
    tails.append(short_a)
    heads.append(short_b)
    resistance.append(short_resistance)
    names.append("Rshort")
    return _Network(
        extraction=extraction, num_segments=len(segments),
        num_filaments=len(fils), num_nodes=len(nodes), tails=tails,
        heads=heads, resistance=resistance, names=names, port=(sig, ref),
    )


def _build_rl_circuit(network: _Network) -> tuple[Circuit, tuple[str, str]]:
    """The branch table as an MNA circuit, and its port node names.

    Each filament becomes its resistor in series with its inductive
    branch, joined at a midpoint node ``m<k>``.  A hierarchical
    extraction is stamped as an
    :class:`~repro.circuit.elements.OperatorInductorSet`, so the sweep
    stays matrix-free end to end (no dense L is ever materialized).
    """
    circuit = Circuit("loop_extraction")
    tails, heads = network.tails, network.heads
    branches = []
    for k in range(network.num_filaments):
        mid = circuit.node(f"m{k}")
        circuit.add_resistor(
            network.names[k], f"n{tails[k]}", mid, network.resistance[k]
        )
        branches.append((mid, f"n{heads[k]}"))
    operator = getattr(network.extraction, "operator", None)
    if operator is not None:
        circuit.add_inductor_operator_set("Lf", tuple(branches), operator)
    else:
        circuit.add_inductor_set(
            "Lf", tuple(branches), network.extraction.matrix
        )
    for e in range(network.num_filaments, len(tails)):
        circuit.add_resistor(
            network.names[e], f"n{tails[e]}", f"n{heads[e]}",
            network.resistance[e],
        )
    sig, ref = network.port
    return circuit, (f"n{sig}", f"n{ref}")


@dataclass
class _Forest:
    """A breadth-first spanning forest of a network's branch graph.

    Per node: ``up`` its parent (-1 at a root), ``via`` the tree branch
    to it, ``sign`` +1 where that branch runs from the node up to the
    parent, ``depth`` and ``comp`` its connected component.  ``in_tree``
    flags the tree branches; every other branch is a link.
    """

    up: list[int]
    via: list[int]
    sign: list[int]
    depth: list[int]
    comp: list[int]
    in_tree: list[bool]
    components: int

    def path(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """Tree branches, and their signs, that carry current from u to v."""
        up, via, sign, depth = self.up, self.via, self.sign, self.depth
        cols, signs = [], []
        while u != v:
            if depth[u] >= depth[v]:
                cols.append(via[u])
                signs.append(sign[u])
                u = up[u]
            else:
                cols.append(via[v])
                signs.append(-sign[v])
                v = up[v]
        return cols, signs


def _forest(network: _Network) -> _Forest:
    """The network's spanning forest, the first branch between each node
    pair in the tree.

    Raises:
        ValueError: If the port taps are one node, or in different
            components (no conductor path joins them).
    """
    tails, heads = network.tails, network.heads
    n = network.num_nodes
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(zip(tails, heads)):
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    up, via, depth, comp = [-1] * n, [-1] * n, [0] * n, [-1] * n
    in_tree = [False] * len(tails)
    components = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = components
        queue = [root]
        for u in queue:
            for w, e in adjacency[u]:
                if comp[w] < 0:
                    comp[w], up[w], via[w] = components, u, e
                    depth[w] = depth[u] + 1
                    in_tree[e] = True
                    queue.append(w)
        components += 1
    sig, ref = network.port
    if sig == ref or comp[sig] != comp[ref]:
        raise ValueError(
            "the port's signal and reference taps must be two nodes of one "
            "connected network; they are "
            + ("the same node" if sig == ref else
               "in different components")
        )
    sign = [1 if via[w] >= 0 and tails[via[w]] == w else -1
            for w in range(n)]
    return _Forest(up, via, sign, depth, comp, in_tree, components)


class _MeshSystem:
    """The branch table in mesh currents: FastHenry's ``M Z Mᵀ I_m = V_s``.

    Every link of the spanning forest closes one mesh: the link itself,
    then the tree path from its head back to its tail, so the parallel
    filaments of one segment give 2-entry meshes.  One more row, the
    port row, is the tree path that carries current from the signal tap
    to the reference tap; a unit voltage source in it drives the
    network.  With ``G = M diag(R) Mᵀ`` and ``C = M_f L M_fᵀ`` (``M_f``
    the filament columns of ``M``) every point solves
    ``(G + jωC) x = e_port``, and the port impedance is ``1 / x_port``
    plus the leak term of :meth:`impedance`.

    Attributes:
        g_matrix: ``M diag(R) Mᵀ``, dense.
        c_matrix: ``M_f L M_fᵀ``, dense.
        size: Mesh unknowns: the links, then the port row.
    """

    def __init__(self, network: _Network) -> None:
        forest = _forest(network)
        tails = network.tails
        indptr, indices, data = [0], [], []
        for e, tree in enumerate(forest.in_tree):
            if not tree:
                cols, signs = forest.path(network.heads[e], tails[e])
                indices.append(e)
                data.append(1)
                indices += cols
                data += signs
                indptr.append(len(indices))
        cols, signs = forest.path(*network.port)
        indices += cols
        data += signs
        indptr.append(len(indices))

        self.size = len(indptr) - 1
        f = network.num_filaments
        r = np.asarray(network.resistance)
        indices = np.asarray(indices)
        data = np.asarray(data, dtype=float)
        self._m = sp.csr_matrix(
            (data, indices, indptr), shape=(self.size, len(tails))
        )
        on_filament = indices < f
        m_f = sp.csr_matrix(
            (data[on_filament], indices[on_filament],
             np.concatenate(([0], np.cumsum(on_filament)))[indptr]),
            shape=(self.size, f),
        )
        # diag(R) Mᵀ, filled dense from the rows for one product.
        r_mt = np.zeros((len(tails), self.size))
        r_mt[indices, np.repeat(np.arange(self.size), np.diff(indptr))] = (
            data * r[indices]
        )
        self.g_matrix = self._m @ r_mt
        self._l = network.extraction.matrix
        self.c_matrix = m_f @ (m_f @ self._l).T

        # What the leak term reads: the tree level by level, and the
        # connected component of every node, then of every midpoint.
        self._r = r
        self._tails = np.asarray(tails[:f])
        up, via = np.asarray(forest.up), np.asarray(forest.via)
        sign, depth = np.asarray(forest.sign), np.asarray(forest.depth)
        order = np.argsort(depth, kind="stable")
        starts = np.searchsorted(depth[order], np.arange(depth.max() + 2))
        self._levels = [
            (w, up[w], via[w], sign[w])
            for w in (order[a:b] for a, b in zip(starts[1:-1], starts[2:]))
        ]
        comp = np.asarray(forest.comp)
        labels = np.concatenate([comp, comp[self._tails]])
        self._members = [np.flatnonzero(labels == c)
                         for c in range(forest.components)]
        self.num_nodes = network.num_nodes
        self.num_branches = len(tails)
        self.num_filaments = f

    def impedance(self, freqs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Port impedance at each point from its mesh solution row.

        The MNA model of the same network leaks :data:`GMIN` from every
        node and filament midpoint to a floating datum.  To first order,
        exact up to O(GMIN²), the leak lowers Z by ``GMIN Σ (v − v̄_c)²``
        (no conjugate), where ``v`` are the node and midpoint potentials
        for a 1 A port current and ``v̄_c`` their mean over each connected
        component: the datum settles where no component loses net
        current, floating components included.
        """
        x_port = x[:, -1]
        currents = (self._m.T @ (x / x_port[:, None]).T).T
        f = self.num_filaments
        drops = currents * self._r
        omega = 2.0 * np.pi * np.asarray(freqs, dtype=float)
        drops[:, :f] += (1j * omega)[:, None] * (currents[:, :f] @ self._l)
        v = np.zeros((len(x), self.num_nodes + f), dtype=complex)
        for w, u, e, s in self._levels:
            v[:, w] = v[:, u] + s * drops[:, e]
        v[:, self.num_nodes:] = (
            v[:, self._tails] - self._r[:f] * currents[:, :f]
        )
        leak = np.zeros(len(x), dtype=complex)
        for members in self._members:
            dv = v[:, members]
            dv = dv - dv.mean(axis=1, keepdims=True)
            leak += (dv * dv).sum(axis=1)
        return 1.0 / x_port - GMIN * leak

    def sweep(
        self,
        freqs: np.ndarray,
        policy: ResiliencePolicy,
        report: RunReport,
        workers: int | None = None,
    ) -> np.ndarray:
        """Loop impedance at every frequency point.

        Each point is one :meth:`~repro.perf.parallel.SweepSpec.solve` of
        ``(G + jωC) x = e_port`` through
        :func:`~repro.perf.parallel.parallel_sweep`, at any pool width
        and bit-identical across widths.
        """
        from repro.perf.parallel import (
            SweepSpec, parallel_sweep, sweep_workers,
        )

        with span(
            "loop.sweep", points=len(freqs), filaments=self.num_filaments,
            branches=self.num_branches, nodes=self.num_nodes,
            mesh_size=self.size,
        ):
            b = np.zeros(self.size, dtype=complex)
            b[-1] = 1.0
            spec = SweepSpec(
                g_matrix=self.g_matrix, c_matrix=self.c_matrix, b=b,
                site="loop", policy=policy, port=None,
            )
            x = np.zeros((len(freqs), self.size), dtype=complex)
            parallel_sweep(
                spec, freqs, x, workers=sweep_workers(workers, self.size),
                report=report,
            )
            return self.impedance(freqs, x)


def _node_at_tap(
    layout: Layout,
    nodes: dict[tuple[int, int, int], int],
    tap: TapPoint,
    segments: list[Segment],
) -> int:
    layer = layout.layer(tap.layer)
    target = (tap.x, tap.y, layer.z_center)
    key = quantize_point(target)
    if key in nodes:
        return nodes[key]
    # Nearest terminal of the tap's net.
    best, best_d = None, math.inf
    for seg in segments:
        if seg.net != tap.net:
            continue
        for point in seg.endpoints():
            d = math.dist(point, target)
            if d < best_d:
                best, best_d = quantize_point(point), d
    if best is None or best not in nodes:
        raise KeyError(f"no node found near tap {tap.name!r} on net {tap.net!r}")
    if best_d > 2e-6:
        raise ValueError(
            f"nearest terminal to tap {tap.name!r} is {best_d:.2e} m away; "
            "check the port definition"
        )
    return nodes[best]


def _sweep_impedance(
    circuit: Circuit,
    freqs: np.ndarray,
    port_nodes: tuple[str, str],
    gmin: float,
    policy: ResiliencePolicy,
    report: RunReport,
    workers: int | None = None,
) -> np.ndarray:
    """Per-frequency impedance sweep of an MNA circuit.

    Functionally identical to :func:`repro.circuit.ac.ac_impedance`, with
    ``gmin`` on every node: the hierarchical extraction's sweep, which
    solves its operator-format system through the Krylov rung.  The
    points run through :func:`repro.perf.parallel.parallel_sweep` at
    every width; results are placed by index, so the impedance array is
    bit-identical to the in-process sweep.
    """
    from repro.circuit.linalg import add_gmin
    from repro.circuit.mna import MNASystem
    from repro.perf.parallel import SweepSpec, parallel_sweep, sweep_workers

    with span(
        "loop.sweep", points=len(freqs),
        filaments=circuit.num_inductor_branches,
    ) as sweep_span:
        system = MNASystem(circuit)
        g_matrix, c_matrix = system.build_matrices()
        g_matrix = add_gmin(g_matrix, system.n, gmin)
        sweep_span.attrs["mna_size"] = system.size
        i_plus = system.node_index(port_nodes[0])
        i_minus = system.node_index(port_nodes[1])
        b = np.zeros(system.size, dtype=complex)
        if i_plus >= 0:
            b[i_plus] += 1.0
        if i_minus >= 0:
            b[i_minus] -= 1.0
        spec = SweepSpec(
            g_matrix=g_matrix,
            c_matrix=c_matrix,
            b=b,
            site="loop",
            policy=policy,
            port=(i_plus, i_minus),
        )
        z = np.zeros(len(freqs), dtype=complex)
        parallel_sweep(
            spec, freqs, z, workers=sweep_workers(workers, system.size),
            report=report,
        )
        return z


def extract_loop_impedance(
    layout: Layout,
    port: LoopPort,
    frequencies,
    max_segment_length: float | None = None,
    filaments: FilamentGrid | str = "auto",
    short_resistance: float = 1e-6,
    assembly: str = "exact",
    eta: float | None = None,
    tol: float | None = None,
    leaf_size: int | None = None,
    policy: ResiliencePolicy | None = None,
    workers: int | None = None,
) -> LoopExtractionResult:
    """Extract loop impedance Z(f) at the driver port (Figure 3b).

    Args:
        layout: Signal + return conductors (capacitance is ignored).
        port: Driver-side port and receiver-side short definition.
        frequencies: Sweep frequencies [Hz].
        max_segment_length: Optional axial re-segmentation before filament
            subdivision (finer segmentation captures non-uniform axial
            current in long structures).
        filaments: ``"auto"`` sizes the cross-section subdivision for the
            highest sweep frequency per layer; or pass an explicit grid.
        short_resistance: Resistance of the receiver-end short [ohm].
        assembly: ``"exact"`` extracts the dense partial-L matrix and
            solves in mesh currents; ``"hierarchical"`` stamps the
            compressed operator and the sweep solves matrix-free through
            the Krylov rung -- the dense L is never materialized.
        eta: Hierarchical admissibility parameter (hierarchical only).
        tol: Hierarchical ACA tolerance (hierarchical only).
        leaf_size: Hierarchical cluster-tree leaf size (hierarchical
            only).
        policy: Resilience policy (escalation rungs); default from
            ``REPRO_RESILIENCE``.
        workers: Process-pool width for the frequency sweep; default
            from ``REPRO_WORKERS`` (else the CPU count).  The parallel
            sweep is bit-identical to the serial one; 1 forces serial.

    Returns:
        The extraction result; ``resistance`` / ``inductance`` give R(f),
        L(f).

    Raises:
        ValueError: If the port's signal and reference taps are not
            joined by conductors (or the receiver short).
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if len(freqs) == 0:
        raise ValueError("frequencies must be non-empty")

    mesh = None
    with span("loop.build") as build_sp:
        network = _loop_network(
            layout, port, float(freqs.max()), max_segment_length, filaments,
            short_resistance, assembly, eta=eta, tol=tol,
            leaf_size=leaf_size,
        )
        build_sp.attrs.update(
            segments=network.num_segments, filaments=network.num_filaments
        )
        if assembly == "exact":
            mesh = _MeshSystem(network)
        else:
            _forest(network)  # raises on a disconnected port
            circuit, port_nodes = _build_rl_circuit(network)

    policy = policy or default_policy()
    report = current_run_report()
    if report is None:
        report = RunReport()
    if mesh is not None:
        z = mesh.sweep(freqs, policy, report, workers=workers)
    else:
        z = _sweep_impedance(
            circuit, freqs, port_nodes, GMIN, policy, report,
            workers=workers,
        )
    return LoopExtractionResult(
        frequencies=freqs, impedance=z,
        num_filaments=network.num_filaments, report=report,
    )
