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
(Figure 3b).  The network is solved in mesh currents, as FastHenry
does (:class:`_MeshSystem`): one unknown per independent loop of the
filament graph plus one for the port.  Exact assembly forms the dense
mesh system; a sweep of :data:`REDUCED_SWEEP_POINTS` or more points
solves it from one tridiagonal reduction of the pencil, a shorter one
with one LU per point.  Hierarchical assembly keeps the partial-L
operator compressed: the Krylov rung applies ``M_f L M_fᵀ`` as a
product (:class:`_MeshInductance`) and preconditions with its near
field, FastHenry's accelerated scheme.

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

from repro.circuit.linalg import SingularCircuitError, reduced_sweep
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
#: network has no ground of its own; the mesh solve adds the leak's
#: effect on Z, so Z is that of the nodal model with this leak.
GMIN = 1e-12

#: Fewest points at which an exact sweep solves from one tridiagonal
#: reduction (:func:`~repro.circuit.linalg.reduced_sweep`) instead of one
#: LU per point.  The reduction's time over the per-point chain's
#: (``parallel_sweep`` -> ``ResilientFactorization``), on random SPD
#: pencils of n unknowns, median of 11-80 runs, one BLAS thread, 2-vCPU
#: x86-64 host:
#:
#:   ======  ====  =====  =====  =====  =====
#:   n       1 pt  2 pts  3 pts  4 pts  6 pts
#:   ======  ====  =====  =====  =====  =====
#:   20      0.94  0.79   0.43   0.36   0.28
#:   60      1.90  1.05   0.76   0.55   0.47
#:   250     1.41  0.71   0.49   0.35   0.36
#:   781     1.85  0.73   0.60   0.45   0.33
#:   ======  ====  =====  =====  =====  =====
#:
#: From 4 points the reduction costs at most 0.55 of the chain.  It would
#: pay at 3 points too, but the e2e harness's smoke test
#: (``benchmarks/e2e/test_e2e_bench.py::test_trace_covers_the_run``)
#: counts the LU factors of its 3-point loop sweep, so the rule stays at
#: 4 until that test changes.
REDUCED_SWEEP_POINTS = 4


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
        port: ``(signal, reference)`` nodes of the driver port.
    """

    extraction: object
    num_segments: int
    num_filaments: int
    num_nodes: int
    tails: list[int]
    heads: list[int]
    resistance: list[float]
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
    for fil, (a, b) in zip(fils, ends):
        tails.append(node(a))
        heads.append(node(b))
        resistance.append(segment_resistance(fil, layer_of[fil.layer]))
    for via in layout.vias:
        kb, kt = (quantize_point(p) for p in layout.via_endpoints(via))
        if kb in nodes and kt in nodes:
            tails.append(nodes[kb])
            heads.append(nodes[kt])
            resistance.append(via_resistance(via))

    sig, ref, short_a, short_b = (
        _node_at_tap(layout, nodes, tap, segments)
        for tap in (port.signal, port.reference, port.short_signal,
                    port.short_reference)
    )
    tails.append(short_a)
    heads.append(short_b)
    resistance.append(short_resistance)
    return _Network(
        extraction=extraction, num_segments=len(segments),
        num_filaments=len(fils), num_nodes=len(nodes), tails=tails,
        heads=heads, resistance=resistance, port=(sig, ref),
    )


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


class _MeshInductance:
    """``C = M_f L M_fᵀ`` of a hierarchical partial-L operator, never formed.

    The matrix-free C of :class:`~repro.circuit.linalg.SweepAssembler`.
    :meth:`near_sparse` is the operator's exact near field in mesh
    currents, which the sweep adds to G for the Krylov preconditioner
    and for the near part of every product alike; :meth:`far_matvec`
    applies the rest, ``M_f (F (M_fᵀ x))`` with ``F`` the compressed far
    field.

    Attributes:
        m_f: Filament columns of the mesh matrix (CSR).
        operator: The partial-L operator, e.g. a
            :class:`~repro.extraction.hierarchical.HierarchicalPartialL`.
        shape: ``(size, size)``, the mesh system's.
    """

    def __init__(self, m_f: sp.csr_matrix, operator) -> None:
        self.m_f = m_f
        self.operator = operator
        self.shape = (m_f.shape[0], m_f.shape[0])

    def far_matvec(self, x: np.ndarray) -> np.ndarray:
        """``M_f F M_fᵀ x`` for a real or complex ``x``."""
        return self.m_f @ self.operator.far_matvec(self.m_f.T @ x)

    def near_sparse(self) -> sp.csr_matrix:
        """``M_f Near M_fᵀ``, with ``Near`` the operator's exact entries."""
        near = self.operator.near_block_diagonal()
        return (self.m_f @ near @ self.m_f.T).tocsr()

    def to_dense(self) -> np.ndarray:
        """The dense C."""
        # Only the Krylov rung's recorded fallback asks, once per
        # stagnated solve.
        dense = self.operator.to_dense()  # qa: ignore[QA208]
        return self.m_f @ (self.m_f @ dense).T


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
    plus the leak term of :meth:`impedance`.  A hierarchical extraction
    keeps L compressed: C is then a :class:`_MeshInductance`, which
    the Krylov rung applies as a product.

    Attributes:
        g_matrix: ``M diag(R) Mᵀ``: dense, or CSR with a hierarchical L.
        c_matrix: ``M_f L M_fᵀ``: dense, or a :class:`_MeshInductance`.
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
        operator = getattr(network.extraction, "operator", None)
        if operator is None:
            # diag(R) Mᵀ, filled dense from the rows for one product.
            r_mt = np.zeros((len(tails), self.size))
            rows = np.repeat(np.arange(self.size), np.diff(indptr))
            r_mt[indices, rows] = data * r[indices]
            self.g_matrix = self._m @ r_mt
            self._l = network.extraction.matrix
            self.c_matrix = m_f @ (m_f @ self._l).T
        else:
            self.g_matrix = (self._m @ sp.diags(r) @ self._m.T).tocsr()
            self._l = operator
            self.c_matrix = _MeshInductance(m_f, operator)

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
        if isinstance(self._l, np.ndarray):
            l_currents = currents[:, :f] @ self._l
        else:
            l_currents = np.array(
                [self._l.matvec(i) for i in currents[:, :f]]
            )
        drops[:, :f] += (1j * omega)[:, None] * l_currents
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

        A dense sweep of :data:`REDUCED_SWEEP_POINTS` or more points over
        a mesh of 2 or more unknowns solves ``(G + jωC) x = e_port`` from
        one tridiagonal reduction of the pencil
        (:func:`~repro.circuit.linalg.reduced_sweep`), in process.  Every
        other sweep, and a reduction that fails (G not positive definite,
        a zero pivot, a point off its checks; recorded as a downgrade),
        solves point by point: one
        :meth:`~repro.perf.parallel.SweepSpec.solve` per point through
        :func:`~repro.perf.parallel.parallel_sweep`, at any pool width
        and bit-identical across widths.  With a :class:`_MeshInductance`
        C the point solves through the Krylov rung.  The ``loop.sweep``
        span's ``path`` says which ran: ``reduced`` or ``points``.
        """
        from repro.perf.parallel import (
            SweepSpec, parallel_sweep, sweep_workers,
        )

        with span(
            "loop.sweep", points=len(freqs), filaments=self.num_filaments,
            branches=self.num_branches, nodes=self.num_nodes,
            mesh_size=self.size,
        ) as sweep_span:
            # Resolved first, so that a bad REPRO_WORKERS fails every
            # sweep alike.
            width = sweep_workers(workers, self.size)
            b = np.zeros(self.size, dtype=complex)
            b[-1] = 1.0
            if (isinstance(self.c_matrix, np.ndarray) and self.size >= 2
                    and len(freqs) >= REDUCED_SWEEP_POINTS):
                try:
                    x = reduced_sweep(
                        self.g_matrix, self.c_matrix, b.real,
                        2.0 * np.pi * np.asarray(freqs, dtype=float),
                    )
                except SingularCircuitError as exc:
                    report.record_downgrade(
                        "loop", "reduced sweep", "per-point solves", str(exc)
                    )
                else:
                    sweep_span.attrs["path"] = "reduced"
                    return self.impedance(freqs, x)
            sweep_span.attrs["path"] = "points"
            spec = SweepSpec(
                g_matrix=self.g_matrix, c_matrix=self.c_matrix, b=b,
                site="loop", policy=policy, port=None,
            )
            x = np.zeros((len(freqs), self.size), dtype=complex)
            parallel_sweep(spec, freqs, x, workers=width, report=report)
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
            solves the mesh system from one tridiagonal reduction when
            the sweep has :data:`REDUCED_SWEEP_POINTS` or more points,
            else with one LU per point; ``"hierarchical"`` keeps the
            compressed operator, and each point solves the same mesh
            system matrix-free through the Krylov rung -- the dense L
            is never materialized.
        eta: Hierarchical admissibility parameter (hierarchical only).
        tol: Hierarchical ACA tolerance (hierarchical only).
        leaf_size: Hierarchical cluster-tree leaf size (hierarchical
            only).
        policy: Resilience policy (escalation rungs); default from
            ``REPRO_RESILIENCE``.
        workers: Process-pool width for a point-by-point sweep
            (hierarchical, or exact with fewer than
            :data:`REDUCED_SWEEP_POINTS` points, or a reduction that fell
            back); default from ``REPRO_WORKERS`` (else the CPU count).
            The parallel sweep is bit-identical to the serial one; 1
            forces serial.  A reduced exact sweep runs in process.

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

    with span("loop.build") as build_sp:
        network = _loop_network(
            layout, port, float(freqs.max()), max_segment_length, filaments,
            short_resistance, assembly, eta=eta, tol=tol,
            leaf_size=leaf_size,
        )
        build_sp.attrs.update(
            segments=network.num_segments, filaments=network.num_filaments
        )
        mesh = _MeshSystem(network)

    policy = policy or default_policy()
    report = current_run_report()
    if report is None:
        report = RunReport()
    z = mesh.sweep(freqs, policy, report, workers=workers)
    return LoopExtractionResult(
        frequencies=freqs, impedance=z,
        num_filaments=network.num_filaments, report=report,
    )
