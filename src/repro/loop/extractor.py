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
(Figure 3b).  We solve the dense system directly -- multipole acceleration
(FastHenry's contribution) only matters at far larger problem sizes.

Capacitance is deliberately ignored; that omission is the loop model's
central accuracy limitation ("the interconnect and device decoupling
capacitances strongly affect current return paths"), quantified by the
Figure-4/Table-1 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuit.linalg import SingularCircuitError
from repro.circuit.netlist import Circuit
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CheckpointConfig,
    finish_checkpoint,
    load_checkpoint,
    save_checkpoint,
    verify_fingerprint,
)
from repro.resilience.faults import InjectedFault
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import RunReport, activate, current_run_report
from repro.extraction.filaments import FilamentGrid, filaments_for_skin_depth
from repro.extraction.partial_matrix import extract_partial_inductance
from repro.extraction.resistance import resistivity_of, segment_resistance
from repro.geometry.clocktree import TapPoint
from repro.geometry.layout import Layout, quantize_point
from repro.geometry.segment import Direction, Segment


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
        report: Resilience log (retries, checkpoints) when the sweep ran
            through the checkpointed path.
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


def _build_rl_circuit(
    segments: list[Segment],
    layout: Layout,
    grid_for_segment,
    assembly: str = "exact",
    eta: float | None = None,
    tol: float | None = None,
    leaf_size: int | None = None,
) -> tuple[Circuit, dict[tuple[int, int, int], str]]:
    """RL filament circuit over the given segments.

    Each parent segment's filaments share its end nodes (they are bonded at
    the segment boundaries, the standard FastHenry discretization).  With
    ``assembly="hierarchical"`` the filament coupling is stamped as an
    :class:`~repro.circuit.elements.OperatorInductorSet`, so the sweep
    stays matrix-free end to end (no dense L is ever materialized).
    """
    filaments: list[Segment] = []
    fil_parent: list[Segment] = []
    for seg in segments:
        grid: FilamentGrid = grid_for_segment(seg)
        for fil in grid.split_segment(seg):
            filaments.append(fil)
            fil_parent.append(seg)

    extraction = extract_partial_inductance(
        filaments, assembly=assembly, eta=eta, tol=tol, leaf_size=leaf_size
    )

    circuit = Circuit("loop_extraction")
    node_by_point: dict[tuple[int, int, int], str] = {}

    def node_for(point: tuple[float, float, float]) -> str:
        key = quantize_point(point)
        name = node_by_point.get(key)
        if name is None:
            name = f"n{len(node_by_point)}"
            node_by_point[key] = name
        return name

    layer_of = {layer.name: layer for layer in layout.layers}
    branches = []
    for k, fil in enumerate(filaments):
        parent = fil_parent[k]
        a, b = parent.endpoints()  # bond filaments at parent terminals
        na = node_for(a)
        mid = circuit.node(f"m{k}")
        circuit.add_resistor(
            f"R{k}", na, mid, segment_resistance(fil, layer_of[fil.layer])
        )
        branches.append((mid, node_for(b)))
    operator = getattr(extraction, "operator", None)
    if operator is not None:
        circuit.add_inductor_operator_set("Lf", tuple(branches), operator)
    else:
        circuit.add_inductor_set("Lf", tuple(branches), extraction.matrix)

    for via in layout.vias:
        bottom, top = layout.via_endpoints(via)
        kb, kt = quantize_point(bottom), quantize_point(top)
        if kb in node_by_point and kt in node_by_point:
            from repro.extraction.resistance import via_resistance

            circuit.add_resistor(
                f"Rv_{via.name}", node_by_point[kb], node_by_point[kt],
                via_resistance(via),
            )
    return circuit, node_by_point


def _node_at_tap(
    layout: Layout,
    node_by_point: dict[tuple[int, int, int], str],
    tap: TapPoint,
    segments: list[Segment],
) -> str:
    layer = layout.layer(tap.layer)
    target = (tap.x, tap.y, layer.z_center)
    key = quantize_point(target)
    if key in node_by_point:
        return node_by_point[key]
    # Nearest terminal of the tap's net.
    best, best_d = None, math.inf
    for seg in segments:
        if seg.net != tap.net:
            continue
        for point in seg.endpoints():
            d = math.dist(point, target)
            if d < best_d:
                best, best_d = quantize_point(point), d
    if best is None or best not in node_by_point:
        raise KeyError(f"no node found near tap {tap.name!r} on net {tap.net!r}")
    if best_d > 2e-6:
        raise ValueError(
            f"nearest terminal to tap {tap.name!r} is {best_d:.2e} m away; "
            "check the port definition"
        )
    return node_by_point[best]


def _sweep_impedance(
    circuit: Circuit,
    freqs: np.ndarray,
    port_nodes: tuple[str, str],
    gmin: float,
    policy: ResiliencePolicy,
    checkpoint: CheckpointConfig | None,
    report: RunReport,
    workers: int | None = None,
) -> np.ndarray:
    """Per-frequency impedance sweep with retries and checkpointing.

    Functionally identical to :func:`repro.circuit.ac.ac_impedance`, but
    each frequency point is an individually retried unit of work
    (``"loop.freq"`` fault site) and completed points are periodically
    snapshotted, so a killed sweep resumes instead of restarting.

    A dense system first has its series nodes -- the filament midpoints
    that put each R in series with its L -- condensed out
    (:meth:`~repro.circuit.mna.MNASystem.series_nodes`,
    :func:`~repro.circuit.linalg.condense`).  Their Schur correction
    does not depend on frequency, so it is formed once and every point
    factors only the remaining unknowns; the ``loop.sweep`` span records
    both sizes (``mna_size``, ``solve_size``).

    With ``workers > 1`` the remaining points fan out over a process
    pool (:mod:`repro.perf.parallel`); results are placed by index so
    the impedance array is bit-identical to the serial sweep, and
    checkpoints are written from completed-chunk results at the same
    ``checkpoint.interval`` granularity.
    """
    from repro.circuit.linalg import (
        ResilientFactorization, SweepAssembler, add_gmin, condense,
    )
    from repro.circuit.mna import MNASystem

    with span(
        "loop.sweep", points=len(freqs),
        filaments=circuit.num_inductor_branches,
    ) as sweep_span:
        system = MNASystem(circuit)
        g_matrix, c_matrix = system.build_matrices()
        g_matrix = add_gmin(g_matrix, system.n, gmin)
        i_plus = system.node_index(port_nodes[0])
        i_minus = system.node_index(port_nodes[1])
        if isinstance(g_matrix, np.ndarray):
            internal = system.series_nodes(exclude=(i_plus, i_minus))
            g_matrix, c_matrix, keep = condense(g_matrix, c_matrix, internal)
            # Ports are never condensed; renumber them into the kept set.
            i_plus, i_minus = (
                int(np.searchsorted(keep, i)) if i >= 0 else -1
                for i in (i_plus, i_minus)
            )
        size = g_matrix.shape[0]
        sweep_span.attrs.update(mna_size=system.size, solve_size=size)
        b = np.zeros(size, dtype=complex)
        if i_plus >= 0:
            b[i_plus] += 1.0
        if i_minus >= 0:
            b[i_minus] -= 1.0

        z = np.zeros(len(freqs), dtype=complex)
        done = np.zeros(len(freqs), dtype=bool)

        fingerprint = {
            "size": int(system.size),
            "num_freqs": int(len(freqs)),
            "f_min": float(freqs.min()),
            "f_max": float(freqs.max()),
            "gmin": float(gmin),
            "port": list(port_nodes),
        }
        if (checkpoint is not None and checkpoint.resume
                and checkpoint.path.exists()):
            snap = load_checkpoint(checkpoint.path)
            verify_fingerprint(
                snap, "loop-sweep", fingerprint, checkpoint.path
            )
            if not np.allclose(snap.arrays["frequencies"], freqs):
                from repro.resilience.checkpoint import CheckpointMismatch

                raise CheckpointMismatch(
                    f"{checkpoint.path}: checkpointed frequency grid differs"
                )
            z = np.asarray(snap.arrays["z"], dtype=complex)
            done = np.asarray(snap.arrays["done"], dtype=bool)
            report.record_resume(
                "loop",
                f"resumed from {checkpoint.path}: "
                f"{int(done.sum())}/{len(freqs)} frequencies already solved",
            )

        def save(reason: str) -> None:
            meta = {
                "fingerprint": fingerprint,
                "reason": reason,
                "args": {"gmin": float(gmin), "port": list(port_nodes)},
            }
            deck = _loop_deck(circuit)
            if deck is not None:
                meta["deck"] = deck
            save_checkpoint(
                checkpoint.path, "loop-sweep", meta,
                {"frequencies": freqs, "z": z, "done": done},
            )
            report.record_checkpoint(
                "loop",
                f"{int(done.sum())}/{len(freqs)} frequencies -> "
                f"{checkpoint.path} ({reason})",
            )

        from repro.perf.parallel import (
            MIN_PARALLEL_SIZE, SweepSpec, explicit_workers, parallel_sweep,
            worker_count,
        )

        num_workers = worker_count(workers)
        if num_workers > 1 and int((~done).sum()) > 1 and (
            explicit_workers(workers) or system.size >= MIN_PARALLEL_SIZE
        ):
            spec = SweepSpec(
                g_matrix=g_matrix,
                c_matrix=c_matrix,
                b=b,
                site="loop",
                retry_site="loop.freq",
                policy=policy,
                port=(i_plus, i_minus),
            )
            since = 0

            def on_chunk(idx: np.ndarray) -> None:
                nonlocal since
                done[idx] = True
                since += len(idx)
                if (
                    checkpoint is not None
                    and since >= checkpoint.interval
                    and not done.all()
                ):
                    save("periodic")
                    since = 0

            with activate(report):
                try:
                    parallel_sweep(
                        spec, freqs, z,
                        indices=np.nonzero(~done)[0],
                        workers=num_workers,
                        chunk=(checkpoint.interval
                               if checkpoint is not None else None),
                        report=report,
                        on_chunk=on_chunk,
                    )
                except (SingularCircuitError, InjectedFault):
                    if checkpoint is not None:
                        save("emergency: parallel sweep failed")
                    raise
            finish_checkpoint(checkpoint)
            return z

        since_checkpoint = 0
        # Union pattern (or operator system) assembled once up front; each
        # frequency point only writes a fresh data vector / builds a thin
        # OperatorSystem around the shared preconditioner pattern.
        assembler = SweepAssembler(g_matrix, c_matrix)
        with activate(report):
            for i, f in enumerate(freqs):
                if done[i]:
                    continue
                omega = 2.0 * np.pi * f
                a_matrix = assembler.at_omega(omega)
                retries = 0
                while True:
                    try:
                        faults.maybe_fail("loop.freq")
                        x = ResilientFactorization(
                            a_matrix, site="loop", policy=policy
                        ).solve(b)
                        break
                    except (SingularCircuitError, InjectedFault) as exc:
                        if retries < policy.max_retries:
                            retries += 1
                            report.record_retry(
                                "loop",
                                f"f = {f:.4g} Hz: retry "
                                f"{retries}/{policy.max_retries}: {exc}",
                            )
                            continue
                        if checkpoint is not None:
                            save(f"emergency: f = {f:.4g} Hz failed")
                        raise
                vp = x[i_plus] if i_plus >= 0 else 0.0
                vm = x[i_minus] if i_minus >= 0 else 0.0
                z[i] = vp - vm
                done[i] = True
                since_checkpoint += 1
                if (
                    checkpoint is not None
                    and since_checkpoint >= checkpoint.interval
                    and not done.all()
                ):
                    save("periodic")
                    since_checkpoint = 0

        finish_checkpoint(checkpoint)
        return z


def _loop_deck(circuit: Circuit) -> str | None:
    """SPICE text of the sweep circuit, for CLI resume; None if too big."""
    import io

    from repro.io.spice import write_spice

    out = io.StringIO()
    try:
        write_spice(circuit, out)
    except ValueError:
        return None
    text = out.getvalue()
    if len(text) > 8_000_000:
        return None
    return text


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
    checkpoint: CheckpointConfig | None = None,
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
        assembly: ``"exact"`` stamps the dense partial-L matrix;
            ``"hierarchical"`` stamps the compressed operator and the
            sweep solves matrix-free through the Krylov rung -- the dense
            L is never materialized.
        eta: Hierarchical admissibility parameter (hierarchical only).
        tol: Hierarchical ACA tolerance (hierarchical only).
        leaf_size: Hierarchical cluster-tree leaf size (hierarchical
            only).
        policy: Resilience policy (escalation and per-frequency retry
            budget); default from ``REPRO_RESILIENCE``.
        checkpoint: Periodic snapshotting of completed sweep points; a
            killed sweep resumes from the checkpoint (``repro resume``).
        workers: Process-pool width for the frequency sweep; default
            from ``REPRO_WORKERS`` (else the CPU count).  The parallel
            sweep is bit-identical to the serial one; 1 forces serial.

    Returns:
        The extraction result; ``resistance`` / ``inductance`` give R(f),
        L(f).
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if len(freqs) == 0:
        raise ValueError("frequencies must be non-empty")
    f_max = float(freqs.max())

    segments: list[Segment] = []
    for seg in layout.segments:
        if seg.direction == Direction.Z:
            continue
        if max_segment_length is not None and seg.length > max_segment_length:
            segments.extend(seg.split(int(math.ceil(seg.length / max_segment_length))))
        else:
            segments.append(seg)

    layer_of = {layer.name: layer for layer in layout.layers}

    def grid_for(seg: Segment) -> FilamentGrid:
        if isinstance(filaments, FilamentGrid):
            return filaments
        rho = resistivity_of(layer_of[seg.layer])
        return filaments_for_skin_depth(
            seg.width, seg.thickness, f_max, rho, max_per_axis=5
        )

    with span("loop.build", segments=len(segments)) as build_sp:
        circuit, node_by_point = _build_rl_circuit(
            segments, layout, grid_for,
            assembly=assembly, eta=eta, tol=tol, leaf_size=leaf_size,
        )

        sig_node = _node_at_tap(layout, node_by_point, port.signal, segments)
        ref_node = _node_at_tap(layout, node_by_point, port.reference, segments)
        short_a = _node_at_tap(
            layout, node_by_point, port.short_signal, segments
        )
        short_b = _node_at_tap(
            layout, node_by_point, port.short_reference, segments
        )
        circuit.add_resistor("Rshort", short_a, short_b, short_resistance)
        num_filaments = circuit.num_inductor_branches
        build_sp.attrs["filaments"] = num_filaments

    policy = policy or default_policy()
    report = current_run_report() or RunReport()
    z = _sweep_impedance(
        circuit, freqs, (sig_node, ref_node), 1e-12, policy, checkpoint,
        report, workers=workers,
    )
    return LoopExtractionResult(
        frequencies=freqs, impedance=z, num_filaments=num_filaments,
        report=report,
    )
