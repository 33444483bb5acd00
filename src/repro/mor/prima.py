"""PRIMA: Passive Reduced-order Interconnect Macromodeling Algorithm.

Odabasioglu, Celik, Pileggi (paper ref [20]).  Given the MNA descriptor
system ``C dx/dt + G x = B u``, PRIMA builds an orthonormal basis V of the
block Krylov subspace::

    Kr((G + s0 C)^-1 C, (G + s0 C)^-1 B)

and reduces by congruence: ``G~ = V^T G V``, ``C~ = V^T C V``,
``B~ = V^T B``.  Because congruence preserves the definiteness of G and C,
the reduced model is passive, and it matches ``floor(q / p)`` block moments
of the original transfer function at s0.

"Model order reduction algorithms such as PRIMA require matrix-vector
multiplications, which are expensive for the fully-dense matrix of the
PEEC model" -- which is why :mod:`repro.mor.combined` first applies
block-diagonal sparsification before calling this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.circuit.linalg import Factorization
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.circuit.elements import StateSpaceElement
from repro.mor.ports import NodePort, input_matrix, output_matrix
from repro.obs.trace import span


@dataclass
class ReducedOrderModel:
    """A PRIMA-reduced linear system with named inputs and outputs.

    Attributes:
        g_red: Reduced G, shape (q, q).
        c_red: Reduced C, shape (q, q).
        b_red: Reduced input map, shape (q, num inputs).
        l_red: Reduced observation map, shape (q, num outputs).
        input_names: Labels of the input columns.
        output_names: Labels of the observed quantities.
        s0: Expansion point [rad/s].
        projection: The N x q orthonormal basis (kept for diagnostics).
    """

    g_red: np.ndarray
    c_red: np.ndarray
    b_red: np.ndarray
    l_red: np.ndarray
    input_names: list[str]
    output_names: list[str]
    s0: float
    projection: np.ndarray

    @property
    def order(self) -> int:
        """Reduced state dimension q."""
        return self.g_red.shape[0]

    def transfer(self, frequencies) -> np.ndarray:
        """Transfer matrix H(f) = L^T (G + sC)^-1 B, shape (nf, n_out, n_in)."""
        freqs = np.asarray(list(frequencies), dtype=float)
        out = np.zeros((len(freqs), self.l_red.shape[1], self.b_red.shape[1]),
                       dtype=complex)
        for i, f in enumerate(freqs):
            s = 2j * np.pi * f
            x = np.linalg.solve(self.g_red + s * self.c_red, self.b_red)
            out[i] = self.l_red.T @ x
        return out

    def simulate(
        self,
        inputs: dict[str, object],
        t_stop: float,
        dt: float,
        z0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Trapezoidal time integration of the reduced system.

        Args:
            inputs: input name -> waveform callable u(t); missing inputs
                are held at zero.
            t_stop: End time [s].
            dt: Step [s].
            z0: Initial reduced state; ``None`` solves the DC point for the
                t=0 input values.

        Returns:
            (times, outputs): output name -> waveform array.
        """
        unknown = set(inputs) - set(self.input_names)
        if unknown:
            raise KeyError(f"unknown reduced-model inputs: {sorted(unknown)}")
        wave = [inputs.get(name) for name in self.input_names]

        def u_of(t: float) -> np.ndarray:
            return np.array([w(t) if w is not None else 0.0 for w in wave])

        num_steps = int(round(t_stop / dt))
        times = np.arange(num_steps + 1) * dt
        if z0 is None:
            z = np.linalg.lstsq(self.g_red, self.b_red @ u_of(0.0), rcond=None)[0]
        else:
            z = np.asarray(z0, dtype=float).copy()
        y = np.zeros((num_steps + 1, self.l_red.shape[1]))
        y[0] = self.l_red.T @ z
        u_prev = u_of(0.0)
        # Factor the two companion matrices once and back-substitute per
        # step (explicit inverses are both slower and less accurate).
        lu_be = sla.lu_factor(self.c_red / dt + self.g_red)
        lu_tr = sla.lu_factor(2.0 * self.c_red / dt + self.g_red)
        for k in range(num_steps):
            u_next = u_of(times[k + 1])
            if k < 2:
                z = sla.lu_solve(lu_be, self.c_red @ z / dt + self.b_red @ u_next)
            else:
                rhs = (
                    2.0 / dt * (self.c_red @ z)
                    - self.g_red @ z
                    + self.b_red @ (u_next + u_prev)
                )
                z = sla.lu_solve(lu_tr, rhs)
            y[k + 1] = self.l_red.T @ z
            u_prev = u_next
        return times, {
            name: y[:, j] for j, name in enumerate(self.output_names)
        }

    def observe(self, result, macro_name: str, output_name: str) -> np.ndarray:
        """Reconstruct an observed waveform from a host-circuit simulation.

        After embedding this model via :meth:`to_macromodel`, the host
        transient records the reduced states as branches
        ``"{macro_name}.z{k}"``; any quantity in ``output_names`` (e.g. a
        passive sink's voltage) is ``l_red[:, j]^T z(t)``.

        Args:
            result: A :class:`~repro.circuit.transient.TransientResult`
                from the host simulation.
            macro_name: Name the macromodel was embedded under.
            output_name: One of ``self.output_names``.
        """
        try:
            j = self.output_names.index(output_name)
        except ValueError:
            raise KeyError(
                f"{output_name!r} not among outputs {self.output_names}"
            ) from None
        z = np.stack(
            [result.current(f"{macro_name}.z{k}") for k in range(self.order)],
            axis=1,
        )
        return z @ self.l_red[:, j]

    def to_macromodel(self, name: str, ports: list[NodePort]) -> StateSpaceElement:
        """Package as a circuit element for co-simulation with gate models.

        Only valid when the reduction was driven purely by
        :class:`NodePort` inputs; ``ports`` re-binds those inputs (in
        order) to nodes of the *host* circuit.
        """
        if len(ports) != self.b_red.shape[1]:
            raise ValueError(
                f"{self.b_red.shape[1]} reduction inputs but {len(ports)} "
                "host ports"
            )
        return StateSpaceElement(
            name=name,
            ports=tuple((p.n_plus, p.n_minus) for p in ports),
            g_red=self.g_red,
            c_red=self.c_red,
            b_red=self.b_red,
        )


def _block_orthonormalize(
    block: np.ndarray, basis: list[np.ndarray], drop_tol: float
) -> np.ndarray:
    """Orthogonalize a block against the basis (twice) and itself via QR.

    Columns are normalized first so deflation is *relative*: a column is
    dropped only when orthogonalization removes all but ``drop_tol`` of
    it.  (MNA vectors mix volts, amps, and 1e-14-scale capacitor charges,
    so absolute tolerances silently truncate the Krylov recursion.)
    """
    norms = np.linalg.norm(block, axis=0)
    keep = norms > 0.0
    block = block[:, keep] / norms[keep]
    for _ in range(2):  # repeated MGS for numerical orthogonality
        for v in basis:
            block = block - v @ (v.T @ block)
    q, r = np.linalg.qr(block)
    keep = np.abs(np.diagonal(r)) > drop_tol
    return q[:, keep]


def prima_reduce(
    system_or_circuit,
    inputs,
    order: int,
    outputs=(),
    s0_hz: float = 1e9,
    drop_tol: float = 1e-10,
) -> ReducedOrderModel:
    """Reduce an MNA system by PRIMA congruence projection.

    Args:
        system_or_circuit: A linear :class:`Circuit` or compiled
            :class:`MNASystem`.  Independent sources inside the circuit are
            *not* inputs automatically -- list the ports explicitly.
        inputs: Port specs (:class:`NodePort` / :class:`SourcePort`): the
            *active* ports.  The Krylov block size equals ``len(inputs)``,
            which is exactly why the paper excites only active ports.
        order: Target reduced order q (rounded down to whole blocks when
            deflation removes columns).
        outputs: Node/branch names to observe (the passive sinks); defaults
            to none, in which case the inputs are observed (classical
            symmetric macromodel).
        s0_hz: Real expansion point, in Hz (converted to rad/s).
        drop_tol: Relative column deflation tolerance in the block QR.

    Returns:
        The reduced model.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    system = (
        system_or_circuit
        if isinstance(system_or_circuit, MNASystem)
        else MNASystem(system_or_circuit)
    )
    if system.has_devices:
        raise ValueError(
            "PRIMA reduces the *linear* portion; remove nonlinear devices "
            "and re-attach them to the reduced macromodel's ports"
        )
    inputs = list(inputs)
    with span(
        "mor.prima", size=system.size, order=order, ports=len(inputs)
    ) as prima_span:
        return _prima_project(
            system, inputs, order, outputs, s0_hz, drop_tol, prima_span.attrs
        )


def _prima_project(
    system: MNASystem,
    inputs,
    order: int,
    outputs,
    s0_hz: float,
    drop_tol: float,
    attrs: dict,
) -> ReducedOrderModel:
    g_matrix, c_matrix = system.build_matrices()
    b = input_matrix(system, list(inputs))

    s0 = 2.0 * np.pi * s0_hz
    solver = Factorization(g_matrix + s0 * c_matrix)
    attrs.update(
        format="sparse" if sp.issparse(g_matrix) else "dense",
        factor_nnz=solver.nnz,
    )

    def solve_block(m: np.ndarray) -> np.ndarray:
        return np.column_stack([solver.solve(m[:, j]) for j in range(m.shape[1])])

    basis: list[np.ndarray] = []
    block = _block_orthonormalize(solve_block(b), basis, drop_tol)
    total = 0
    while block.shape[1] > 0 and total < order:
        basis.append(block)
        total += block.shape[1]
        if sp.issparse(c_matrix):
            next_block = solve_block(np.asarray(c_matrix @ block))
        else:
            next_block = solve_block(c_matrix @ block)
        block = _block_orthonormalize(next_block, basis, drop_tol)
    v = np.column_stack(basis)[:, :order]

    if sp.issparse(g_matrix):
        g_red = v.T @ np.asarray(g_matrix @ v)
        c_red = v.T @ np.asarray(c_matrix @ v)
    else:
        g_red = v.T @ g_matrix @ v
        c_red = v.T @ c_matrix @ v
    b_red = v.T @ b

    input_names = [
        getattr(p, "name", "") or getattr(p, "source_name", "")
        or f"port{j}"
        for j, p in enumerate(inputs)
    ]
    outputs = list(outputs)
    if outputs:
        l_red = v.T @ output_matrix(system, outputs)
        output_names = outputs
    else:
        l_red = b_red.copy()
        output_names = list(input_names)
    return ReducedOrderModel(
        g_red=g_red,
        c_red=c_red,
        b_red=b_red,
        l_red=l_red,
        input_names=input_names,
        output_names=output_names,
        s0=s0,
        projection=v,
    )
