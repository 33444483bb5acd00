"""Modified nodal analysis (MNA) compilation.

Compiles a :class:`~repro.circuit.netlist.Circuit` into the descriptor
system::

    G x + C dx/dt + f(x) = b(t)

with unknowns ``x = [node voltages | L-branch currents | K-branch currents
| V-source currents]`` and the passivity-friendly skew-symmetric coupling
convention (node rows get ``+A i_branch``; branch rows get ``-A^T v``), so
that ``G + G^T >= 0`` and ``C >= 0`` hold for RLC circuits -- exactly the
structure PRIMA's congruence transforms need to preserve passivity.

:meth:`MNASystem.build_matrices` sums every stamp, the dense
partial-inductance blocks included, into CSR and keeps it when
:func:`~repro.circuit.linalg.sparse_pays`, else hands back dense
copies: the one format every analysis reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.circuit import linalg
from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class _DeviceBinding:
    """A nonlinear device with its nodes resolved to global indices (-1 = ground)."""

    device: object
    indices: tuple[int, ...]


class MNASystem:
    """Compiled MNA representation of a circuit.

    Attributes:
        circuit: The source netlist.
        n: Node-voltage unknowns.
        m_l: Inductor branch currents (scalar inductors first, then sets in
            declaration order).
        m_k: K-set branch currents.
        p: Voltage-source branch currents.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.n = circuit.num_nodes
        self.m_l = circuit.num_inductor_branches - sum(
            s.size for s in circuit.k_sets
        )
        self.m_k = sum(s.size for s in circuit.k_sets)
        self.m_ss = sum(
            mm.num_states + mm.num_ports for mm in circuit.macromodels
        )
        self.p = len(circuit.vsources)
        self.size = self.n + self.m_l + self.m_k + self.m_ss + self.p

        self._l_offset = self.n
        self._k_offset = self.n + self.m_l
        self._ss_offset = self.n + self.m_l + self.m_k
        self._v_offset = self._ss_offset + self.m_ss

        self._branch_index: dict[str, int] = {}
        self._build_branch_index()
        self._devices = [
            _DeviceBinding(
                device=dev,
                indices=tuple(circuit.node_index(node) for node in dev.nodes),
            )
            for dev in circuit.devices
        ]
        self._matrices: tuple | None = None

    # -- indexing ------------------------------------------------------------

    def _build_branch_index(self) -> None:
        k = self._l_offset
        for ind in self.circuit.inductors:
            self._branch_index[ind.name] = k
            k += 1
        for lset in self.circuit.inductor_sets:
            for j in range(lset.size):
                self._branch_index[f"{lset.name}[{j}]"] = k
                k += 1
        for kset in self.circuit.k_sets:
            for j in range(kset.size):
                self._branch_index[f"{kset.name}[{j}]"] = k
                k += 1
        for mm in self.circuit.macromodels:
            for j in range(mm.num_states):
                self._branch_index[f"{mm.name}.z{j}"] = k
                k += 1
            for j in range(mm.num_ports):
                self._branch_index[f"{mm.name}.p{j}"] = k
                k += 1
        for src in self.circuit.vsources:
            self._branch_index[src.name] = k
            k += 1

    def node_index(self, name: str) -> int:
        """Global unknown index of a node voltage (-1 for ground)."""
        return self.circuit.node_index(name)

    def branch_index(self, name: str) -> int:
        """Global unknown index of a branch current.

        Scalar inductors and voltage sources are addressed by element name;
        set branches by ``"setname[k]"``.
        """
        try:
            return self._branch_index[name]
        except KeyError:
            raise KeyError(f"unknown branch {name!r}") from None

    @property
    def has_devices(self) -> bool:
        """True when nonlinear devices are present."""
        return bool(self._devices)

    # -- matrix assembly -------------------------------------------------------

    def _stamp_entries(self):
        """COO triplets for G and C, plus the dense L blocks.

        Returns:
            (g_rows, g_cols, g_vals, c_rows, c_cols, c_vals, dense_blocks)
            where dense_blocks is [(offset, matrix)] to add into C.
        """
        circuit = self.circuit
        gr: list[int] = []
        gc: list[int] = []
        gv: list[float] = []
        cr: list[int] = []
        cc: list[int] = []
        cv: list[float] = []

        def stamp_g(i: int, j: int, val: float) -> None:
            if i >= 0 and j >= 0:
                gr.append(i)
                gc.append(j)
                gv.append(val)

        def stamp_c(i: int, j: int, val: float) -> None:
            if i >= 0 and j >= 0:
                cr.append(i)
                cc.append(j)
                cv.append(val)

        ni = circuit.node_index
        for r in circuit.resistors:
            g = 1.0 / r.resistance
            a, b = ni(r.n1), ni(r.n2)
            stamp_g(a, a, g)
            stamp_g(b, b, g)
            stamp_g(a, b, -g)
            stamp_g(b, a, -g)
        for c in circuit.capacitors:
            a, b = ni(c.n1), ni(c.n2)
            stamp_c(a, a, c.capacitance)
            stamp_c(b, b, c.capacitance)
            stamp_c(a, b, -c.capacitance)
            stamp_c(b, a, -c.capacitance)

        def stamp_branch(row: int, n1: int, n2: int) -> None:
            """Skew incidence: KCL gets +i at n1, -i at n2; branch row gets
            -(v1 - v2)."""
            if n1 >= 0:
                stamp_g(n1, row, 1.0)
                stamp_g(row, n1, -1.0)
            if n2 >= 0:
                stamp_g(n2, row, -1.0)
                stamp_g(row, n2, 1.0)

        dense_blocks: list[tuple[int, np.ndarray]] = []
        k = self._l_offset
        # Scalar inductors (+ pairwise mutuals) form one implicit block.
        scalar_pos = {}
        for ind in circuit.inductors:
            scalar_pos[ind.name] = k
            stamp_branch(k, ni(ind.n1), ni(ind.n2))
            stamp_c(k, k, ind.inductance)
            k += 1
        for mut in circuit.mutuals:
            i = scalar_pos[mut.inductor1]
            j = scalar_pos[mut.inductor2]
            stamp_c(i, j, mut.mutual)
            stamp_c(j, i, mut.mutual)
        for lset in circuit.inductor_sets:
            for j, (a, b) in enumerate(lset.branches):
                stamp_branch(k + j, ni(a), ni(b))
            dense_blocks.append((k, lset.matrix))
            k += lset.size
        for kset in circuit.k_sets:
            # Branch rows: d i/dt - K (v1 - v2) = 0.
            for j in range(kset.size):
                stamp_c(k + j, k + j, 1.0)
            for j, (a, b) in enumerate(kset.branches):
                ia, ib = ni(a), ni(b)
                # KCL gets the branch currents.
                if ia >= 0:
                    stamp_g(ia, k + j, 1.0)
                if ib >= 0:
                    stamp_g(ib, k + j, -1.0)
                # Branch row r couples to all branch voltages via K[r, j].
                for r in range(kset.size):
                    kval = kset.kmatrix[r, j]
                    if kval == 0.0:
                        continue
                    if ia >= 0:
                        stamp_g(k + r, ia, -kval)
                    if ib >= 0:
                        stamp_g(k + r, ib, kval)
            k += kset.size
        for mm in circuit.macromodels:
            z0 = k
            p0 = k + mm.num_states
            # State rows: c_red dz/dt + g_red z - b_red i_port = 0.
            q = mm.num_states
            for r in range(q):
                for s in range(q):
                    if mm.g_red[r, s] != 0.0:
                        stamp_g(z0 + r, z0 + s, mm.g_red[r, s])
                    if mm.c_red[r, s] != 0.0:
                        stamp_c(z0 + r, z0 + s, mm.c_red[r, s])
                for j in range(mm.num_ports):
                    if mm.b_red[r, j] != 0.0:
                        stamp_g(z0 + r, p0 + j, -mm.b_red[r, j])
            # Port rows: -(v+ - v-) + b_red^T z = 0; KCL gets port currents.
            for j, (a, b_node) in enumerate(mm.ports):
                ia, ib = ni(a), ni(b_node)
                if ia >= 0:
                    stamp_g(ia, p0 + j, 1.0)
                    stamp_g(p0 + j, ia, -1.0)
                if ib >= 0:
                    stamp_g(ib, p0 + j, -1.0)
                    stamp_g(p0 + j, ib, 1.0)
                for r in range(q):
                    if mm.b_red[r, j] != 0.0:
                        stamp_g(p0 + j, z0 + r, mm.b_red[r, j])
            k = p0 + mm.num_ports
        for src in circuit.vsources:
            stamp_branch(k, ni(src.n_plus), ni(src.n_minus))
            k += 1
        return gr, gc, gv, cr, cc, cv, dense_blocks

    def build_matrices(self) -> tuple:
        """Assemble (G, C) in the format that multiplies and factors them.

        Every stamp, dense inductance blocks included, is summed into CSR
        in stamp order from 0.0 -- the order of a dense accumulation --
        and exact zeros are dropped.  The CSR pair comes back when
        :func:`~repro.circuit.linalg.sparse_pays`, its ``toarray()``
        copies otherwise.  Built once per system.

        Returns:
            (G, C) matrices of shape (size, size).
        """
        if self._matrices is None:
            gr, gc, gv, cr, cc, cv, dense_blocks = self._stamp_entries()
            c_parts = [(cr, cc, cv)]
            for off, block in dense_blocks:
                rows, cols = np.nonzero(block)
                c_parts.append((rows + off, cols + off, block[rows, cols]))
            g = self._summed_csr(gr, gc, gv)
            c = self._summed_csr(*(np.concatenate(p) for p in zip(*c_parts)))
            nnz = g.nnz + c.nnz
            sparse = linalg.sparse_pays(g, c)
            if not sparse:
                g, c = g.toarray(), c.toarray()
            self._matrices = (g, c)
            self._record_matrix_metrics(nnz, sparse)
        return self._matrices

    def _summed_csr(self, rows, cols, vals) -> sp.csr_matrix:
        """CSR of COO triplets, duplicates summed in triplet order."""
        n = self.size
        keys = np.asarray(rows, dtype=np.int64) * n + np.asarray(
            cols, dtype=np.int64
        )
        # The stable sort keeps each key's values in triplet order, and
        # bincount adds them in that order, from 0.0.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        data = np.bincount(
            np.cumsum(first) - 1, weights=np.asarray(vals, dtype=float)[order]
        )
        keys = keys[first]
        keep = data != 0.0
        keys, data = keys[keep], data[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return sp.csr_matrix((data, keys % n, indptr), shape=(n, n))

    def _record_matrix_metrics(self, nnz: int, sparse: bool) -> None:
        """Publish MNA size / nnz / density gauges (paper Table 1)."""
        from repro.obs import metrics as obs_metrics

        size = self.size
        obs_metrics.gauge("mna.size").set(size)
        obs_metrics.gauge("mna.nnz").set(nnz)
        obs_metrics.gauge("mna.density").set(
            nnz / (2.0 * size * size) if size else 0.0
        )
        obs_metrics.gauge("mna.sparse").set(1.0 if sparse else 0.0)

    # -- right-hand side ---------------------------------------------------------

    def rhs(self, t: float) -> np.ndarray:
        """Source vector b(t)."""
        b = np.zeros(self.size)
        ni = self.circuit.node_index
        for src in self.circuit.isources:
            current = src.waveform(t)
            a, c = ni(src.n_plus), ni(src.n_minus)
            if a >= 0:
                b[a] -= current
            if c >= 0:
                b[c] += current
        for src in self.circuit.vsources:
            row = self._branch_index[src.name]
            b[row] = -src.waveform(t)
        return b

    # -- nonlinear devices ---------------------------------------------------------

    def eval_devices(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Device current vector f(x) and dense Jacobian contribution.

        Returns:
            (f, J): f has shape (size,); J is (size, size) dense or None
            when the circuit has no devices.  Device currents flow *out of*
            nodes, entering the KCL rows with positive sign.
        """
        if not self._devices:
            return np.zeros(self.size), None
        f, triplets = self.eval_devices_triplets(x)
        rows, cols, vals = triplets
        jac = np.zeros((self.size, self.size))
        np.add.at(jac, (rows, cols), vals)
        return f, jac

    def eval_devices_triplets(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Device currents f(x) and the Jacobian as COO triplets.

        The sparse companion of :meth:`eval_devices`: the Jacobian is
        returned as ``(rows, cols, vals)`` int/float arrays (duplicates
        allowed, summed on assembly) so sparse Newton steps never allocate
        an n x n array for a handful of device stamps.
        """
        f = np.zeros(self.size)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for binding in self._devices:
            local_v = np.array(
                [x[i] if i >= 0 else 0.0 for i in binding.indices]
            )
            i_dev, j_dev = binding.device.evaluate(local_v)
            for a, ga in enumerate(binding.indices):
                if ga < 0:
                    continue
                f[ga] += i_dev[a]
                for b, gb in enumerate(binding.indices):
                    if gb >= 0:
                        rows.append(ga)
                        cols.append(gb)
                        vals.append(j_dev[a, b])
        return f, (
            np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
            np.asarray(vals, dtype=float),
        )
