"""Operator-backed MNA matrices (matrix-free solve tier).

When a circuit carries an :class:`~repro.circuit.elements.
OperatorInductorSet` — a partial-inductance block represented by a
compressed operator such as :class:`repro.extraction.hierarchical.
HierarchicalPartialL` — the C matrix of ``G x + C dx/dt = b`` can no
longer be a plain array without densifying the block and losing the
O(N log N) storage the hierarchical engine bought.  This module provides
the composite that keeps it matrix-free:

* :class:`OperatorStampedMatrix` — the sparse COO stamps (capacitors,
  scalar/dense inductor entries, macromodel C blocks) plus a list of
  ``(offset, operator)`` diagonal blocks, exposing ``matvec`` (complex
  safe), ``to_dense`` for validation, and ``near_sparse`` — the sparse
  stamps plus each operator's exact near-field block diagonal, which is
  the ``splu``-able preconditioner seed for the Krylov rung in
  :mod:`repro.circuit.linalg`.

The composite is deliberately dumb about *solving*: it only knows how to
apply itself.  :class:`repro.circuit.linalg.OperatorSystem` wraps it
together with G and a frequency/step scaling into the object the
resilient factorization chain consumes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["OperatorStampedMatrix"]


class OperatorStampedMatrix:
    """Sparse stamps + operator diagonal blocks, applied without densify.

    Attributes:
        sparse: CSR matrix with every stamped (non-operator) C entry.
        blocks: ``[(offset, operator)]`` square diagonal blocks; each
            operator exposes ``shape``, ``matvec``, ``to_dense``, and
            ``near_block_diagonal``.
    """

    def __init__(self, sparse: sp.spmatrix, blocks: list[tuple[int, object]]):
        self.sparse = sparse.tocsr()
        self.blocks = list(blocks)
        self.shape = self.sparse.shape
        n = self.shape[0]
        for off, op in self.blocks:
            m = op.shape[0]
            if off < 0 or off + m > n:
                raise ValueError(
                    f"operator block [{off}:{off + m}] falls outside the "
                    f"{n}x{n} system"
                )

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(float)

    @property
    def nnz(self) -> int:
        """Sparse-entry count plus the operators' *effective* entries."""
        total = int(self.sparse.nnz)
        for _, op in self.blocks:
            # 8 bytes/float: memory_bytes is the honest size of the block.
            total += int(getattr(op, "memory_bytes", 0)) // 8
        return total

    @property
    def memory_bytes(self) -> int:
        total = int(self.sparse.data.nbytes + self.sparse.indices.nbytes
                    + self.sparse.indptr.nbytes)
        for _, op in self.blocks:
            total += int(getattr(op, "memory_bytes", 0))
        return total

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = C @ x``; complex vectors are split into real/imag parts
        because the compressed operators are real-valued."""
        x = np.asarray(x)
        if x.ndim == 2:
            return np.column_stack(
                [self.matvec(x[:, j]) for j in range(x.shape[1])]
            )
        if np.iscomplexobj(x):
            return self.matvec(x.real) + 1j * self.matvec(x.imag)
        x = np.asarray(x, dtype=float)
        y = self.sparse @ x
        for off, op in self.blocks:
            m = op.shape[0]
            y[off:off + m] += op.matvec(x[off:off + m])
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def near_sparse(self) -> sp.csr_matrix:
        """Sparse stamps + exact near-field block diagonals.

        A symmetric sparse surrogate of the full C: exact wherever the
        operators' strongest couplings live, zero in the compressed far
        field.  ``splu`` of ``G + scale * near_sparse()`` is the Krylov
        preconditioner.
        """
        mat = self.sparse.tocoo(copy=True)
        parts = [mat]
        for off, op in self.blocks:
            near = op.near_block_diagonal().tocoo()
            parts.append(
                sp.coo_matrix(
                    (near.data, (near.row + off, near.col + off)),
                    shape=self.shape,
                )
            )
        rows = np.concatenate([p.row for p in parts])
        cols = np.concatenate([p.col for p in parts])
        vals = np.concatenate([p.data for p in parts])
        return sp.coo_matrix((vals, (rows, cols)), shape=self.shape).tocsr()

    def to_dense(self) -> np.ndarray:
        """Materialize the full C (validation / dense-fallback paths)."""
        out = self.sparse.toarray()
        for off, op in self.blocks:
            m = op.shape[0]
            out[off:off + m, off:off + m] += op.to_dense()
        return out

    def __repr__(self) -> str:
        return (
            f"OperatorStampedMatrix(shape={self.shape}, "
            f"sparse_nnz={self.sparse.nnz}, blocks={len(self.blocks)})"
        )
