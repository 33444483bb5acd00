"""Linear circuit elements.

Nodes are referenced by name; ``"0"`` (:data:`repro.circuit.netlist.GROUND`)
is the global reference.  Inductance comes in three flavors matching the
paper's modeling options:

* :class:`SelfInductor` + :class:`MutualInductor` -- scalar elements for
  small hand-built circuits (the loop model's netlists).
* :class:`InductorSet` -- a block of branches sharing one dense partial-
  inductance matrix: the natural container for a PEEC extraction result.
* :class:`KInductorSet` -- the same block expressed through K = L^-1, the
  "new circuit element K" of Devgan et al. (paper Section 4); requires the
  special simulator support implemented in :mod:`repro.circuit.transient`
  and :mod:`repro.circuit.ac`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Waveform = Callable[[float], float]


@dataclass(frozen=True)
class Resistor:
    """Two-terminal linear resistor [ohm]."""

    name: str
    n1: str
    n2: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: R must be > 0, got {self.resistance}")


@dataclass(frozen=True)
class Capacitor:
    """Two-terminal linear capacitor [F]."""

    name: str
    n1: str
    n2: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name}: C must be > 0, got {self.capacitance}")


@dataclass(frozen=True)
class SelfInductor:
    """Two-terminal inductor [H]; current flows n1 -> n2 internally."""

    name: str
    n1: str
    n2: str
    inductance: float

    def __post_init__(self) -> None:
        if self.inductance <= 0:
            raise ValueError(f"inductor {self.name}: L must be > 0, got {self.inductance}")


@dataclass(frozen=True)
class MutualInductor:
    """Mutual coupling between two :class:`SelfInductor` elements.

    ``mutual`` is the mutual inductance M [H] (not the coupling
    coefficient); its sign follows the inductors' n1 -> n2 orientations.
    """

    name: str
    inductor1: str
    inductor2: str
    mutual: float


@dataclass(frozen=True)
class InductorSet:
    """A block of inductive branches with a dense inductance matrix.

    Attributes:
        name: Block name.
        branches: (n1, n2) node pairs, one per branch; branch current flows
            n1 -> n2.
        matrix: Symmetric positive-definite inductance matrix [H], shape
            (len(branches), len(branches)).
    """

    name: str
    branches: tuple[tuple[str, str], ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.branches), len(self.branches)):
            raise ValueError(
                f"inductor set {self.name}: matrix shape {m.shape} does not "
                f"match {len(self.branches)} branches"
            )
        if not np.allclose(m, m.T, rtol=1e-9, atol=0.0):
            raise ValueError(f"inductor set {self.name}: matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return len(self.branches)

    def num_mutuals(self) -> int:
        """Nonzero off-diagonal couplings in the upper triangle."""
        return int(np.count_nonzero(np.triu(self.matrix, k=1)))


@dataclass(frozen=True)
class OperatorInductorSet:
    """A block of inductive branches backed by a matrix-free operator.

    The operator stands in for the dense inductance matrix of an
    :class:`InductorSet` — typically a
    :class:`repro.extraction.hierarchical.HierarchicalPartialL` — and is
    consumed through ``matvec`` by the Krylov solve tier so grid-scale
    blocks are never densified.  ``operator.to_dense()`` remains available
    for validation paths that explicitly request a dense matrix.

    Attributes:
        name: Block name.
        branches: (n1, n2) node pairs, one per branch; branch current flows
            n1 -> n2.
        operator: Object exposing ``shape`` (square, matching the branch
            count), ``matvec(x)``, ``to_dense()``, ``diag`` (the
            self-inductance diagonal [H]), and ``near_block_diagonal()``
            (sparse exact near field, the Krylov preconditioner seed).
    """

    name: str
    branches: tuple[tuple[str, str], ...]
    operator: object

    def __post_init__(self) -> None:
        op = self.operator
        for attr in ("shape", "matvec", "to_dense", "diag",
                     "near_block_diagonal"):
            if not hasattr(op, attr):
                raise ValueError(
                    f"operator inductor set {self.name}: operator lacks "
                    f"required attribute {attr!r}"
                )
        n = len(self.branches)
        if tuple(op.shape) != (n, n):
            raise ValueError(
                f"operator inductor set {self.name}: operator shape "
                f"{tuple(op.shape)} does not match {n} branches"
            )

    @property
    def size(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class KInductorSet:
    """A block of inductive branches described by K = L^-1 [1/H].

    The branch equation is d(i)/dt = K * v, so sparsifying K (which is
    diagonally dominant and local, like the capacitance matrix) keeps the
    system passive -- the advantage Devgan et al. introduced it for.
    """

    name: str
    branches: tuple[tuple[str, str], ...]
    kmatrix: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.kmatrix, dtype=float)
        if k.shape != (len(self.branches), len(self.branches)):
            raise ValueError(
                f"K set {self.name}: matrix shape {k.shape} does not match "
                f"{len(self.branches)} branches"
            )
        if not np.allclose(k, k.T, rtol=1e-9, atol=0.0):
            raise ValueError(f"K set {self.name}: matrix must be symmetric")
        object.__setattr__(self, "kmatrix", k)

    @property
    def size(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class StateSpaceElement:
    """A passive multiport macromodel in impedance form.

    Realizes the reduced-order models of :mod:`repro.mor` as a circuit
    element, so a PRIMA-reduced interconnect block can be "combined with
    the gate models and simulated in SPICE" (paper Section 4).  The
    internal equations are::

        c_red * dz/dt + g_red * z = b_red * i_port
        v_port = b_red^T * z

    where ``i_port[j]`` is the current flowing from ``ports[j][0]`` through
    the macromodel to ``ports[j][1]``.  When (g_red, c_red) come from a
    PRIMA congruence projection of a passive MNA system, the embedded
    element preserves passivity by construction.

    Attributes:
        name: Element name.
        ports: (n_plus, n_minus) node pairs, one per port.
        g_red: Reduced conductance-like matrix, shape (q, q).
        c_red: Reduced storage-like matrix, shape (q, q).
        b_red: Reduced input/output map, shape (q, num_ports).
    """

    name: str
    ports: tuple[tuple[str, str], ...]
    g_red: np.ndarray
    c_red: np.ndarray
    b_red: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g_red, dtype=float)
        c = np.asarray(self.c_red, dtype=float)
        b = np.asarray(self.b_red, dtype=float)
        q = g.shape[0]
        if g.shape != (q, q) or c.shape != (q, q):
            raise ValueError(
                f"macromodel {self.name}: g_red/c_red must be square and "
                f"matching, got {g.shape} and {c.shape}"
            )
        if b.shape != (q, len(self.ports)):
            raise ValueError(
                f"macromodel {self.name}: b_red shape {b.shape} does not "
                f"match {q} states x {len(self.ports)} ports"
            )
        object.__setattr__(self, "g_red", g)
        object.__setattr__(self, "c_red", c)
        object.__setattr__(self, "b_red", b)

    @property
    def num_states(self) -> int:
        return self.g_red.shape[0]

    @property
    def num_ports(self) -> int:
        return len(self.ports)


@dataclass(frozen=True)
class VoltageSource:
    """Independent voltage source; ``waveform(t)`` gives v(n_plus) - v(n_minus)."""

    name: str
    n_plus: str
    n_minus: str
    waveform: Waveform


@dataclass(frozen=True)
class CurrentSource:
    """Independent current source; ``waveform(t)`` amperes flow n_plus -> n_minus
    through the source (i.e. the current is *drawn from* n_plus and
    *injected into* n_minus)."""

    name: str
    n_plus: str
    n_minus: str
    waveform: Waveform
