"""Circuit container and node management.

A :class:`Circuit` is a flat netlist: named nodes, linear elements,
independent sources, and nonlinear devices.  It is deliberately free of
solver state; analyses (:mod:`repro.circuit.dc`, :mod:`~repro.circuit.ac`,
:mod:`~repro.circuit.transient`) compile it into an :class:`~repro.circuit.
mna.MNASystem` on demand.

The :meth:`Circuit.stats` method reports the element-count columns of the
paper's Table 1 ("Num. of R / Num. of C / Num. of L / # mutuals").
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    InductorSet,
    KInductorSet,
    MutualInductor,
    Resistor,
    SelfInductor,
    StateSpaceElement,
    VoltageSource,
)
from repro.circuit.waveforms import DC

#: The global reference node.
GROUND = "0"


class Circuit:
    """A flat netlist of elements, sources, and devices."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.resistors: list[Resistor] = []
        self.capacitors: list[Capacitor] = []
        self.inductors: list[SelfInductor] = []
        self.mutuals: list[MutualInductor] = []
        self.inductor_sets: list[InductorSet] = []
        self.k_sets: list[KInductorSet] = []
        self.vsources: list[VoltageSource] = []
        self.isources: list[CurrentSource] = []
        self.macromodels: list[StateSpaceElement] = []
        self.devices: list = []
        self._names: set[str] = set()
        self._node_index: dict[str, int] = {}

    # -- node management ------------------------------------------------

    def node(self, name: str) -> str:
        """Register (or re-register) a node name and return it."""
        if name != GROUND and name not in self._node_index:
            self._node_index[name] = len(self._node_index)
        return name

    def node_index(self, name: str) -> int:
        """MNA index of a node; ground is -1."""
        if name == GROUND:
            return -1
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r} in circuit {self.name!r}") from None

    @property
    def num_nodes(self) -> int:
        """Non-ground node count."""
        return len(self._node_index)

    @property
    def node_names(self) -> list[str]:
        """Node names in index order."""
        return sorted(self._node_index, key=self._node_index.__getitem__)

    def _register(self, name: str, nodes: Iterable[str]) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name {name!r}")
        self._names.add(name)
        for n in nodes:
            self.node(n)

    # -- element factories ------------------------------------------------

    def add_resistor(self, name: str, n1: str, n2: str, resistance: float) -> Resistor:
        element = Resistor(name, n1, n2, resistance)
        self._register(name, (n1, n2))
        self.resistors.append(element)
        return element

    def add_capacitor(self, name: str, n1: str, n2: str, capacitance: float) -> Capacitor:
        element = Capacitor(name, n1, n2, capacitance)
        self._register(name, (n1, n2))
        self.capacitors.append(element)
        return element

    def add_inductor(self, name: str, n1: str, n2: str, inductance: float) -> SelfInductor:
        element = SelfInductor(name, n1, n2, inductance)
        self._register(name, (n1, n2))
        self.inductors.append(element)
        return element

    def add_mutual(self, name: str, inductor1: str, inductor2: str, mutual: float) -> MutualInductor:
        known = {ind.name for ind in self.inductors}
        for ref in (inductor1, inductor2):
            if ref not in known:
                raise ValueError(f"mutual {name!r} references unknown inductor {ref!r}")
        if inductor1 == inductor2:
            raise ValueError(f"mutual {name!r} must couple two distinct inductors")
        element = MutualInductor(name, inductor1, inductor2, mutual)
        self._register(name, ())
        self.mutuals.append(element)
        return element

    def add_inductor_set(
        self, name: str, branches: Iterable[tuple[str, str]], matrix: np.ndarray
    ) -> InductorSet:
        element = InductorSet(name, tuple(branches), matrix)
        self._register(name, (n for pair in element.branches for n in pair))
        self.inductor_sets.append(element)
        return element

    def add_k_set(
        self, name: str, branches: Iterable[tuple[str, str]], kmatrix: np.ndarray
    ) -> KInductorSet:
        element = KInductorSet(name, tuple(branches), kmatrix)
        self._register(name, (n for pair in element.branches for n in pair))
        self.k_sets.append(element)
        return element

    def add_vsource(self, name: str, n_plus: str, n_minus: str, waveform) -> VoltageSource:
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        element = VoltageSource(name, n_plus, n_minus, waveform)
        self._register(name, (n_plus, n_minus))
        self.vsources.append(element)
        return element

    def add_isource(self, name: str, n_plus: str, n_minus: str, waveform) -> CurrentSource:
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        element = CurrentSource(name, n_plus, n_minus, waveform)
        self._register(name, (n_plus, n_minus))
        self.isources.append(element)
        return element

    def add_macromodel(
        self,
        name: str,
        ports: Iterable[tuple[str, str]],
        g_red: np.ndarray,
        c_red: np.ndarray,
        b_red: np.ndarray,
    ) -> StateSpaceElement:
        """Embed a reduced-order macromodel (see :mod:`repro.mor`)."""
        element = StateSpaceElement(name, tuple(ports), g_red, c_red, b_red)
        self._register(name, (n for pair in element.ports for n in pair))
        self.macromodels.append(element)
        return element

    def add_device(self, device) -> object:
        """Add a nonlinear device (must expose ``nodes`` and ``evaluate``)."""
        if not hasattr(device, "nodes") or not hasattr(device, "evaluate"):
            raise TypeError(
                f"device {device!r} must expose .nodes and .evaluate(v)"
            )
        self._register(device.name, device.nodes)
        self.devices.append(device)
        return device

    # -- composed conveniences ----------------------------------------------

    def add_series_rl(
        self,
        name: str,
        n1: str,
        n2: str,
        resistance: float,
        inductance: float,
    ) -> tuple[Resistor, SelfInductor]:
        """R in series with L through an internal node ``name+':m'``.

        The standard PEEC branch: every metal segment is a resistance in
        series with its partial self inductance.
        """
        mid = self.node(f"{name}:m")
        r = self.add_resistor(f"{name}:R", n1, mid, resistance)
        l = self.add_inductor(f"{name}:L", mid, n2, inductance)
        return r, l

    # -- reporting -----------------------------------------------------------

    @property
    def num_inductor_branches(self) -> int:
        """Total inductive branches (scalar + set + K-set)."""
        return (
            len(self.inductors)
            + sum(s.size for s in self.inductor_sets)
            + sum(s.size for s in self.k_sets)
        )

    @property
    def num_mutual_terms(self) -> int:
        """Total pairwise mutual couplings (scalar mutuals + set blocks)."""
        return len(self.mutuals) + sum(s.num_mutuals() for s in self.inductor_sets)

    def stats(self) -> dict[str, int]:
        """Element-count summary (Table 1 columns)."""
        return {
            "nodes": self.num_nodes,
            "resistors": len(self.resistors),
            "capacitors": len(self.capacitors),
            "inductors": self.num_inductor_branches,
            "mutuals": self.num_mutual_terms,
            "vsources": len(self.vsources),
            "isources": len(self.isources),
            "macromodels": len(self.macromodels),
            "devices": len(self.devices),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Circuit({self.name!r}, nodes={s['nodes']}, R={s['resistors']}, "
            f"C={s['capacitors']}, L={s['inductors']}, M={s['mutuals']}, "
            f"V={s['vsources']}, I={s['isources']}, dev={s['devices']})"
        )
