"""Electrical rule check (ERC): structural sanity before simulation.

The paper's central warning is that a sparsified inductance matrix "can
become non-positive definite, and the sparsified system becomes active
and can generate energy".  Waiting for the transient to blow up is the
expensive way to find that out; this module is the cheap way.  It walks a
:class:`~repro.circuit.netlist.Circuit` *before* any matrix is factored
and emits structured :class:`~repro.qa.diagnostics.Diagnostic` records
for the classic netlist pathologies:

========================== ======== =============================================
rule id                    severity what it catches
========================== ======== =============================================
erc.dangling-node          warning  node touched by fewer than two terminals
erc.unreachable            error    subgraph with no path to ground
erc.floating-reference     info     nothing touches ground (port-driven circuit)
erc.nonpositive-value      error    R/L/C <= 0 or non-finite element values
erc.vsource-loop           error    loop of ideal voltage sources (singular MNA)
erc.inductor-loop          error    loop/cutset of ideal inductive branches
erc.unknown-inductor       error    mutual referencing a missing self inductor
erc.coupling-unphysical    error    mutual coupling coefficient \\|k\\| >= 1
erc.non-passive-inductance error    inductance / K block not SPD (active model)
========================== ======== =============================================

All rules are pure graph/matrix inspections -- no solves -- so the pass is
linear-ish in circuit size (plus one ``eigvalsh`` per dense inductance
block) and safe to run on every input in a serving path.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.circuit.netlist import GROUND, Circuit
from repro.qa.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.sparsify.stability import spd_margin

#: rule id -> one-line description (the documentation `repro check` prints).
ERC_RULES: dict[str, str] = {
    "erc.dangling-node": "node is touched by fewer than two element terminals",
    "erc.unreachable": "subcircuit has no connection to ground",
    "erc.floating-reference": "no element touches ground at all (circuit is "
                              "driven through external ports)",
    "erc.nonpositive-value": "element value is zero, negative, or non-finite",
    "erc.vsource-loop": "ideal voltage sources form a loop (singular MNA)",
    "erc.inductor-loop": "ideal inductive branches form a loop/cutset "
                         "(singular at DC)",
    "erc.unknown-inductor": "mutual inductor references a missing self "
                            "inductor",
    "erc.coupling-unphysical": "mutual coupling coefficient |k| >= 1",
    "erc.non-passive-inductance": "inductance or K block is not symmetric "
                                  "positive definite",
}


class _UnionFind:
    """Minimal union-find over node names."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        root = item
        while self._parent.setdefault(root, root) != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> bool:
        """Merge the sets of ``a`` and ``b``; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True


def _terminal_edges(circuit: Circuit) -> Iterator[tuple[str, str, str, str]]:
    """Yield (n1, n2, kind, name) for every two-terminal connection."""
    for r in circuit.resistors:
        yield r.n1, r.n2, "R", r.name
    for c in circuit.capacitors:
        yield c.n1, c.n2, "C", c.name
    for ind in circuit.inductors:
        yield ind.n1, ind.n2, "L", ind.name
    for lset in circuit.inductor_sets:
        for j, (a, b) in enumerate(lset.branches):
            yield a, b, "Lset", f"{lset.name}[{j}]"
    for kset in circuit.k_sets:
        for j, (a, b) in enumerate(kset.branches):
            yield a, b, "Kset", f"{kset.name}[{j}]"
    for src in circuit.vsources:
        yield src.n_plus, src.n_minus, "V", src.name
    for src in circuit.isources:
        yield src.n_plus, src.n_minus, "I", src.name
    for mm in circuit.macromodels:
        for j, (a, b) in enumerate(mm.ports):
            yield a, b, "port", f"{mm.name}.p{j}"
    for dev in circuit.devices:
        nodes = list(dev.nodes)
        for other in nodes[1:]:
            yield nodes[0], other, "device", dev.name


def _check_connectivity(circuit: Circuit, report: DiagnosticReport) -> None:
    """erc.dangling-node and erc.unreachable."""
    degree: dict[str, int] = {name: 0 for name in circuit.node_names}
    uf = _UnionFind()
    uf.find(GROUND)
    ground_connected = False
    for n1, n2, _, _ in _terminal_edges(circuit):
        for node in (n1, n2):
            if node != GROUND:
                degree[node] = degree.get(node, 0) + 1
            else:
                ground_connected = True
        uf.union(n1, n2)
    for node, count in sorted(degree.items()):
        if count == 0:
            report.add(Diagnostic(
                rule="erc.dangling-node",
                severity=Severity.WARNING,
                message="node is registered but no element connects to it",
                location=f"node {node}",
                hint="remove the node or wire an element to it",
            ))
        elif count == 1:
            report.add(Diagnostic(
                rule="erc.dangling-node",
                severity=Severity.WARNING,
                message="node has exactly one terminal attached "
                        "(open-circuited element)",
                location=f"node {node}",
                hint="terminate the node or drop the element",
            ))
    ground_root = uf.find(GROUND)
    islands: dict[str, list[str]] = {}
    for node in degree:
        root = uf.find(node)
        if root != ground_root:
            islands.setdefault(root, []).append(node)
    if not ground_connected and islands:
        # A circuit where *nothing* touches ground is a deliberately
        # floating analysis circuit (loop extraction, differential port
        # studies): the reference is supplied externally by the analysis
        # (e.g. a gmin-regularized port solve), so per-island errors would
        # be noise.  Components coupled only through mutual inductance are
        # conductively disjoint by construction.
        report.add(Diagnostic(
            rule="erc.floating-reference",
            severity=Severity.INFO,
            message=f"no element touches ground; {len(islands)} conductive "
                    "component(s) float (reference must come from the "
                    "analysis, e.g. a port solve)",
            location=f"circuit {circuit.name}",
            hint="fine for port-driven AC analysis; DC/transient need a "
                 "ground reference",
        ))
        return
    for members in islands.values():
        sample = ", ".join(sorted(members)[:4])
        if len(members) > 4:
            sample += ", ..."
        report.add(Diagnostic(
            rule="erc.unreachable",
            severity=Severity.ERROR,
            message=f"{len(members)} node(s) have no path to ground "
                    f"({sample})",
            location=f"node {sorted(members)[0]}",
            hint="connect the island to the reference net (node '0') or "
                 "simulate it as a separate circuit",
        ))


def _bad_value(value: float) -> bool:
    return not math.isfinite(value) or value <= 0.0


def _check_values(circuit: Circuit, report: DiagnosticReport) -> None:
    """erc.nonpositive-value over scalars and dense block diagonals."""
    scalar_elements = [
        ("resistor", "R", [(r.name, r.resistance) for r in circuit.resistors]),
        ("capacitor", "C", [(c.name, c.capacitance) for c in circuit.capacitors]),
        ("inductor", "L", [(l.name, l.inductance) for l in circuit.inductors]),
    ]
    for label, symbol, values in scalar_elements:
        for name, value in values:
            if _bad_value(value):
                report.add(Diagnostic(
                    rule="erc.nonpositive-value",
                    severity=Severity.ERROR,
                    message=f"{label} value {symbol} = {value!r} must be a "
                            "positive finite number",
                    location=name,
                    hint="fix the extraction or netlist value",
                ))
    for mut in circuit.mutuals:
        if not math.isfinite(mut.mutual):
            report.add(Diagnostic(
                rule="erc.nonpositive-value",
                severity=Severity.ERROR,
                message=f"mutual inductance M = {mut.mutual!r} is not finite",
                location=mut.name,
                hint="fix the extraction or netlist value",
            ))
    for kind, sets in (("inductor set", circuit.inductor_sets),
                       ("K set", circuit.k_sets)):
        for block in sets:
            matrix = block.matrix if kind == "inductor set" else block.kmatrix
            if not np.all(np.isfinite(matrix)):
                report.add(Diagnostic(
                    rule="erc.nonpositive-value",
                    severity=Severity.ERROR,
                    message=f"{kind} matrix contains NaN/Inf entries",
                    location=block.name,
                    hint="fix the extraction producing the block",
                ))
                continue
            bad = np.flatnonzero(np.diagonal(matrix) <= 0.0)
            if bad.size:
                report.add(Diagnostic(
                    rule="erc.nonpositive-value",
                    severity=Severity.ERROR,
                    message=f"{kind} has {bad.size} non-positive diagonal "
                            f"entries (first at branch {int(bad[0])})",
                    location=block.name,
                    hint="self terms must be positive; check the extraction",
                ))


def _check_source_loops(circuit: Circuit, report: DiagnosticReport) -> None:
    """erc.vsource-loop: a cycle of ideal V sources over-determines KVL."""
    uf = _UnionFind()
    for src in circuit.vsources:
        if not uf.union(src.n_plus, src.n_minus):
            report.add(Diagnostic(
                rule="erc.vsource-loop",
                severity=Severity.ERROR,
                message="voltage source closes a loop of ideal voltage "
                        "sources; the MNA matrix is singular",
                location=src.name,
                hint="insert a series resistance or remove the redundant "
                     "source",
            ))


def _check_inductor_loops(circuit: Circuit, report: DiagnosticReport) -> None:
    """erc.inductor-loop: loops of ideal inductive branches.

    A loop made purely of inductor branches (parallel ideal inductors
    being the smallest case) makes the branch-voltage constraint rows of
    the MNA G matrix linearly dependent -- singular at DC.  In the mesh
    dual this is exactly an inductor cutset.
    """
    uf = _UnionFind()
    inductive: Iterable[tuple[str, str, str]] = [
        (ind.n1, ind.n2, ind.name) for ind in circuit.inductors
    ] + [
        (a, b, f"{lset.name}[{j}]")
        for lset in circuit.inductor_sets
        for j, (a, b) in enumerate(lset.branches)
    ]
    for n1, n2, name in inductive:
        if not uf.union(n1, n2):
            report.add(Diagnostic(
                rule="erc.inductor-loop",
                severity=Severity.ERROR,
                message="inductive branch closes a loop of ideal inductors; "
                        "the DC operating point is singular",
                location=name,
                hint="add the physical series resistance (every real "
                     "segment has one; see Circuit.add_series_rl)",
            ))


def _check_mutuals(circuit: Circuit, report: DiagnosticReport) -> None:
    """erc.unknown-inductor and erc.coupling-unphysical (scalar mutuals)."""
    inductance = {ind.name: ind.inductance for ind in circuit.inductors}
    for mut in circuit.mutuals:
        missing = [ref for ref in (mut.inductor1, mut.inductor2)
                   if ref not in inductance]
        if missing:
            report.add(Diagnostic(
                rule="erc.unknown-inductor",
                severity=Severity.ERROR,
                message=f"mutual references unknown inductor(s) "
                        f"{', '.join(sorted(missing))}",
                location=mut.name,
                hint="declare the self inductors before the coupling",
            ))
            continue
        l1 = inductance[mut.inductor1]
        l2 = inductance[mut.inductor2]
        if l1 <= 0.0 or l2 <= 0.0:
            continue  # already reported by erc.nonpositive-value
        k = abs(mut.mutual) / math.sqrt(l1 * l2)
        if k >= 1.0:
            report.add(Diagnostic(
                rule="erc.coupling-unphysical",
                severity=Severity.ERROR,
                message=f"coupling coefficient |k| = {k:.4f} >= 1 between "
                        f"{mut.inductor1} and {mut.inductor2}",
                location=mut.name,
                hint="physical couplings satisfy |M| < sqrt(L1*L2); check "
                     "the mutual-inductance formula or units",
            ))


def _scalar_inductor_matrix(circuit: Circuit) -> np.ndarray | None:
    """Dense L matrix of the scalar inductors + their mutual couplings."""
    if not circuit.inductors:
        return None
    index = {ind.name: i for i, ind in enumerate(circuit.inductors)}
    matrix = np.diag([ind.inductance for ind in circuit.inductors])
    for mut in circuit.mutuals:
        i = index.get(mut.inductor1)
        j = index.get(mut.inductor2)
        if i is None or j is None:
            continue  # reported by erc.unknown-inductor
        matrix[i, j] = matrix[j, i] = mut.mutual
    return matrix


def _check_passivity(
    circuit: Circuit, report: DiagnosticReport, spd_tol: float
) -> None:
    """erc.non-passive-inductance over every dense inductance / K block."""
    blocks: list[tuple[str, np.ndarray, str]] = []
    scalar = _scalar_inductor_matrix(circuit)
    if scalar is not None and len(circuit.mutuals) > 0:
        blocks.append(("scalar inductors + mutuals", scalar, "L"))
    for lset in circuit.inductor_sets:
        blocks.append((f"inductor set {lset.name}", lset.matrix, "L"))
    for kset in circuit.k_sets:
        blocks.append((f"K set {kset.name}", kset.kmatrix, "K"))
    for label, matrix, kind in blocks:
        if not np.all(np.isfinite(matrix)):
            continue  # reported by erc.nonpositive-value
        margin = spd_margin(matrix)
        scale = float(np.abs(np.diagonal(matrix)).max()) if matrix.size else 1.0
        if margin <= spd_tol * scale:
            report.add(Diagnostic(
                rule="erc.non-passive-inductance",
                severity=Severity.ERROR,
                message=f"{label} is not positive definite "
                        f"(margin {margin:.3e}; the circuit can generate "
                        "energy)",
                location=label,
                hint="use a passivity-preserving sparsifier (block-diagonal"
                     ", shell, halo, or K-matrix) instead of truncation",
            ))


def check_circuit(
    circuit: Circuit,
    suppress: Iterable[str] = (),
    spd_tol: float = 1e-12,
) -> DiagnosticReport:
    """Run every electrical rule over a circuit.

    Args:
        circuit: The netlist to inspect (not modified).
        suppress: Rule ids to drop from the report (they are still
            counted in :attr:`DiagnosticReport.num_suppressed`).
        spd_tol: Relative eigenvalue margin (vs. the largest diagonal
            entry) below which an inductance block is reported as
            non-passive.

    Returns:
        The aggregated findings; ``report.ok`` is False when any
        error-severity rule fired.
    """
    report = DiagnosticReport(suppress=suppress)
    _check_connectivity(circuit, report)
    _check_values(circuit, report)
    _check_source_loops(circuit, report)
    _check_inductor_loops(circuit, report)
    _check_mutuals(circuit, report)
    _check_passivity(circuit, report, spd_tol)
    return report


__all__ = ["ERC_RULES", "check_circuit"]
