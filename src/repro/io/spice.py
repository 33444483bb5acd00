"""SPICE netlist export.

Writes a :class:`~repro.circuit.netlist.Circuit` as a SPICE deck:

* R/C/L elements map directly;
* :class:`InductorSet` blocks expand into per-branch inductors plus
  pairwise ``K`` coupling-coefficient lines (the standard SPICE idiom for
  a partial-inductance matrix);
* sources map to DC / PULSE / PWL / SIN where the waveform type is known,
  and are sampled into PWL otherwise;
* K-matrix sets and state-space macromodels have no SPICE primitive and
  are rejected with a pointer to the conversion path (re-extract as L, or
  realize the macromodel before export).

Node names are sanitized to SPICE-safe tokens; ``"0"`` stays ground.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, TextIO

import numpy as np

from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.waveforms import DC, PWL, Pulse, Ramp, SineWave

_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _node(name: str) -> str:
    if name == GROUND:
        return "0"
    return _SAFE.sub("_", name)


def _fmt(value: float) -> str:
    """SPICE-friendly number formatting."""
    return f"{value:.9g}"


def _source_spec(waveform, t_stop: float | None) -> str:
    """Render a waveform as a SPICE source specification."""
    if isinstance(waveform, DC):
        return f"DC {_fmt(waveform.value)}"
    if isinstance(waveform, Ramp):
        return (
            f"PWL(0 {_fmt(waveform.v0)} {_fmt(waveform.delay)} "
            f"{_fmt(waveform.v0)} {_fmt(waveform.delay + waveform.rise_time)} "
            f"{_fmt(waveform.v1)})"
        )
    if isinstance(waveform, Pulse):
        return (
            f"PULSE({_fmt(waveform.v0)} {_fmt(waveform.v1)} "
            f"{_fmt(waveform.delay)} {_fmt(waveform.rise_time)} "
            f"{_fmt(waveform.fall_time)} {_fmt(waveform.width)} "
            f"{_fmt(waveform.period if waveform.period > 0 else 1.0)})"
        )
    if isinstance(waveform, PWL):
        points = " ".join(
            f"{_fmt(t)} {_fmt(v)}" for t, v in waveform.points
        )
        return f"PWL({points})"
    if isinstance(waveform, SineWave):
        return (
            f"SIN({_fmt(waveform.offset)} {_fmt(waveform.amplitude)} "
            f"{_fmt(waveform.frequency)} {_fmt(waveform.delay)})"
        )
    # Unknown callable: sample into PWL over [0, t_stop].
    if t_stop is None:
        raise ValueError(
            f"cannot export waveform {waveform!r}: unknown type and no "
            "t_stop given for PWL sampling"
        )
    times = np.linspace(0.0, t_stop, 101)
    points = " ".join(f"{_fmt(t)} {_fmt(waveform(t))}" for t in times)
    return f"PWL({points})"


def write_spice(
    circuit: Circuit,
    out: TextIO,
    title: str | None = None,
    t_stop: float | None = None,
    analysis: str | None = None,
) -> None:
    """Write ``circuit`` as a SPICE deck to ``out``.

    Args:
        circuit: The netlist to export.
        out: Destination stream.
        title: First (title) line; defaults to the circuit name.
        t_stop: Sampling horizon for waveforms with no native SPICE shape.
        analysis: Optional analysis card to append, e.g.
            ``".tran 1p 1n"``.

    Raises:
        ValueError: The circuit contains elements with no SPICE primitive
            (K-matrix sets, macromodels, Python device objects).
    """
    if circuit.k_sets:
        raise ValueError(
            "K-matrix sets have no SPICE primitive; invert back to an "
            "InductorSet (numpy.linalg.inv of the K block) before export"
        )
    if circuit.macromodels:
        raise ValueError(
            "state-space macromodels have no SPICE primitive; export the "
            "unreduced circuit instead"
        )
    if circuit.devices:
        raise ValueError(
            "Python device models cannot be exported; replace them with "
            "Thevenin drivers or add a .model yourself after export"
        )

    out.write(f"* {title or circuit.name}\n")
    out.write(f"* exported by repro (Inductance 101 reproduction)\n")

    for r in circuit.resistors:
        out.write(f"R{_node(r.name)} {_node(r.n1)} {_node(r.n2)} "
                  f"{_fmt(r.resistance)}\n")
    for c in circuit.capacitors:
        out.write(f"C{_node(c.name)} {_node(c.n1)} {_node(c.n2)} "
                  f"{_fmt(c.capacitance)}\n")

    inductor_names: dict[str, float] = {}
    for l in circuit.inductors:
        name = f"L{_node(l.name)}"
        inductor_names[l.name] = l.inductance
        out.write(f"{name} {_node(l.n1)} {_node(l.n2)} "
                  f"{_fmt(l.inductance)}\n")
    for m in circuit.mutuals:
        k = m.mutual / math.sqrt(
            inductor_names[m.inductor1] * inductor_names[m.inductor2]
        )
        out.write(f"K{_node(m.name)} L{_node(m.inductor1)} "
                  f"L{_node(m.inductor2)} {_fmt(k)}\n")

    for lset in circuit.inductor_sets:
        matrix = lset.matrix
        base = _node(lset.name)
        for j, (a, b) in enumerate(lset.branches):
            out.write(f"L{base}_{j} {_node(a)} {_node(b)} "
                      f"{_fmt(matrix[j, j])}\n")
        for i in range(lset.size):
            for j in range(i + 1, lset.size):
                if matrix[i, j] == 0.0:
                    continue
                k = matrix[i, j] / math.sqrt(matrix[i, i] * matrix[j, j])
                out.write(f"K{base}_{i}_{j} L{base}_{i} L{base}_{j} "
                          f"{_fmt(k)}\n")

    for src in circuit.vsources:
        out.write(f"V{_node(src.name)} {_node(src.n_plus)} "
                  f"{_node(src.n_minus)} "
                  f"{_source_spec(src.waveform, t_stop)}\n")
    for src in circuit.isources:
        out.write(f"I{_node(src.name)} {_node(src.n_plus)} "
                  f"{_node(src.n_minus)} "
                  f"{_source_spec(src.waveform, t_stop)}\n")

    if analysis:
        out.write(analysis.rstrip() + "\n")
    out.write(".end\n")
