"""SPICE-class circuit simulation substrate.

The paper simulates its PEEC and loop models in a transistor-level circuit
simulator (MCSPICE).  This package provides the equivalent: modified nodal
analysis (MNA) over R/L/C elements with dense mutual-inductance blocks,
inverse-inductance (K-matrix) blocks, independent sources with time-varying
waveforms, square-law MOS drivers with Newton iteration, DC operating
point, AC frequency sweeps, and trapezoidal/backward-Euler transient
integration.
"""

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    InductorSet,
    KInductorSet,
    MutualInductor,
    OperatorInductorSet,
    Resistor,
    SelfInductor,
    VoltageSource,
)
from repro.circuit.waveforms import DC, PWL, Pulse, Ramp, SineWave
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.mna import MNASystem
from repro.circuit.dc import dc_operating_point
from repro.circuit.ac import ACResult, ac_analysis, ac_impedance
from repro.circuit.transient import TransientResult, transient_analysis
from repro.circuit.devices import (
    CMOSInverter,
    MOSParameters,
)

__all__ = [
    "Resistor",
    "Capacitor",
    "SelfInductor",
    "MutualInductor",
    "InductorSet",
    "KInductorSet",
    "OperatorInductorSet",
    "VoltageSource",
    "CurrentSource",
    "DC",
    "Pulse",
    "PWL",
    "Ramp",
    "SineWave",
    "Circuit",
    "GROUND",
    "MNASystem",
    "dc_operating_point",
    "ac_analysis",
    "ac_impedance",
    "ACResult",
    "transient_analysis",
    "TransientResult",
    "CMOSInverter",
    "MOSParameters",
]
