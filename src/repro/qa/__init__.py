"""Static analysis and runtime sanity checks (``repro.qa``).

Three layers of defense against the paper's failure mode (sparsified
inductance going non-passive) and against malformed inputs generally:

* :mod:`~repro.qa.erc` -- electrical rule check over a
  :class:`~repro.circuit.netlist.Circuit` before any simulation
  (``repro check`` on the command line).
* :mod:`~repro.qa.sanitize` -- opt-in runtime instrumentation of the MNA
  compiler, the transient engine, and every sparsifier strategy.
* :mod:`~repro.qa.analyze` -- project-wide source lint
  (``repro analyze src/repro``).

All layers report :class:`~repro.qa.diagnostics.Diagnostic` records.
"""

from repro.qa.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.qa.erc import ERC_RULES, check_circuit
from repro.qa.sanitize import (
    PassivityError,
    SanitizePolicy,
    Sanitizer,
    sanitize,
)
from repro.qa.collect import capture_circuits, collect_circuits_from_script

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "ERC_RULES",
    "check_circuit",
    "PassivityError",
    "SanitizePolicy",
    "Sanitizer",
    "sanitize",
    "capture_circuits",
    "collect_circuits_from_script",
]
