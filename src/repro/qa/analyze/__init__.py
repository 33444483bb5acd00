"""Project-wide static analysis (``repro analyze``).

This package loads the whole project and runs the per-file syntactic
lints and the *semantic* checkers over shared analysis passes:

* :mod:`~repro.qa.analyze.project` -- module loader + import graph;
* :mod:`~repro.qa.analyze.symbols` -- per-module alias resolution
  (``np`` -> ``numpy``, re-exports followed across modules);
* :mod:`~repro.qa.analyze.callgraph` -- call graph + pool submissions;
* :mod:`~repro.qa.analyze.dataflow` -- intraprocedural reaching
  definitions and a small abstract-value lattice (sorted-array,
  float-key, complex-scalar, rng-seeded, span-open, ...);
* :mod:`~repro.qa.analyze.engine` -- the :class:`Rule` framework;
* :mod:`~repro.qa.analyze.rules_syntax` -- QA101-QA107 (the per-file
  syntactic lints);
* :mod:`~repro.qa.analyze.rules_semantic` -- QA201-QA206 (the recurring
  numerics bug classes, encoded);
* :mod:`~repro.qa.analyze.baseline` -- the ratchet: triaged existing
  debt stays green, any new finding fails the gate.

Run it with ``repro analyze`` or ``python -m repro.qa.analyze``.
"""

from repro.qa.analyze.baseline import (
    BaselineEntry,
    apply_baseline,
    finding_fingerprint,
    load_baseline,
    write_baseline,
)
from repro.qa.analyze.engine import (
    RULES,
    AnalysisResult,
    ModuleContext,
    Rule,
    analyze_paths,
    analyze_project,
)
from repro.qa.analyze.main import main
from repro.qa.analyze.project import Module, Project, iter_python_files
from repro.qa.analyze.symbols import SymbolTable

# Importing the rule modules registers every rule in RULES.
from repro.qa.analyze import rules_semantic, rules_syntax  # noqa: F401

__all__ = [
    "Rule",
    "RULES",
    "ModuleContext",
    "AnalysisResult",
    "analyze_paths",
    "analyze_project",
    "Module",
    "Project",
    "iter_python_files",
    "SymbolTable",
    "BaselineEntry",
    "finding_fingerprint",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "main",
]
