"""Project call graph: who calls what, resolved through symbol tables.

Best-effort and static: an edge is recorded when a call's target
expression resolves to a canonical dotted name (module function, method
by qualified name, or an imported repro-internal name).  Dynamic
dispatch, ``getattr``, and callbacks passed as values are out of scope
-- except the one callback pattern the QA203 fork-safety rule cares
about, which is tracked explicitly: functions *submitted* to a process
pool (``executor.submit(f, ...)``, ``ProcessPoolExecutor(initializer=f)``,
``pool.map(f, ...)``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.qa.analyze.dataflow import iter_functions
from repro.qa.analyze.project import Module, Project
from repro.qa.analyze.symbols import SymbolTable

#: Attribute names through which work is handed to a process pool.
_SUBMIT_ATTRS = frozenset({"submit", "map", "apply_async", "starmap"})


@dataclass
class FunctionInfo:
    """One function definition in the project."""

    qualname: str  # "repro.resilience.supervisor._run_chunk"
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    callees: set[str] = field(default_factory=set)


@dataclass
class PoolSubmission:
    """A function value handed to a process pool."""

    qualname: str  # resolved worker function
    call: ast.Call  # the submit/initializer site
    module: str  # module containing the submission site
    kind: str  # "submit" | "initializer" | "map"


class CallGraph:
    """Function index + call edges + pool submissions for a project."""

    def __init__(
        self, project: Project, tables: dict[str, SymbolTable]
    ) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.callers: dict[str, set[str]] = {}
        self.pool_submissions: list[PoolSubmission] = []
        for mod in project:
            if mod.tree is None:
                continue
            table = tables[mod.name]
            for qualname, node in iter_functions(mod.tree):
                info = FunctionInfo(
                    qualname=f"{mod.name}.{qualname}",
                    module=mod.name,
                    node=node,
                )
                self.functions[info.qualname] = info
                for call in (n for n in ast.walk(node)
                             if isinstance(n, ast.Call)):
                    callee = table.canonical(call.func)
                    if callee is None and isinstance(call.func, ast.Name):
                        local = f"{mod.name}.{call.func.id}"
                        if local in self.functions or self._later_def(
                                mod, call.func.id):
                            callee = local
                    if callee is not None:
                        info.callees.add(callee)
                        self.callers.setdefault(callee, set()).add(
                            info.qualname
                        )
            self._collect_submissions(mod, table)

    def _later_def(self, mod: Module, name: str) -> bool:
        """A module-level def by this name exists (forward references)."""
        assert mod.tree is not None
        return any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == name
            for stmt in mod.tree.body
        )

    def _collect_submissions(self, mod: Module, table: SymbolTable) -> None:
        assert mod.tree is not None
        for call in (n for n in ast.walk(mod.tree)
                     if isinstance(n, ast.Call)):
            worker: ast.expr | None = None
            kind = ""
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SUBMIT_ATTRS and call.args):
                worker = call.args[0]
                kind = "map" if call.func.attr != "submit" else "submit"
            else:
                dotted = table.canonical(call.func) or ""
                if dotted.endswith("ProcessPoolExecutor"):
                    for kw in call.keywords:
                        if kw.arg == "initializer":
                            worker = kw.value
                            kind = "initializer"
            if worker is None:
                continue
            qualname = table.canonical(worker)
            if qualname is None and isinstance(worker, ast.Name):
                local = f"{mod.name}.{worker.id}"
                if local in self.functions:
                    qualname = local
            if qualname is not None and qualname in self.functions:
                self.pool_submissions.append(PoolSubmission(
                    qualname=qualname, call=call, module=mod.name, kind=kind,
                ))

    def calls_of(self, qualname: str) -> set[str]:
        info = self.functions.get(qualname)
        return set(info.callees) if info else set()

    def callers_of(self, qualname: str) -> set[str]:
        return set(self.callers.get(qualname, ()))

    def reachable_from(self, qualname: str, depth: int = 3) -> set[str]:
        """Project functions transitively callable from one function."""
        seen: set[str] = set()
        frontier = {qualname}
        for _ in range(depth):
            nxt: set[str] = set()
            for fn in frontier:
                for callee in self.calls_of(fn):
                    if callee in self.functions and callee not in seen:
                        seen.add(callee)
                        nxt.add(callee)
            frontier = nxt
            if not frontier:
                break
        return seen


__all__ = ["FunctionInfo", "PoolSubmission", "CallGraph"]
