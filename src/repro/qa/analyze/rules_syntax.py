"""QA101-QA107: the per-file syntactic lints, ported into the engine.

These began life as one ad-hoc per-file visitor; here each is a
registered :class:`~repro.qa.analyze.engine.Rule` sharing the engine's
symbol tables (alias tracking is no longer re-implemented per rule) and
suppression handling.  ``repro analyze`` runs them with the semantic
rules; ``analyze_paths(paths, rules=SYNTAX_RULE_IDS)`` runs them alone.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.qa.analyze.engine import ModuleContext, Rule, register
from repro.qa.diagnostics import Diagnostic, Severity

#: ``time``-module functions QA106 treats as ad-hoc timers.
_TIMING_FUNCS = frozenset({"time", "perf_counter", "monotonic",
                           "process_time"})
_TIMING_CANONICAL = frozenset(f"time.{f}" for f in _TIMING_FUNCS)

#: Attribute names that carry complex AC results in this codebase.
_COMPLEX_ATTRS = frozenset({"impedance", "admittance", "transfer"})

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})

_LINALG_INV = frozenset({"numpy.linalg.inv", "scipy.linalg.inv"})


def _walk_calls(ctx: ModuleContext) -> Iterator[ast.Call]:
    if ctx.module.tree is None:
        return
    for node in ast.walk(ctx.module.tree):
        if isinstance(node, ast.Call):
            yield node


def qa106_exempt(path: Path) -> bool:
    """Files allowed to call raw timers: the obs layer itself (it *is*
    the timing machinery)."""
    return "/obs/" in path.as_posix() or path.parent.name == "obs"


def qa107_exempt(path: Path) -> bool:
    """Files allowed to call ``default_rng()`` unseeded: tests, where
    fresh entropy is sometimes the point (fuzzing, property-based
    data)."""
    posix = path.as_posix()
    return (
        "/tests/" in posix
        or posix.startswith("tests/")
        or path.name.startswith("test_")
        or path.name.startswith("conftest")
    )


# -- QA101 -------------------------------------------------------------------

def _check_qa101(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for call in _walk_calls(ctx):
        func = call.func
        dotted = ctx.symbols.canonical(func)
        is_inv = dotted in _LINALG_INV
        if not is_inv and isinstance(func, ast.Attribute) \
                and func.attr == "inv":
            # <anything>.linalg.inv -- flag even when the root name is
            # not a tracked import (defensive parity with the old lint).
            value = func.value
            is_inv = (
                (isinstance(value, ast.Attribute)
                 and value.attr == "linalg")
                or (isinstance(value, ast.Name) and value.id == "linalg")
            )
        if is_inv:
            diag = ctx.report(
                QA101, call,
                "explicit matrix inverse on a potentially dense matrix",
            )
            if diag:
                yield diag


QA101 = register(Rule(
    id="QA101",
    title="explicit dense-matrix inverse; prefer factor-and-solve",
    severity=Severity.ERROR,
    hint="factor once and solve (scipy.linalg.lu_factor/lu_solve, or "
         "cho_factor for SPD); silence a deliberate full inverse with "
         "'# qa: ignore[QA101]'",
    docs="""\
``np.linalg.inv(A) @ b`` forms a dense inverse -- O(n^3) work, worse
conditioning, and no factor reuse across solves.  Factor once and solve:

    lu = scipy.linalg.lu_factor(A)
    x = scipy.linalg.lu_solve(lu, b)

For SPD matrices use ``cho_factor``/``cho_solve``.  A deliberate full
inverse (e.g. to inspect entries) takes '# qa: ignore[QA101]'.""",
    check=_check_qa101,
))


# -- QA102 -------------------------------------------------------------------

def _check_qa102(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if ctx.module.tree is None:
        return
    for node in ast.walk(ctx.module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                diag = ctx.report(
                    QA102, default,
                    f"mutable default argument in {node.name}() is "
                    "shared across calls",
                )
                if diag:
                    yield diag


QA102 = register(Rule(
    id="QA102",
    title="mutable default argument",
    severity=Severity.ERROR,
    hint="default to None and create the object in the body "
         "(or use dataclasses.field(default_factory=...))",
    docs="""\
A ``def f(x=[])`` default is created once at definition time and shared
by every call; mutations accumulate across calls.  Default to ``None``
and create the object in the body, or use
``dataclasses.field(default_factory=list)``.""",
    check=_check_qa102,
))


# -- QA103 -------------------------------------------------------------------

def _check_qa103(ctx: ModuleContext) -> Iterable[Diagnostic]:
    mod = ctx.module
    if mod.path.name != "__init__.py" or mod.tree is None:
        return
    has_imports = any(
        isinstance(stmt, (ast.Import, ast.ImportFrom))
        for stmt in mod.tree.body
    )
    if not has_imports:
        return
    for stmt in mod.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return
    diag = ctx.report(
        QA103, None,
        "package __init__.py re-exports names but defines no __all__",
    )
    if diag:
        yield diag


QA103 = register(Rule(
    id="QA103",
    title="package __init__.py re-exports names without __all__",
    severity=Severity.ERROR,
    hint="list the public surface explicitly in __all__",
    docs="""\
A package ``__init__.py`` that imports names but defines no ``__all__``
has an implicit public surface: every import becomes part of the API by
accident.  Declare ``__all__`` listing exactly what the package exports.
Suppress on line 1 with '# qa: ignore[QA103]'.""",
    check=_check_qa103,
))


# -- QA104 -------------------------------------------------------------------

def _check_qa104(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for call in _walk_calls(ctx):
        if not (isinstance(call.func, ast.Name)
                and call.func.id == "float" and call.args):
            continue
        for sub in ast.walk(call.args[0]):
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in _COMPLEX_ATTRS:
                diag = ctx.report(
                    QA104, call,
                    f"float() of complex-valued '.{sub.attr}' discards "
                    "the imaginary part (or raises on numpy complex)",
                )
                if diag:
                    yield diag
                break


QA104 = register(Rule(
    id="QA104",
    title="float() of a complex AC result (impedance/admittance/transfer)",
    severity=Severity.ERROR,
    hint="use .real, .imag, or abs() explicitly",
    docs="""\
``float(z)`` on a complex AC quantity either raises (numpy complex) or
silently keeps only the real part (python complex via ``__float__`` is
an error too) -- either way the imaginary part was dropped without the
code saying so.  Name the intent: ``z.real``, ``z.imag``, or ``abs(z)``.
This rule matches by attribute *name* (``impedance``/``admittance``/
``transfer``); QA205 is the dataflow-resolved generalization.""",
    check=_check_qa104,
))


# -- QA105 -------------------------------------------------------------------

def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: list[str] = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [e.id for e in handler.type.elts if isinstance(e, ast.Name)]
    return any(n in ("Exception", "BaseException") for n in names)


def _check_qa105(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if ctx.module.tree is None:
        return
    for node in ast.walk(ctx.module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            body_is_silent = all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is ...)
                for stmt in handler.body
            )
            if body_is_silent and _is_broad_handler(handler):
                diag = ctx.report(
                    QA105, handler,
                    "broad except clause silently swallows every failure",
                )
                if diag:
                    yield diag


QA105 = register(Rule(
    id="QA105",
    title="broad except clause that silently passes",
    severity=Severity.ERROR,
    hint="catch the narrow exception type, re-raise, or at least "
         "record what was ignored (e.g. in a RunReport)",
    docs="""\
``except Exception: pass`` swallows every failure -- including the ones
the resilience layer is supposed to log.  Catch the narrow type, or
record the downgrade.  QA206 is the wider dataflow version: a broad
handler whose body *does* something but never records the degradation.""",
    check=_check_qa105,
))


# -- QA106 -------------------------------------------------------------------

def _check_qa106(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if qa106_exempt(ctx.module.path):
        return
    for call in _walk_calls(ctx):
        if ctx.symbols.canonical(call.func) in _TIMING_CANONICAL:
            diag = ctx.report(
                QA106, call,
                "ad-hoc wall-clock timing outside repro.obs",
            )
            if diag:
                yield diag


QA106 = register(Rule(
    id="QA106",
    title="ad-hoc timing call outside repro.obs (use a span)",
    severity=Severity.ERROR,
    hint="wrap the stage in repro.obs.trace.span(...) and read "
         "sp.duration, so the measurement lands in the trace tree; "
         "silence a deliberate raw timer with '# qa: ignore[QA106]'",
    docs="""\
``t0 = time.perf_counter()`` measures a stage invisibly: the number
never reaches the trace tree, so ``repro trace`` and ``--trace-json``
cannot account for it.  Wrap the stage:

    with span("stage.name") as sp:
        ...
    elapsed = sp.duration

The obs layer itself is exempt (it *is* the timing machinery).""",
    check=_check_qa106,
))


# -- QA107 -------------------------------------------------------------------

def _check_qa107(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if qa107_exempt(ctx.module.path):
        return
    for call in _walk_calls(ctx):
        if call.args or call.keywords:
            continue
        dotted = ctx.symbols.canonical(call.func)
        is_rng = dotted == "numpy.random.default_rng" or (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "default_rng"
        )
        if is_rng:
            diag = ctx.report(
                QA107, call,
                "unseeded default_rng() draws from OS entropy, making "
                "the run irreproducible",
            )
            if diag:
                yield diag


QA107 = register(Rule(
    id="QA107",
    title="unseeded default_rng() outside tests (pass a seed)",
    severity=Severity.ERROR,
    hint="pass an explicit seed (or a generator plumbed from the "
         "caller's config); silence deliberate entropy with "
         "'# qa: ignore[QA107]'",
    docs="""\
``np.random.default_rng()`` with no seed draws from OS entropy: two
runs of the same sweep place random sources differently and produce
different Monte-Carlo numbers.  Pass an explicit seed, or accept a
``Generator`` plumbed from the caller's configuration.  Test files are
exempt (fresh entropy is sometimes the point).""",
    check=_check_qa107,
))


#: The per-file syntactic rules, runnable alone through ``rules=``.
SYNTAX_RULE_IDS = ("QA101", "QA102", "QA103", "QA104", "QA105", "QA106",
                   "QA107")

__all__ = [
    "SYNTAX_RULE_IDS",
    "qa106_exempt",
    "qa107_exempt",
    "QA101", "QA102", "QA103", "QA104", "QA105", "QA106", "QA107",
]
