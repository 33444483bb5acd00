"""QA201-QA206: semantic checkers over the dataflow/callgraph passes.

Each rule encodes a bug class PRs 3-5 fixed by hand, so the
sparse/hierarchical-core rewrite cannot silently reintroduce them:

====== =====================================================================
rule   bug class
====== =====================================================================
QA201  array flows into ``np.interp``'s ``xp`` without a dominating sort
       (``np.sort``/``argsort``-reorder/ascending guard) -- the unsorted
       interp grids fixed in loop/extractor, analysis/compare, crosstalk.
QA202  raw float (or tuple containing one) used as a cache key without
       quantization -- the PR 3 alpha-keyed factor-cache bug.
QA203  process-pool worker closes over / mutates module-level mutable
       state -- fork-safety for the supervised map's pool.
QA204  obs span context manager never entered, or manually entered on a
       path where an early return/raise can skip the close.
QA205  complex scalar narrowed by ``float()``/``int()`` -- resolved by
       dataflow (complex literals/constructors), not QA104's attribute-
       name heuristic.
QA206  public function catches a broad exception and degrades without
       recording it (RunReport event, obs metric, warning, log).
QA207  pool future ``result()`` / executor ``map()`` waited on without a
       timeout outside the supervisor -- one hung worker stalls forever.
QA208  ``.todense()``/``.toarray()`` in a solver hot-path module -- the
       matrix-free solve tier exists so these paths never densify.
====== =====================================================================
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.qa.analyze.engine import ModuleContext, Rule, register
from repro.qa.analyze.rules_syntax import _is_broad_handler
from repro.qa.diagnostics import Diagnostic, Severity


def _describe(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expression>"


# -- QA201: unsorted np.interp grid ------------------------------------------

def _check_qa201(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for flow in ctx.all_flows():
        for call, env in list(flow.env_at_call.items()):
            if ctx.symbols.canonical(call.func) != "numpy.interp":
                continue
            xp: ast.expr | None = None
            if len(call.args) >= 2:
                xp = call.args[1]
            else:
                for kw in call.keywords:
                    if kw.arg == "xp":
                        xp = kw.value
            if xp is None:
                continue
            if "sorted" in flow.eval(xp, env):
                continue
            diag = ctx.report(
                QA201, call,
                f"'{_describe(xp)}' flows into np.interp's xp argument "
                "without a dominating sort or ascending guard",
            )
            if diag:
                yield diag


QA201 = register(Rule(
    id="QA201",
    title="np.interp xp argument not provably ascending",
    severity=Severity.ERROR,
    hint="sort first (xp = np.sort(xp), or order = np.argsort(xp); "
         "xp, fp = xp[order], fp[order]), or guard with "
         "'if not np.all(np.diff(xp) > 0): raise'; silence a "
         "by-construction-sorted grid with '# qa: ignore[QA201]'",
    docs="""\
``np.interp(x, xp, fp)`` silently returns garbage when ``xp`` is not
ascending -- no exception, just wrong numbers (the bug class fixed by
hand in loop/extractor, analysis/compare, and analysis/crosstalk).  The
dataflow pass tracks which arrays are provably ascending: results of
``np.sort``/``sorted``/``np.unique``/``linspace``/``logspace``/
``arange``, reorderings through an ``np.argsort`` index, ascending
numeric literals, slices of sorted arrays, and values guarded by
``np.all(np.diff(x) > 0)`` (or the negated ``np.any(... < 0)`` form) in
an ``assert`` or ``if``.  Anything else reaching ``xp`` -- a parameter,
an attribute, an unknown call result -- is flagged.

Fix by sorting at the boundary:

    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    resampled = np.interp(grid, t, v)

or guard the invariant explicitly.  A grid that is ascending by
construction (e.g. a solver's accepted time axis) may be silenced with
'# qa: ignore[QA201]' stating why.""",
    check=_check_qa201,
))


# -- QA202: raw-float cache key ----------------------------------------------

_KEY_METHODS = frozenset({"get", "put", "setdefault", "pop"})


def _cache_like(expr: ast.expr) -> bool:
    """True when an expression names something cache-shaped."""
    text = _describe(expr).lower()
    return "cache" in text or "memo" in text


def _check_qa202(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for flow in ctx.all_flows():
        # cache[key] loads/stores: env is only snapshotted at calls, so
        # approximate with the env live at the nearest call; instead,
        # re-walk subscripts per function using the exit env join is
        # imprecise -- evaluate keys with the env at the subscript's
        # enclosing call when available, else the function's last env.
        fallback_env = flow.exit_points[-1].env if flow.exit_points else {}
        for node in ast.walk(flow.func):
            key: ast.expr | None = None
            site: ast.expr | None = None
            if isinstance(node, ast.Subscript) and _cache_like(node.value):
                key, site = node.slice, node
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _KEY_METHODS
                  and node.args
                  and _cache_like(node.func.value)):
                key, site = node.args[0], node
            if key is None or site is None:
                continue
            env = flow.env_at_call.get(
                node if isinstance(node, ast.Call) else None, fallback_env
            )
            tags = flow.eval(key, env)
            if "float" in tags:
                diag = ctx.report(
                    QA202, site,
                    f"computed float in cache key '{_describe(key)}' -- "
                    "equality-based lookup on unquantized floats misses "
                    "on the next nearly-identical value",
                )
                if diag:
                    yield diag


QA202 = register(Rule(
    id="QA202",
    title="raw computed float used as a cache key without quantization",
    severity=Severity.ERROR,
    hint="quantize the key component (round(x, 12), int scaling, or a "
         "fixed-precision format) before keying, or key on the exact "
         "input bits (struct.pack/x.hex()) when bit-identity is meant",
    docs="""\
Keying a dict/LRU cache on a *computed* float (a division result, a
``float()`` conversion, ``.real`` of a complex) makes hits depend on
floating-point round-off: two alphas that should share a factorization
differ in the last ulp and the cache silently never hits (the PR 3
factor-cache bug).  The dataflow pass tags computed floats and tuples
containing them; keys with the tag reaching a ``cache[...]`` subscript
or a ``.get``/``.put``/``.setdefault`` call on a cache-shaped name are
flagged.  Quantize deliberately:

    key = (n, round(alpha, 12))          # tolerance-based sharing
    key = (n, alpha.hex())               # exact-bits identity

Both clear the tag (``round`` quantizes; ``.hex()`` is a string).""",
    check=_check_qa202,
))


# -- QA203: fork-unsafe pool worker ------------------------------------------

_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "clear", "reset", "merge",
    "pop", "popitem", "setdefault", "remove", "discard", "insert",
})


def _module_global_assigners(tree: ast.Module) -> set[str]:
    """Names assigned through a ``global`` declaration anywhere."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out.update(node.names)
    return out


def _module_level_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers/instances."""
    out: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.value, (ast.List, ast.Dict, ast.Set,
                                       ast.Call)):
                if isinstance(stmt.value, ast.Call):
                    func = stmt.value.func
                    name = func.id if isinstance(func, ast.Name) else \
                        func.attr if isinstance(func, ast.Attribute) else ""
                    if name in ("frozenset", "tuple", "namedtuple"):
                        continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
    return out


def _check_qa203(ctx: ModuleContext) -> Iterable[Diagnostic]:
    graph = ctx.callgraph
    if graph is None or ctx.module.tree is None:
        return
    global_assigned = _module_global_assigners(ctx.module.tree)
    mutable_globals = _module_level_mutables(ctx.module.tree)
    seen: set[tuple[int, str]] = set()
    for sub in graph.pool_submissions:
        info = graph.functions.get(sub.qualname)
        if info is None or info.module != ctx.module.name:
            continue  # reported in the worker's defining module
        func = info.node
        local_names = {
            a.arg for a in (func.args.posonlyargs + func.args.args
                            + func.args.kwonlyargs)
        }
        for node in ast.walk(func):
            finding: tuple[ast.AST, str] | None = None
            if isinstance(node, ast.Global):
                assigned = [n for n in node.names
                            if _assigns_name(func, n)]
                if assigned:
                    finding = (node, (
                        f"pool worker '{func.name}' mutates module-global "
                        f"{', '.join(repr(n) for n in assigned)} -- each "
                        "forked worker mutates its own copy, invisible to "
                        "the parent"
                    ))
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)
                  and node.id not in local_names
                  and node.id in (global_assigned | mutable_globals)):
                finding = (node, (
                    f"pool worker '{func.name}' reads module-global "
                    f"'{node.id}' -- workers see the fork-time snapshot "
                    "(or the initializer's per-process copy), not the "
                    "parent's live value"
                ))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATING_METHODS):
                target = ctx.symbols.canonical(node.func.value)
                if target is not None and ctx.project is not None:
                    head, _, tail = target.rpartition(".")
                    owner = ctx.project.get(head)
                    if owner is not None and owner.tree is not None and \
                            tail in _module_level_mutables(owner.tree):
                        finding = (node, (
                            f"pool worker '{func.name}' mutates "
                            f"module-level state '{target}' -- the "
                            "mutation stays in the worker process"
                        ))
            if finding is None:
                continue
            node_, message = finding
            dedupe = (getattr(node_, "lineno", 0), message)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            diag = ctx.report(QA203, node_, message)
            if diag:
                yield diag


def _assigns_name(func: ast.AST, name: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
    return False


QA203 = register(Rule(
    id="QA203",
    title="process-pool worker touches module-level mutable state",
    severity=Severity.ERROR,
    hint="ship state explicitly through the submit arguments (or the "
         "pool initializer's initargs), and ship results back through "
         "the return value; annotate a deliberate initializer idiom "
         "with '# qa: ignore[QA203]' and a comment saying why it is "
         "fork-safe",
    docs="""\
Functions submitted to a process pool (``executor.submit(f, ...)``,
``ProcessPoolExecutor(initializer=f)``, ``pool.map(f, ...)``) run in
forked children: module-level state they read is a fork-time snapshot
(or whatever the initializer set in *that* process), and state they
mutate never reaches the parent.  Both directions have bitten pool code
before -- a counter incremented in a worker that the parent never sees,
a config read that is stale after the parent changes it.

The rule flags, inside any pool-submitted function: ``global`` writes,
reads of globals that some function assigns via ``global`` (the
initializer handshake), and mutating method calls on module-level
mutable objects (including cross-module ones like a metrics registry).

The initializer idiom itself -- initializer sets a per-process global,
the worker body reads it -- is *deliberately* fork-safe when the state
is immutable after init; annotate those exact lines with
'# qa: ignore[QA203]' and say why.  Everything else should ship state
through arguments and return values.""",
    check=_check_qa203,
))


# -- QA204: leaked / never-entered span --------------------------------------

def _check_qa204(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for flow in ctx.all_flows():
        for call, used in flow.cm_sites.items():
            if not used:
                diag = ctx.report(
                    QA204, call,
                    f"obs context manager '{_describe(call.func)}(...)' "
                    "is created but never entered -- the stage is not "
                    "timed at all",
                    hint="use 'with span(...):' around the stage",
                )
                if diag:
                    yield diag
        if not flow.enter_sites:
            continue
        leaky_exits = [
            ep for ep in flow.exit_points
            if any(
                "span-open" in value
                for name, value in ep.env.items()
                if name not in flow.finally_managed
            )
        ]
        if not leaky_exits:
            continue
        for call, name in flow.enter_sites:
            if name is not None and name in flow.finally_managed:
                continue
            diag = ctx.report(
                QA204, call,
                "manually entered span can be leaked by an early "
                "return/raise before __exit__ "
                f"(e.g. line {leaky_exits[0].lineno or 'end'})",
            )
            if diag:
                yield diag


QA204 = register(Rule(
    id="QA204",
    title="obs span opened on a path that can skip the close",
    severity=Severity.ERROR,
    hint="use 'with span(...):' (closes on every exit), or guarantee "
         "__exit__ in a finally block / contextlib.ExitStack",
    docs="""\
A span that never closes poisons the whole trace: ``repro trace`` fails
CI on open spans, and the leaked span's subtree swallows later
measurements.  The dataflow pass tracks span/tracing/detached_stack
context managers and flags two shapes statically (complementing the
runtime ``repro trace`` leak check):

* a context manager created but never entered -- ``sp = span("x")``
  with no ``with``/``__enter__`` times nothing;
* a manual ``sp.__enter__()`` where some ``return``/``raise`` path can
  be taken while the span is still open (no ``__exit__`` on that path
  and none guaranteed by a ``finally`` or ``ExitStack``).

``with span(...):`` is always safe; so is handing the context manager
to ``ExitStack.enter_context`` or returning it to the caller.""",
    check=_check_qa204,
))


# -- QA205: dataflow-resolved complex narrowing ------------------------------

def _check_qa205(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for flow in ctx.all_flows():
        for call, env in list(flow.env_at_call.items()):
            if not (isinstance(call.func, ast.Name)
                    and call.func.id in ("float", "int") and call.args):
                continue
            if "complex" in flow.eval(call.args[0], env):
                diag = ctx.report(
                    QA205, call,
                    f"{call.func.id}() narrows "
                    f"'{_describe(call.args[0])}', which dataflow "
                    "resolves to a complex value -- the imaginary part "
                    "is dropped (or the call raises)",
                )
                if diag:
                    yield diag


QA205 = register(Rule(
    id="QA205",
    title="float()/int() of a dataflow-resolved complex value",
    severity=Severity.ERROR,
    hint="take .real, .imag, or abs() deliberately",
    docs="""\
The dataflow generalization of QA104: instead of matching attribute
*names* (``.impedance``), the pass tracks complex-ness through the
function -- ``1j`` arithmetic, ``complex(...)`` construction, indexing
complex arrays -- and flags ``float(x)``/``int(x)`` where ``x`` is
complex-tagged.  ``z.real``, ``z.imag``, and ``abs(z)`` all say which
narrowing is meant and are never flagged.""",
    check=_check_qa205,
))


# -- QA206: silent degradation -----------------------------------------------

_RECORDING_ATTRS = frozenset({
    "warn", "warning", "error", "exception", "info", "debug",
    "inc", "observe",
})

_RECORDING_CANONICAL_PREFIXES = (
    "repro.obs.metrics",
    "repro.resilience.report",
    "warnings.",
    "logging.",
)


def _handler_records(ctx: ModuleContext, handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr.startswith("record_"):
                return True
            if func.attr in _RECORDING_ATTRS:
                return True
        elif isinstance(func, ast.Name) and func.id == "print":
            return True
        dotted = ctx.symbols.canonical(func) or ""
        if dotted.startswith(_RECORDING_CANONICAL_PREFIXES):
            return True
    return False


def _check_qa206(ctx: ModuleContext) -> Iterable[Diagnostic]:
    for qualname, func in ctx.functions():
        leaf = qualname.split(".")[-1]
        if leaf.startswith("_"):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not _is_broad_handler(handler):
                    continue
                silent_pass = all(
                    isinstance(stmt, ast.Pass)
                    or (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))
                    for stmt in handler.body
                )
                if silent_pass:
                    continue  # QA105's territory
                if _handler_records(ctx, handler):
                    continue
                diag = ctx.report(
                    QA206, handler,
                    f"public function '{leaf}' catches a broad exception "
                    "and degrades without recording it",
                )
                if diag:
                    yield diag


QA206 = register(Rule(
    id="QA206",
    title="public function degrades on a broad except without recording",
    severity=Severity.ERROR,
    hint="record the downgrade (RunReport.record_downgrade / an obs "
         "counter / warnings.warn) or re-raise; silence a deliberate "
         "best-effort fallback with '# qa: ignore[QA206]'",
    docs="""\
The resilience layer's contract is that every degradation is visible:
a solver that falls back, a cache that is skipped, a sweep that drops a
point must leave a RunReport event or an obs metric behind, or
operators debug wrong numbers with no breadcrumb.  This rule flags a
broad ``except`` inside a *public* function whose handler body neither
re-raises nor calls anything that records (``record_*`` methods, obs
counters/gauges, ``warnings.warn``, logging, ``print``).  QA105 covers
the fully-silent ``pass`` body; this covers the handler that *does*
substitute a fallback value but tells nobody.""",
    check=_check_qa206,
))


# -- QA207: unbounded pool wait ----------------------------------------------

#: The one module allowed to block on pool futures without a timeout:
#: its watchdog thread is what guarantees those waits terminate.
_SUPERVISOR_MODULE = "repro.resilience.supervisor"

_FUTURE_TOKENS = ("fut", "future")
_POOL_TOKENS = ("executor", "pool")


def _name_has_token(expr: ast.expr, tokens: tuple[str, ...]) -> bool:
    text = _describe(expr).lower()
    return any(token in text for token in tokens)


def _check_qa207(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if ctx.module.name == _SUPERVISOR_MODULE:
        return
    tree = ctx.module.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        has_timeout = bool(node.args) or any(
            kw.arg == "timeout" for kw in node.keywords
        )
        if (node.func.attr == "result"
                and _name_has_token(receiver, _FUTURE_TOKENS)):
            if has_timeout:
                continue
            diag = ctx.report(
                QA207, node,
                f"'{_describe(receiver)}.result()' blocks without a "
                "timeout -- a hung pool worker stalls this wait forever",
            )
            if diag:
                yield diag
        elif (node.func.attr == "map"
              and _name_has_token(receiver, _POOL_TOKENS)):
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            diag = ctx.report(
                QA207, node,
                f"'{_describe(receiver)}.map(...)' iterates results "
                "without a timeout -- a hung pool worker stalls the "
                "iteration forever",
            )
            if diag:
                yield diag


QA207 = register(Rule(
    id="QA207",
    title="pool future waited on without a timeout outside the supervisor",
    severity=Severity.ERROR,
    hint="run the pool under repro.resilience.supervisor.Supervisor "
         "(deadlines + watchdog), or pass an explicit timeout to "
         ".result()/.map(); silence a wait that something else provably "
         "bounds with '# qa: ignore[QA207]' and say what bounds it",
    docs="""\
``Future.result()`` with no timeout (and ``executor.map``, which calls
it internally) blocks until the worker responds -- and a worker stuck in
a pathological solve, an injected hang, or a deadlocked import never
responds.  The supervised runtime exists so no sweep ever makes that
bet: its watchdog kills expired workers, which is what makes *its own*
untimed waits terminate, so :mod:`repro.resilience.supervisor` is the
one module exempt from this rule.

Everywhere else, either map the work with ``supervised_map`` (the
frequency sweeps and the scenario batches already do; it is the one
code path that creates a pool) or make the wait bounded explicitly:

    rows = fut.result(timeout=deadline)       # bounded wait
    for rec in executor.map(f, items, timeout=deadline):
        ...

The check is name-heuristic (receivers mentioning ``fut``/``future``
for ``.result()``, ``executor``/``pool`` for ``.map()``), mirroring the
cache-shaped heuristic of QA202; a wait bounded by other means can be
silenced with '# qa: ignore[QA207]' stating what bounds it.""",
    check=_check_qa207,
))


# -- QA208: densification in solver hot paths --------------------------------

#: Modules on the solve path that must stay matrix-free: assembling or
#: solving here happens once per frequency point / Newton iteration, so a
#: densify call silently reintroduces the O(n^2) memory the operator tier
#: removed.
_HOT_PATH_MODULES = frozenset({
    "repro.circuit.linalg",
    "repro.circuit.transient",
    "repro.circuit.ac",
    "repro.circuit.dc",
    "repro.loop.extractor",
    "repro.perf.parallel",
})

_DENSIFY_ATTRS = ("todense", "toarray", "to_dense")


def _check_qa208(ctx: ModuleContext) -> Iterable[Diagnostic]:
    if ctx.module.name not in _HOT_PATH_MODULES:
        return
    tree = ctx.module.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DENSIFY_ATTRS):
            continue
        diag = ctx.report(
            QA208, node,
            f"'{_describe(node.func)}()' densifies inside solver hot path "
            f"'{ctx.module.name}' -- route through the operator/Krylov "
            "tier instead",
        )
        if diag:
            yield diag


QA208 = register(Rule(
    id="QA208",
    title="densification call in a solver hot-path module",
    severity=Severity.ERROR,
    hint="keep the operator form: stamp sparse updates, solve via the "
         "krylov rung, or move the conversion off the per-step path; "
         "silence a deliberately bounded materialization with "
         "'# qa: ignore[QA208]' and say what bounds it",
    docs="""\
The matrix-free solve tier removed every per-step
``.todense()``/``.toarray()`` from the AC/transient/extraction paths:
sweeps update a preassembled sparse pattern in place, transient Newton
stamps the device Jacobian as a sparse update, and the hierarchical
loop sweep applies its mesh inductance as a product of the compressed
operator, solved by the preconditioned ``krylov`` rung.  A densify
call reappearing in one of those modules almost always means a
convenience conversion snuck back onto a loop that runs once per
frequency point or Newton iteration, costing O(n^2) memory exactly at
the problem sizes the hierarchical operator exists for.

The rule fires on any ``.todense()`` / ``.toarray()`` / ``.to_dense()``
call inside the hot-path module set (``circuit.linalg`` / ``transient``
/ ``ac`` / ``dc``, ``loop.extractor``, ``perf.parallel``).  Legitimate bounded materializations exist -- the
size-guarded lstsq rescue rung, equilibration's O(n) row/column maxima,
the recorded dense fallback when Krylov stagnates -- and each is
silenced in place with '# qa: ignore[QA208]' naming its bound.""",
    check=_check_qa208,
))


SEMANTIC_RULE_IDS = (
    "QA201", "QA202", "QA203", "QA204", "QA205", "QA206", "QA207", "QA208",
)

__all__ = [
    "SEMANTIC_RULE_IDS",
    "QA201", "QA202", "QA203", "QA204", "QA205", "QA206", "QA207", "QA208",
]
