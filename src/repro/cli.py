"""Command-line interface.

Usage::

    python -m repro.cli table1 [--die 600] [--branches 4] [--trace-json t.json]
    python -m repro.cli run ...            # alias of table1
    python -m repro.cli loop [--length 1000] [--trace-json t.json]
    python -m repro.cli design
    python -m repro.cli export --out clocknet.sp
    python -m repro.cli check deck.sp script.py [--strict] [--sanitize]
    python -m repro.cli analyze [src/repro] [--baseline qa/baseline.json]
                                [--format json] [--out report.json]
    python -m repro.cli trace [--die 300] [--json trace.json]
    python -m repro.cli sweep spec.json [--workers 4] [--store DIR]
                              [--no-resume] [--out results.json]
                              [--deadline S] [--time-budget S]

``table1`` (alias ``run``) runs the Section-6 model comparison, ``loop``
the Figure-3 extraction sweep, ``design`` the Figure 5-9 studies, and
``export`` writes the detailed PEEC model of the clock topology as a
SPICE deck.  ``check`` runs the :mod:`repro.qa` electrical rule check
over SPICE decks and/or the circuits built by Python scripts, exiting
non-zero on error-severity findings.  ``analyze`` runs the project-wide
dataflow lint (:mod:`repro.qa.analyze`): the QA101-QA107 syntax rules
plus the QA201-QA208 semantic rules, with a ``--baseline`` ratchet so
only *new* findings fail the gate.  ``sweep`` runs a declarative
scenario grid (design variant x geometry x sparsifier, see
:mod:`repro.scenarios`) sharded over a process pool with per-scenario
checkpointing and cross-run resume.  ``trace`` runs a small PEEC flow
under the :mod:`repro.obs` span collector and prints the span tree plus
the metrics registry, exiting non-zero on leaked (unclosed) spans,
missing stages, or root spans covering less than 95% of the flow's wall
clock; the ``--trace-json`` flag on ``table1``/``run``/``loop``/``sweep``
collects the same data around a full command and writes it as JSON.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro import build_clock_testcase, run_loop_flow, run_peec_flow
    from repro.analysis.report import format_table
    from repro.constants import to_ps

    case = build_clock_testcase(
        die=args.die * 1e-6,
        num_branches=args.branches,
        branch_length=args.die * 1e-6 / 4,
        stripe_pitch=args.die * 1e-6 / 6,
    )
    flows = {
        "PEEC (RC)": run_peec_flow(case, include_inductance=False),
        "PEEC (RLC)": run_peec_flow(case),
        "LOOP (RLC)": run_loop_flow(case),
    }
    rows = [
        [name, res.stats["resistors"], res.stats["capacitors"],
         res.stats["inductors"], res.stats["mutuals"],
         f"{to_ps(res.worst_delay):.1f}", f"{to_ps(res.worst_skew):.2f}",
         f"{res.total_seconds:.2f}"]
        for name, res in flows.items()
    ]
    print(format_table(
        ["model", "R", "C", "L", "mutuals", "delay [ps]", "skew [ps]",
         "time [s]"],
        rows, title="Table 1 (synthetic scale)",
    ))
    return 0


def _cmd_loop(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.geometry import build_signal_over_grid
    from repro.loop import LoopPort, extract_loop_impedance, fit_ladder

    layout, ports = build_signal_over_grid(length=args.length * 1e-6)
    port = LoopPort(
        signal=ports["driver"], reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )
    freqs = np.logspace(7, 11, 9)
    res = extract_loop_impedance(layout, port, freqs,
                                 max_segment_length=250e-6,
                                 assembly=args.assembly)
    rows = [
        [f"{f:.2e}", f"{r:.4f}", f"{l * 1e9:.4f}"]
        for f, r, l in zip(freqs, res.resistance, res.inductance)
    ]
    print(format_table(["frequency [Hz]", "R [ohm]", "L [nH]"], rows,
                       title="Figure 3(b) -- loop R & L vs frequency"))
    ladder = fit_ladder(float(freqs[0]), complex(res.impedance[0]),
                        float(freqs[-1]), complex(res.impedance[-1]))
    print(f"\nladder: R0={ladder.r0:.4f} L0={ladder.l0 * 1e9:.4f}nH "
          f"R1={ladder.r1:.4f} L1={ladder.l1 * 1e9:.4f}nH")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    import runpy

    # Reuse the worked example (it prints all the study tables).
    from pathlib import Path

    example = Path(__file__).resolve().parents[2] / "examples" / \
        "design_techniques.py"
    if example.exists():
        runpy.run_path(str(example), run_name="__main__")
        return 0
    from examples import design_techniques  # type: ignore[import-not-found]

    design_techniques.main()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro import build_clock_testcase
    from repro.io.spice import write_spice
    from repro.peec import PEECOptions, attach_package, build_peec_model

    case = build_clock_testcase()
    model = build_peec_model(
        case.layout, PEECOptions(max_segment_length=80e-6)
    )
    attach_package(model)
    with open(args.out, "w", encoding="ascii") as f:
        write_spice(model.circuit, f, t_stop=case.t_stop,
                    analysis=f".tran {case.dt} {case.t_stop}")
    stats = model.stats()
    print(f"wrote {args.out}: {stats['resistors']} R, "
          f"{stats['capacitors']} C, {stats['inductors']} L, "
          f"{stats['mutuals']} mutual couplings")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.io.parser import read_spice
    from repro.qa import check_circuit
    from repro.qa.collect import collect_circuits_from_script

    exit_code = 0
    for path in args.paths:
        p = Path(path)
        targets = []  # (label, circuit)
        runtime = None
        if p.suffix == ".py":
            try:
                circuits, runtime = collect_circuits_from_script(
                    p, run_sanitized=args.sanitize
                )
            except OSError as exc:
                print(f"{p}: {exc}")
                exit_code = max(exit_code, 2)
                continue
            except SystemExit as exc:
                print(f"{p}: script exited with status {exc.code}")
                exit_code = max(exit_code, 1)
                continue
            except Exception as exc:
                print(f"{p}: script raised {type(exc).__name__}: {exc}")
                exit_code = max(exit_code, 1)
                continue
            targets = [(f"{p}::{c.name}", c) for c in circuits]
            if not circuits:
                print(f"{p}: no circuits constructed")
        elif p.suffix in (".sp", ".cir", ".spice", ".net"):
            try:
                with open(p, encoding="ascii", errors="replace") as f:
                    deck = read_spice(f)
            except OSError as exc:
                print(f"{p}: {exc}")
                exit_code = max(exit_code, 2)
                continue
            targets = [(f"{p}::{deck.circuit.name}", deck.circuit)]
        else:
            parser_error = (
                f"{p}: unsupported input (expected .sp/.cir/.spice/.net "
                "deck or .py script)"
            )
            print(parser_error)
            exit_code = 2
            continue
        for label, circuit in targets:
            report = check_circuit(circuit, suppress=args.suppress)
            print(f"-- {label}: {report!r}")
            for diag in report:
                print(f"   {diag.format()}")
            exit_code = max(exit_code, report.exit_code(strict=args.strict))
        if runtime is not None and len(runtime):
            print(f"-- {p}: sanitizer findings")
            for diag in runtime:
                print(f"   {diag.format()}")
            exit_code = max(
                exit_code, runtime.exit_code(strict=args.strict)
            )
    print("check:", "FAIL" if exit_code else "ok")
    return exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.scenarios import (
        ResultStore,
        format_comparison,
        load_sweep_spec,
        run_sweep,
        smoke_spec,
        write_results,
    )

    if args.smoke:
        spec = smoke_spec()
    elif args.spec:
        try:
            spec = load_sweep_spec(args.spec)
        except ValueError as exc:
            print(f"sweep: {exc}")
            return 2
    else:
        print("sweep: need a spec file or --smoke")
        return 2

    from repro.resilience.supervisor import SupervisorConfig, worker_count

    try:
        workers = worker_count(args.workers)
        config = SupervisorConfig.from_env(
            deadline=args.deadline, time_budget=args.time_budget
        )
    except ValueError as exc:
        print(f"sweep: {exc}")
        return 2
    store = ResultStore(Path(args.store)) if args.store else None
    result = run_sweep(
        spec, store=store, workers=workers, resume=args.resume,
        config=config,
    )
    print(format_comparison(
        result.records, title=f"scenario sweep -- {spec.name}"
    ))
    print(
        f"sweep: {result.ok} ok, {result.failed} failed, "
        f"{result.quarantined} quarantined, "
        f"{result.resumed} resumed, {result.computed} computed"
    )
    if not result.report.clean:
        print(result.report.format())
    if args.out:
        write_results(result.records, args.out)
        print(f"wrote {args.out}")
    if result.records and result.failed == len(result.records):
        return 1
    if args.strict and (result.failed or result.quarantined):
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.qa.analyze import main as analyze_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.out:
        argv += ["--out", args.out]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.update_baseline:
        argv.append("--update-baseline")
    for rule in args.suppress:
        argv += ["--suppress", rule]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.explain:
        argv += ["--explain", args.explain]
    if args.list_rules:
        argv.append("--list-rules")
    return analyze_main(argv)


#: Top-level spans the ``trace`` smoke command insists on seeing.
_TRACE_EXPECTED = ("flow.peec", "peec.assembly", "circuit.transient")

#: Least share of the traced flow's wall clock its root spans must cover.
_TRACE_MIN_COVERAGE = 0.95


def _seed_required_metrics() -> None:
    """Touch the headline counters so exports always carry them.

    A short run may never miss the cache or escalate a solve; creating
    the counters up front keeps the exported metric set stable so
    downstream tooling can rely on the keys being present.
    """
    from repro.obs import metrics as obs_metrics

    for name in (
        "extraction.cache.memory_hits",
        "extraction.cache.disk_hits",
        "extraction.cache.misses",
        "extraction.cache.stores",
        "solver.escalation_attempts",
        "solver.escalated_solves",
    ):
        obs_metrics.counter(name)


def _trace_payload(trace) -> dict:
    """JSON-serializable bundle of a trace plus the metrics registry."""
    from repro.obs import metrics as obs_metrics

    payload = trace.to_json()
    payload["metrics"] = obs_metrics.REGISTRY.export()
    return payload


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro import build_clock_testcase, run_peec_flow
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import tracing

    obs_metrics.REGISTRY.reset()
    _seed_required_metrics()
    case = build_clock_testcase(
        die=args.die * 1e-6,
        num_branches=2,
        branch_length=args.die * 1e-6 / 4,
        stripe_pitch=args.die * 1e-6 / 6,
    )
    with tracing() as trace:
        run_peec_flow(case)

    print(trace.format())
    print()
    print(obs_metrics.REGISTRY.render_prometheus())

    if args.json:
        with open(args.json, "w", encoding="ascii") as f:
            json.dump(_trace_payload(trace), f, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    exit_code = 0
    names = trace.span_names()
    for expected in _TRACE_EXPECTED:
        if expected not in names:
            print(f"trace: MISSING span {expected!r}")
            exit_code = 1
    if trace.open_spans:
        print(f"trace: {trace.open_spans} span(s) leaked (never closed)")
        exit_code = 1
    coverage = trace.span_coverage
    print(f"trace: root spans cover {coverage:.1%} of "
          f"{trace.wall_seconds:.3f} s")
    if coverage < _TRACE_MIN_COVERAGE:
        print(f"trace: span coverage below {_TRACE_MIN_COVERAGE:.0%}; "
              "part of the flow runs outside every span")
        exit_code = 1
    print("trace:", "FAIL" if exit_code else "ok")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-chip inductance analysis (Inductance 101, DAC 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-json", default=None, metavar="PATH",
                       help="run under the span collector and write the "
                            "span tree + metrics as JSON")

    for name, help_text in (
        ("table1", "Section-6 model comparison"),
        ("run", "alias of table1"),
    ):
        p_table1 = sub.add_parser(name, help=help_text)
        p_table1.add_argument("--die", type=float, default=600.0,
                              help="die size [um]")
        p_table1.add_argument("--branches", type=int, default=4)
        add_trace_json(p_table1)
        p_table1.set_defaults(func=_cmd_table1)

    p_loop = sub.add_parser("loop", help="Figure-3 loop extraction sweep")
    p_loop.add_argument("--length", type=float, default=1000.0,
                        help="signal length [um]")
    p_loop.add_argument("--assembly", choices=("exact", "hierarchical"),
                        default="exact",
                        help="partial-L assembly: exact (dense) or "
                             "hierarchical (compressed, matrix-free "
                             "Krylov solves)")
    add_trace_json(p_loop)
    p_loop.set_defaults(func=_cmd_loop)

    p_design = sub.add_parser("design", help="Figure 5-9 design studies")
    p_design.set_defaults(func=_cmd_design)

    p_export = sub.add_parser("export", help="export PEEC model as SPICE")
    p_export.add_argument("--out", default="clocknet.sp")
    p_export.set_defaults(func=_cmd_export)

    p_check = sub.add_parser(
        "check", help="electrical rule check over decks / script circuits"
    )
    p_check.add_argument("paths", nargs="+",
                         help="SPICE decks (.sp) and/or Python scripts (.py)")
    p_check.add_argument("--suppress", action="append", default=[],
                         metavar="RULE", help="drop findings of this rule id")
    p_check.add_argument("--strict", action="store_true",
                         help="exit non-zero on warnings too")
    p_check.add_argument("--sanitize", action="store_true",
                         help="run .py scripts under the numerics sanitizer "
                              "and include its findings")
    p_check.set_defaults(func=_cmd_check)

    p_trace = sub.add_parser(
        "trace", help="smoke-run a small PEEC flow under the span collector"
    )
    p_trace.add_argument("--die", type=float, default=300.0,
                         help="die size [um]")
    p_trace.add_argument("--json", default=None, metavar="PATH",
                         help="also write the span tree + metrics as JSON")
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep", help="run a declarative scenario sweep (JSON spec grid)"
    )
    p_sweep.add_argument("spec", nargs="?", default=None,
                         help="sweep spec JSON (grid over scenario fields)")
    p_sweep.add_argument("--smoke", action="store_true",
                         help="run the built-in 4-scenario CI smoke grid")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool width (1 = serial; default "
                              "REPRO_WORKERS, else CPU count)")
    p_sweep.add_argument("--store", default=None, metavar="DIR",
                         help="content-addressed result store directory "
                              "(per-scenario checkpointing + resume)")
    p_sweep.add_argument("--resume", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="serve scenarios already in the store "
                              "instead of recomputing them")
    p_sweep.add_argument("--out", default=None, metavar="PATH",
                         help="write the canonical aggregated results JSON")
    p_sweep.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-shard wall-clock deadline; hung workers "
                              "are killed and their shards reissued "
                              "(default REPRO_DEADLINE, else derived from "
                              "the time budget)")
    p_sweep.add_argument("--time-budget", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget for the whole sweep; "
                              "unfinished scenarios are quarantined when "
                              "it runs out (default REPRO_TIME_BUDGET)")
    p_sweep.add_argument("--strict", action="store_true",
                         help="exit non-zero if any scenario failed or "
                              "was quarantined")
    add_trace_json(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser(
        "analyze", help="project-wide dataflow lint (QA101-QA208)")
    p_an.add_argument("paths", nargs="*", default=["src/repro"])
    p_an.add_argument("--format", choices=("text", "json"), default="text")
    p_an.add_argument("--out", default=None, metavar="PATH")
    p_an.add_argument("--baseline", default=None, metavar="FILE")
    p_an.add_argument("--update-baseline", action="store_true")
    p_an.add_argument("--suppress", action="append", default=[],
                      metavar="RULE")
    p_an.add_argument("--rules", default=None, metavar="ID[,ID...]")
    p_an.add_argument("--explain", default=None, metavar="RULE")
    p_an.add_argument("--list-rules", action="store_true")
    p_an.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    try:
        # Checks REPRO_CACHE_SIZE for every command; in a fresh process
        # the import itself raises, as the cache is sized at import.
        from repro.perf.cache import cache_size

        cache_size()
    except ValueError as exc:
        print(f"repro: {exc}")
        return 2
    trace_json = getattr(args, "trace_json", None)
    if trace_json:
        import json

        from repro.obs import metrics as obs_metrics
        from repro.obs.trace import tracing

        obs_metrics.REGISTRY.reset()
        _seed_required_metrics()
        with tracing() as trace:
            status = args.func(args)
        with open(trace_json, "w", encoding="ascii") as f:
            json.dump(_trace_payload(trace), f, indent=2, sort_keys=True)
        print(f"wrote {trace_json}")
        return status
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
