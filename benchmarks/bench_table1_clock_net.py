"""E6 -- Table 1: global clock net, PEEC(RC) vs PEEC(RLC) vs LOOP(RLC).

Paper values (proprietary Motorola clock net; reproduced here in *shape*
on the synthetic topology -- see DESIGN.md's substitution table):

    Table 1: Simulation of global clock net
                 PEEC (RC)   PEEC (RLC)   LOOP (RLC)
    Num. of R    220k        220k         3k
    Num. of C    400k        400k         6k
    Num. of L    --          190k         2k
    # mutuals    --          (dense, sparsified)  --
    Worst delay  86 ps       116 ps       ~146 ps (RC + 60 ps)
    Worst skew   9 ps        19 ps        12 ps
    Run-time     20 min      45 min       5 min

Expected shape: RLC delay/skew > RC; LOOP has ~10-100x fewer elements and
no mutuals, runs fastest, and still shows an inductance-induced delay
increase over RC (with error vs the detailed model).
"""

from __future__ import annotations

import pytest

from repro import build_clock_testcase, run_loop_flow, run_peec_flow
from repro.analysis.report import format_table
from repro.constants import to_ps

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def case():
    return build_clock_testcase(
        die=600e-6,
        stripe_pitch=80e-6,
        num_branches=4,
        branch_length=160e-6,
        t_stop=1.0e-9,
        dt=2e-12,
    )


def test_bench_peec_rc(case):
    _RESULTS["PEEC (RC)"] = run_peec_flow(case, include_inductance=False)
    assert _RESULTS["PEEC (RC)"].worst_delay > 0


def test_bench_peec_rlc(case):
    _RESULTS["PEEC (RLC)"] = run_peec_flow(case)
    assert _RESULTS["PEEC (RLC)"].worst_delay > 0


def test_bench_loop_rlc(case, paper_report):
    _RESULTS["LOOP (RLC)"] = run_loop_flow(case)

    rows = []
    for name in ("PEEC (RC)", "PEEC (RLC)", "LOOP (RLC)"):
        res = _RESULTS[name]
        rows.append([
            name,
            res.stats["resistors"],
            res.stats["capacitors"],
            res.stats["inductors"],
            res.stats["mutuals"],
            f"{to_ps(res.worst_delay):.1f}",
            f"{to_ps(res.worst_skew):.2f}",
            f"{res.total_seconds:.2f}",
        ])
    paper_report(format_table(
        ["model", "Num R", "Num C", "Num L", "# mutuals",
         "worst delay [ps]", "worst skew [ps]", "run-time [s]"],
        rows,
        title="Table 1 -- Simulation of global clock net (synthetic scale)",
    ))

    rc = _RESULTS["PEEC (RC)"]
    rlc = _RESULTS["PEEC (RLC)"]
    loop = _RESULTS["LOOP (RLC)"]
    # Paper-shape assertions.
    assert rlc.worst_delay > rc.worst_delay
    assert rlc.worst_skew > rc.worst_skew
    assert loop.stats["resistors"] < rlc.stats["resistors"] / 5
    assert loop.stats["mutuals"] == 0
    assert loop.total_seconds < rlc.total_seconds
    assert loop.worst_delay > rc.worst_delay * 0.9
