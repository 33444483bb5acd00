"""E14 -- Section 7: simultaneous shield insertion and net ordering.

"Coupling noise can be reduced by simultaneously inserting shields and
ordering nets, subject to constraints on area, and bounds on inductive
and capacitive noise.  This optimization problem was found to be NP-hard
and hence was solved by algorithms based on greedy approaches or
simulated annealing."

The benchmark solves a batch of random SINO instances with both solvers
and reports feasibility and the area (track count) each needs -- the
annealer's job is to save shields over the greedy construction.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.design.sino import anneal_sino, greedy_sino, is_feasible, random_problem


def test_bench_sino(paper_report):
    seeds = tuple(range(8))
    problems = {seed: random_problem(num_nets=10, seed=seed) for seed in seeds}

    def solve_all():
        out = {}
        for seed, problem in problems.items():
            greedy = greedy_sino(problem)
            annealed = anneal_sino(problem, iterations=3000, seed=seed)
            out[seed] = (greedy, annealed)
        return out

    results = solve_all()

    rows = []
    total_saved = 0
    for seed, (greedy, annealed) in results.items():
        saved = greedy.area - annealed.area
        total_saved += saved
        rows.append([
            seed,
            greedy.area,
            len(greedy.shields_after),
            annealed.area,
            len(annealed.shields_after),
            saved,
        ])
    paper_report(format_table(
        ["instance", "greedy area", "greedy shields", "anneal area",
         "anneal shields", "tracks saved"],
        rows,
        title=(
            "Section 7 -- SINO: greedy vs simulated annealing over 8 "
            f"random 10-net channels (total tracks saved: {total_saved})"
        ),
    ))

    for seed, (greedy, annealed) in results.items():
        problem = problems[seed]
        assert is_feasible(problem, greedy)
        assert is_feasible(problem, annealed)
        assert annealed.area <= greedy.area
    assert total_saved >= 1  # annealing finds at least some savings
