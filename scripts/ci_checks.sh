#!/usr/bin/env bash
# Tier-1 gate: unit tests, the repo-specific AST lint, and the electrical
# rule check over every shipped example.  Everything must be green.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 pytest =="
python -m pytest -x -q

echo
echo "== fault-injection chaos pytest (REPRO_FAULTS=chaos-1234) =="
# REPRO_HANG_SECONDS=2 keeps the rare chaos 'hang' faults short enough
# for the suite's own deadlines.
REPRO_FAULTS=chaos-1234 REPRO_HANG_SECONDS=2 python -m pytest -x -q

echo
echo "== e2e benchmark harness (golden outputs + paper-shape checks) =="
# Smoke-scale runs of the four benchmark workloads must pass their
# paper-shape and agreement checks; the golden-file comparison and the
# trace ledger are tested too.
python -m pytest benchmarks/e2e -q

echo
echo "== e2e golden outputs at full scale (seed 0, one repetition each) =="
# Seed 0 compares all four workloads against benchmarks/e2e/golden.json
# (1e-6 for table1, 1e-9 for the sweeps) on top of the paper-shape
# checks; ~50 s.
python3 benchmarks/e2e/run.py --seed 0 --seconds 0.1

echo
echo "== paper-shape benchmarks (Figures 1-9, Section 4, SINO, grid noise) =="
# The bench_*.py assertions: orderings, trends and counts, no timings
# except the Table-1 LOOP-vs-RLC run-time claim; ~35 s.
python -m pytest benchmarks --benchmark-disable --ignore=benchmarks/e2e -q

echo
echo "== repro.qa.astlint over src =="
python -m repro.qa.astlint src

echo
echo "== repro analyze over src/repro (baseline-ratcheted) =="
# Fails on any finding not in qa/baseline.json; the JSON report is the
# build artifact (inspect it to triage a red gate).
python -m repro.cli analyze src/repro \
    --baseline qa/baseline.json \
    --format json --out /tmp/analyze_ci_report.json > /dev/null
echo "analyze: clean against qa/baseline.json (report: /tmp/analyze_ci_report.json)"

echo
echo "== repro check over the examples =="
python -m repro.cli check examples/*.py

echo
echo "== repro trace smoke (span tree complete, root spans cover >= 95% of the flow) =="
python -m repro.cli trace --die 250 --json /tmp/trace_ci_smoke.json

echo
echo "== repro bench --smoke vs checked-in baseline =="
python -m repro.cli bench --smoke --out /tmp/bench_ci_smoke.json \
    --baseline benchmarks/baseline_smoke.json --max-regression 2.0

echo
echo "== hierarchical-vs-exact smoke gate (ACA error + passivity) =="
# compare_benchmarks already gates these when the baseline has the
# section; this asserts them directly so the gate cannot silently lapse
# if the baseline section is ever dropped.
python - <<'PY'
import json
hier = json.load(open("/tmp/bench_ci_smoke.json"))["sections"]["hierarchical"]
assert hier["max_rel_error"] <= 1e-3, \
    f"hierarchical error {hier['max_rel_error']:.3e} exceeds 1e-3"
assert hier["spd_ok"] is True, "hierarchical materialization not SPD"
print(f"hierarchical smoke: n={hier['n']} err={hier['max_rel_error']:.2e} "
      f"spd_ok={hier['spd_ok']} speedup={hier.get('speedup')}")
PY

echo
echo "== iterative-vs-dense smoke gate (matrix-free solve path) =="
# The Krylov tier must solve the hierarchical extraction without ever
# materializing L (to_dense_calls == 0) and without falling back to the
# dense direct rung, while matching the dense sweep to 1e-6.  The
# near-field preconditioner must keep GMRES to at most 30 iterations per
# solve on average (a repeatable count, not a timing): a weaker one
# would only slow the sweep, never fail it.
python - <<'PY'
import json
it = json.load(open("/tmp/bench_ci_smoke.json"))["sections"]["solve_iterative"]
assert it["max_rel_error"] <= 1e-6, \
    f"iterative solve error {it['max_rel_error']:.3e} exceeds 1e-6"
assert it["to_dense_calls"] == 0, \
    f"hierarchical operator densified {it['to_dense_calls']} time(s)"
assert it["krylov_fallbacks"] == 0, \
    f"{it['krylov_fallbacks']} Krylov solve(s) fell back to dense direct"
assert it["krylov_iterations"] <= 30 * it["krylov_solves"], \
    (f"{it['krylov_iterations']} GMRES iterations over "
     f"{it['krylov_solves']} solves exceeds 30 per solve")
print(f"solve_iterative smoke: err={it['max_rel_error']:.2e} "
      f"gmres_iters={it['krylov_iterations']} "
      f"solves={it['krylov_solves']} "
      f"operator_bytes={it['operator_bytes']}")
PY

echo
echo "== repro sweep --smoke (serial and sharded must be bit-identical) =="
python -m repro.cli sweep --smoke --workers 1 --no-resume \
    --store /tmp/sweep_ci_serial --out /tmp/sweep_ci_serial.json
python -m repro.cli sweep --smoke --workers 2 --no-resume \
    --store /tmp/sweep_ci_sharded --out /tmp/sweep_ci_sharded.json
cmp /tmp/sweep_ci_serial.json /tmp/sweep_ci_sharded.json

echo
echo "== chaos-hang sweep (hung workers must be quarantined, never stall) =="
# Every pool worker hangs for 120s, far past the 2s chunk deadline.  The
# supervisor must kill the hung workers, quarantine (or serially finish)
# the affected scenarios, and exit 0 -- well inside the coreutils
# timeout(1) backstop.
REPRO_FAULTS='*.worker=hang' REPRO_HANG_SECONDS=120 \
timeout 300 python -m repro.cli sweep --smoke --no-resume --workers 2 \
    --deadline 2 --out /tmp/sweep_ci_hang.json | tee /tmp/sweep_ci_hang.log
grep -q "quarantined" /tmp/sweep_ci_hang.log
if grep -q " 0 quarantined" /tmp/sweep_ci_hang.log; then
    echo "chaos-hang sweep: expected at least one quarantined scenario" >&2
    exit 1
fi

echo
echo "ci_checks: all green"
