#!/usr/bin/env bash
# Tier-1 gate: unit tests, the repo-specific static analysis, and the
# electrical rule check over every shipped example.  All must be green.
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
python -m pytest benchmarks --ignore=benchmarks/e2e -q

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
