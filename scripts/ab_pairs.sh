#!/usr/bin/env bash
# Alternating A/B pairs of the end-to-end benchmark.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR FIRST_SEED PAIRS [WORKLOAD...]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (e.g. a `git archive` of the
# parent commit and this tree).  For each seed FIRST_SEED .. FIRST_SEED +
# PAIRS - 1 and each workload (default: all four), it runs
# `benchmarks/e2e/run.py --workload W --seed S` in both checkouts, each
# with its own `src/` and the `BENCHMARK.json` run length, alternating
# which side runs first so that drift in the host's load falls on both
# sides.  Then it runs one traced repetition (`--trace 1 --seconds 0`,
# FIRST_SEED) of each workload on each side, for the per-layer table,
# and one untimed seed-0 repetition (`workloads.py --mode measure
# --seconds 0`) of each workload on each side, whose output summaries it
# compares.  Records go to `ab_parent.jsonl` and `ab_change.jsonl` under
# AB_OUT (default: a new temporary directory); at the end it prints
# `compare.py`'s table of medians, quartiles and verdicts, the
# per-layer medians of the traced records, and per workload whether the
# seed-0 outputs are `byte-identical` or their `max_rel_diff`.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    sed -n '4,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
first_seed=$3
pairs=$4
shift 4
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(table1 loop_sweep loop_sweep_hier variant_sweep)
fi
out=${AB_OUT:-$(mktemp -d)}
mkdir -p "$out"

run() {  # run SIDE_DIR OUT_FILE WORKLOAD SEED [RUN_PY_ARG...]
    (cd "$1" && python3 benchmarks/e2e/run.py --workload "$3" --seed "$4" \
        --out "$2" "${@:5}" > /dev/null)
}

seed0() {  # seed0 SIDE_DIR WORKLOAD OUT_FILE: one seed-0 result line
    # The environment of run.py's children: no REPRO_* knobs, one BLAS
    # thread, the side's own src/.
    (cd "$1" && for var in $(compgen -e | grep '^REPRO_' || true); do
        unset "$var"
    done
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        MKL_NUM_THREADS=1 python3 benchmarks/e2e/workloads.py \
        --workload "$2" --seed 0 --seconds 0 --mode measure | tail -n 1 > "$3")
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    for workload in "${workloads[@]}"; do
        echo "pair $((i + 1))/$pairs  seed $seed  $workload" >&2
        if ((i % 2 == 0)); then
            run "$parent" "$out/ab_parent.jsonl" "$workload" "$seed"
            run "$change" "$out/ab_change.jsonl" "$workload" "$seed"
        else
            run "$change" "$out/ab_change.jsonl" "$workload" "$seed"
            run "$parent" "$out/ab_parent.jsonl" "$workload" "$seed"
        fi
    done
done

for workload in "${workloads[@]}"; do
    echo "traced  seed $first_seed  $workload" >&2
    run "$parent" "$out/ab_parent.jsonl" "$workload" "$first_seed" \
        --trace 1 --seconds 0
    run "$change" "$out/ab_change.jsonl" "$workload" "$first_seed" \
        --trace 1 --seconds 0
done

for workload in "${workloads[@]}"; do
    echo "seed-0 outputs  $workload" >&2
    seed0 "$parent" "$workload" "$out/seed0_parent_$workload.json"
    seed0 "$change" "$workload" "$out/seed0_change_$workload.json"
done

echo "records: $out/ab_parent.jsonl $out/ab_change.jsonl" >&2
python3 "$change/benchmarks/e2e/compare.py" \
    "$out/ab_parent.jsonl" "$out/ab_change.jsonl"
(cd "$change" && PYTHONPATH=src python3 - "$out" "${workloads[@]}" <<'EOF'
import json
import sys

sys.path.insert(0, "benchmarks/e2e")
from workloads import max_rel_diff

out = sys.argv[1]
print()
for workload in sys.argv[2:]:
    parent, change = (
        json.load(open(f"{out}/seed0_{side}_{workload}.json"))["outputs"]
        for side in ("parent", "change"))
    if json.dumps(parent) == json.dumps(change):
        verdict = "byte-identical"
    else:
        verdict = f"max_rel_diff {max_rel_diff(change, parent):.3e}"
    print(f"seed-0 outputs  {workload:<16} {verdict}")
EOF
)
