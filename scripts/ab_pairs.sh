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
# FIRST_SEED) of each workload on each side, for the per-layer table.
# Records go to `ab_parent.jsonl` and `ab_change.jsonl` under AB_OUT
# (default: a new temporary directory); at the end it prints
# `compare.py`'s table of medians, quartiles and verdicts, and the
# per-layer medians of the traced records.
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

echo "records: $out/ab_parent.jsonl $out/ab_change.jsonl" >&2
python3 "$change/benchmarks/e2e/compare.py" \
    "$out/ab_parent.jsonl" "$out/ab_change.jsonl"
