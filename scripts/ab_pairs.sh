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
# per-layer medians of the traced records, one gain-rule line per
# workload and end-to-end metric, and per workload whether the seed-0
# outputs are `byte-identical` or their `max_rel_diff`.
#
# The gain rule: over the untraced records, matched by seed, the pairs
# the change won (ties count for neither side), the gap between the two
# medians (positive when the change is better) and the parent's
# quartile spread (q3 - q1).  A line ends in `gain shown` when the
# change won at least 9 in 10 pairs and the gap exceeds that spread.
# The exit status is compare.py's.
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
status=0
python3 "$change/benchmarks/e2e/compare.py" \
    "$out/ab_parent.jsonl" "$out/ab_change.jsonl" || status=$?
(cd "$change" && PYTHONPATH=src python3 - "$out" "${workloads[@]}" <<'EOF'
import json
import sys

sys.path.insert(0, "benchmarks/e2e")
from compare import quartiles
from workloads import max_rel_diff

out = sys.argv[1]


def timed(side):
    """``(workload, seed) -> metric -> value`` of one side's untraced runs."""
    runs = {}
    with open(f"{out}/ab_{side}.jsonl") as f:
        for record in map(json.loads, filter(str.strip, f)):
            if record["trace"] == 0:
                runs[(record["workload"], record["seed"])] = {
                    name: float(m["value"])
                    for name, m in record["metrics"].items()}
    return runs


timed_parent, timed_change = timed("parent"), timed("change")
spec = json.load(open("BENCHMARK.json"))
print()
for workload in sys.argv[2:]:
    seeds = sorted(s for w, s in timed_parent
                   if w == workload and (w, s) in timed_change)
    if not seeds:
        continue
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        a = [timed_parent[(workload, s)][name] for s in seeds]
        b = [timed_change[(workload, s)][name] for s in seeds]
        won = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        q1, med_a, q3 = quartiles(a)
        gap = sign * (med_a - quartiles(b)[1])
        shown = 10 * won >= 9 * len(seeds) and gap > q3 - q1
        print(f"gain rule  {workload:<16} {name:<12} won {won}/{len(seeds)}"
              f"  gap {gap:+.4g} {m['unit']}  parent spread "
              f"{q3 - q1:.4g} {m['unit']}  "
              f"{'gain shown' if shown else 'no gain shown'}")
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
exit $status
