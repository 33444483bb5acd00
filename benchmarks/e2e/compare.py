"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` and ``B`` are files that ``run.py --out`` appended to: one record
per workload and invocation, typically several seeds each.  For every
(workload, end-to-end metric) pair the tool prints each set's median
and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``WORSE``       B's median is worse than A's by more than the bound;
* ``unresolved``  a set's quartile spread, as a share of its median,
  exceeds the bound, so these runs cannot tell either way.

``max_rel_error`` is held to an absolute ceiling of 1e-6 and
``failed_frac`` to 0 in both sets.  Traced records, when both files
have them, add a per-layer table of medians (no bounds).  The exit
status is 1 when any pair is WORSE or breaks a ceiling, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Correctness ceilings: the largest value either set may show.
CEILINGS = {"max_rel_error": 1e-6, "failed_frac": 0.0}


def load(path: Path) -> dict[tuple[int, str], dict[str, list[float]]]:
    """``(trace, workload) -> metric -> values`` from a ``--out`` file."""
    runs: dict[tuple[int, str], dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        group = runs.setdefault((record["trace"], record["workload"]), {})
        for name, metric in record["metrics"].items():
            group.setdefault(name, []).append(float(metric["value"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """Verdict of one pair and B's relative change (positive = worse)."""
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    return ("WORSE" if worse > bound else "ok"), worse


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of run.py --out records.")
    parser.add_argument("a", type=Path, help="baseline set")
    parser.add_argument("b", type=Path, help="candidate set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load(args.a), load(args.b)
    bad = False

    print(f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'change':>8s} {'bound':>7s}  verdict")
    workloads = sorted({w for t, w in set_a if t == 0}
                       & {w for t, w in set_b if t == 0})
    for workload in workloads:
        a, b = set_a[(0, workload)], set_b[(0, workload)]
        for m in spec["end_to_end"]:
            name = m["name"]
            result, worse = verdict(a[name], b[name], m["bound"], m["better"])
            bad = bad or result == "WORSE"
            print(f"{workload:16s} {name:14s} {fmt(a[name]):34s} "
                  f"{fmt(b[name]):34s} {worse:+8.1%} {m['bound']:7.0%}  "
                  f"{result}")
        for name, ceiling in CEILINGS.items():
            top = max(a[name] + b[name])
            result = "ok" if top <= ceiling else "FAILED"
            bad = bad or result == "FAILED"
            print(f"{workload:16s} {name:14s} {fmt(a[name]):34s} "
                  f"{fmt(b[name]):34s} {'':8s} {ceiling:7.0e}  {result}")

    traced = sorted({w for t, w in set_a if t == 1}
                    & {w for t, w in set_b if t == 1})
    for workload in traced:
        a, b = set_a[(1, workload)], set_b[(1, workload)]
        print(f"\nper-layer medians, {workload}")
        for m in spec["per_layer"]:
            med_a = quartiles(a[m["name"]])[1]
            med_b = quartiles(b[m["name"]])[1]
            change = f"{(med_b - med_a) / abs(med_a):+8.1%}" if med_a else ""
            print(f"  {m['name']:34s} {med_a:12.5g} {med_b:12.5g} "
                  f"{m['unit']:6s} {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
