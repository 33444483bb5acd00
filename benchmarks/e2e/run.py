"""End-to-end benchmark of the reproduction: four paper workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE] [--smoke]

Each workload runs in its own fresh child process (``workloads.py``),
one at a time, against the program under ``src/``.  Without
``--workload`` all four run in turn.  The command prints every metric by
name with its unit, checks every output, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` (the default) the metrics are the end-to-end ones of
``BENCHMARK.json``, measured untraced; ``--trace`` (or ``--trace 1``)
gives its per-layer ones from one extra traced repetition.  ``--out``
appends one JSON record per workload for ``compare.py``.
``--update-golden`` rewrites ``golden.json`` from seed-0 outputs.

Exit status: 0 all checks passed, 1 a check failed, 2 bad usage or no
program source next to the benchmark, 3 a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up is timed this many times per run (separate processes) and the
#: median reported: one process start is too noisy to gate on.
SETUP_SPAWNS = 3

#: Wall-clock cap of one workload, set-up spawns included [s].
WORKLOAD_LIMIT = 170.0


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The child's environment: this checkout's program, no ambient
    ``REPRO_*`` knobs (fault injection, cache directory, worker count),
    and single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread per process: on the two-CPU bench host a run that
    # keeps both CPUs busy varies about three times as much between
    # repetitions as one that leaves a CPU free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict[str, str],
              deadline: float) -> tuple[float, list[str]]:
    """Run one child to completion.

    Returns the seconds from spawn to its ``READY`` line and its stdout
    lines.  The child leads its own process group, so a timeout also
    kills any pool workers it started.
    """
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    lines: list[tuple[float, str]] = []

    def pump() -> None:
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out: {' '.join(cmd[1:])}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reader.join()
    ready = next((t for t, line in lines if line == "READY"), None)
    if proc.returncode != 0 or ready is None:
        raise ChildFailed(
            f"exit status {proc.returncode}: {' '.join(cmd[1:])}")
    return ready - spawned, [line for _, line in lines]


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Set-up spawns plus one measuring child; returns its result."""
    deadline = time.perf_counter() + WORKLOAD_LIMIT
    env = child_env()

    def cmd(mode: str) -> list[str]:
        return [sys.executable, str(HERE / "workloads.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--mode", mode] + (["--smoke"] if args.smoke else [])

    # The traced run reports no set-up time, so it spawns only once.
    spawns = 1 if args.trace else SETUP_SPAWNS
    setups = [run_child(cmd("setup"), env, deadline)[0]
              for _ in range(spawns - 1)]
    setup_s, lines = run_child(cmd("measure"), env, deadline)
    setups.append(setup_s)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}: no result line") from None
    result["setup_samples"] = setups
    return result


def end_to_end(result: dict) -> dict[str, dict]:
    """The end-to-end metrics of one measured workload."""
    reps = result["reps"]
    walls = [r["wall_s"] for r in reps]
    cpus = [r["cpu_s"] for r in reps]
    setups = result["setup_samples"]
    done = sum(r["items"] for r in reps)

    def metric(value: float, unit: str, n: int) -> dict:
        return {"value": float(value), "unit": unit, "n": n}

    median = statistics.median
    return {
        "setup_s": metric(median(setups), "s", len(setups)),
        "run_s": metric(median(walls) if walls else 0.0, "s", len(walls)),
        "items_per_s": metric(done / sum(walls) if walls else 0.0, "1/s",
                              len(walls)),
        "cpu_s": metric(median(cpus) if cpus else 0.0, "s", len(cpus)),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB", 1),
        "max_rel_error": metric(result["max_rel_error"], "ratio",
                                len(result["checks"])),
        "failed_frac": metric(result["failed"] / result["attempted"],
                              "ratio", result["attempted"]),
    }


def report(workload: str, result: dict, metrics: dict[str, dict],
           args: argparse.Namespace) -> None:
    """Human-readable block: every metric with unit and sample count."""
    print(f"== {workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{len(result['reps'])} rep(s)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    checks = result["checks"]
    passed = sum(1 for c in checks if c["ok"])
    print(f"  checks: {passed}/{len(checks)} passed")
    for c in checks:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")


def update_golden(names: list[str], args: argparse.Namespace) -> int:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    args.seed, args.seconds, args.trace, args.smoke = 0, 0.0, 0, False
    for workload in names:
        golden[workload] = run_workload(workload, args)["outputs"]
        print(f"golden: {workload} updated")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction.")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the golden seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per workload here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness tests")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from seed-0 outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    if args.update_golden:
        return update_golden(selected, args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct, attempted, failed = True, 0, 0
    line_metrics: dict[str, dict] = {}
    for workload in selected:
        try:
            result = run_workload(workload, args)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 3
        metrics = (result["layers"] or {}) if args.trace \
            else end_to_end(result)
        report(workload, result, metrics, args)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for m in wanted:
            if m["name"] not in metrics:  # no traced pass: a rep raised
                continue
            key = m["name"] if args.workload else f"{workload}.{m['name']}"
            line_metrics[key] = {"value": metrics[m["name"]]["value"],
                                 "unit": metrics[m["name"]]["unit"]}
        if args.out:
            record = {k: v for k, v in result.items() if k != "outputs"}
            record.update(trace=args.trace, seconds=args.seconds,
                          metrics=metrics)
            with args.out.open("a") as f:
                f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
