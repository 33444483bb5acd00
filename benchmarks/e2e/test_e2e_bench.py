"""Harness tests of the end-to-end benchmark, at smoke scale.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """An untraced and a traced smoke run of every workload:
    ``{trace: (last stdout line as JSON, --out records)}``."""
    runs = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp("e2e") / "runs.jsonl"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--seconds", "0.2", "--trace", str(trace), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        runs[trace] = (last, records)
    return runs


def test_workloads_match_spec():
    assert tuple(NAMES) == workloads.WORKLOADS


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_unit(smoke_runs, trace, kind):
    last, records = smoke_runs[trace]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in NAMES for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert [r["workload"] for r in records] == NAMES
    for record in records:
        for m in SPEC[kind]:
            assert record["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert record["metrics"]["failed_frac"]["value"] == 0.0
            assert record["metrics"]["max_rel_error"]["value"] <= 1e-6


def test_trace_covers_the_run(smoke_runs):
    _, records = smoke_runs[1]
    layer = {r["workload"]: r["metrics"] for r in records}
    assert layer["loop_sweep"]["circuit.linalg.factor_calls"]["value"] >= 3
    assert layer["loop_sweep_hier"]["circuit.linalg.gmres_s"]["value"] > 0
    assert layer["table1"]["circuit.transient.steps"]["value"] > 0
    assert layer["variant_sweep"]["scenarios.scenario_s_p50"]["n"] == 4
    for metrics in layer.values():
        assert metrics["obs.span_coverage"]["value"] > 0.5


def _perturb_first_float(value, factor: float):
    """Copy of ``value`` with its first float scaled by ``factor``."""
    done = [False]

    def walk(v):
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, float) and v and not done[0]:
            done[0] = True
            return v * factor
        return v

    out = walk(value)
    assert done[0], "no float to perturb"
    return out


@pytest.mark.parametrize("workload", NAMES)
def test_perturbed_golden_fails(workload):
    golden = workloads.load_golden()[workload]
    rtol = workloads.RTOL[workload]
    assert workloads.max_rel_diff(golden, golden) == 0.0
    perturbed = _perturb_first_float(golden, 1.0 + 10 * rtol)
    assert workloads.max_rel_diff(perturbed, golden) > rtol


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("smoke", [False, True])
def test_seed_determines_inputs(workload, smoke):
    make = workloads.make_inputs
    for seed in (0, 3):
        assert make(workload, seed, smoke) == make(workload, seed, smoke)
    assert make(workload, 1, smoke) != make(workload, 2, smoke)
    assert make(workload, 1, smoke) != make(workload, 0, smoke)


def test_trace_restores_every_wrapper():
    originals = layers.wrapped_originals()
    inputs = workloads.make_inputs("loop_sweep_hier", 0, smoke=True)
    with layers.instrumented() as probe:
        assert any(getattr(owner, attr) is not orig
                   for owner, attr, orig in originals)
        state = workloads.build("loop_sweep_hier", inputs)
        workloads.repetition("loop_sweep_hier", state, inputs)
    assert probe.trace.find("circuit.linalg.gmres") is not None
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, f"{owner}.{attr} still wrapped"

    with pytest.raises(RuntimeError):
        with layers.instrumented():
            raise RuntimeError("boom")
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, f"{owner}.{attr} still wrapped"
