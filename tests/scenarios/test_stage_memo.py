"""The per-sweep stage memo: each distinct stage input computed once.

The grid below repeats every stage key: the two sparsifiers share each
loop extraction and transient, the two frequencies share each geometry
and sparsifier apply.
"""

import json
from collections import Counter

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracing
from repro.resilience.faults import FaultSpec, inject_faults
from repro.scenarios import runner as runner_mod
from repro.scenarios.runner import evaluate_scenario
from repro.scenarios.scheduler import run_sweep
from repro.scenarios.spec import Scenario, SweepSpec

FREQS = [1e9, 3e9]
STAGES = 4


def repeating_spec() -> SweepSpec:
    # 2 variants x 2 sparsifiers x 2 frequencies = 8 scenarios over
    # 2 geometries, 4 loop extractions, 4 sparsifier stages, 4 transients.
    return SweepSpec(
        name="memo",
        grid={
            "variant": ["baseline", "shielded"],
            "sparsifier": ["none", "truncation"],
            "frequency": FREQS,
        },
        defaults={"length": 100e-6, "t_stop": 0.6e-9},
    )


def _loop_key(sc: Scenario) -> tuple:
    return sc.variant, sc.length, sc.frequency


def _counts(names=("sweep.stages.computed", "sweep.stages.reused")):
    return {n: obs_metrics.counter(n).value for n in names}


@pytest.fixture
def calls(monkeypatch):
    """Counts the stage engines' calls, by the key each stage reads."""
    seen = {"geometry": Counter(), "loop": Counter(), "transient": 0}
    build, extract, transient = (runner_mod.build_variant,
                                 runner_mod.extract_loop_impedance,
                                 runner_mod.transient_analysis)

    def counted_build(name, length):
        seen["geometry"][name, length] += 1
        return build(name, length)

    def counted_extract(layout, port, freqs, **kwargs):
        seen["loop"][id(layout), tuple(freqs)] += 1
        return extract(layout, port, freqs, **kwargs)

    def counted_transient(*args, **kwargs):
        seen["transient"] += 1
        return transient(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "build_variant", counted_build)
    monkeypatch.setattr(runner_mod, "extract_loop_impedance", counted_extract)
    monkeypatch.setattr(runner_mod, "transient_analysis", counted_transient)
    return seen


class TestRecordsUnchanged:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_equals_one_shot_evaluations(self, workers):
        spec = repeating_spec()
        with inject_faults():
            swept = run_sweep(spec, workers=workers)
            one_shot = [evaluate_scenario(sc) for sc in spec.expand()]
        assert json.dumps(swept.records) == json.dumps(one_shot)
        assert swept.ok == 8


class TestEachKeyOnce:
    def test_engines_run_once_per_distinct_key(self, calls):
        spec = repeating_spec()
        before = _counts()
        with inject_faults(), tracing() as trace:
            result = run_sweep(spec, workers=1)
        assert result.ok == 8
        assert set(calls["geometry"]) == {
            ("baseline", 100e-6), ("shielded", 100e-6)}
        assert set(calls["geometry"].values()) == {1}
        assert len(calls["loop"]) == 4
        assert set(calls["loop"].values()) == {1}
        assert calls["transient"] == 4
        # 2 + 4 + 4 + 4 distinct stages of 8 x 4.
        after = _counts()
        assert after["sweep.stages.computed"] - \
            before["sweep.stages.computed"] == 14
        assert after["sweep.stages.reused"] - \
            before["sweep.stages.reused"] == 8 * STAGES - 14
        reused = [s.attrs["reused"] for s in trace.iter_spans()
                  if s.name == "sweep.scenario"]
        assert reused[0] == ""
        # (3e9, truncation, shielded) is the last cell: its geometry and
        # sparsifier repeat the 1e9 cell's, its loop and transient the
        # 3e9 "none" cell's.
        assert reused[-1] == "geometry,loop,sparsify,transient"

    def test_pool_workers_bring_the_counters_home(self):
        spec = repeating_spec()
        before = _counts()
        with inject_faults():
            result = run_sweep(spec, workers=2, chunk=2)
        assert result.ok == 8
        after = _counts()
        computed = after["sweep.stages.computed"] - \
            before["sweep.stages.computed"]
        reused = after["sweep.stages.reused"] - before["sweep.stages.reused"]
        # Each worker fills its own memo, so at least the 14 distinct
        # stages are computed, and every stage of every scenario counts.
        assert computed >= 14
        assert computed + reused == 8 * STAGES

    def test_scenarios_differing_only_in_dt_share_all_but_the_transient(
        self, calls
    ):
        scenarios = [
            Scenario(variant="baseline", sparsifier="truncation",
                     length=100e-6, t_stop=0.6e-9, dt=dt)
            for dt in (2e-12, 1e-12)
        ]
        with inject_faults(), tracing() as trace:
            result = run_sweep(scenarios, workers=1)
        assert result.ok == 2
        assert sum(calls["geometry"].values()) == 1
        assert sum(calls["loop"].values()) == 1
        assert calls["transient"] == 2
        reused = [s.attrs["reused"] for s in trace.iter_spans()
                  if s.name == "sweep.scenario"]
        assert reused == ["", "geometry,loop,sparsify"]


class TestSharedEvents:
    def test_sparsifier_refusal_reaches_every_sharing_scenario(
        self, monkeypatch
    ):
        applies = []

        def refuse(sparsifier, extraction):
            applies.append(sparsifier)
            raise ValueError("matrix refused")

        monkeypatch.setattr(runner_mod, "traced_apply", refuse)
        spec = repeating_spec()
        with inject_faults():
            result = run_sweep(spec, workers=1)
        assert len(applies) == 2  # one per variant, not per frequency
        for record in result.records:
            refused = [n for n in record["notes"]
                       if n["kind"] == "downgrade"
                       and "matrix refused" in n["detail"]]
            sparsified = record["params"]["sparsifier"] != "none"
            assert len(refused) == int(sparsified)
            assert record["metrics"].get("sparsify_degraded", False) \
                is sparsified

    def test_step_halving_reaches_every_sharing_scenario(self):
        spec = repeating_spec()
        scenarios = spec.expand()
        # Two NaNs land on the first transient computed: its block
        # replays step by step and both backward-Euler steps are halved.
        with inject_faults(FaultSpec("transient.*", "nan", max_hits=2)):
            result = run_sweep(spec, workers=1)
        assert result.ok == 8
        first = _loop_key(scenarios[0])
        for sc, record in zip(scenarios, result.records):
            halvings = [n for n in record["notes"]
                        if n["kind"] == "step-halving"]
            assert bool(halvings) == (_loop_key(sc) == first), sc
        halved = [r["notes"] for r, sc in zip(result.records, scenarios)
                  if _loop_key(sc) == first]
        assert len(halved) == 2 and halved[0] == halved[1]


class TestFailedStages:
    def test_raising_loop_stage_is_rerun_and_fails_alike(self, monkeypatch):
        extract = runner_mod.extract_loop_impedance
        raised = []

        def flaky(layout, port, freqs, **kwargs):
            if freqs == [FREQS[1]]:
                raised.append(freqs)
                raise RuntimeError("mesh solve exploded")
            return extract(layout, port, freqs, **kwargs)

        monkeypatch.setattr(runner_mod, "extract_loop_impedance", flaky)
        spec = repeating_spec()
        with inject_faults():
            result = run_sweep(spec, workers=1)
        failed = [r for r in result.records if r["status"] == "failed"]
        # Not stored: each of the 4 scenarios at 3 GHz runs it again.
        assert len(failed) == 4 and len(raised) == 4
        assert all(r["params"]["frequency"] == FREQS[1] for r in failed)
        assert {r["error"] for r in failed} == {
            "RuntimeError: mesh solve exploded"}
        assert all(r["metrics"] == {} for r in failed)
        assert result.ok == 4
