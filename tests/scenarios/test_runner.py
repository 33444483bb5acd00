"""Single-scenario evaluation: records, determinism, failure capture."""

import math

import numpy as np
import pytest

from repro.resilience.faults import inject_faults
from repro.scenarios import runner as runner_mod
from repro.scenarios.runner import evaluate_scenario
from repro.scenarios.spec import Scenario

CHEAP = dict(length=100e-6, t_stop=0.6e-9)


class TestEvaluateScenario:
    def test_ok_record_shape(self):
        with inject_faults():
            record = evaluate_scenario(Scenario(variant="baseline", **CHEAP))
        assert record["status"] == "ok"
        assert "error" not in record
        assert record["id"] == Scenario(variant="baseline", **CHEAP).scenario_id
        m = record["metrics"]
        assert m["num_filaments"] > 0
        assert m["loop_resistance"] > 0
        assert m["loop_inductance"] > 0
        assert m["delay"] > 0
        assert m["overshoot"] >= 0
        assert all(
            np.isfinite(v) for v in m.values() if isinstance(v, float)
        )

    def test_record_is_deterministic(self):
        sc = Scenario(variant="shielded", sparsifier="truncation", **CHEAP)
        with inject_faults():
            assert evaluate_scenario(sc) == evaluate_scenario(sc)

    def test_sparsifier_stage_reports_passivity(self):
        sc = Scenario(variant="shielded", sparsifier="truncation", **CHEAP)
        with inject_faults():
            record = evaluate_scenario(sc)
        m = record["metrics"]
        assert m["sparsify_kind"] == "L"
        assert 0 < m["sparsify_mutuals_kept"] <= m["sparsify_mutuals_total"]
        assert "sparsify_positive_definite" in m

    def test_none_sparsifier_skips_stage(self):
        with inject_faults():
            record = evaluate_scenario(Scenario(variant="baseline", **CHEAP))
        assert not any(k.startswith("sparsify") for k in record["metrics"])

    def test_build_failure_is_data_not_abort(self, monkeypatch):
        def boom(name, length):
            raise RuntimeError("geometry exploded")

        monkeypatch.setattr(runner_mod, "build_variant", boom)
        record = evaluate_scenario(Scenario(variant="baseline", **CHEAP))
        assert record["status"] == "failed"
        assert "geometry exploded" in record["error"]
        assert record["metrics"] == {}

    def test_sparsifier_refusal_degrades_not_fails(self, monkeypatch):
        def refuse(sparsifier, extraction):
            raise ValueError("matrix refused")

        monkeypatch.setattr(runner_mod, "traced_apply", refuse)
        sc = Scenario(variant="baseline", sparsifier="truncation", **CHEAP)
        with inject_faults():
            record = evaluate_scenario(sc)
        assert record["status"] == "ok"
        assert record["metrics"]["sparsify_degraded"] is True
        downgrades = [n for n in record["notes"] if n["kind"] == "downgrade"]
        assert downgrades and "matrix refused" in downgrades[0]["detail"]
        # the transient metrics still landed
        assert record["metrics"]["delay"] > 0

    def test_positive_definiteness_refusal_degrades_not_fails(self):
        # The halo sparsifier raises RuntimeError on interdigitated lines:
        # the power grid is too sparse to bound the halos.
        sc = Scenario(variant="interdigitated", sparsifier="halo", **CHEAP)
        with inject_faults():
            record = evaluate_scenario(sc)
        assert record["status"] == "ok"
        assert record["metrics"]["sparsify_degraded"] is True
        downgrades = [n for n in record["notes"] if n["kind"] == "downgrade"]
        assert downgrades
        assert "positive definiteness" in downgrades[0]["detail"]

    def test_loop_values_match_direct_extraction(self):
        from repro.loop.extractor import extract_loop_impedance
        from repro.scenarios.runner import MAX_SEGMENT_LENGTH
        from repro.scenarios.variants import build_variant

        sc = Scenario(variant="baseline", **CHEAP)
        with inject_faults():
            record = evaluate_scenario(sc)
            layout, port = build_variant(sc.variant, sc.length)
            res = extract_loop_impedance(
                layout, port, [sc.frequency],
                max_segment_length=MAX_SEGMENT_LENGTH, workers=1,
            )
        z = res.at(sc.frequency)
        omega = 2 * math.pi * sc.frequency
        assert record["metrics"]["loop_resistance"] == pytest.approx(z.real)
        assert record["metrics"]["loop_inductance"] == pytest.approx(
            z.imag / omega
        )
