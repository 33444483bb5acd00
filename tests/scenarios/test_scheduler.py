"""Sharded sweeps: bit-identical to serial, checkpointed, resumable."""

import time

from repro.resilience import faults
from repro.resilience.faults import FaultSpec, inject_faults
from repro.resilience.supervisor import SupervisorConfig
from repro.scenarios.runner import evaluate_scenario
from repro.scenarios.scheduler import SweepResult, run_sweep
from repro.scenarios.spec import Scenario, SweepSpec
from repro.scenarios.store import ResultStore


def small_spec(name="sched"):
    # 2 variants x 2 sparsifiers x 2 lengths = 8 cheap scenarios.
    return SweepSpec(
        name=name,
        grid={
            "variant": ["baseline", "shielded"],
            "sparsifier": ["none", "truncation"],
            "length": [100e-6, 150e-6],
        },
        defaults={"t_stop": 0.6e-9},
    )


class TestShardedEqualsSerial:
    def test_two_workers_bit_identical(self):
        spec = small_spec()
        with inject_faults():
            serial = run_sweep(spec, workers=1)
            sharded = run_sweep(spec, workers=2)
        assert serial.records == sharded.records
        assert serial.ok == sharded.ok == 8

    def test_chunk_size_does_not_change_results(self):
        spec = small_spec()
        with inject_faults():
            serial = run_sweep(spec, workers=1)
            fine = run_sweep(spec, workers=2, chunk=1)
        assert serial.records == fine.records

    def test_explicit_scenario_list(self):
        scenarios = [
            Scenario(variant="baseline", length=100e-6, t_stop=0.6e-9),
            Scenario(variant="shielded", length=100e-6, t_stop=0.6e-9),
        ]
        with inject_faults():
            result = run_sweep(scenarios, workers=1)
        assert [r["id"] for r in result.records] == [
            sc.scenario_id for sc in scenarios
        ]

    def test_records_follow_grid_order(self):
        spec = small_spec()
        with inject_faults():
            result = run_sweep(spec, workers=2)
        assert [r["id"] for r in result.records] == [
            sc.scenario_id for sc in spec.expand()
        ]


class TestPoolDegradation:
    def test_pool_fault_degrades_to_serial(self):
        spec = small_spec()
        with inject_faults():
            want = run_sweep(spec, workers=1)
        with inject_faults(FaultSpec("sweep.pool", "raise", probability=1.0)):
            got = run_sweep(spec, workers=2)
        assert got.records == want.records
        downgrades = [e for e in got.report.events if e.kind == "downgrade"]
        assert downgrades
        assert "pool" in downgrades[0].detail


class TestCheckpointAndResume:
    def test_second_run_resumes_everything(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        with inject_faults():
            first = run_sweep(spec, store=store, workers=1)
            second = run_sweep(spec, store=store, workers=1)
        assert first.resumed == 0 and first.computed == 8
        assert second.resumed == 8 and second.computed == 0
        assert second.records == first.records
        resumes = [e for e in second.report.events if e.kind == "resume"]
        assert resumes and "8/8" in resumes[0].detail

    def test_sharded_run_resumes_from_serial_store(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        with inject_faults():
            run_sweep(spec, store=store, workers=1)
            second = run_sweep(spec, store=store, workers=2)
        assert second.resumed == 8 and second.computed == 0

    def test_corrupt_record_is_recomputed(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        with inject_faults():
            first = run_sweep(spec, store=store, workers=1)
            victim = spec.expand()[3].scenario_id
            store.path_for(victim).write_text("{broken")
            second = run_sweep(spec, store=store, workers=1)
        assert second.resumed == 7 and second.computed == 1
        assert second.records == first.records
        # the recomputed record was re-persisted
        assert store.load(victim) == first.records[3]

    def test_no_resume_recomputes(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        with inject_faults():
            run_sweep(spec, store=store, workers=1)
            again = run_sweep(spec, store=store, workers=1, resume=False)
        assert again.resumed == 0 and again.computed == 8

    def test_partial_store_resumes_only_completed(self, tmp_path):
        spec = small_spec()
        scenarios = spec.expand()
        store = ResultStore(tmp_path)
        with inject_faults():
            store.store(evaluate_scenario(scenarios[0]))
            store.store(evaluate_scenario(scenarios[5]))
            result = run_sweep(spec, store=store, workers=1)
        assert result.resumed == 2 and result.computed == 6
        assert len(store) == 8


class TestSupervisedQuarantine:
    def test_hang_storm_quarantines_every_scenario(
        self, tmp_path, monkeypatch, supervision
    ):
        # Every worker shard hangs; the watchdog kills each one at its
        # deadline and, with no retries allowed, single-scenario shards
        # are quarantined as degraded records -- the sweep completes.
        def hang_always(site):
            if site == "sweep.worker":
                time.sleep(60.0)

        monkeypatch.setattr(faults, "maybe_disrupt", hang_always)
        supervision(max_chunk_retries=0, max_pool_restarts=50)
        spec = small_spec(name="storm")
        store = ResultStore(tmp_path)
        with inject_faults():
            result = run_sweep(
                spec, store=store, workers=4, chunk=1,
                config=SupervisorConfig(deadline=0.4),
            )
        assert result.quarantined == 8 and result.ok == 0
        assert [r["id"] for r in result.records] == [
            sc.scenario_id for sc in spec.expand()
        ]
        for record in result.records:
            assert record["status"] == "quarantined"
            assert record["error"]
            assert any(
                note["kind"] == "quarantine" for note in record["notes"]
            )
        assert len(result.report.quarantines) == 8
        assert result.report.timeouts
        # Degraded records are persisted like any other.
        assert len(store) == 8


class TestSweepResultCounters:
    def test_quarantined_property_counts_records(self):
        result = SweepResult(records=[
            {"status": "ok"}, {"status": "quarantined"},
            {"status": "failed"}, {"status": "quarantined"},
        ])
        assert result.quarantined == 2
        assert result.ok == 1 and result.failed == 1

    def test_failed_scenarios_are_counted_not_raised(self, monkeypatch):
        import repro.scenarios.scheduler as sched

        def fake_eval(sc):
            ok = sc.variant == "baseline"
            return {
                "id": sc.scenario_id,
                "params": sc.params(),
                "status": "ok" if ok else "failed",
                "metrics": {},
                "notes": [],
            }

        monkeypatch.setattr(sched, "evaluate_scenario", fake_eval)
        spec = SweepSpec(
            name="t", grid={"variant": ["baseline", "shielded"]}
        )
        result = run_sweep(spec, workers=1)
        assert result.ok == 1 and result.failed == 1
