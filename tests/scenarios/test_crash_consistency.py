"""Crash consistency: SIGKILL a worker / the parent, resume bit-identically.

Satellite of the supervised-execution runtime: a sweep that loses a
worker process mid-flight must still produce records bit-identical to a
serial run, and a sweep whose *parent* is SIGKILLed mid-batch must
resume from the per-scenario store and converge to the same records.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.resilience import faults
from repro.resilience.faults import inject_faults
from repro.resilience.supervisor import SupervisorConfig
from repro.scenarios.scheduler import run_sweep
from repro.scenarios.store import ResultStore

from tests.orphans import child_pids, kill, wait_gone
from tests.scenarios.test_scheduler import small_spec

REPO_ROOT = Path(__file__).resolve().parents[2]


def _clean_env():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for name in (
        "REPRO_FAULTS", "REPRO_WORKERS", "REPRO_DEADLINE",
        "REPRO_TIME_BUDGET", "REPRO_WORKER_RLIMIT_MB",
    ):
        env.pop(name, None)
    return env


class TestWorkerKill:
    def test_killed_worker_recovers_bit_identical(
        self, tmp_path, monkeypatch, supervision
    ):
        marker = tmp_path / "killed"

        def crash_once(site):
            if site != "sweep.worker":
                return
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
            time.sleep(0.3)  # let the watchdog stamp the shard as running
            os._exit(13)

        monkeypatch.setattr(faults, "maybe_disrupt", crash_once)
        supervision(max_pool_restarts=5)
        spec = small_spec(name="wkill")
        store = ResultStore(tmp_path / "store")
        with inject_faults():
            survived = run_sweep(
                spec, store=store, workers=2, chunk=1,
                config=SupervisorConfig(),
            )
        assert marker.exists()  # the fault really fired
        monkeypatch.setattr(faults, "maybe_disrupt", lambda site: None)
        with inject_faults():
            want = run_sweep(small_spec(name="wkill"), workers=1)
        assert survived.records == want.records
        assert survived.ok == 8 and survived.quarantined == 0
        assert survived.report.by_kind("worker-lost")
        assert survived.report.by_kind("restart")
        # The store is crash-consistent too: a fresh run resumes all 8.
        with inject_faults():
            resumed = run_sweep(small_spec(name="wkill"), store=store)
        assert resumed.resumed == 8 and resumed.computed == 0
        assert resumed.records == want.records


DRIVER = """
    import time

    import repro.scenarios.scheduler as sched
    from repro.scenarios.spec import SweepSpec
    from repro.scenarios.store import ResultStore

    real = sched.evaluate_scenario

    def slow(sc):
        time.sleep(0.35)  # widen the kill window; records are unchanged
        return real(sc)

    sched.evaluate_scenario = slow  # forked workers inherit the patch

    spec = SweepSpec(
        name="pkill",
        grid={
            "variant": ["baseline", "shielded"],
            "sparsifier": ["none", "truncation"],
            "length": [100e-6, 150e-6],
        },
        defaults={"t_stop": 0.6e-9},
    )
    sched.run_sweep(spec, store=ResultStore(r"%s"), workers=2, chunk=1)
    print("SWEEP-FINISHED")
"""


class TestParentKill:
    def test_sigkilled_parent_resumes_bit_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(DRIVER % store_dir))
        workers: list[int] = []
        proc = subprocess.Popen(
            [sys.executable, str(driver)], env=_clean_env(),
            cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # SIGKILL the parent once some -- but not all -- records have
            # been persisted by its finish() callback.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                done = len(ResultStore(store_dir).completed())
                if done >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "driver exited before it could be killed: "
                        + proc.stderr.read().decode()
                    )
                time.sleep(0.02)
            else:
                pytest.fail("driver never persisted a record")
            workers = child_pids(proc.pid)
            proc.kill()
            proc.wait(timeout=30)
            orphans = wait_gone(workers, timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            kill(workers)
            proc.stdout.close()
            proc.stderr.close()
        # The pool workers leave with their killed parent, not linger.
        assert workers
        assert not orphans, f"workers outlived their killed parent: {orphans}"

        store = ResultStore(store_dir)
        survivors = len(store.completed())
        assert 1 <= survivors < 8
        with inject_faults():
            resumed = run_sweep(
                small_spec(name="pkill"), store=store, workers=1
            )
            want = run_sweep(small_spec(name="pkill"), workers=1)
        assert resumed.resumed == survivors
        assert resumed.computed == 8 - survivors
        assert resumed.records == want.records
        assert resumed.report.by_kind("resume")
