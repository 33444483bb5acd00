"""Supervisor: deadlines, watchdog kills, bisect/quarantine, breaker.

The pool tests run real ``ProcessPoolExecutor`` workers executing the
toy chunk bodies below.  "Fail once, then succeed" is coordinated
through sentinel files (``O_CREAT | O_EXCL``: exactly one claimant), so
every scenario is deterministic: the first execution of a chunk hangs /
dies / OOMs, the reissued execution completes normally.
"""

import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.resilience.budget import TimeBudget
from repro.resilience.report import RunReport
from repro.resilience.supervisor import (
    DEADLINE_ENV,
    RLIMIT_ENV,
    TIME_BUDGET_ENV,
    Supervisor,
    SupervisorConfig,
    _apply_rlimit,
    supervised_init,
)

# -- toy chunk bodies (module-level: pool workers resolve them by name) ------


def _claim(path):
    """Atomically claim a sentinel; True for exactly one claimant."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _squares(root, idx):
    return [i * i for i in idx]


def _hang_once(root, idx):
    if _claim(Path(root) / ("hang-" + "-".join(map(str, idx)))):
        time.sleep(60.0)
    return [i * i for i in idx]


def _crash_once(root, idx):
    if _claim(Path(root) / ("crash-" + "-".join(map(str, idx)))):
        time.sleep(0.3)  # long enough for the watchdog to stamp us running
        os._exit(13)
    return [i * i for i in idx]


def _oom_once(root, idx):
    if _claim(Path(root) / ("oom-" + "-".join(map(str, idx)))):
        raise MemoryError("injected worker OOM")
    return [i * i for i in idx]


def _poison_three(root, idx):
    if 3 in idx:
        time.sleep(0.3)
        os._exit(13)
    return [i * i for i in idx]


def _crash_always(root, idx):
    os._exit(13)


def _hang_always(root, idx):
    time.sleep(60.0)
    return [i * i for i in idx]


def _raise_value_error(root, idx):
    raise ValueError("application failure, not a process failure")


# -- harness -----------------------------------------------------------------


def _run(worker, chunks, cfg, root, width=2):
    """Drive one supervised run; returns (results, quarantined, stats, report)."""
    results = {}
    quarantined = []
    report = RunReport()

    def make_executor():
        return ProcessPoolExecutor(max_workers=width)

    def submit(pool, key, idx):
        return pool.submit(worker, str(root), [int(i) for i in idx])

    def on_result(idx, payload):
        for i, value in zip(idx, payload):
            results[int(i)] = value

    def solve_serial(idx):
        for i in idx:
            results[int(i)] = -int(i) - 1  # distinguishable from worker output

    def quarantine(point, reason):
        quarantined.append((point, reason))

    stats = Supervisor(
        executor=make_executor(),
        make_executor=make_executor,
        submit=submit,
        on_result=on_result,
        solve_serial=solve_serial,
        quarantine=quarantine,
        workers=width,
        config=cfg,
        report=report,
        stage="perf",
    ).run(chunks)
    return results, quarantined, stats, report


def _dummy_supervisor(cfg):
    """A Supervisor for exercising pure helper methods (no pool)."""
    return Supervisor(
        executor=None, make_executor=None, submit=None, on_result=None,
        solve_serial=None, quarantine=None, workers=1, config=cfg,
    )


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(deadline=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(time_budget=-1.0)
        with pytest.raises(ValueError):
            SupervisorConfig(rlimit_mb=0)

    def test_from_env_reads_knobs(self, monkeypatch):
        monkeypatch.setenv(RLIMIT_ENV, "512")
        monkeypatch.setenv(DEADLINE_ENV, "2.5")
        monkeypatch.setenv(TIME_BUDGET_ENV, "60")
        cfg = SupervisorConfig.from_env()
        assert cfg.rlimit_mb == 512
        assert cfg.deadline == 2.5
        assert cfg.time_budget == 60.0

    def test_from_env_rejects_garbage_naming_the_value(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "soon")
        with pytest.raises(ValueError, match="REPRO_DEADLINE.*'soon'"):
            SupervisorConfig.from_env()
        monkeypatch.delenv(DEADLINE_ENV)
        monkeypatch.setenv(RLIMIT_ENV, "-4")
        with pytest.raises(ValueError, match="REPRO_WORKER_RLIMIT_MB"):
            SupervisorConfig.from_env()

    def test_overrides_beat_env_and_none_is_ignored(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "2.5")
        monkeypatch.setenv(TIME_BUDGET_ENV, "60")
        cfg = SupervisorConfig.from_env(deadline=9.0, time_budget=None)
        assert cfg.deadline == 9.0
        assert cfg.time_budget == 60.0


class TestDeadlineDerivation:
    def test_explicit_deadline_wins(self):
        sup = _dummy_supervisor(SupervisorConfig(deadline=5.0))
        sup.budget.observe(1, 100.0)
        assert sup._deadline_for(3) == 5.0

    def test_derived_from_estimate(self):
        sup = _dummy_supervisor(SupervisorConfig())
        sup.budget.observe(1, 0.2)
        assert sup._deadline_for(2) == pytest.approx(10.0 * 0.4)

    def test_derived_deadline_is_floored(self):
        sup = _dummy_supervisor(SupervisorConfig())
        sup.budget.observe(1, 1e-4)
        assert sup._deadline_for(1) == pytest.approx(1.0)  # MIN_DEADLINE

    def test_capped_by_remaining_budget(self):
        clock_now = [100.0]
        sup = _dummy_supervisor(SupervisorConfig(deadline=5.0, time_budget=2.0))
        sup.budget = TimeBudget(2.0, clock=lambda: clock_now[0])
        sup.budget.start()
        clock_now[0] += 1.5
        assert sup._deadline_for(1) == pytest.approx(0.5)

    def test_unbounded_without_deadline_budget_or_estimate(self):
        assert _dummy_supervisor(SupervisorConfig())._deadline_for(4) is None


class TestSupervisedExecution:
    def test_clean_run(self, tmp_path, supervision):
        results, quarantined, stats, report = _run(
            _squares, [[0, 1], [2, 3]], SupervisorConfig(), tmp_path,
        )
        assert results == {0: 0, 1: 1, 2: 4, 3: 9}
        assert quarantined == []
        assert stats.clean
        assert report.events == []

    def test_hung_chunk_is_killed_and_reissued(self, tmp_path, supervision):
        results, quarantined, stats, report = _run(
            _hang_once, [[0, 1], [2, 3]], SupervisorConfig(deadline=0.5),
            tmp_path,
        )
        assert results == {0: 0, 1: 1, 2: 4, 3: 9}
        assert quarantined == []
        assert stats.timeouts >= 1
        assert stats.restarts >= 1
        assert report.timeouts
        assert report.by_kind("restart")

    def test_crashed_worker_chunk_is_reissued(self, tmp_path, supervision):
        results, quarantined, stats, report = _run(
            _crash_once, [[0, 1], [2, 3]], SupervisorConfig(), tmp_path,
        )
        assert results == {0: 0, 1: 1, 2: 4, 3: 9}
        assert quarantined == []
        assert stats.worker_losses >= 1
        assert stats.restarts >= 1
        assert report.by_kind("worker-lost")

    def test_memory_error_is_a_strike_not_a_crash(
        self, tmp_path, supervision
    ):
        results, quarantined, stats, report = _run(
            _oom_once, [[0, 1], [2, 3]], SupervisorConfig(), tmp_path,
        )
        assert results == {0: 0, 1: 1, 2: 4, 3: 9}
        assert quarantined == []
        assert stats.memory_errors == 2  # each chunk OOMs exactly once
        # A MemoryError comes back through the future: the pool survives.
        assert stats.restarts == 0

    def test_poison_point_is_bisected_down_and_quarantined(
        self, tmp_path, supervision
    ):
        supervision(max_chunk_retries=1, max_pool_restarts=10)
        results, quarantined, stats, report = _run(
            _poison_three, [[0, 1], [2, 3]], SupervisorConfig(), tmp_path,
        )
        assert results == {0: 0, 1: 1, 2: 4}
        assert [point for point, _ in quarantined] == [3]
        assert stats.bisections >= 1
        assert stats.quarantined == [3]
        assert report.by_kind("bisect")
        assert report.quarantines

    def test_breaker_trips_to_the_serial_path(self, tmp_path, supervision):
        supervision(max_chunk_retries=50, max_pool_restarts=1)
        results, quarantined, stats, report = _run(
            _crash_always, [[0, 1], [2, 3]], SupervisorConfig(), tmp_path,
        )
        # Serial fallback answers (the -i - 1 marker), not worker answers.
        assert results == {0: -1, 1: -2, 2: -3, 3: -4}
        assert quarantined == []
        assert stats.breaker_tripped
        assert report.by_kind("breaker")

    def test_budget_exhaustion_quarantines_the_remainder(
        self, tmp_path, supervision
    ):
        results, quarantined, stats, report = _run(
            _hang_always, [[0], [1], [2], [3]],
            SupervisorConfig(time_budget=0.4), tmp_path,
        )
        assert results == {}
        assert sorted(point for point, _ in quarantined) == [0, 1, 2, 3]
        assert all("budget" in reason for _, reason in quarantined)
        assert stats.budget_exhausted
        assert report.by_kind("budget-exhausted")

    def test_application_exception_propagates(self, tmp_path, supervision):
        with pytest.raises(ValueError, match="application failure"):
            _run(
                _raise_value_error, [[0, 1]], SupervisorConfig(), tmp_path,
            )


class TestWorkerInit:
    def test_supervised_init_chains_the_inner_initializer(self):
        seen = []
        supervised_init(None, inner=seen.append, inner_args=("inner-ran",))
        assert seen == ["inner-ran"]

    def test_apply_rlimit_none_is_a_noop(self):
        _apply_rlimit(None)  # must not raise or touch limits

    def test_apply_rlimit_caps_address_space(self, tmp_path):
        # In a subprocess: the ceiling must not leak into the test runner.
        code = (
            "import resource\n"
            "from repro.resilience.supervisor import _apply_rlimit\n"
            "_apply_rlimit(4096)\n"
            "print(resource.getrlimit(resource.RLIMIT_AS)[0])\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=str(Path(__file__).resolve().parents[2]), env=env,
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.strip()) == 4096 << 20
