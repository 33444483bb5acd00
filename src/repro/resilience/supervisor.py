"""Supervised process-pool execution: deadlines, watchdog, quarantine.

The plain pool paths in :mod:`repro.perf.parallel` and
:mod:`repro.scenarios.scheduler` share three failure modes that a
long-running service cannot tolerate:

* a **hung worker** (pathological input, runaway solve, injected
  ``hang`` fault) stalls its chunk -- and therefore the sweep -- forever;
* a **killed worker** (OOM killer, segfault, injected ``crash`` fault)
  breaks the whole pool, and the old answer was to degrade the *entire*
  remaining sweep to serial on the first death;
* a **poison input** that reliably hangs or kills whatever worker
  touches it turns both of the above into an unbounded loop.

This module wraps pool execution in a :class:`Supervisor` that fixes all
three with one discipline:

* every chunk gets a **wall-clock deadline** -- explicit
  (``SupervisorConfig.deadline``), or derived online from the sweep's
  :class:`~repro.resilience.budget.TimeBudget` per-point estimates (a
  chunk running many multiples of the going rate is hung, not slow);
* a **heartbeat watchdog thread** stamps each chunk when its future
  starts running, detects deadline overruns and budget exhaustion, and
  kills the pool's worker processes so the parent never blocks on a
  corpse;
* dead/expired chunks are **reissued to a restarted pool** with
  exponential backoff; a chunk that keeps failing is **bisected** down
  to the offending point, which is **quarantined** -- handed to the
  caller's ``quarantine`` callback to be recorded as a degraded result
  (NaN row, ``status: "quarantined"`` record) instead of aborting the
  sweep;
* a **circuit breaker** trips pool execution to the caller's serial
  path after ``max_pool_restarts`` pool generations, so restart storms
  are bounded;
* workers optionally run under a ``resource.setrlimit`` **memory
  ceiling** (``REPRO_WORKER_RLIMIT_MB``), turning runaway allocations
  into a catchable ``MemoryError`` instead of an OOM kill.
* workers **exit with their parent**: a SIGKILLed parent cannot shut
  its pool down, so each worker polls its parent PID and leaves once
  it changes, instead of lingering as an orphan.

Every supervision event (timeout, worker loss, restart, bisection,
quarantine, breaker trip, budget exhaustion) is recorded in the active
:class:`~repro.resilience.report.RunReport`, counted in
:mod:`repro.obs.metrics`, and -- because quarantined points flow through
the caller's normal result/checkpoint callbacks -- lands in the
checkpoint stream, so a SIGKILL'd sweep resumes bit-identically.

Application exceptions (a genuinely singular system, an injected
``"raise"`` fault past its retry budget) are *not* supervised: they
propagate to the caller exactly as the unsupervised pool propagated
them, after completed chunks have been stored.  Supervision concerns
itself with the process-level failures the math cannot see.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.budget import TimeBudget
from repro.resilience.report import RunReport

#: Environment knobs (all optional; explicit arguments win).
RLIMIT_ENV = "REPRO_WORKER_RLIMIT_MB"
DEADLINE_ENV = "REPRO_DEADLINE"
TIME_BUDGET_ENV = "REPRO_TIME_BUDGET"

#: Ceiling on the exponential restart backoff [s].
BACKOFF_MAX = 2.0

#: How long to wait for a broken pool's futures to settle before
#: treating the stragglers as casualties outright [s].
DRAIN_TIMEOUT = 10.0

#: How often a pool worker checks that its parent still lives [s].
PARENT_POLL_SECONDS = 0.5


def _positive_float(raw: str, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {raw!r}") from None
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {raw!r}")
    return value


def _positive_int(raw: str, what: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {raw!r}")
    return value


@dataclass
class SupervisorConfig:
    """Knobs governing one supervised pool run.

    Attributes:
        deadline: Hard per-chunk wall-clock cap [s].  ``None`` derives a
            deadline from the time budget's online per-point estimate
            (``deadline_factor`` x predicted chunk cost, floored at
            ``min_deadline``); with neither a deadline, a budget, nor an
            estimate yet, chunks are unbounded (the pre-supervisor
            behavior).
        time_budget: Wall-clock allowance for the whole sweep [s]; when
            it runs out, unfinished points are quarantined as degraded
            records rather than blowing the allowance.
        heartbeat: Watchdog poll period [s].
        min_deadline: Floor for *derived* deadlines [s] (estimates from
            a few fast chunks must not declare a merely-slower chunk
            hung).
        deadline_factor: Derived deadline = factor x estimated chunk
            cost.
        max_chunk_retries: Reissues a chunk gets before it is bisected
            (and a single point before it is quarantined).
        max_pool_restarts: Pool generations before the circuit breaker
            trips to the caller's serial path.
        backoff_base: First restart delay [s]; doubles (``backoff_factor``)
            per restart, capped at :data:`BACKOFF_MAX`.
        backoff_factor: Restart delay growth factor.
        rlimit_mb: Per-worker address-space ceiling [MiB] applied with
            ``resource.setrlimit`` in the pool initializer; ``None``
            leaves workers unlimited.
    """

    deadline: float | None = None
    time_budget: float | None = None
    heartbeat: float = 0.05
    min_deadline: float = 1.0
    deadline_factor: float = 10.0
    max_chunk_retries: int = 2
    max_pool_restarts: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    rlimit_mb: int | None = None

    def __post_init__(self) -> None:
        for name in ("deadline", "time_budget"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.heartbeat > 0:
            raise ValueError(f"heartbeat must be positive, got {self.heartbeat}")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if self.rlimit_mb is not None and self.rlimit_mb < 1:
            raise ValueError(
                f"rlimit_mb must be >= 1 MiB, got {self.rlimit_mb}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "SupervisorConfig":
        """Build a config from ``REPRO_*`` knobs, then apply overrides.

        ``None``-valued overrides are ignored, so CLI plumbing can pass
        its optional flags straight through.
        """
        values: dict = {}
        raw = os.environ.get(RLIMIT_ENV, "").strip()
        if raw:
            values["rlimit_mb"] = _positive_int(raw, RLIMIT_ENV)
        raw = os.environ.get(DEADLINE_ENV, "").strip()
        if raw:
            values["deadline"] = _positive_float(raw, DEADLINE_ENV)
        raw = os.environ.get(TIME_BUDGET_ENV, "").strip()
        if raw:
            values["time_budget"] = _positive_float(raw, TIME_BUDGET_ENV)
        values.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return cls(**values)


# -- worker-side plumbing ----------------------------------------------------


def _apply_rlimit(rlimit_mb: int | None) -> None:
    """Cap this process's address space (best-effort, worker-side)."""
    if not rlimit_mb:
        return
    try:
        import resource

        limit = int(rlimit_mb) << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):
        # An unsupported platform or a hard limit below the request must
        # not kill the worker; the ceiling is an extra guard, not a
        # correctness requirement.
        obs_metrics.counter("supervisor.rlimit_failed").inc()


def _exit_with_parent() -> None:
    """Make this pool worker exit once the process that started it dies.

    A daemon thread polls ``os.getppid()``: an orphan is re-parented,
    so a changed parent PID means the parent is gone and nobody will
    ever send this worker work or shut it down.  A no-op outside a
    multiprocessing child, so calling it in the main process never arms
    an exit.
    """
    if multiprocessing.parent_process() is None:
        return
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def supervised_init(
    rlimit_mb: int | None,
    inner: Callable | None = None,
    inner_args: tuple = (),
) -> None:
    """Pool initializer: exit with the parent, apply the memory ceiling,
    then run the caller's own initializer.

    Callers chain their existing initializer through ``inner`` /
    ``inner_args`` so one ``initializer=`` slot serves every concern.
    The parent watch starts first: its thread stack must be reserved
    before the address-space ceiling applies.
    """
    _exit_with_parent()
    _apply_rlimit(rlimit_mb)
    if inner is not None:
        inner(*inner_args)


def _kill_pool(executor) -> None:
    """SIGKILL every worker of a pool (hung workers ignore SIGTERM).

    Reaches into ``ProcessPoolExecutor._processes`` -- stable private
    API since 3.7 and the only handle to the worker PIDs; guarded so a
    future stdlib change degrades to a no-op (the pool then dies by
    itself or the breaker trips).
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError, ValueError):
            pass  # already dead / already reaped


# -- supervisor internals ----------------------------------------------------


@dataclass
class _Chunk:
    """One schedulable unit of work plus its supervision bookkeeping."""

    key: int
    idx: np.ndarray
    strikes: int = 0
    submitted: float = 0.0
    started: float | None = None
    deadline_at: float | None = None

    def reset(self) -> None:
        self.submitted = 0.0
        self.started = None
        self.deadline_at = None


@dataclass
class SupervisionStats:
    """What the supervisor had to do during one run."""

    timeouts: int = 0
    worker_losses: int = 0
    memory_errors: int = 0
    restarts: int = 0
    bisections: int = 0
    quarantined: list[int] = field(default_factory=list)
    breaker_tripped: bool = False
    budget_exhausted: bool = False

    @property
    def clean(self) -> bool:
        return (
            not self.timeouts and not self.worker_losses
            and not self.memory_errors and not self.restarts
            and not self.bisections and not self.quarantined
            and not self.breaker_tripped and not self.budget_exhausted
        )


class _Watchdog(threading.Thread):
    """Heartbeat monitor over one pool generation.

    Polls the shared in-flight table every ``heartbeat`` seconds: stamps
    a chunk's start time the first poll its future reports running,
    assigns its deadline, and -- on the first deadline overrun or on
    sweep-budget exhaustion -- records the verdicts and SIGKILLs the
    pool so the parent's ``wait`` wakes with ``BrokenProcessPool``
    instead of blocking on a hung worker forever.  One watchdog serves
    one pool generation; the supervisor starts a fresh one per restart.
    """

    def __init__(
        self,
        executor,
        inflight: dict,
        lock: threading.Lock,
        heartbeat: float,
        deadline_for: Callable[[int], float | None],
        budget: TimeBudget,
    ) -> None:
        super().__init__(name="repro-supervisor-watchdog", daemon=True)
        self._executor = executor
        self._inflight = inflight
        self._lock = lock
        self._heartbeat = heartbeat
        self._deadline_for = deadline_for
        self._budget = budget
        self._stop_event = threading.Event()
        self.timed_out: set[int] = set()
        self.budget_fired = False
        self.fired = False

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)

    def run(self) -> None:
        while not self._stop_event.wait(self._heartbeat):
            now = time.monotonic()  # qa: ignore[QA106] -- watchdog clock, not profiling
            expired: list[int] = []
            busy = False
            with self._lock:
                for future, work in self._inflight.items():
                    busy = True
                    if work.started is None:
                        if future.running():
                            work.started = now
                            limit = self._deadline_for(len(work.idx))
                            work.deadline_at = (
                                None if limit is None else now + limit
                            )
                    elif (work.deadline_at is not None
                          and now >= work.deadline_at):
                        expired.append(work.key)
            over_budget = busy and self._budget.exhausted()
            if expired or over_budget:
                self.timed_out.update(expired)
                self.budget_fired = over_budget
                self.fired = True
                _kill_pool(self._executor)
                return


class Supervisor:
    """Deadline/watchdog/quarantine harness around one pool sweep.

    The supervisor owns scheduling and failure policy only; everything
    domain-specific arrives as callbacks, so the same engine serves the
    numeric frequency sweep and the scenario batch scheduler:

    Args:
        executor: The live pool for the first generation (created by the
            caller so pool-creation failures keep their existing
            degrade-to-serial paths).
        make_executor: Zero-argument factory for replacement pools.
        submit: ``submit(executor, key, idx) -> Future`` -- fan one chunk
            out; ``key`` is a supervisor-assigned label unique per
            (re)issue.
        on_result: ``on_result(idx, payload)`` -- store one completed
            chunk (fill by index, persist, checkpoint).
        solve_serial: ``solve_serial(idx)`` -- evaluate one chunk in the
            parent, used after the circuit breaker trips.
        quarantine: ``quarantine(point, reason)`` -- record one poison
            point as a degraded result.
        workers: Pool width (for reporting only).
        config: Supervision knobs; default :meth:`SupervisorConfig.from_env`.
        report: Run report receiving supervision events.
        stage: Report/metric stage label (``"perf"``, ``"sweep"``).
    """

    def __init__(
        self,
        *,
        executor,
        make_executor: Callable[[], object],
        submit: Callable,
        on_result: Callable[[np.ndarray, object], None],
        solve_serial: Callable[[np.ndarray], None],
        quarantine: Callable[[int, str], None],
        workers: int,
        config: SupervisorConfig | None = None,
        report: RunReport | None = None,
        stage: str = "perf",
    ) -> None:
        self._executor = executor
        self._make_executor = make_executor
        self._submit = submit
        self._on_result = on_result
        self._solve_serial = solve_serial
        self._quarantine = quarantine
        self.workers = workers
        self.config = config if config is not None else SupervisorConfig.from_env()
        self.report = report
        self.stage = stage
        self.budget = TimeBudget(self.config.time_budget)
        self._next_key = 0

    # -- helpers -----------------------------------------------------------

    def _key(self) -> int:
        # 0-based and unique per (re)issue, so first-generation keys
        # coincide with the caller's chunk ids.
        key = self._next_key
        self._next_key += 1
        return key

    def _record(self, kind: str, detail: str) -> None:
        if self.report is not None:
            self.report.record(kind, self.stage, detail)

    def _deadline_for(self, points: int) -> float | None:
        """Per-chunk wall-clock cap: explicit, else estimate-derived."""
        cfg = self.config
        limit = cfg.deadline
        if limit is None:
            predicted = self.budget.estimate(points)
            if predicted is not None:
                limit = max(cfg.min_deadline, cfg.deadline_factor * predicted)
        remaining = self.budget.remaining()
        if remaining is not None:
            # One chunk must never swallow the rest of the sweep budget.
            limit = remaining if limit is None else min(limit, remaining)
        return limit

    def _do_quarantine(self, point: int, reason: str,
                       stats: SupervisionStats) -> None:
        stats.quarantined.append(point)
        obs_metrics.counter("supervisor.quarantined").inc()
        if self.report is not None:
            self.report.record_quarantine(
                self.stage, f"point {point}: {reason}"
            )
        self._quarantine(point, reason)

    def _quarantine_chunks(self, works, reason: str,
                           stats: SupervisionStats) -> None:
        for work in works:
            for i in work.idx:
                self._do_quarantine(int(i), reason, stats)

    def _strike(self, work: _Chunk, reason: str, kind: str,
                queue: deque, stats: SupervisionStats) -> None:
        """Penalize a supervised failure: reissue, bisect, or quarantine."""
        work.strikes += 1
        if kind == "timeout":
            stats.timeouts += 1
            obs_metrics.counter("supervisor.timeouts").inc()
            if self.report is not None:
                self.report.record_timeout(
                    self.stage,
                    f"chunk of {len(work.idx)} point(s) {reason} "
                    f"(strike {work.strikes})",
                )
        elif kind == "memory":
            stats.memory_errors += 1
            obs_metrics.counter("supervisor.memory_errors").inc()
            self._record(
                "worker-lost",
                f"chunk of {len(work.idx)} point(s) {reason} "
                f"(strike {work.strikes})",
            )
        else:
            stats.worker_losses += 1
            obs_metrics.counter("supervisor.worker_losses").inc()
            self._record(
                "worker-lost",
                f"chunk of {len(work.idx)} point(s) {reason} "
                f"(strike {work.strikes})",
            )
        if work.strikes <= self.config.max_chunk_retries:
            work.reset()
            queue.append(work)
        elif len(work.idx) > 1:
            # Bisect toward the poison point instead of retrying the
            # whole chunk forever.
            mid = len(work.idx) // 2
            stats.bisections += 1
            obs_metrics.counter("supervisor.bisections").inc()
            self._record(
                "bisect",
                f"chunk of {len(work.idx)} point(s) keeps failing "
                f"({reason}); splitting to isolate the poison point",
            )
            queue.append(_Chunk(self._key(), work.idx[:mid]))
            queue.append(_Chunk(self._key(), work.idx[mid:]))
        else:
            self._do_quarantine(int(work.idx[0]), reason, stats)

    def _serial_tail(self, works, stats: SupervisionStats) -> None:
        """Finish remaining chunks in the parent (post-breaker path)."""
        for k, work in enumerate(works):
            if self.budget.exhausted():
                stats.budget_exhausted = True
                obs_metrics.counter("supervisor.budget_exhausted").inc()
                self._record(
                    "budget-exhausted",
                    f"time budget spent with {len(works) - k} serial "
                    "chunk(s) left; quarantining the remainder",
                )
                self._quarantine_chunks(
                    works[k:], "sweep time budget exhausted", stats
                )
                return
            started = time.monotonic()  # qa: ignore[QA106] -- budget accounting
            self._solve_serial(work.idx)
            self.budget.observe(len(work.idx), time.monotonic() - started)  # qa: ignore[QA106] -- budget accounting

    # -- main loop ---------------------------------------------------------

    def run(self, chunks) -> SupervisionStats:
        """Supervise the sweep to completion; returns the stats.

        Application exceptions from chunks re-raise after completed work
        has been stored (matching the unsupervised pool contract);
        process-level failures (hang, crash, OOM) are absorbed into
        reissue/bisect/quarantine and never propagate.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        cfg = self.config
        stats = SupervisionStats()
        self.budget.start()
        queue: deque[_Chunk] = deque(
            _Chunk(self._key(), np.asarray(idx, dtype=int)) for idx in chunks
        )
        inflight: dict = {}
        lock = threading.Lock()
        executor = self._executor
        watchdog: _Watchdog | None = None
        restarts = 0
        failure: BaseException | None = None

        def teardown_pool() -> None:
            nonlocal executor, watchdog
            if watchdog is not None:
                watchdog.stop()
                watchdog = None
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None

        def consume(future, work: _Chunk, casualties: list) -> None:
            """Fold one settled future into results/strikes/failure."""
            nonlocal failure
            try:
                payload = future.result()
            except BrokenProcessPool:
                casualties.append(work)
            except MemoryError as exc:
                self._strike(
                    work, f"ran out of worker memory: {exc}", "memory",
                    queue, stats,
                )
            except BaseException as exc:  # qa: ignore[QA206] -- stashed; re-raised after the drain
                if failure is None:
                    failure = exc
            else:
                reference = work.started if work.started is not None \
                    else work.submitted
                elapsed = max(0.0, time.monotonic() - reference)  # qa: ignore[QA106] -- budget accounting
                self.budget.observe(len(work.idx), elapsed)
                obs_metrics.histogram("supervisor.chunk_seconds").observe(
                    elapsed
                )
                self._on_result(work.idx, payload)

        try:
            with span(
                "supervisor.run", stage=self.stage, chunks=len(queue),
                workers=self.workers,
            ):
                while queue or inflight:
                    if failure is not None:
                        break
                    if self.budget.exhausted() and not inflight:
                        stats.budget_exhausted = True
                        obs_metrics.counter("supervisor.budget_exhausted").inc()
                        self._record(
                            "budget-exhausted",
                            f"time budget of {cfg.time_budget:g}s spent "
                            f"with {sum(len(w.idx) for w in queue)} "
                            "point(s) left; quarantining the remainder",
                        )
                        self._quarantine_chunks(
                            queue, "sweep time budget exhausted", stats
                        )
                        queue.clear()
                        break
                    if executor is None:
                        try:
                            executor = self._make_executor()
                        except (OSError, ImportError, PermissionError) as exc:
                            stats.breaker_tripped = True
                            obs_metrics.counter(
                                "supervisor.breaker_trips"
                            ).inc()
                            if self.report is not None:
                                self.report.record_breaker(
                                    self.stage,
                                    "cannot restart the process pool "
                                    f"({exc}); finishing serially",
                                )
                            works = list(queue)
                            queue.clear()
                            self._serial_tail(works, stats)
                            break
                    if watchdog is None:
                        watchdog = _Watchdog(
                            executor, inflight, lock, cfg.heartbeat,
                            self._deadline_for, self.budget,
                        )
                        watchdog.start()
                    pool_broken = False
                    with lock:
                        while queue:
                            work = queue.popleft()
                            work.reset()
                            try:
                                future = self._submit(
                                    executor, work.key, work.idx
                                )
                            except (BrokenProcessPool, RuntimeError):
                                # The watchdog (or the OS) killed the pool
                                # mid-submission; drain and restart below.
                                queue.appendleft(work)
                                pool_broken = True
                                break
                            work.submitted = time.monotonic()  # qa: ignore[QA106] -- deadline anchor
                            inflight[future] = work
                    if inflight:
                        done, _ = wait(
                            set(inflight), return_when=FIRST_COMPLETED
                        )
                    else:
                        done = set()
                    casualties: list[_Chunk] = []
                    for future in done:
                        with lock:
                            work = inflight.pop(future)
                        consume(future, work, casualties)
                    pool_broken = pool_broken or bool(casualties) or (
                        watchdog is not None and watchdog.fired
                    )
                    if not pool_broken:
                        continue

                    # -- the pool died: drain, attribute, restart --------
                    if inflight:
                        done, still_pending = wait(
                            set(inflight), timeout=DRAIN_TIMEOUT
                        )
                        for future in done:
                            with lock:
                                work = inflight.pop(future)
                            consume(future, work, casualties)
                        for future in still_pending:
                            future.cancel()
                            with lock:
                                work = inflight.pop(future)
                            casualties.append(work)
                    timed_out = watchdog.timed_out if watchdog else set()
                    budget_fired = (
                        watchdog.budget_fired if watchdog else False
                    )
                    teardown_pool()
                    if budget_fired:
                        stats.budget_exhausted = True
                        obs_metrics.counter("supervisor.budget_exhausted").inc()
                        self._record(
                            "budget-exhausted",
                            f"time budget of {cfg.time_budget:g}s spent "
                            "with chunks still in flight; quarantining "
                            "the remainder",
                        )
                        self._quarantine_chunks(
                            list(casualties) + list(queue),
                            "sweep time budget exhausted", stats,
                        )
                        queue.clear()
                        break
                    deadline_text = cfg.deadline
                    for work in casualties:
                        if work.key in timed_out:
                            limit = (
                                work.deadline_at - work.started
                                if work.deadline_at and work.started
                                else deadline_text
                            )
                            self._strike(
                                work,
                                "exceeded its deadline"
                                + (f" of {limit:.3g}s" if limit else ""),
                                "timeout", queue, stats,
                            )
                        elif work.started is not None:
                            # Observed running when the pool died: the
                            # plausible culprit of a worker crash.
                            self._strike(
                                work, "was running when its worker died",
                                "crash", queue, stats,
                            )
                        else:
                            # Never started: an innocent bystander of the
                            # pool loss; reissue without prejudice.
                            work.reset()
                            queue.append(work)
                    if not queue:
                        continue  # everything resolved to results/quarantine
                    restarts += 1
                    stats.restarts = restarts
                    if restarts > cfg.max_pool_restarts:
                        stats.breaker_tripped = True
                        obs_metrics.counter("supervisor.breaker_trips").inc()
                        if self.report is not None:
                            self.report.record_breaker(
                                self.stage,
                                f"pool restarted {cfg.max_pool_restarts} "
                                "time(s) and died again; circuit breaker "
                                "trips to the serial path",
                            )
                        works = list(queue)
                        queue.clear()
                        self._serial_tail(works, stats)
                        break
                    delay = min(
                        BACKOFF_MAX,
                        cfg.backoff_base
                        * cfg.backoff_factor ** (restarts - 1),
                    )
                    obs_metrics.counter("supervisor.restarts").inc()
                    if self.report is not None:
                        self.report.record_restart(
                            self.stage,
                            f"pool generation {restarts} after "
                            f"{delay:.3g}s backoff "
                            f"({len(queue)} chunk(s) reissued)",
                        )
                    time.sleep(delay)
        finally:
            if watchdog is not None:
                watchdog.stop()
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
        if failure is not None:
            raise failure
        return stats


__all__ = [
    "BACKOFF_MAX",
    "DEADLINE_ENV",
    "DRAIN_TIMEOUT",
    "RLIMIT_ENV",
    "TIME_BUDGET_ENV",
    "SupervisionStats",
    "Supervisor",
    "SupervisorConfig",
    "supervised_init",
]
