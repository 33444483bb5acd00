"""Supervised process-pool execution: deadlines, watchdog, quarantine.

:func:`supervised_map` is the one map over independent items in the
repository -- the frequency sweeps of :mod:`repro.perf.parallel` and the
scenario batches of :mod:`repro.scenarios.scheduler` both run through
it -- and the only code that creates a process pool.  At width 1 it
evaluates every item in process; otherwise it ships the item function to
each worker once, runs contiguous chunks under a private trace, metrics
registry and run report per chunk, and folds all three back into the
parent as results land by index.

A pool has three failure modes that a long-running service cannot
tolerate:

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
  path after :data:`MAX_POOL_RESTARTS` pool generations, so restart
  storms are bounded;
* workers optionally run under a ``resource.setrlimit`` **memory
  ceiling** (``REPRO_WORKER_RLIMIT_MB``), turning runaway allocations
  into a catchable ``MemoryError`` instead of an OOM kill.
* workers **exit with their parent**: a SIGKILLed parent cannot shut
  its pool down, so each worker polls its parent PID and leaves once
  it changes, instead of lingering as an orphan.

Every supervision event (timeout, worker loss, restart, bisection,
quarantine, breaker trip, budget exhaustion) is recorded in the active
:class:`~repro.resilience.report.RunReport` and counted in
:mod:`repro.obs.metrics`.  Quarantined points flow through the caller's
normal result callback, so a scenario sweep stores them like any other
record, and a rerun after a SIGKILL resumes from that store
bit-identically.

Application exceptions (a genuinely singular system) are *not*
supervised: they propagate to the caller exactly as the unsupervised
pool propagated them, after completed chunks have been stored.
Supervision concerns itself with the process-level failures the math
cannot see.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    detached_stack, export_spans, graft_spans, span, tracing,
)
from repro.resilience import faults
from repro.resilience.budget import TimeBudget
from repro.resilience.faults import InjectedFault
from repro.resilience.report import RunReport, activate

#: Environment knobs (all optional; explicit arguments win).
RLIMIT_ENV = "REPRO_WORKER_RLIMIT_MB"
DEADLINE_ENV = "REPRO_DEADLINE"
TIME_BUDGET_ENV = "REPRO_TIME_BUDGET"

#: Target chunks handed out per worker; >1 so stragglers rebalance.
OVERSUBSCRIBE = 4

#: Watchdog poll period [s].
HEARTBEAT = 0.05

#: Floor of a deadline derived from the per-point cost estimate [s].
MIN_DEADLINE = 1.0

#: A derived deadline is this many times the estimated chunk cost.
DEADLINE_FACTOR = 10.0

#: Reissues of a failed chunk before it is bisected (one point: quarantined).
MAX_CHUNK_RETRIES = 2

#: Pool generations before the circuit breaker trips to the serial path.
MAX_POOL_RESTARTS = 4

#: First restart delay [s]; it doubles per restart up to BACKOFF_MAX.
BACKOFF_BASE = 0.05

#: Ceiling on the exponential restart backoff [s].
BACKOFF_MAX = 2.0

#: How long to wait for a broken pool's futures to settle before
#: treating the stragglers as casualties outright [s].
DRAIN_TIMEOUT = 10.0

#: How often a pool worker checks that its parent still lives [s].
PARENT_POLL_SECONDS = 0.5


def worker_count(requested: int | None = None) -> int:
    """Resolve the pool width.

    Precedence: explicit argument, then ``REPRO_WORKERS``, then the CPU
    count.  A count of 1 means "stay in process" (no pool is created).
    Invalid or non-positive requests raise :class:`ValueError` naming
    the offending value and where it came from.
    """
    if requested is not None:
        try:
            count = int(requested)
        except (TypeError, ValueError):
            raise ValueError(
                f"worker count must be an integer, got {requested!r}"
            ) from None
        source = f"workers={requested!r}"
    else:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                count = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {raw!r}"
                ) from None
            source = f"REPRO_WORKERS={raw!r}"
        else:
            count = os.cpu_count() or 1
            source = "cpu count"
    if count < 1:
        raise ValueError(
            f"worker count must be >= 1, got {count} (from {source})"
        )
    return count


def chunk_indices(
    indices: np.ndarray, workers: int, chunk: int | None = None
) -> list[np.ndarray]:
    """Split item indices into contiguous chunks for scheduling.

    The default chunk size gives each worker ~``OVERSUBSCRIBE`` chunks;
    an explicit ``chunk`` overrides it (tests).
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        return []
    if chunk is None:
        chunk = max(1, math.ceil(indices.size / (OVERSUBSCRIBE * workers)))
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [indices[i:i + chunk] for i in range(0, indices.size, chunk)]


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
    """The deployment settings of one supervised pool run.

    Attributes:
        deadline: Hard per-chunk wall-clock cap [s].  ``None`` derives a
            deadline from the time budget's online per-point estimate
            (:data:`DEADLINE_FACTOR` x predicted chunk cost, floored at
            :data:`MIN_DEADLINE`); with neither a deadline, a budget, nor
            an estimate yet, chunks are unbounded (the pre-supervisor
            behavior).
        time_budget: Wall-clock allowance for the whole sweep [s]; when
            it runs out, unfinished points are quarantined as degraded
            records rather than blowing the allowance.
        rlimit_mb: Per-worker address-space ceiling [MiB] applied with
            ``resource.setrlimit`` in the pool initializer; ``None``
            leaves workers unlimited.
    """

    deadline: float | None = None
    time_budget: float | None = None
    rlimit_mb: int | None = None

    def __post_init__(self) -> None:
        for name in ("deadline", "time_budget"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
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


_WORKER_FN: Callable[[int], object] | None = None


def _set_worker_fn(fn: Callable[[int], object]) -> None:
    # The standard pool-initializer idiom: the item function is pickled
    # once per worker process (not once per chunk) and parked in a module
    # global that only that worker ever reads.  The parent never reads
    # _WORKER_FN, so the per-process copies cannot diverge from anything.
    global _WORKER_FN
    _WORKER_FN = fn


def _run_chunk(
    stage: str, key: int, idx: np.ndarray
) -> tuple[list, list[dict], dict, RunReport]:
    """Worker body: evaluate one chunk, shipping its records home.

    The worker has no access to the parent's collector, registry or run
    report, so the chunk records into private ones and returns them with
    its results.  The registry is reset per chunk: pool workers are
    persistent, and without the reset a worker's second chunk would
    re-ship (and the parent re-merge) the first chunk's counts.  The span
    stack is detached and a fresh report activated for the same reason a
    fork-started worker needs them: it inherits the span and the report
    that were open in the parent at fork time, and anything recorded
    into those copies never reaches the parent.

    The ``"<stage>.worker"`` disruption hook fires only here, in the pool
    worker -- never in process -- so injected hangs/crashes exercise the
    supervisor without being able to stall a serial or circuit-breaker
    fallback.
    """
    faults.maybe_disrupt(f"{stage}.worker")
    obs_metrics.REGISTRY.reset()  # qa: ignore[QA203] -- worker-private registry, exported below
    report = RunReport()
    with detached_stack(), tracing() as trace, activate(report):
        with span("supervisor.chunk", stage=stage, chunk=key, items=len(idx)):
            results = [_WORKER_FN(int(i)) for i in idx]  # qa: ignore[QA203] -- set by _set_worker_fn in this process
    return results, export_spans(trace), obs_metrics.REGISTRY.export(), report


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

    Polls the shared in-flight table every :data:`HEARTBEAT` seconds: stamps
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
        deadline_for: Callable[[int], float | None],
        budget: TimeBudget,
    ) -> None:
        super().__init__(name="repro-supervisor-watchdog", daemon=True)
        self._executor = executor
        self._inflight = inflight
        self._lock = lock
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
        while not self._stop_event.wait(HEARTBEAT):
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
            chunk (fill by index, persist).
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
        limit = self.config.deadline
        if limit is None:
            predicted = self.budget.estimate(points)
            if predicted is not None:
                limit = max(MIN_DEADLINE, DEADLINE_FACTOR * predicted)
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
        if work.strikes <= MAX_CHUNK_RETRIES:
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
                            executor, inflight, lock, self._deadline_for,
                            self.budget,
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
                    if restarts > MAX_POOL_RESTARTS:
                        stats.breaker_tripped = True
                        obs_metrics.counter("supervisor.breaker_trips").inc()
                        if self.report is not None:
                            self.report.record_breaker(
                                self.stage,
                                f"pool restarted {MAX_POOL_RESTARTS} "
                                "time(s) and died again; circuit breaker "
                                "trips to the serial path",
                            )
                        works = list(queue)
                        queue.clear()
                        self._serial_tail(works, stats)
                        break
                    delay = min(
                        BACKOFF_MAX, BACKOFF_BASE * 2.0 ** (restarts - 1)
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


def supervised_map(
    fn: Callable[[int], object],
    indices,
    *,
    stage: str,
    on_done: Callable[[int, object], None],
    quarantine: Callable[[int, str], None],
    workers: int | None = None,
    chunk: int | None = None,
    report: RunReport | None = None,
    config: SupervisorConfig | None = None,
) -> None:
    """Evaluate ``fn(i)`` for every index, in process or over a pool.

    Results reach ``on_done(i, result)`` by index, so the outcome does
    not depend on the width, the chunking or the completion order.

    At width 1 (or with at most one index) every item is evaluated in
    process, in index order, under no span of the map's own; each result
    reaches ``on_done`` as soon as it is computed.  Otherwise ``fn`` is
    shipped to each worker once and contiguous chunks run under the
    :class:`Supervisor`; each chunk's spans are grafted under
    ``supervisor.run``, its metrics merged into the registry and its run
    report merged into ``report``.  A pool that cannot be created (an
    injected ``"<stage>.pool"`` fault, a sandbox, exhausted fds) falls
    back to the in-process path, recorded as a downgrade.

    Args:
        fn: Item function; must pickle when ``workers > 1``.
        indices: Item indices to evaluate.
        stage: Report/metric stage label; also names the fault sites
            ``"<stage>.pool"`` and ``"<stage>.worker"``.
        on_done: Receives each completed item.
        quarantine: ``quarantine(i, reason)`` -- record an item the
            supervisor gave up on as a degraded result.
        workers: Pool width (:func:`worker_count` resolution).
        chunk: Items per chunk; default auto (:func:`chunk_indices`).
        report: Run report, active while items are evaluated in process;
            it receives worker chunks' reports, supervision events and
            the downgrade record.
        config: Supervision knobs; default :meth:`SupervisorConfig.from_env`.

    An exception from ``fn`` propagates after every item completed before
    it has reached ``on_done`` (so the scenario store keeps every finished
    item).
    """
    indices = np.asarray(indices, dtype=int)
    workers = worker_count(workers)

    def serial(idx: np.ndarray) -> None:
        for i in idx:
            on_done(int(i), fn(int(i)))

    with activate(report) if report is not None else nullcontext():
        if workers == 1 or indices.size <= 1:
            serial(indices)
            return
        chunks = chunk_indices(indices, workers, chunk)
        cfg = config if config is not None else SupervisorConfig.from_env()
        width = min(workers, len(chunks))

        def make_executor():
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(
                max_workers=width,
                initializer=supervised_init,
                initargs=(cfg.rlimit_mb, _set_worker_fn, (fn,)),
            )

        try:
            faults.maybe_fail(f"{stage}.pool")
            executor = make_executor()
        except (InjectedFault, OSError, ImportError, PermissionError) as exc:
            obs_metrics.counter("pool.fallback_serial").inc()
            if report is not None:
                report.record_downgrade(
                    stage, f"process pool ({workers} workers)", "serial",
                    f"pool unavailable: {exc}",
                )
            serial(indices)
            return

        obs_metrics.gauge("supervisor.workers").set(width)
        obs_metrics.counter("supervisor.chunks").inc(len(chunks))
        obs_metrics.counter("supervisor.items").inc(int(indices.size))

        def on_result(idx: np.ndarray, payload) -> None:
            results, worker_spans, worker_metrics, chunk_report = payload
            graft_spans(worker_spans)
            obs_metrics.REGISTRY.merge(worker_metrics)
            if report is not None:
                report.merge(chunk_report)
            for i, result in zip(idx, results):
                on_done(int(i), result)

        Supervisor(
            executor=executor,
            make_executor=make_executor,
            submit=lambda pool, key, idx: pool.submit(
                _run_chunk, stage, key, idx
            ),
            on_result=on_result,
            solve_serial=serial,
            quarantine=quarantine,
            workers=width,
            config=cfg,
            report=report,
            stage=stage,
        ).run(chunks)


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_MAX",
    "DEADLINE_ENV",
    "DEADLINE_FACTOR",
    "DRAIN_TIMEOUT",
    "HEARTBEAT",
    "MAX_CHUNK_RETRIES",
    "MAX_POOL_RESTARTS",
    "MIN_DEADLINE",
    "OVERSUBSCRIBE",
    "RLIMIT_ENV",
    "TIME_BUDGET_ENV",
    "SupervisionStats",
    "Supervisor",
    "SupervisorConfig",
    "chunk_indices",
    "supervised_init",
    "supervised_map",
    "worker_count",
]
