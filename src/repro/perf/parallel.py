"""Frequency sweeps over ``(G + j omega C) x = b``, at any pool width.

The AC engine, and the Section-5 loop extraction point by point, solve
one dense (or sparse) system per frequency point -- an embarrassingly
parallel sweep.  (An exact loop sweep of 4 or more points instead solves
every point from one tridiagonal reduction, in process; see
:func:`~repro.circuit.linalg.reduced_sweep`.)  :func:`parallel_sweep` is
the one sweep loop behind :mod:`repro.loop.extractor` and
:mod:`repro.circuit.ac`: it maps the
point solver over the frequency indices with
:func:`~repro.resilience.supervisor.supervised_map` (stage ``"perf"``),
which

* solves every point in process at width 1;
* otherwise ships the :class:`SweepSpec` -- the assembled MNA matrices
  -- to each worker **once**, so every worker amortizes setup across all
  the points it solves (the FastHenry/PRIMA lesson of reusing the
  expensive setup), and runs contiguous chunks under the
  :class:`~repro.resilience.supervisor.Supervisor`: deadlines, restarts
  of hung or killed workers, poison points quarantined as NaN rows, and
  a serial fallback when no pool can be created (an injected
  ``"perf.pool"`` fault, a sandbox);
* lands results in the output array **by index**, so the sweep is
  bit-identical at any worker count, chunk size or completion order.

Each point is one :meth:`SweepSpec.solve`: assemble ``G + j omega C``
and solve it once through the escalation chain.  A point that fails on
every rung raises :class:`~repro.circuit.linalg.SingularCircuitError`;
escalated solves land in the active run report, which the map carries
home from pool workers.

Worker count resolves from the ``workers=`` argument, else the
``REPRO_WORKERS`` environment variable, else ``os.cpu_count()``; the
implicit CPU-count default stays serial for small systems
(:func:`sweep_workers`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.circuit.linalg import ResilientFactorization, SweepAssembler
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import RunReport
from repro.resilience.supervisor import (
    SupervisorConfig, supervised_map, worker_count,
)

#: Below this many unknowns, fork + pickle overhead beats the solves;
#: implicit (CPU-count) parallelism stays serial for smaller systems.
MIN_PARALLEL_SIZE = 200


def explicit_workers(requested: int | None = None) -> bool:
    """True when a worker count was asked for (arg or ``REPRO_WORKERS``).

    An explicit request always wins; only the implicit CPU-count default
    is subject to the :data:`MIN_PARALLEL_SIZE` worth-it heuristic.  A
    present-but-invalid ``REPRO_WORKERS`` raises here, at the gate,
    rather than as a raw ``int()`` crash from deep inside a sweep.
    """
    if requested is not None:
        return True
    if not os.environ.get("REPRO_WORKERS", "").strip():
        return False
    worker_count(None)  # validates REPRO_WORKERS with a clear error
    return True


def sweep_workers(requested: int | None, size: int) -> int:
    """Pool width for a sweep over a system of ``size`` unknowns.

    ``size`` is the number of unknowns each point solves.  The implicit
    CPU-count default fans out only from :data:`MIN_PARALLEL_SIZE`
    unknowns; an explicit request always wins.
    """
    workers = worker_count(requested)
    if workers > 1 and not (
        explicit_workers(requested) or size >= MIN_PARALLEL_SIZE
    ):
        return 1
    return workers


@dataclass
class SweepSpec:
    """Everything a worker needs to solve sweep points (picklable).

    Attributes:
        g_matrix: Conductance matrix (dense ndarray or scipy sparse).
        c_matrix: Susceptance matrix, same format.
        b: Complex right-hand side (the AC stimulus / port injection).
        site: Solve-site name for the escalation chain's reports and
            fault sites.
        policy: Resilience policy governing escalation.
        port: ``(i_plus, i_minus)`` row indices (-1 = ground) to reduce a
            point to the complex port voltage; None returns full vectors.
    """

    g_matrix: object
    c_matrix: object
    b: np.ndarray
    site: str = "ac"
    policy: ResiliencePolicy = field(default_factory=default_policy)
    port: tuple[int, int] | None = None
    _assembler: SweepAssembler | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def assembler(self) -> SweepAssembler:
        """The sweep assembler, built once per spec copy and reused
        across that copy's points."""
        if self._assembler is None:
            self._assembler = SweepAssembler(self.g_matrix, self.c_matrix)
        return self._assembler

    def __getstate__(self) -> dict:
        # Ship only the inputs; each worker rebuilds its own assembler
        # (deterministic, so worker results stay bit-identical to serial).
        state = self.__dict__.copy()
        state["_assembler"] = None
        return state

    def solve(self, f: float):
        """Solve one frequency point: the port voltage, or the full vector.

        Raises :class:`~repro.circuit.linalg.SingularCircuitError` when
        every escalation rung fails.
        """
        x = ResilientFactorization(
            self.assembler().at_omega(2.0 * np.pi * f),
            site=self.site, policy=self.policy,
        ).solve(self.b)
        if self.port is None:
            return x
        i_plus, i_minus = self.port
        vp = x[i_plus] if i_plus >= 0 else 0.0
        vm = x[i_minus] if i_minus >= 0 else 0.0
        return vp - vm


def _solve_point(spec: SweepSpec, freqs: np.ndarray, i: int):
    return spec.solve(freqs[i])


def parallel_sweep(
    spec: SweepSpec,
    freqs: np.ndarray,
    out: np.ndarray,
    workers: int | None = None,
    chunk: int | None = None,
    report: RunReport | None = None,
    config: SupervisorConfig | None = None,
) -> np.ndarray:
    """Solve sweep points at any pool width, filling ``out`` by index.

    Args:
        spec: The assembled system and solve configuration.
        freqs: Full frequency grid [Hz].
        out: Output array to fill in place -- shape ``(len(freqs),)`` for
            port sweeps, ``(len(freqs), size)`` for full sweeps.
        workers: Worker count (see
            :func:`~repro.resilience.supervisor.worker_count`); 1 solves
            in process.
        chunk: Points per scheduled chunk; default auto.
        report: Run report receiving escalated solves (from workers too),
            supervision events (timeouts, restarts, quarantines) and the
            downgrade record if the pool cannot be created.
        config: Supervision knobs; default
            :meth:`SupervisorConfig.from_env`.

    Returns:
        ``out``.  If a point fails on every escalation rung, the
        exception propagates.  Process-level failures -- hung or killed
        workers, worker ``MemoryError`` -- do *not* propagate: the
        supervisor reissues the work and, as a last resort, quarantines
        the offending point as a NaN row.
    """
    def store(i: int, row) -> None:
        out[i] = row

    supervised_map(
        partial(_solve_point, spec, freqs),
        np.arange(len(freqs)),
        stage="perf",
        on_done=store,
        quarantine=lambda i, reason: store(i, np.nan * (1.0 + 1.0j)),
        workers=workers,
        chunk=chunk,
        report=report,
        config=config,
    )
    return out


__all__ = [
    "MIN_PARALLEL_SIZE",
    "explicit_workers",
    "sweep_workers",
    "SweepSpec",
    "parallel_sweep",
]
