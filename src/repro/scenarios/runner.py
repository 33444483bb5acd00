"""Single-scenario evaluation: build, extract, sparsify, simulate.

One scenario runs the paper's comparison pipeline end to end on its
design variant, in four stages:

1. ``geometry``: build the variant geometry at the scenario's length,
2. ``loop``: extract the driver-port loop impedance at the scenario's
   frequency (Section 5; FastHenry-style filament solve),
3. ``sparsify``: optionally apply the scenario's Section-4 sparsifier to
   the dense partial-inductance matrix and record the passivity verdict,
4. ``transient``: drive the extracted loop R/L through a loaded
   transient and measure the Table-1 observables (50% delay, overshoot).

Each stage reads only some of the scenario's fields, and its key is
exactly those fields (see :func:`evaluate_scenario`).  The scenarios of
one sweep share a *stage memo*, a plain dict from stage key to result,
so a stage input the grid repeats -- the loop impedance under each of
four sparsifiers, say -- is computed once.  Each stage runs under its own
:class:`~repro.resilience.report.RunReport`; a memo hit replays that
report's events into the scenario's, so a record does not depend on
which scenario computed a stage first.  A stage that raises is not
stored: every scenario that shares it runs it again and fails the same
way.  :func:`evaluate_scenario` without a memo uses a fresh one.

A scenario failure is *data*, not a batch abort: the record carries
``status: "failed"`` plus the error, and resilience downgrades (e.g. a
sparsifier refusing a matrix) are recorded per scenario instead of
killing the sweep.  Records are pure functions of the scenario
parameters -- no timings, no host- or process-dependent content -- so a
sharded run reproduces the serial run bit for bit.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.analysis.metrics import delay_50, overshoot
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.transient import transient_analysis
from repro.circuit.waveforms import Ramp, sample
from repro.extraction.partial_matrix import extract_partial_inductance
from repro.geometry.segment import Direction
from repro.loop.extractor import extract_loop_impedance
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.report import RunReport, activate, current_run_report
from repro.scenarios.spec import SPARSIFIER_FACTORIES, Scenario
from repro.scenarios.variants import build_variant
from repro.sparsify.base import traced_apply
from repro.sparsify.stability import min_eigenvalue

#: Axial re-segmentation bound for extraction (finer capture of
#: non-uniform axial current on long lines, at bounded cost).
MAX_SEGMENT_LENGTH = 200e-6


def _inplane_segments(layout, max_len: float) -> list:
    segments = []
    for seg in layout.segments:
        if seg.direction == Direction.Z:
            continue
        if seg.length > max_len:
            segments.extend(seg.split(int(math.ceil(seg.length / max_len))))
        else:
            segments.append(seg)
    return segments


def _loop_impedance(sc: Scenario, layout, port) -> tuple[complex, int]:
    """Driver-port loop impedance at the scenario's frequency, and the
    filament count it took."""
    extraction = extract_loop_impedance(
        layout, port, [sc.frequency],
        max_segment_length=MAX_SEGMENT_LENGTH,
        workers=1,  # the sweep shards scenarios, not points
    )
    return extraction.at(sc.frequency), int(extraction.num_filaments)


def _sparsify_metrics(sc: Scenario, layout) -> dict:
    """Apply the scenario's sparsifier; degrade (never fail) on refusal."""
    factory = SPARSIFIER_FACTORIES[sc.sparsifier]
    if factory is None:
        return {}
    sparsifier = factory()
    extraction = extract_partial_inductance(
        _inplane_segments(layout, MAX_SEGMENT_LENGTH)
    )
    metrics: dict = {"sparsify_mutuals_total": int(extraction.num_mutuals)}
    try:
        blocks = traced_apply(sparsifier, extraction)
    except (ValueError, RuntimeError) as exc:
        # A refused matrix (truncation guard, K-matrix passivity check,
        # a halo/shell/K-matrix result that lost positive definiteness)
        # is a per-scenario degradation: the dense model stands in.
        report = current_run_report()
        if report is not None:
            report.record_downgrade(
                "sweep", f"sparsifier {sc.sparsifier}", "dense", str(exc)
            )
        metrics["sparsify_degraded"] = True
        return metrics
    metrics["sparsify_kind"] = blocks.kind
    metrics["sparsify_mutuals_kept"] = int(blocks.num_mutuals)
    if blocks.kind == "L":
        eig = float(min_eigenvalue(blocks.to_dense(extraction.size)))
        metrics["sparsify_min_eigenvalue"] = eig
        metrics["sparsify_positive_definite"] = bool(eig > 0.0)
    return metrics


def _scenario_circuit(
    sc: Scenario, r_loop: float, l_loop: float
) -> tuple[Circuit, Ramp]:
    """The scenario's circuit (source, loop R/L, receiver load) and its
    input ramp."""
    circuit = Circuit("scenario")
    ramp = Ramp(0.0, sc.vdd, 50e-12, sc.rise_time)
    circuit.add_vsource("Vin", "vin", GROUND, ramp)
    circuit.add_resistor("Rdrv", "vin", "drv", sc.driver_resistance)
    circuit.add_series_rl("loop", "drv", "rcv", r_loop, l_loop)
    circuit.add_capacitor("Cload", "rcv", GROUND, sc.load_capacitance)
    return circuit, ramp


def _transient_metrics(sc: Scenario, z: complex) -> dict:
    """Transient of the scenario circuit over the extracted loop R/L."""
    omega = 2.0 * math.pi * sc.frequency
    r_loop = max(float(z.real), 1e-6)
    l_loop = max(float(z.imag) / omega, 1e-18)
    circuit, ramp = _scenario_circuit(sc, r_loop, l_loop)
    result = transient_analysis(circuit, sc.t_stop, sc.dt, record=["rcv"])
    v_out = result.voltage("rcv")
    v_in = sample(ramp, result.times)
    return {
        "loop_resistance": r_loop,
        "loop_inductance": l_loop,
        "delay": float(delay_50(result.times, v_in, v_out, sc.vdd)),
        "overshoot": float(overshoot(v_out, sc.vdd)),
    }


def _replay(stage: RunReport, report: RunReport) -> None:
    """Append a stage's events to a scenario's report, as recorded."""
    report.events.extend(stage.events)
    report.solve_reports.extend(stage.solve_reports)


def evaluate_scenario(sc: Scenario, memo: dict | None = None) -> dict:
    """Evaluate one scenario into a deterministic, JSON-ready record.

    ``memo`` is the stage memo shared by the scenarios of one sweep (see
    the module docstring); default a fresh one, so every stage runs.

    Returns a dict with ``id``, ``params``, ``status`` (``"ok"`` /
    ``"failed"``), ``metrics``, ``notes`` (the scenario's resilience
    events), and -- on failure -- ``error``.
    """
    memo = {} if memo is None else memo
    report = RunReport()
    reused: list[str] = []
    metrics: dict = {}
    status, error = "ok", None

    def stage(name: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per ``(name, *key)`` of the memo.

        The stage runs under its own run report, stored with its value;
        its events reach the scenario's report whether it runs now or
        is reused.  A stage that raises is not stored.
        """
        key = (name, *key)
        if key in memo:
            obs_metrics.counter("sweep.stages.reused").inc()
            reused.append(name)
            value, own = memo[key]
            _replay(own, report)
            return value
        obs_metrics.counter("sweep.stages.computed").inc()
        own = RunReport()
        try:
            with activate(own):
                value = compute()
        finally:
            _replay(own, report)
        memo[key] = (value, own)
        return value

    # Each stage's key is exactly the scenario fields it reads.
    geometry = (sc.variant, sc.length)
    loop = (*geometry, sc.frequency)
    electrical = (sc.rise_time, sc.driver_resistance, sc.load_capacitance,
                  sc.t_stop, sc.dt, sc.vdd)
    with span(
        "sweep.scenario",
        scenario=sc.scenario_id,
        variant=sc.variant,
        sparsifier=sc.sparsifier,
    ) as sp:
        try:
            layout, port = stage(
                "geometry", geometry,
                lambda: build_variant(sc.variant, sc.length),
            )
            z, filaments = stage(
                "loop", loop, lambda: _loop_impedance(sc, layout, port)
            )
            metrics["num_filaments"] = filaments
            metrics.update(stage(
                "sparsify", (*geometry, sc.sparsifier),
                lambda: _sparsify_metrics(sc, layout),
            ))
            metrics.update(stage(
                "transient", (*loop, *electrical),
                lambda: _transient_metrics(sc, z),
            ))
        except Exception as exc:
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
        sp.attrs["status"] = status
        sp.attrs["reused"] = ",".join(reused)
    obs_metrics.counter(f"sweep.scenarios.{status}").inc()
    record = {
        "id": sc.scenario_id,
        "params": sc.params(),
        "status": status,
        "metrics": metrics,
        # Span paths are deliberately excluded: a worker's span path
        # differs from the serial one, and records must be identical.
        "notes": [
            {"kind": e.kind, "stage": e.stage, "detail": e.detail}
            for e in report.events
        ],
    }
    if error is not None:
        record["error"] = error
    return record


def quarantined_record(sc: Scenario, reason: str) -> dict:
    """Degraded record for a scenario the supervisor had to quarantine.

    Shaped like an :func:`evaluate_scenario` record (same keys, status
    ``"quarantined"``) so it flows through the store, resume, and the
    aggregator untouched -- a poison scenario is data, not a batch abort.
    """
    obs_metrics.counter("sweep.scenarios.quarantined").inc()
    return {
        "id": sc.scenario_id,
        "params": sc.params(),
        "status": "quarantined",
        "metrics": {},
        "notes": [
            {"kind": "quarantine", "stage": "sweep", "detail": reason}
        ],
        "error": reason,
    }


__all__ = ["MAX_SEGMENT_LENGTH", "evaluate_scenario", "quarantined_record"]
