"""Aggregation of sweep records into the paper's comparison view.

Turns a batch of per-scenario records into the Table-1-style comparison
artifact: loop R/L, 50% delay, and overshoot per design variant, sorted
deterministically.  The JSON writer emits a *canonical* form -- sorted
rows, sorted keys, resilience notes excluded -- so a serial run and a
sharded run of the same grid produce byte-identical files (the CI smoke
check compares them with ``cmp``).
"""

from __future__ import annotations

import json
from pathlib import Path


def _sort_key(record: dict):
    p = record["params"]
    return (
        p["variant"], p["length"], p["frequency"], p["sparsifier"],
        record["id"],
    )


def aggregate_records(records: list[dict]) -> list[dict]:
    """Deterministically ordered records without the resilience notes.

    Notes are dropped because resilience events can differ between a
    serial and a sharded run of the *same* results (forked RNG streams
    under chaos injection); everything kept is a pure function of the
    scenario parameters.
    """
    rows = []
    for record in sorted(records, key=_sort_key):
        row = {
            "id": record["id"],
            "params": record["params"],
            "status": record["status"],
            "metrics": record["metrics"],
        }
        if "error" in record:
            row["error"] = record["error"]
        rows.append(row)
    return rows


def format_comparison(records: list[dict], title: str | None = None) -> str:
    """Render the comparison table (variant vs loop R/L, delay, overshoot)."""
    from repro.analysis.report import format_table

    rows = []
    for record in aggregate_records(records):
        p, m = record["params"], record["metrics"]
        def fmt(key: str, scale: float, digits: int = 3) -> str:
            value = m.get(key)
            return "-" if value is None else f"{value * scale:.{digits}f}"
        rows.append([
            p["variant"],
            f"{p['length'] * 1e6:.0f}",
            f"{p['frequency'] / 1e9:.2f}",
            p["sparsifier"],
            fmt("loop_resistance", 1.0),
            fmt("loop_inductance", 1e9),
            fmt("delay", 1e12, 1),
            fmt("overshoot", 1e3, 1),
            record["status"],
        ])
    return format_table(
        ["variant", "len [um]", "f [GHz]", "sparsifier", "R [ohm]",
         "L [nH]", "delay [ps]", "overshoot [mV]", "status"],
        rows,
        title=title or "scenario sweep -- loop model comparison",
    )


def write_results(records: list[dict], path: str | Path) -> Path:
    """Write the canonical aggregated JSON artifact."""
    path = Path(path)
    payload = {"scenarios": aggregate_records(records)}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    return path


__all__ = ["aggregate_records", "format_comparison", "write_results"]
