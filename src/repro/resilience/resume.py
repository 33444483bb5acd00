"""Rebuild and finish a checkpointed run from nothing but its ``.ckpt``.

The engines checkpoint themselves (see
:mod:`repro.resilience.checkpoint`); when the circuit was expressible in
the SPICE subset, the snapshot also embeds the deck text.  This module
is the other half: given only the checkpoint file, it re-parses the
embedded deck, maps the saved state onto the re-parsed circuit's
unknowns, and hands the run back to the engine to finish -- which is
what the ``repro resume`` CLI command does.

The only subtlety is naming.  The SPICE writer prefixes every element
with its type letter and flattens ``InductorSet`` branches (``Vin`` ->
``VVin``, ``Lf[3]`` -> ``LLf_3``), so state vectors cannot be matched by
exact name.  :func:`_remap_state` matches *normalized* names (lowercase,
non-alphanumerics collapsed to ``_``), also trying each re-parsed name
with its designator letter stripped; any ambiguity or miss raises
:class:`~repro.resilience.checkpoint.CheckpointMismatch` instead of
silently resuming with scrambled state.

This module intentionally lives outside ``repro.resilience``'s package
exports: it imports the circuit engines, which themselves import the
resilience package.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    CheckpointMismatch,
    load_checkpoint,
    save_checkpoint,
)


def _normalize(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _rebuild_circuit(snap: Checkpoint, path):
    from repro.io.parser import read_spice

    deck = snap.meta.get("deck")
    if not deck:
        raise CheckpointError(
            f"{path}: checkpoint has no embedded SPICE deck (the circuit "
            "was not expressible in the SPICE subset); resume it "
            "programmatically by re-running with the same "
            "CheckpointConfig instead"
        )
    return read_spice(io.StringIO(deck)).circuit


def _remap_state(snap: Checkpoint, system, path) -> tuple[np.ndarray, dict[str, str]]:
    """Saved state vector reordered for the re-parsed system.

    Returns ``(x, name_map)`` where ``name_map`` translates every saved
    unknown name to the re-parsed circuit's name for it.
    """
    old_names = list(snap.meta["unknowns"])
    num_nodes = int(snap.meta["num_nodes"])
    x_old = np.asarray(snap.arrays["x"], dtype=float)
    if system.size != len(old_names) or system.size != x_old.shape[0]:
        raise CheckpointMismatch(
            f"{path}: re-parsed circuit has {system.size} unknowns, "
            f"checkpoint saved {len(old_names)}"
        )

    # Candidate keys for each re-parsed name: as-is, and with the SPICE
    # designator letter stripped (VVin -> Vin, LLf_3 -> Lf_3).
    ambiguous = object()

    def index_names(pairs):
        table: dict[str, object] = {}
        for name, idx in pairs:
            keys = {_normalize(name)}
            if len(name) > 1:
                keys.add(_normalize(name[1:]))
            for key in keys:
                if key in table and table[key] != idx:
                    table[key] = ambiguous
                else:
                    table[key] = idx
        return table

    node_table = index_names(
        (n, system.node_index(n))
        for n in system.circuit.node_names
        if system.node_index(n) >= 0
    )
    branch_table = index_names(system._branch_index.items())
    new_name_at = {}
    for n in system.circuit.node_names:
        if system.node_index(n) >= 0:
            new_name_at[system.node_index(n)] = n
    for name, idx in system._branch_index.items():
        new_name_at[idx] = name

    x_new = np.zeros(system.size)
    name_map: dict[str, str] = {}
    taken: set[int] = set()
    for old_idx, old_name in enumerate(old_names):
        table = node_table if old_idx < num_nodes else branch_table
        new_idx = table.get(_normalize(old_name))
        if new_idx is None or new_idx is ambiguous or new_idx in taken:
            raise CheckpointMismatch(
                f"{path}: cannot match saved unknown {old_name!r} to the "
                "re-parsed circuit (missing or ambiguous after name "
                "normalization)"
            )
        taken.add(new_idx)
        x_new[new_idx] = x_old[old_idx]
        name_map[old_name] = new_name_at[new_idx]
    return x_new, name_map


def describe(path) -> str:
    """One-paragraph human summary of what a checkpoint contains."""
    path = Path(path)
    snap = load_checkpoint(path)
    fp = snap.meta.get("fingerprint", {})
    lines = [f"{path}: {snap.kind} checkpoint ({snap.meta.get('reason', '?')})"]
    if snap.kind == "transient":
        step = snap.meta.get("step", "?")
        lines.append(
            f"  completed step {step}/{fp.get('num_steps', '?')} "
            f"(dt = {fp.get('dt', '?')}, t_stop = {fp.get('t_stop', '?')}, "
            f"method = {fp.get('method', '?')})"
        )
        lines.append(f"  state size {fp.get('size', '?')}, "
                     f"{len(fp.get('columns', []))} recorded columns")
    lines.append(
        "  resumable from CLI: "
        + ("yes (embedded deck)" if snap.meta.get("deck") else "no")
    )
    return "\n".join(lines)


def resume_transient(path, keep: bool = False):
    """Finish a checkpointed transient from its ``.ckpt`` file alone.

    Rebuilds the circuit from the embedded deck, remaps the saved state
    and recorded columns onto the re-parsed names, rewrites the
    checkpoint in those names, and lets
    :func:`~repro.circuit.transient.transient_analysis` resume it.

    Returns:
        The completed :class:`~repro.circuit.transient.TransientResult`
        (columns carry the re-parsed, SPICE-prefixed names).
    """
    from repro.circuit.mna import MNASystem
    from repro.circuit.transient import transient_analysis

    path = Path(path)
    snap = load_checkpoint(path)
    if snap.kind != "transient":
        raise CheckpointMismatch(
            f"{path}: expected a transient checkpoint, found {snap.kind!r}"
        )
    circuit = _rebuild_circuit(snap, path)
    system = MNASystem(circuit)
    x, name_map = _remap_state(snap, system, path)

    args = snap.meta["args"]
    fingerprint = dict(snap.meta["fingerprint"])
    columns = [name_map[c] for c in fingerprint["columns"]]
    fingerprint["columns"] = columns
    meta = dict(snap.meta)
    meta["fingerprint"] = fingerprint
    meta["unknowns"] = [
        name_map[n] for n in snap.meta["unknowns"]
    ]
    save_checkpoint(
        path, "transient", meta, {"x": x, "data": snap.arrays["data"]}
    )
    return transient_analysis(
        system,
        t_stop=float(args["t_stop"]),
        dt=float(args["dt"]),
        method=args["method"],
        x0="zero",  # ignored: the state comes from the checkpoint
        record=columns,
        newton_tol=float(args["newton_tol"]),
        max_newton=int(args["max_newton"]),
        checkpoint=CheckpointConfig(path=path, resume=True, keep=keep),
    )


__all__ = ["describe", "resume_transient"]
