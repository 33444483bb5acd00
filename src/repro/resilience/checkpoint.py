"""On-disk checkpoints for long transients: crash, resume, continue.

A checkpoint is a single ``.ckpt`` file (numpy ``.npz`` container) with a
JSON metadata record plus the numeric state needed to pick a run back up:
the last completed step and full state vector plus the recorded rows so
far.  When the circuit is expressible in the SPICE subset, its deck text
is embedded too, which is what lets ``repro resume <file>.ckpt`` rebuild
and finish a run from nothing but the checkpoint.

Writes are atomic (temp file + :func:`os.replace`), so a crash mid-write
leaves the previous snapshot intact.  Compatibility between a checkpoint
and the run trying to resume it is enforced with a fingerprint of the
run's defining parameters; a mismatch raises :class:`CheckpointMismatch`
rather than silently continuing the wrong simulation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Format version stamped into every checkpoint.
CKPT_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint file is unreadable or structurally invalid."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different run configuration."""


@dataclass
class CheckpointConfig:
    """How an engine should checkpoint itself.

    Attributes:
        path: Checkpoint file location (conventionally ``*.ckpt``).
        interval: Completed steps (or sweep points) between snapshots.
        resume: Pick up from ``path`` when it exists and matches this
            run's fingerprint.  A mismatched checkpoint raises.
        keep: Keep the file after the run completes (default: a finished
            run deletes its checkpoint).
    """

    path: str | Path
    interval: int = 25
    resume: bool = True
    keep: bool = False

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        self.path = Path(self.path)


@dataclass
class Checkpoint:
    """One loaded snapshot: ``kind`` + JSON ``meta`` + numeric ``arrays``."""

    kind: str
    meta: dict[str, Any]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    kind: str,
    meta: dict[str, Any],
    arrays: dict[str, np.ndarray],
) -> None:
    """Atomically write a snapshot to ``path``."""
    path = Path(path)
    record = {"version": CKPT_VERSION, "kind": kind, "meta": meta}
    header = np.frombuffer(
        json.dumps(record).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez(f, __checkpoint__=header, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a snapshot written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__checkpoint__" not in data:
                raise CheckpointError(
                    f"{path}: not a repro checkpoint (missing header)"
                )
            record = json.loads(bytes(data["__checkpoint__"]).decode("utf-8"))
            arrays = {
                key: data[key] for key in data.files if key != "__checkpoint__"
            }
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    version = record.get("version")
    if version != CKPT_VERSION:
        raise CheckpointMismatch(
            f"{path}: checkpoint version {version} != supported {CKPT_VERSION}"
        )
    return Checkpoint(
        kind=record.get("kind", ""), meta=record.get("meta", {}), arrays=arrays
    )


def verify_fingerprint(
    checkpoint: Checkpoint, kind: str, fingerprint: dict[str, Any], path
) -> None:
    """Raise :class:`CheckpointMismatch` unless the snapshot fits this run."""
    if checkpoint.kind != kind:
        raise CheckpointMismatch(
            f"{path}: checkpoint kind {checkpoint.kind!r} != expected {kind!r}"
        )
    stored = checkpoint.meta.get("fingerprint", {})
    if stored != fingerprint:
        diffs = sorted(
            key for key in set(stored) | set(fingerprint)
            if stored.get(key) != fingerprint.get(key)
        )
        raise CheckpointMismatch(
            f"{path}: checkpoint was written by a different run "
            f"(mismatched: {', '.join(diffs) or 'structure'})"
        )


def finish_checkpoint(config: CheckpointConfig | None) -> None:
    """Remove the checkpoint after a successful run (unless ``keep``)."""
    if config is None or config.keep:
        return
    try:
        Path(config.path).unlink()
    except FileNotFoundError:
        pass


__all__ = [
    "CKPT_VERSION",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointConfig",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "verify_fingerprint",
    "finish_checkpoint",
]
