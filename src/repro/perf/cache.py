"""Content-addressed memoization of dense partial-inductance extraction.

The Section-4 assembly (:func:`repro.extraction.partial_matrix.
extract_partial_inductance`) is a pure function of the segment geometry
and the close-pair parameters, yet every flow that touches the same
layout recomputes it from scratch: the Table-1 comparison alone extracts
the same power grid for the PEEC(RC), PEEC(RLC), and loop rows.  This
module memoizes those results behind a *content address* -- a SHA-256
fingerprint over the exact segment geometry (bit-exact float encoding,
no rounding) plus every value-affecting parameter, the kernel revision
(:data:`~repro.extraction.inductance.KERNEL_REVISION`) included -- so a
repeated extraction is a dictionary lookup, and any geometry, parameter
or kernel change produces a different key and therefore a recompute,
never a stale hit.

Two storage tiers:

* an in-process :class:`LRUCache` (bounded; the matrices are dense), and
* an optional on-disk tier under ``REPRO_CACHE_DIR`` -- ``.npz`` files
  named by fingerprint, written atomically -- which survives across
  processes (parallel sweep workers, repeated CLI runs, CI).

Cache hits hand back a *copy* of the stored matrix: callers mutate
extraction matrices in place (the PEEC builder zeroes sub-threshold
mutuals), and a shared array would silently corrupt the cache.

``REPRO_EXTRACTION_CACHE=off`` disables both tiers (every call
recomputes); ``REPRO_CACHE_SIZE`` bounds the in-process tier.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Hashable, Iterable

import numpy as np

from repro.obs import metrics as obs_metrics


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    Used for the in-process extraction memos here.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# -- fingerprinting ----------------------------------------------------------


def _pack_floats(*values: float) -> bytes:
    """Bit-exact little-endian encoding (no decimal round-trip loss)."""
    return struct.pack(f"<{len(values)}d", *values)


def fingerprint_segments(
    segments: Iterable, params: dict[str, Any] | None = None
) -> str:
    """SHA-256 content address of segment geometry + extraction params.

    Every field that affects the partial-inductance values enters the
    hash: net/layer/direction (coupling is direction-grouped), the exact
    origin/length/width/thickness floats, and the close-pair parameters.
    Segment *names* are deliberately excluded -- renaming a wire does not
    change its inductance.
    """
    h = hashlib.sha256()
    count = 0
    for seg in segments:
        h.update(seg.net.encode())
        h.update(b"\x00")
        h.update(seg.layer.encode())
        h.update(b"\x00")
        h.update(seg.direction.value.encode())
        h.update(_pack_floats(*seg.origin, seg.length, seg.width,
                              seg.thickness))
        count += 1
    h.update(f"n={count}".encode())
    for key in sorted(params or ()):
        h.update(f";{key}=".encode())
        value = params[key]
        if isinstance(value, float):
            h.update(_pack_floats(value))
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def fingerprint_layout(layout, params: dict[str, Any] | None = None) -> str:
    """Content address of a layout's in-plane segments (extraction view)."""
    from repro.geometry.segment import Direction

    return fingerprint_segments(
        (s for s in layout.segments if s.direction != Direction.Z), params
    )


# -- the extraction cache ----------------------------------------------------


def cache_size() -> int:
    """Entries of each in-process tier: ``REPRO_CACHE_SIZE``, else 32.

    A malformed or non-positive value raises :class:`ValueError` naming
    the variable, as :func:`~repro.resilience.supervisor.worker_count`
    does for ``REPRO_WORKERS``.
    """
    raw = os.environ.get("REPRO_CACHE_SIZE", "").strip()
    if not raw:
        return 32
    try:
        size = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CACHE_SIZE must be an integer, got {raw!r}"
        ) from None
    if size < 1:
        raise ValueError(f"REPRO_CACHE_SIZE must be >= 1, got {size}")
    return size


_MEMO = LRUCache(cache_size())
_DISK_HITS = 0
_DISK_MISSES = 0


def cache_enabled() -> bool:
    """False when ``REPRO_EXTRACTION_CACHE=off`` (recompute everything)."""
    return os.environ.get(
        "REPRO_EXTRACTION_CACHE", ""
    ).strip().lower() not in ("off", "0", "false")


def cache_dir() -> Path | None:
    """The on-disk tier's directory (``REPRO_CACHE_DIR``), or None."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(raw) if raw else None


def _disk_path(digest: str) -> Path | None:
    base = cache_dir()
    if base is None:
        return None
    return base / f"partialL_{digest}.npz"


def load_matrix(digest: str) -> np.ndarray | None:
    """Look up a partial-L matrix by fingerprint (memory, then disk)."""
    global _DISK_HITS, _DISK_MISSES
    if not cache_enabled():
        return None
    cached = _MEMO.get(digest)
    if cached is not None:
        obs_metrics.counter("extraction.cache.memory_hits").inc()
        return cached.copy()
    path = _disk_path(digest)
    if path is None or not path.exists():
        if path is not None:
            _DISK_MISSES += 1
        obs_metrics.counter("extraction.cache.misses").inc()
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            matrix = np.asarray(data["matrix"])
    except (OSError, ValueError, KeyError):
        obs_metrics.counter("extraction.cache.misses").inc()
        return None  # corrupt/foreign file: treat as miss, recompute
    _DISK_HITS += 1
    obs_metrics.counter("extraction.cache.disk_hits").inc()
    _MEMO.put(digest, matrix)
    return matrix.copy()


def store_matrix(digest: str, matrix: np.ndarray) -> None:
    """Insert a freshly computed matrix into both tiers."""
    if not cache_enabled():
        return
    obs_metrics.counter("extraction.cache.stores").inc()
    matrix = np.array(matrix, copy=True)
    matrix.setflags(write=False)
    _MEMO.put(digest, matrix)
    path = _disk_path(digest)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, matrix=matrix)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
    except OSError:
        pass  # disk tier is best-effort; the result is already in memory


# -- the hierarchical-operator cache -----------------------------------------
#
# The hierarchical extraction (PR 8) produces a compressed operator, not
# a dense matrix, so it gets its own memo + ``partialL_hier_*.npz`` disk
# namespace.  The fingerprint already covers (geometry, eta, tol,
# leaf_size, close-pair params), so the two tiers can never alias: a
# different knob is a different digest is a different file.

_OP_MEMO = LRUCache(cache_size())
_OP_DISK_HITS = 0
_OP_DISK_MISSES = 0


def _operator_disk_path(digest: str) -> Path | None:
    base = cache_dir()
    if base is None:
        return None
    return base / f"partialL_hier_{digest}.npz"


def _operator_to_arrays(op) -> dict[str, np.ndarray]:
    """Flatten a HierarchicalPartialL into npz-storable arrays."""
    import json

    arrays: dict[str, np.ndarray] = {
        "diag": np.asarray(op.diag),
        "meta": np.frombuffer(
            json.dumps({
                "params": op.params,
                "aca_fallbacks": op.aca_fallbacks,
                "num_sym": len(op.sym_blocks),
                "num_near": len(op.near_blocks),
                "num_far": len(op.far_blocks),
            }).encode(), dtype=np.uint8
        ),
    }
    for k, blk in enumerate(op.sym_blocks):
        arrays[f"sym_{k}_idx"] = blk.indices
        arrays[f"sym_{k}_m"] = blk.matrix
    for k, blk in enumerate(op.near_blocks):
        arrays[f"near_{k}_rows"] = blk.rows
        arrays[f"near_{k}_cols"] = blk.cols
        arrays[f"near_{k}_m"] = blk.matrix
    for k, blk in enumerate(op.far_blocks):
        arrays[f"far_{k}_rows"] = blk.rows
        arrays[f"far_{k}_cols"] = blk.cols
        arrays[f"far_{k}_u"] = blk.u
        arrays[f"far_{k}_v"] = blk.v
    return arrays


def _operator_from_arrays(data) -> Any:
    """Rebuild a HierarchicalPartialL from npz arrays (inverse of above)."""
    import json

    from repro.extraction.hierarchical import (
        DenseBlock, HierarchicalPartialL, LowRankBlock, SymmetricBlock,
    )

    meta = json.loads(bytes(np.asarray(data["meta"])).decode())
    sym = [
        SymmetricBlock(
            indices=np.asarray(data[f"sym_{k}_idx"]),
            matrix=np.asarray(data[f"sym_{k}_m"]),
        )
        for k in range(meta["num_sym"])
    ]
    near = [
        DenseBlock(
            rows=np.asarray(data[f"near_{k}_rows"]),
            cols=np.asarray(data[f"near_{k}_cols"]),
            matrix=np.asarray(data[f"near_{k}_m"]),
        )
        for k in range(meta["num_near"])
    ]
    far = [
        LowRankBlock(
            rows=np.asarray(data[f"far_{k}_rows"]),
            cols=np.asarray(data[f"far_{k}_cols"]),
            u=np.asarray(data[f"far_{k}_u"]),
            v=np.asarray(data[f"far_{k}_v"]),
        )
        for k in range(meta["num_far"])
    ]
    return HierarchicalPartialL(
        diag=np.asarray(data["diag"]),
        sym_blocks=sym,
        near_blocks=near,
        far_blocks=far,
        params=meta["params"],
        aca_fallbacks=meta["aca_fallbacks"],
    )


def load_operator(digest: str):
    """Look up a hierarchical operator by fingerprint (memory, then disk).

    Operators are immutable after construction (no caller mutates block
    arrays in place), so -- unlike :func:`load_matrix` -- hits hand back
    the shared instance rather than a deep copy.
    """
    global _OP_DISK_HITS, _OP_DISK_MISSES
    if not cache_enabled():
        return None
    cached = _OP_MEMO.get(digest)
    if cached is not None:
        obs_metrics.counter("extraction.cache.memory_hits").inc()
        return cached
    path = _operator_disk_path(digest)
    if path is None or not path.exists():
        if path is not None:
            _OP_DISK_MISSES += 1
        obs_metrics.counter("extraction.cache.misses").inc()
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            operator = _operator_from_arrays(data)
    except (OSError, ValueError, KeyError):
        obs_metrics.counter("extraction.cache.misses").inc()
        return None  # corrupt/foreign file: treat as miss, recompute
    _OP_DISK_HITS += 1
    obs_metrics.counter("extraction.cache.disk_hits").inc()
    _OP_MEMO.put(digest, operator)
    return operator


def store_operator(digest: str, operator) -> None:
    """Insert a freshly built hierarchical operator into both tiers."""
    if not cache_enabled():
        return
    obs_metrics.counter("extraction.cache.stores").inc()
    _OP_MEMO.put(digest, operator)
    path = _operator_disk_path(digest)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, **_operator_to_arrays(operator))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
    except OSError:
        pass  # disk tier is best-effort; the operator is already in memory


def operator_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the operator tier."""
    return {
        **_OP_MEMO.stats(),
        "disk_hits": _OP_DISK_HITS,
        "disk_misses": _OP_DISK_MISSES,
    }


def clear_cache() -> None:
    """Drop the in-process tiers (the disk tier is left alone)."""
    _MEMO.clear()
    _OP_MEMO.clear()


def cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of both tiers."""
    return {
        **_MEMO.stats(),
        "disk_hits": _DISK_HITS,
        "disk_misses": _DISK_MISSES,
    }


__all__ = [
    "LRUCache",
    "fingerprint_segments",
    "fingerprint_layout",
    "cache_enabled",
    "cache_dir",
    "cache_size",
    "load_matrix",
    "store_matrix",
    "load_operator",
    "store_operator",
    "operator_cache_stats",
    "clear_cache",
    "cache_stats",
]
