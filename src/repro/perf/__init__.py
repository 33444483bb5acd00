"""Performance layer: parallel sweeps and extraction caching.

Two independent pieces, both motivated by the ROADMAP's "as fast as the
hardware allows" north star:

* :mod:`repro.perf.parallel` -- the per-frequency sweep behind loop
  extraction and AC analysis, mapped over a supervised process pool
  with per-worker reuse of the assembled MNA system and graceful serial
  fallback (``REPRO_WORKERS`` sets the default worker count).
* :mod:`repro.perf.cache` -- content-addressed memoization of the dense
  partial-inductance assembly, in-process (LRU) and optionally on disk
  (``REPRO_CACHE_DIR``), invalidated by any geometry or parameter change.

Run time is measured by the :mod:`repro.obs` spans, and speed claims
come from the repeated end-to-end runs in ``benchmarks/e2e/``.
"""

from repro.perf.cache import (
    LRUCache,
    cache_stats,
    clear_cache,
    fingerprint_layout,
    fingerprint_segments,
)
from repro.perf.parallel import SweepSpec, parallel_sweep, sweep_workers

__all__ = [
    "LRUCache",
    "cache_stats",
    "clear_cache",
    "fingerprint_layout",
    "fingerprint_segments",
    "SweepSpec",
    "parallel_sweep",
    "sweep_workers",
]
