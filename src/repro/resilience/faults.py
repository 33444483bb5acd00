"""Deterministic fault injection into named solve sites.

The escalation chain, retry policies, and checkpoint/resume paths only
earn their keep if they demonstrably fire.  This module gives the test
suite (and CI) a seeded, reproducible way to make them fire: solver
internals call the three hooks below at *named sites*, and an installed
:class:`FaultInjector` decides -- deterministically, from its seed and
call order -- whether to sabotage that call.

Fault kinds:

* ``"raise"``    -- raise :class:`InjectedFault` at the site (a transient
  exception: retrying the operation succeeds).
* ``"nan"``      -- poison the solution vector with NaN (exercises the
  non-finite detection and escalation path).
* ``"singular"`` -- replace the matrix handed to that site with a
  singular copy (first row zeroed), so that *this rung's* factorization
  fails while later rungs still see clean data.
* ``"hang"``     -- sleep for ``REPRO_HANG_SECONDS`` (default 30) at the
  site, then continue normally: without supervision the call is merely
  late, under a supervisor deadline it is a hung worker.
* ``"crash"``    -- ``os._exit`` the process at the site (a killed pool
  worker; breaks the whole pool, exercising reissue-to-restarted-pool).
* ``"bigalloc"`` -- attempt a ``REPRO_BIGALLOC_MB`` (default 1024)
  allocation and raise :class:`MemoryError` at the site; under a
  ``REPRO_WORKER_RLIMIT_MB`` ceiling the allocation itself fails, and
  without one the error is raised deterministically after the probe so
  the supervised ``MemoryError`` path fires either way.

Sites are dotted names (``"transient.lu"``, ``"dc.newton.equilibrated"``,
``"loop.freq"``); specs match them with :mod:`fnmatch` patterns, so
``"*.lu"`` targets the first escalation rung everywhere.

Linear transients step in blocks of raw LU solves (see
:mod:`repro.circuit.transient`), so their sites fire per block, not per
step: ``"transient.step"`` once at each block's start, ``"raise"`` and
``"singular"`` at ``"transient.<rung>"`` when a companion matrix is
factored, and ``"nan"`` at ``"transient.lu"`` once per block on its end
state.  A block a fault hits re-runs step by step, and there every
step passes ``"transient.step"`` and every solve its rung's sites.

Activation is either programmatic::

    with inject_faults(FaultSpec("transient.lu", "singular")):
        transient_analysis(...)

or process-wide chaos via the environment: ``REPRO_FAULTS=chaos-1234``
installs a low-probability injector over the recoverable sites, which CI
uses to run the whole suite with every fallback path genuinely
exercised.  Deterministic rule lists are also accepted --
``REPRO_FAULTS='*.worker=hang@0.5,loop.freq=raise'`` -- which is how the
CI chaos-hang job makes specific supervision paths fire on demand.
``with inject_faults():`` (no specs) suppresses any ambient injector for
precision-sensitive blocks.
"""

from __future__ import annotations

import fnmatch
import os
import threading
import time
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Iterator

import numpy as np


class InjectedFault(RuntimeError):
    """A deliberately injected, transient solver fault."""

    def __init__(self, site: str, detail: str = "injected fault") -> None:
        self.site = site
        super().__init__(f"{detail} at solve site {site!r}")


@dataclass
class FaultSpec:
    """One injection rule.

    Attributes:
        site: :mod:`fnmatch` pattern over dotted site names.
        kind: ``"raise"`` / ``"nan"`` / ``"singular"``.
        probability: Chance of firing per eligible call (1.0 = always).
        max_hits: Stop firing after this many injections (None = never).
        after: Skip this many eligible calls before becoming active --
            lets a test crash a run mid-flight rather than at step 0.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_hits: int | None = 1
    after: int = 0

    KINDS = ("raise", "nan", "singular", "hang", "crash", "bigalloc")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


class FaultInjector:
    """Seeded decision-maker over a set of :class:`FaultSpec` rules."""

    def __init__(self, specs: tuple[FaultSpec, ...] = (), seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._calls = [0] * len(self.specs)
        self._hits = [0] * len(self.specs)
        self.injections: list[tuple[str, str]] = []  # (site, kind) log

    def fires(self, site: str, kinds: tuple[str, ...]) -> FaultSpec | None:
        """The first spec that decides to sabotage this call, if any."""
        for k, spec in enumerate(self.specs):
            if spec.kind not in kinds:
                continue
            if not fnmatch.fnmatchcase(site, spec.site):
                continue
            self._calls[k] += 1
            if self._calls[k] <= spec.after:
                continue
            if spec.max_hits is not None and self._hits[k] >= spec.max_hits:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._hits[k] += 1
            self.injections.append((site, spec.kind))
            return spec
        return None


#: Chaos-mode rules: low-probability faults at sites the resilience layer
#: provably recovers from bit-compatibly (first-rung escalation recomputes
#: the same answer; step retries redo identical work).  On linear
#: transients ``transient.step`` and the ``nan`` rule are drawn once per
#: block, and again per step only when the block is re-run step by step.
def chaos_specs() -> tuple[FaultSpec, ...]:
    return (
        FaultSpec("*.lu", "raise", probability=0.02, max_hits=None),
        FaultSpec("*.lu", "nan", probability=0.01, max_hits=None),
        FaultSpec("transient.step", "raise", probability=0.003, max_hits=None),
        FaultSpec("adaptive.step", "raise", probability=0.003, max_hits=None),
        FaultSpec("loop.freq", "raise", probability=0.02, max_hits=None),
        FaultSpec("perf.pool", "raise", probability=0.05, max_hits=None),
        # Worker-process faults, recovered by the execution supervisor
        # (reissue after deadline kill / pool restart / MemoryError
        # strike).  Kept rare: each hit costs a deadline or a pool
        # generation, not just a retry.
        FaultSpec("*.worker", "hang", probability=0.003, max_hits=None),
        FaultSpec("*.worker", "crash", probability=0.003, max_hits=None),
        FaultSpec("*.worker", "bigalloc", probability=0.003, max_hits=None),
    )


def _parse_rule(item: str) -> FaultSpec:
    """One ``site=kind[@prob]`` clause of a deterministic rule list."""
    site, _, rest = item.partition("=")
    site = site.strip()
    kind, _, prob = rest.partition("@")
    kind = kind.strip()
    if not site or not kind:
        raise ValueError(
            f"REPRO_FAULTS rule must look like 'site=kind[@prob]', got {item!r}"
        )
    probability = 1.0
    if prob:
        try:
            probability = float(prob)
        except ValueError:
            raise ValueError(
                f"REPRO_FAULTS probability must be a number, got {item!r}"
            ) from None
    try:
        return FaultSpec(site, kind, probability=probability, max_hits=None)
    except ValueError as exc:
        raise ValueError(f"bad REPRO_FAULTS rule {item!r}: {exc}") from None


def injector_from_env(value: str | None = None) -> FaultInjector | None:
    """Build the ambient injector described by ``REPRO_FAULTS``.

    Grammar: empty / ``off`` -> None; ``chaos`` -> chaos rules with seed
    0; ``chaos-<seed>`` -> chaos rules with that seed; otherwise a
    comma-separated deterministic rule list, each clause
    ``site=kind[@prob]`` (probability defaults to 1.0, unlimited hits),
    e.g. ``'*.worker=hang@0.5,loop.freq=raise'``.
    """
    raw = value if value is not None else os.environ.get("REPRO_FAULTS", "")
    raw = raw.strip().lower()
    if not raw or raw == "off":
        return None
    if raw == "chaos":
        return FaultInjector(chaos_specs(), seed=0)
    if raw.startswith("chaos-"):
        try:
            seed = int(raw[len("chaos-"):])
        except ValueError:
            raise ValueError(
                f"REPRO_FAULTS seed must be an integer, got {raw!r}"
            ) from None
        return FaultInjector(chaos_specs(), seed=seed)
    if "=" in raw:
        specs = tuple(
            _parse_rule(item) for item in raw.split(",") if item.strip()
        )
        return FaultInjector(specs, seed=0)
    raise ValueError(
        "REPRO_FAULTS must be 'off', 'chaos', 'chaos-<seed>', or a "
        f"'site=kind[@prob]' rule list, got {raw!r}"
    )


_ENV_INJECTOR = injector_from_env()
_LOCAL = threading.local()


def active_injector() -> FaultInjector | None:
    """The injector governing this thread (innermost context, else env)."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return _ENV_INJECTOR


@contextmanager
def inject_faults(
    *specs: FaultSpec, seed: int = 0
) -> Iterator[FaultInjector]:
    """Install a fault injector for the block (no specs = suppress all)."""
    injector = FaultInjector(tuple(specs), seed=seed)
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(injector)
    try:
        yield injector
    finally:
        stack.pop()


# -- hooks called from solver internals -------------------------------------

#: Bound on injected hangs [s]; even unsupervised code paths are merely
#: late, never stalled forever.  CI sets this low so chaos stays fast.
HANG_ENV = "REPRO_HANG_SECONDS"
DEFAULT_HANG_SECONDS = 30.0

#: Size of the ``bigalloc`` probe allocation [MiB].
BIGALLOC_ENV = "REPRO_BIGALLOC_MB"
DEFAULT_BIGALLOC_MB = 1024


def _env_number(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {raw!r}")
    return value


def maybe_disrupt(site: str) -> None:
    """Fire any worker-process fault (hang / crash / bigalloc) due here.

    Called from inside pool-worker chunk bodies only -- serial paths do
    not pass through it, so a circuit-breaker fallback can always finish
    the sweep even when every worker is sabotaged.
    """
    injector = active_injector()
    if injector is None:
        return
    spec = injector.fires(site, ("hang", "crash", "bigalloc"))
    if spec is None:
        return
    if spec.kind == "hang":
        time.sleep(_env_number(HANG_ENV, DEFAULT_HANG_SECONDS))
    elif spec.kind == "crash":
        os._exit(13)
    else:  # bigalloc
        mb = int(_env_number(BIGALLOC_ENV, DEFAULT_BIGALLOC_MB))
        # MiB -> float64 element count; under an rlimit ceiling the
        # allocation itself raises, otherwise we raise after the probe.
        probe = np.ones(mb << 17)
        del probe
        raise MemoryError(f"injected bigalloc of {mb} MiB at site {site!r}")


def maybe_fail(site: str) -> None:
    """Raise :class:`InjectedFault` if a ``"raise"`` rule fires here."""
    injector = active_injector()
    if injector is not None and injector.fires(site, ("raise",)):
        raise InjectedFault(site)


def corrupt_matrix(site: str, matrix):
    """Return ``matrix``, or a singular copy if a ``"singular"`` rule fires."""
    injector = active_injector()
    if injector is None or injector.fires(site, ("singular",)) is None:
        return matrix
    import scipy.sparse as sp

    if sp.issparse(matrix):
        bad = matrix.tolil(copy=True)
        bad[0, :] = 0.0
        return bad.tocsc()
    bad = np.array(matrix, copy=True)
    bad[0, :] = 0.0
    return bad


def corrupt_solution(site: str, x: np.ndarray) -> np.ndarray:
    """Return ``x``, or a NaN-poisoned copy if a ``"nan"`` rule fires."""
    injector = active_injector()
    if injector is None or injector.fires(site, ("nan",)) is None:
        return x
    bad = np.array(x, copy=True)
    bad[0] = np.nan
    return bad


__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultInjector",
    "chaos_specs",
    "injector_from_env",
    "active_injector",
    "inject_faults",
    "maybe_disrupt",
    "maybe_fail",
    "corrupt_matrix",
    "corrupt_solution",
]
