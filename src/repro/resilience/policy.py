"""Escalation policy and the step-halving budget.

Engines take a single ``policy=`` argument that selects which solver
escalation rungs are available.  The default is read once from the
``REPRO_RESILIENCE`` environment variable:

* ``off``  -- single-rung solves: fail fast (pre-resilience behavior,
  useful to expose latent numerical problems).
* ``safe`` -- the default.  Escalation rungs that are *answer-preserving*
  (plain LU, then equilibrated LU).  A genuinely singular system still
  raises.
* ``full`` -- additionally enables the rescue rungs (gmin-shifted solve
  with iterative refinement, then Tikhonov-regularized least squares)
  and DC source stepping.  Rescue solutions are only accepted when their
  residual against the original system passes the tolerances of
  :mod:`repro.circuit.linalg`, so an inconsistent singular system still
  raises; see DESIGN.md for why least squares is a last resort.

In every mode a transient step that fails is halved, up to
:data:`MAX_STEP_HALVINGS` times, before the failure propagates.  There
are no same-operation retries: re-running a deterministic solve fails
the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Escalation rungs per mode, in the order they are tried.
_RUNGS = {
    "off": ("lu",),
    "safe": ("lu", "equilibrated"),
    "full": ("lu", "equilibrated", "gmin", "lstsq"),
}

#: Times the transient engine halves a failing step before it propagates.
MAX_STEP_HALVINGS = 4


@dataclass(frozen=True)
class ResiliencePolicy:
    """Which solver escalation rungs the engines may use.

    Attributes:
        escalation: ``"off"`` / ``"safe"`` / ``"full"`` (see module
            docstring).
    """

    escalation: str = "safe"

    def __post_init__(self) -> None:
        if self.escalation not in _RUNGS:
            raise ValueError(
                f"escalation must be one of {sorted(_RUNGS)}, "
                f"got {self.escalation!r}"
            )

    @property
    def rungs(self) -> tuple[str, ...]:
        """Escalation rung names enabled by this policy, in order."""
        return _RUNGS[self.escalation]

    @property
    def source_stepping_enabled(self) -> bool:
        return self.escalation == "full"

    @classmethod
    def from_env(cls, env: str | None = None) -> "ResiliencePolicy":
        """Policy selected by ``REPRO_RESILIENCE`` (or an explicit string)."""
        value = env if env is not None else os.environ.get("REPRO_RESILIENCE", "")
        value = value.strip().lower()
        if not value:
            return cls()
        if value not in _RUNGS:
            raise ValueError(
                f"REPRO_RESILIENCE must be one of {sorted(_RUNGS)}, "
                f"got {value!r}"
            )
        return cls(escalation=value)


#: Process-wide default, fixed at import from ``REPRO_RESILIENCE``.
DEFAULT_POLICY = ResiliencePolicy.from_env()


def default_policy() -> ResiliencePolicy:
    """The process default policy (``REPRO_RESILIENCE`` at import time)."""
    return DEFAULT_POLICY


__all__ = [
    "MAX_STEP_HALVINGS",
    "ResiliencePolicy",
    "DEFAULT_POLICY",
    "default_policy",
]
