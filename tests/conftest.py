"""Shared fixtures: small layouts, cached extractions and fast pool
supervision, for speed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.extraction.partial_matrix import extract_for_layout
from repro.geometry import (
    ClockNetSpec,
    PowerGridSpec,
    build_clock_net,
    build_power_grid,
    build_signal_over_grid,
    default_layer_stack,
)
from repro.resilience import supervisor


@pytest.fixture(scope="session")
def layer_stack():
    return default_layer_stack(6)


@pytest.fixture(scope="session")
def small_grid_layout(layer_stack):
    """A tiny stitched 2-layer power grid with pads."""
    spec = PowerGridSpec(
        die_width=120e-6,
        die_height=120e-6,
        layer_names=("M5", "M6"),
        stripe_pitch=40e-6,
        stripe_width=2e-6,
        pads_per_net=1,
    )
    return build_power_grid(spec, list(layer_stack))


@pytest.fixture(scope="session")
def grid_with_clock(layer_stack):
    """Grid + clock net + ports: the Table-1 topology at mini scale."""
    spec = PowerGridSpec(
        die_width=160e-6,
        die_height=160e-6,
        layer_names=("M5", "M6"),
        stripe_pitch=40e-6,
        stripe_width=2e-6,
        pads_per_net=2,
    )
    layout = build_power_grid(spec, list(layer_stack))
    ports = build_clock_net(
        ClockNetSpec(
            trunk_y=80.5e-6,
            trunk_x_start=3e-6,
            trunk_length=150e-6,
            num_branches=2,
            branch_length=50e-6,
        ),
        layout,
    )
    return layout, ports


@pytest.fixture(scope="session")
def signal_grid_structure():
    """Signal over coplanar ground returns (the Figure-3a structure)."""
    return build_signal_over_grid(
        length=300e-6, returns_per_side=2, pitch=8e-6
    )


@pytest.fixture(scope="session")
def signal_grid_extraction(signal_grid_structure):
    """Cached partial-L extraction of the Figure-3a structure."""
    layout, _ = signal_grid_structure
    result, indices = extract_for_layout(layout)
    return result


@pytest.fixture()
def supervision(monkeypatch):
    """Make the supervisor's module constants fast for one pool test.

    Sets a 0.02 s watchdog heartbeat and a 0.01 s first restart backoff,
    and returns a setter that also pins the chunk-retry and pool-restart
    budgets.  Patching in the parent is enough: the watchdog and the
    restart loop run there, not in the pool workers.
    """
    monkeypatch.setattr(supervisor, "HEARTBEAT", 0.02)
    monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.01)

    def budgets(
        *,
        max_chunk_retries: int | None = None,
        max_pool_restarts: int | None = None,
    ) -> None:
        if max_chunk_retries is not None:
            monkeypatch.setattr(
                supervisor, "MAX_CHUNK_RETRIES", max_chunk_retries
            )
        if max_pool_restarts is not None:
            monkeypatch.setattr(
                supervisor, "MAX_POOL_RESTARTS", max_pool_restarts
            )

    return budgets
