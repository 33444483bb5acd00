"""The exact sweep's tridiagonal reduction against the per-point chain.

An exact sweep of ``REDUCED_SWEEP_POINTS`` (4) or more points over a mesh
of 2 or more unknowns solves ``(G + jωC) x = e_port`` from one reduction of
its pencil (``linalg.reduced_sweep``).  The per-point chain, one
``SweepSpec`` solve per point through ``parallel_sweep``, is the
reference here and the fallback there.
"""

import numpy as np
import pytest

from repro.circuit import linalg
from repro.circuit.linalg import SingularCircuitError, reduced_sweep
from repro.geometry import build_signal_over_grid
from repro.loop.extractor import (
    LoopPort, _loop_network, _MeshSystem, extract_loop_impedance,
)
from repro.obs.trace import tracing
from repro.perf.parallel import SweepSpec, parallel_sweep
from repro.resilience import inject_faults
from repro.scenarios.variants import build_variant


def make_port(ports):
    return LoopPort(
        signal=ports["driver"],
        reference=ports["gnd_driver"],
        short_signal=ports["receiver"],
        short_reference=ports["gnd_receiver"],
    )


def sweep(layout, port, freqs, **kwargs):
    """Z, the ``loop.sweep`` span's ``path`` and the downgrades."""
    with inject_faults(), tracing() as trace:
        result = extract_loop_impedance(
            layout, port, freqs, workers=1, **kwargs
        )
    return (result.impedance, trace.find("loop.sweep").attrs["path"],
            result.report.by_kind("downgrade"))


def per_point(layout, port, freqs, **kwargs):
    """Z of the same mesh system, one chain solve per point."""
    mesh = _MeshSystem(_loop_network(layout, port, float(max(freqs)),
                                     **kwargs))
    b = np.zeros(mesh.size, dtype=complex)
    b[-1] = 1.0
    spec = SweepSpec(g_matrix=mesh.g_matrix, c_matrix=mesh.c_matrix, b=b,
                     site="loop", port=None)
    x = np.zeros((len(freqs), mesh.size), dtype=complex)
    with inject_faults():
        parallel_sweep(spec, np.asarray(freqs, dtype=float), x, workers=1)
    return mesh.impedance(freqs, x)


def _rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _freqs(points):
    return [0.0] + list(np.logspace(7, 10.5, points - 1))


@pytest.mark.parametrize("points", [4, 6, 9])
def test_reduction_matches_the_per_point_chain(signal_grid_structure,
                                               points):
    layout, ports = signal_grid_structure
    freqs = _freqs(points)
    z, path, downgrades = sweep(layout, make_port(ports), freqs,
                                max_segment_length=150e-6)
    reference = per_point(layout, make_port(ports), freqs,
                          max_segment_length=150e-6)
    assert path == "reduced"
    assert not downgrades
    assert _rel(z, reference) <= 1e-12


@pytest.mark.parametrize("points", [1, 2, 3])
def test_fewer_points_solve_point_by_point(signal_grid_structure, points):
    layout, ports = signal_grid_structure
    freqs = _freqs(points) if points > 1 else [1e9]
    z, path, _ = sweep(layout, make_port(ports), freqs,
                       max_segment_length=150e-6)
    assert path == "points"
    assert np.array_equal(z, per_point(layout, make_port(ports), freqs,
                                       max_segment_length=150e-6))


@pytest.mark.parametrize("variant, size, path", [
    ("staggered_pair", 1, "points"),
    ("twisted_bundle", 2, "reduced"),
])
def test_the_smallest_meshes(variant, size, path):
    layout, port = build_variant(variant, 100e-6)
    freqs = [0.0, 1e7, 1e8, 1e9, 1e10, 2e10]
    with inject_faults(), tracing() as trace:
        z = extract_loop_impedance(layout, port, freqs, workers=1,
                                   max_segment_length=200e-6).impedance
    attrs = trace.find("loop.sweep").attrs
    assert (attrs["mesh_size"], attrs["path"]) == (size, path)
    reference = per_point(layout, port, freqs, max_segment_length=200e-6)
    assert _rel(z, reference) <= 1e-12


def _indefinite():
    """A negative receiver short: G's least eigenvalue is about -8.9."""
    layout, ports = build_signal_over_grid(length=400e-6)
    kwargs = {"max_segment_length": 150e-6, "short_resistance": -20.0}
    return layout, make_port(ports), kwargs


def test_indefinite_g_falls_back_to_the_chain():
    layout, port, kwargs = _indefinite()
    freqs = _freqs(6)
    mesh = _MeshSystem(_loop_network(layout, port, max(freqs), **kwargs))
    assert np.linalg.eigvalsh(mesh.g_matrix)[0] < 0.0
    z, path, downgrades = sweep(layout, port, freqs, **kwargs)
    assert path == "points"
    assert len(downgrades) == 1
    assert "not positive definite" in downgrades[0].detail
    assert np.array_equal(z, per_point(layout, port, freqs, **kwargs))


def test_a_failed_residual_check_falls_back(signal_grid_structure,
                                            monkeypatch):
    layout, ports = signal_grid_structure
    freqs = _freqs(6)
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    z, path, downgrades = sweep(layout, make_port(ports), freqs,
                                max_segment_length=150e-6)
    assert path == "points"
    assert len(downgrades) == 1
    assert "residual" in downgrades[0].detail
    assert np.array_equal(z, per_point(layout, make_port(ports), freqs,
                                       max_segment_length=150e-6))


class TestReducedSweep:
    """``reduced_sweep`` on random symmetric-definite pencils."""

    @staticmethod
    def pencil(n, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        m = rng.standard_normal((n, n))
        return a @ a.T + n * np.eye(n), 1e-10 * (m @ m.T)

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_solves_every_point(self, n):
        g, c = self.pencil(n)
        b = np.zeros(n)
        b[-1] = 1.0
        omegas = 2 * np.pi * np.array([0.0, 1e8, 1e9, 1e10, 1e11])
        x = reduced_sweep(g, c, b, omegas)
        for omega, xk in zip(omegas, x):
            exact = np.linalg.solve(g + 1j * omega * c, b)
            assert np.max(np.abs(xk - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_indefinite_g_raises(self):
        g, c = self.pencil(10)
        g[0, 0] = -g[0, 0]
        with pytest.raises(SingularCircuitError, match="positive definite"):
            reduced_sweep(g, c, np.ones(10), [0.0, 1e9])

    def test_zero_pivot_raises(self, monkeypatch):
        g, c = self.pencil(10)
        zgtsv = linalg.lapack.zgtsv

        def singular(*args, **kwargs):
            *out, info = zgtsv(*args, **kwargs)
            return (*out, 3)

        monkeypatch.setattr(linalg.lapack, "zgtsv", singular)
        with pytest.raises(SingularCircuitError, match="zero pivot 3"):
            reduced_sweep(g, c, np.ones(10), [0.0, 1e9])
