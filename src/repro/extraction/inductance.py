"""Partial self and mutual inductance of rectangular conductors.

The PEEC method (Ruehli, 1972) assigns every conductor segment a *partial*
self inductance and every pair of parallel segments a *partial* mutual
inductance; loop inductance emerges from the circuit solution rather than
from a priori loop identification.  This module provides:

* :func:`self_inductance_bar` -- closed-form partial self inductance of a
  rectangular bar (Grover 1946 / Ruehli 1972 working formula).
* :func:`mutual_inductance_filaments` -- exact Neumann-integral mutual
  inductance between two parallel *filaments* with arbitrary axial offset
  and unequal lengths (Grover's tables in closed form).
* :func:`mutual_inductance_bars` -- mutual inductance between two parallel
  rectangular *bars*, computed by averaging the exact filament formula over
  a subdivision of both cross sections (the same discretization FastHenry
  uses).  Converges to the exact volume integral as the subdivision is
  refined; a single center filament is accurate for well-separated bars.

All functions are vectorized over numpy arrays so that dense partial-L
matrix assembly (100k+ mutual terms) stays fast.

Sign convention: currents flow in the +axis direction in every segment, so
the Neumann integral for co-directed parallel segments is positive.  Branch
orientation in the circuit carries any sign flips.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import MU0

#: mu0 / (4 pi) [H/m]
_K = MU0 / (4.0 * math.pi)


def self_inductance_bar(length: float, width: float, thickness: float) -> float:
    """Partial self inductance of a rectangular bar [H].

    Grover's working formula (also Ruehli 1972, eq. for a thin rectangular
    conductor)::

        L = (mu0 / 2 pi) * l * [ ln(2 l / (w + t)) + 0.5 + 0.2235 (w + t) / l ]

    Accurate to a few percent for l >~ (w + t); the ``0.2235`` term is
    Grover's arithmetic-mean-distance correction for the rectangular cross
    section.

    Args:
        length: Bar length along current flow [m].
        width: Cross-section width [m].
        thickness: Cross-section thickness [m].
    """
    if length <= 0 or width <= 0 or thickness <= 0:
        raise ValueError(
            f"dimensions must be positive: l={length}, w={width}, t={thickness}"
        )
    wt = width + thickness
    return 2.0 * _K * length * (
        math.log(2.0 * length / wt) + 0.5 + 0.2235 * wt / length
    )


def _g(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Antiderivative kernel for the parallel-filament Neumann integral.

    g(z) = z*asinh(z/rho) - sqrt(z^2 + rho^2), with g''(z) = 1/sqrt(z^2+rho^2).
    For rho -> 0 (collinear filaments) the limit |z|*ln|z| - |z| is used; the
    rho-dependent and constant terms cancel in the 4-corner combination for
    any non-overlapping collinear pair.
    """
    z = np.asarray(z, dtype=float)
    rho = np.asarray(rho, dtype=float)
    z, rho = np.broadcast_arrays(z, rho)
    out = np.empty_like(z)
    collinear = rho <= 0.0
    if np.any(collinear):
        az = np.abs(z[collinear])
        with np.errstate(divide="ignore", invalid="ignore"):
            val = az * np.log(az) - az
        out[collinear] = np.where(az == 0.0, 0.0, val)
    regular = ~collinear
    if np.any(regular):
        zr = z[regular]
        rr = rho[regular]
        out[regular] = zr * np.arcsinh(zr / rr) - np.hypot(zr, rr)
    return out


def mutual_inductance_filaments(
    start1, end1, start2, end2, rho
) -> np.ndarray | float:
    """Mutual inductance between two parallel filaments [H].

    The filaments lie along a common axis direction; filament 1 spans axial
    coordinates ``[start1, end1]``, filament 2 spans ``[start2, end2]``, and
    ``rho`` is their transverse (perpendicular) separation.  The result is
    the exact double Neumann integral::

        M = (mu0 / 4 pi) * [ g(e1-s2) - g(e1-e2) - g(s1-s2) + g(s1-e2) ]

    which specializes to Grover's classic equal-length formula when the
    spans coincide.  Collinear filaments (``rho == 0``) are supported when
    the spans do not overlap.

    All arguments broadcast as numpy arrays; scalars in give a scalar out.
    """
    s1 = np.asarray(start1, dtype=float)
    e1 = np.asarray(end1, dtype=float)
    s2 = np.asarray(start2, dtype=float)
    e2 = np.asarray(end2, dtype=float)
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    # Tolerate floating-point dust: abutting same-wire pieces can "overlap"
    # by ~1e-20 m after coordinate arithmetic; real overlaps in um-scale
    # layouts are nanometers or more.
    overlap = np.minimum(e1, e2) - np.maximum(s1, s2)
    if np.any((r <= 0.0) & (overlap > 1e-12)):
        raise ValueError(
            "collinear filaments (rho == 0) must not overlap axially; "
            "the Neumann integral diverges"
        )
    # One stacked _g call over the four Neumann corners instead of four
    # separate ones: the per-element math (and hence the result, bitwise)
    # is unchanged, but the fixed broadcast/mask overhead is paid once --
    # this path is the inner loop of both assemblies.
    d1, d2, d3, d4, rb = np.broadcast_arrays(
        e1 - s2, e1 - e2, s1 - s2, s1 - e2, r
    )
    g = _g(np.stack([d1, d2, d3, d4]), rb)
    m = _K * (g[0] - g[1] - g[2] + g[3])
    if np.ndim(m) == 0:
        return float(m)
    return m


def mutual_inductance_filaments_grover(length: float, rho: float) -> float:
    """Grover's equal-length parallel-filament mutual inductance [H].

    Classic closed form for two filaments of equal ``length`` with no axial
    offset at separation ``rho``::

        M = 2e-7 * l * [ ln(l/d + sqrt(1 + (l/d)^2)) - sqrt(1 + (d/l)^2) + d/l ]

    Kept as an independent implementation for cross-validation against
    :func:`mutual_inductance_filaments` in the test suite.
    """
    if length <= 0 or rho <= 0:
        raise ValueError("length and rho must be positive")
    u = length / rho
    return 2.0 * _K * length * (
        math.log(u + math.sqrt(1.0 + u * u))
        - math.sqrt(1.0 + 1.0 / (u * u))
        + 1.0 / u
    )


def _filament_offsets(n: int, extent: float) -> np.ndarray:
    """Centroid offsets of ``n`` equal slices of an interval of ``extent``."""
    if n == 1:
        return np.zeros(1)
    edges = np.linspace(-extent / 2.0, extent / 2.0, n + 1)
    return (edges[:-1] + edges[1:]) / 2.0


def mutual_inductance_bars(
    start1: float,
    end1: float,
    start2: float,
    end2: float,
    d_width: float,
    d_thick: float,
    width1: float,
    thick1: float,
    width2: float,
    thick2: float,
    subdivisions: int | None = None,
) -> float:
    """Mutual inductance between two parallel rectangular bars [H].

    Bars share a current axis; ``(start, end)`` give their axial spans and
    ``(d_width, d_thick)`` the transverse center-to-center offsets along the
    cross-section width and thickness axes.  The exact filament mutual is
    averaged over an ``n x n`` centroid subdivision of both cross sections.

    Args:
        subdivisions: Cross-section slices per transverse axis.  ``None``
            selects automatically: a single center filament when the bars
            are far apart relative to their cross sections, 3 otherwise.

    Returns:
        Mutual inductance; positive for co-directed currents.
    """
    sep = math.hypot(d_width, d_thick)
    max_cross = max(width1, thick1, width2, thick2)
    if subdivisions is None:
        subdivisions = 1 if sep >= 4.0 * max_cross else 3
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")

    n = subdivisions
    w_off1 = _filament_offsets(n, width1)
    t_off1 = _filament_offsets(n, thick1)
    w_off2 = _filament_offsets(n, width2)
    t_off2 = _filament_offsets(n, thick2)

    # All filament-pair transverse separations, vectorized.
    dw = (d_width + w_off2[None, :] - w_off1[:, None]).ravel()
    dt_pairs = (d_thick + t_off2[None, :] - t_off1[:, None]).ravel()
    dws, dts = np.meshgrid(dw, dt_pairs, indexing="ij")
    rho = np.hypot(dws, dts).ravel()

    m = mutual_inductance_filaments(start1, end1, start2, end2, rho)
    return float(np.mean(m))


def mutual_inductance_bars_batch(
    start1: np.ndarray,
    end1: np.ndarray,
    start2: np.ndarray,
    end2: np.ndarray,
    d_width: np.ndarray,
    d_thick: np.ndarray,
    width1: np.ndarray,
    thick1: np.ndarray,
    width2: np.ndarray,
    thick2: np.ndarray,
    subdivisions: int,
) -> np.ndarray:
    """Batched :func:`mutual_inductance_bars` over ``P`` bar pairs [H].

    All ten geometry arguments are arrays of length ``P``; the result is
    the length-``P`` array of bar-pair mutuals.  The evaluation is
    bit-identical to calling :func:`mutual_inductance_bars` once per
    pair: the per-pair filament offsets, transverse separations, and the
    final mean reduce in exactly the same element order, so dense
    assembly can batch its close-pair integrals without perturbing any
    cached result.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    s1 = np.asarray(start1, dtype=float)
    e1 = np.asarray(end1, dtype=float)
    s2 = np.asarray(start2, dtype=float)
    e2 = np.asarray(end2, dtype=float)
    n = subdivisions
    if n == 1:
        rho = np.hypot(np.asarray(d_width, dtype=float),
                       np.asarray(d_thick, dtype=float))
        m = mutual_inductance_filaments(s1, e1, s2, e2, rho)
        return np.atleast_1d(np.asarray(m, dtype=float))

    def offsets(extent: np.ndarray) -> np.ndarray:
        # (P, n) centroid offsets; np.linspace with array endpoints runs
        # the same start + k*step arithmetic as the scalar helper, so
        # each row is bit-identical to _filament_offsets(n, extent[p]).
        e = np.asarray(extent, dtype=float)
        edges = np.linspace(-e / 2.0, e / 2.0, n + 1, axis=-1)
        return (edges[..., :-1] + edges[..., 1:]) / 2.0

    w_off1 = offsets(width1)
    t_off1 = offsets(thick1)
    w_off2 = offsets(width2)
    t_off2 = offsets(thick2)

    # (P, n*n) width/thickness filament-pair offsets, then the full
    # (P, n^2 x n^2) separation grid -- the same meshgrid order the
    # scalar path ravels.
    dw = np.asarray(d_width, dtype=float)[:, None, None] \
        + w_off2[:, None, :] - w_off1[:, :, None]
    dt = np.asarray(d_thick, dtype=float)[:, None, None] \
        + t_off2[:, None, :] - t_off1[:, :, None]
    dw = dw.reshape(dw.shape[0], -1)
    dt = dt.reshape(dt.shape[0], -1)
    rho = np.hypot(dw[:, :, None], dt[:, None, :])
    rho = rho.reshape(rho.shape[0], -1)

    m = mutual_inductance_filaments(
        s1[:, None], e1[:, None], s2[:, None], e2[:, None], rho
    )
    return np.mean(np.asarray(m, dtype=float), axis=1)


def mutual_between_segments(seg1, seg2, subdivisions: int | None = None) -> float:
    """Mutual inductance between two parallel layout segments [H].

    Orthogonal segments have zero mutual by symmetry and raise
    ``ValueError`` to catch caller mistakes; filter with
    :meth:`Segment.is_parallel` first.
    """
    if not seg1.is_parallel(seg2):
        raise ValueError(
            f"segments {seg1.name!r} and {seg2.name!r} are orthogonal; "
            "their mutual inductance is identically zero"
        )
    axis = seg1.direction.axis
    c1 = seg1.center
    c2 = seg2.center
    trans_axes = [a for a in range(3) if a != axis]
    # Map transverse axes onto (width, thickness) of the cross section.
    # For X/Y segments: width is in-plane, thickness is z.
    d_width = c2[trans_axes[0]] - c1[trans_axes[0]]
    d_thick = c2[trans_axes[1]] - c1[trans_axes[1]]
    return mutual_inductance_bars(
        seg1.axis_start,
        seg1.axis_end,
        seg2.axis_start,
        seg2.axis_end,
        d_width,
        d_thick,
        seg1.width,
        seg1.thickness,
        seg2.width,
        seg2.thickness,
        subdivisions=subdivisions,
    )
