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
  Bars of equal cross section average over their distinct sub-filament
  separations only.

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


#: Revision of the mutual-inductance kernel.  Any change that moves a
#: mutual's bits bumps it: the extraction cache keys its digests on it,
#: so a disk tier filled by an older kernel is never served.  Revision 2
#: evaluates equal-section close pairs over their distinct separations.
KERNEL_REVISION = 2


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
    One pair of :func:`mutual_inductance_bars_batch`, so the scalar and
    the batched kernel agree bit for bit.

    Args:
        subdivisions: Cross-section slices per transverse axis.  ``None``
            selects automatically: a single center filament when the bars
            are far apart relative to their cross sections, 3 otherwise.

    Returns:
        Mutual inductance; positive for co-directed currents.
    """
    if subdivisions is None:
        sep = math.hypot(d_width, d_thick)
        max_cross = max(width1, thick1, width2, thick2)
        subdivisions = 1 if sep >= 4.0 * max_cross else 3
    pair = (np.array([value], dtype=float) for value in (
        start1, end1, start2, end2, d_width, d_thick,
        width1, thick1, width2, thick2,
    ))
    return float(mutual_inductance_bars_batch(
        *pair, subdivisions=subdivisions
    )[0])


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
    the length-``P`` array of bar-pair mutuals.  Each pair's value is a
    function of that pair alone: the path is chosen per pair, and every
    reduction runs row by row, so a pair gives the same bits alone, in
    any batch and in any slice of one.

    A pair of equal cross sections has only ``(2n - 1)^2`` distinct
    sub-filament separations among its ``n^4`` filament pairs: offset
    ``a`` slices along the width and ``b`` along the thickness, shared by
    ``(n - |a|)(n - |b|)`` pairs.  Those separations are evaluated once
    and weighted by ``(n - |a|)(n - |b|) / n^4`` (25 instead of 81 at
    ``n = 3``).  Other pairs average all ``n^4``.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    s1 = np.asarray(start1, dtype=float)
    e1 = np.asarray(end1, dtype=float)
    s2 = np.asarray(start2, dtype=float)
    e2 = np.asarray(end2, dtype=float)
    d_w = np.asarray(d_width, dtype=float)
    d_t = np.asarray(d_thick, dtype=float)
    n = subdivisions
    if n == 1:
        m = mutual_inductance_filaments(s1, e1, s2, e2, np.hypot(d_w, d_t))
        return np.atleast_1d(np.asarray(m, dtype=float))

    w1 = np.asarray(width1, dtype=float)
    t1 = np.asarray(thick1, dtype=float)
    w2 = np.asarray(width2, dtype=float)
    t2 = np.asarray(thick2, dtype=float)
    equal = (w1 == w2) & (t1 == t2)
    out = np.empty(s1.shape)

    k = np.flatnonzero(equal)
    if k.size:
        # Separations at offsets a, b = -(n-1) .. n-1 slices, the
        # (P, (2n-1)^2) grid raveled width-major.
        shift = np.arange(1 - n, n, dtype=float)
        dw = d_w[k, None] + shift * (w1[k] / n)[:, None]
        dt = d_t[k, None] + shift * (t1[k] / n)[:, None]
        rho = np.hypot(dw[:, :, None], dt[:, None, :]).reshape(k.size, -1)
        count = n - np.abs(shift)
        weight = np.outer(count, count).ravel() / n ** 4
        m = mutual_inductance_filaments(
            s1[k, None], e1[k, None], s2[k, None], e2[k, None], rho
        )
        out[k] = (m * weight).sum(axis=1)

    k = np.flatnonzero(~equal)
    if k.size:
        def offsets(extent: np.ndarray) -> np.ndarray:
            # (P, n) centroid offsets of n equal slices of each extent.
            edges = np.linspace(-extent / 2.0, extent / 2.0, n + 1, axis=-1)
            return (edges[..., :-1] + edges[..., 1:]) / 2.0

        # (P, n*n) width/thickness filament-pair offsets, then the full
        # (P, n^2 x n^2) separation grid.
        dw = d_w[k, None, None] + offsets(w2[k])[:, None, :] \
            - offsets(w1[k])[:, :, None]
        dt = d_t[k, None, None] + offsets(t2[k])[:, None, :] \
            - offsets(t1[k])[:, :, None]
        dw = dw.reshape(k.size, -1)
        dt = dt.reshape(k.size, -1)
        rho = np.hypot(dw[:, :, None], dt[:, None, :]).reshape(k.size, -1)
        m = mutual_inductance_filaments(
            s1[k, None], e1[k, None], s2[k, None], e2[k, None], rho
        )
        out[k] = np.mean(m, axis=1)
    return out


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
