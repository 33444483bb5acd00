"""One BLAS thread for the LU factors.

OpenBLAS splits an LU larger than 100 x 100 over all its threads, which
meet at a barrier after every panel.  While another process holds one of
the host's CPUs, a descheduled thread stalls every barrier: on a two-CPU
host the 586-unknown complex LU of the Table-1 LOOP flow's loop
extraction took 0.17-0.19 s with two threads, against 0.015-0.02 s on
one thread and 0.012 s on two threads of an idle host.  SuperLU's
supernode updates call the same BLAS, and on the same host its
near-field factors of the hierarchical loop sweep set up in 0.14-0.16 s
on one thread against 0.14-0.24 s on two.  The program's dense factors
have at most about a thousand unknowns, where a second thread saves at
most a third, and its sweeps get their parallelism from the process
pool; so every LU factor runs inside :func:`one_blas_thread`.  So do the
Krylov rung's GMRES iterations, whose Arnoldi products and
preconditioner solves call the same BLAS: with two threads the first
GMRES solve of the hierarchical loop sweep took up to 1.1 s instead of
0.2 s for the same 18 iterations.

OpenBLAS has no Python API for its thread count.  The context calls the
library's own ``openblas_get/set_num_threads`` entries (``scipy_``
prefixed and ``64_`` suffixed in the numpy and scipy wheels), found with
ctypes in every OpenBLAS the process has loaded.  Where there is none
(another BLAS, or no ``/proc/self/maps``) it changes nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

_Control = tuple[Callable[[], int], Callable[[int], None]]


def _entry(lib: ctypes.CDLL, verb: str):
    """``int openblas_get_num_threads(void)`` or
    ``void openblas_set_num_threads(int)``, under any of its names."""
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            entry = getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}",
                            None)
            if entry is not None:
                if verb == "get":
                    entry.argtypes, entry.restype = [], ctypes.c_int
                else:
                    entry.argtypes, entry.restype = [ctypes.c_int], None
                return entry
    return None


@cache
def _controls() -> tuple[_Control, ...]:
    """``(get, set)`` thread-count entries of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line and "/" in line
            })
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = _entry(lib, "get"), _entry(lib, "set")
        if get is not None and set_ is not None:
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body on one BLAS thread, then restore the thread counts."""
    controls = _controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
