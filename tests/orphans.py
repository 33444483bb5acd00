"""Process-table helpers for the tests that SIGKILL a pool's parent."""

import os
import signal
import time
from pathlib import Path


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name, or None if gone."""
    try:
        text = (Path("/proc") / str(pid) / "stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def child_pids(pid: int) -> list[int]:
    """PIDs of the live processes whose parent is ``pid``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        fields = _stat_fields(int(stat.parent.name))
        if fields and int(fields[1]) == pid and fields[0] not in "ZX":
            children.append(int(stat.parent.name))
    return children


def running(pids: list[int]) -> list[int]:
    """The ``pids`` that still run (a zombie has already exited)."""
    alive = []
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None and fields[0] not in "ZX":
            alive.append(pid)
    return alive


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait up to ``timeout`` seconds for ``pids`` to exit; the survivors."""
    deadline = time.monotonic() + timeout
    alive = running(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = running(alive)
    return alive


def kill(pids: list[int]) -> None:
    """SIGKILL whichever of ``pids`` still run."""
    for pid in running(pids):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
