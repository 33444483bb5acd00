"""Benchmark-harness support: collect paper-style tables and print them.

Every benchmark registers the table/series it reproduces through the
``paper_report`` fixture; the collected reports are printed in the
terminal summary so a plain ``pytest benchmarks --ignore=benchmarks/e2e``
run shows the rows the paper reports (element counts, delays, skews, R/L
series, noise ratios).
"""

from __future__ import annotations

import pytest

_REPORTS: list[str] = []


@pytest.fixture
def paper_report():
    """Callable that registers a formatted report block for the summary."""

    def add(text: str) -> None:
        _REPORTS.append(text)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    for block in _REPORTS:
        terminalreporter.write_line(block)
        terminalreporter.write_line("")
