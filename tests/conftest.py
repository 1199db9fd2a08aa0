"""Prints the BLAS thread settings in the header and the acceptance verdict lines after the run."""

import os

import acceptance_report


def pytest_report_header(config):
    # The wave-symmetric table pin passes or fails by BLAS thread count,
    # so every report names the setting it ran under.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    settings = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in names)
    return f"BLAS threads: {settings}, os.cpu_count()={os.cpu_count()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.lines:
            terminalreporter.line(line)
