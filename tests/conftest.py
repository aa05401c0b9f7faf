"""Shared pytest hooks: a one-line PASS/FAIL digest for the acceptance
suite at the end of the run, and a CPU-time limit for fuzz cases."""

import contextlib
import signal

import pytest

_acceptance: dict[str, bool] = {}


class OverBudget(Exception):
    """A case used more CPU time than its budget."""


@pytest.fixture(scope="session")
def cpu_budget():
    """``with cpu_budget(seconds): ...`` raises :class:`OverBudget` once
    the body has used ``seconds`` of process CPU time, so a runaway case
    fails at its budget instead of running on.  Without ``setitimer``
    (Windows) the body runs unlimited."""

    @contextlib.contextmanager
    def limit(seconds: float):
        if not hasattr(signal, "setitimer"):
            yield
            return

        def stop(signum, frame):
            raise OverBudget(f"over the CPU budget of {seconds} s")

        previous = signal.signal(signal.SIGPROF, stop)
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    return limit


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance[name] = report.passed
    elif report.failed:
        # setup/teardown crash counts as a failed criterion
        _acceptance[name] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        verdict = "PASS" if _acceptance[name] else "FAIL"
        terminalreporter.write_line(f"[acceptance] {name}: {verdict}")
