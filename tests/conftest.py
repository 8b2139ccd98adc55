"""Shared fixtures for the test-suite (helper factories live in
tests/helpers.py)."""

from __future__ import annotations

import gc
import logging
import os
import signal
import threading

import pytest

from repro.middleware import Database


class _UnretrievedExceptions(logging.Handler):
    """Collects asyncio's "exception was never retrieved" reports: a
    future or task whose failure nobody read is a lost error."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.reports: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "exception was never retrieved" in message:
            if record.exc_info:
                message += "\n" + logging.Formatter().formatException(
                    record.exc_info
                )
            self.reports.append(message)


_UNRETRIEVED = _UnretrievedExceptions()


def pytest_sessionstart(session):
    logging.getLogger("asyncio").addHandler(_UNRETRIEVED)


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when any asyncio exception went unretrieved (the
    reports fire when the future is collected, so collect first)."""
    gc.collect()
    logging.getLogger("asyncio").removeHandler(_UNRETRIEVED)
    if not _UNRETRIEVED.reports:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_line(
        f"{len(_UNRETRIEVED.reports)} asyncio exception(s) were never "
        "retrieved:",
        red=True,
    )
    for report in _UNRETRIEVED.reports:
        reporter.write_line(report)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _async_services_timeout(request):
    """Per-test timeout guard for the async service tests.

    Tests marked ``async_services`` coordinate threads and event loops;
    a deadlock there would otherwise hang the whole suite.  A SIGALRM
    deadline (default 60 s, ``REPRO_ASYNC_TEST_TIMEOUT`` overrides --
    CI sets it explicitly) turns a hang into a loud failure.  No-op on
    platforms without SIGALRM and for unmarked tests.

    It also holds every marked test to the thread baseline: no
    ``AsyncAccessSession`` loop thread the test started may outlive it.
    """
    if request.node.get_closest_marker("async_services") is None:
        yield
        return
    before = set(_session_threads())
    seconds = int(os.environ.get("REPRO_ASYNC_TEST_TIMEOUT", "60"))
    armed = seconds > 0 and hasattr(signal, "SIGALRM")

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"async service test exceeded {seconds}s "
            "(REPRO_ASYNC_TEST_TIMEOUT)"
        )

    if armed:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(seconds)
    try:
        yield
    finally:
        if armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    leaked = [t for t in _session_threads() if t not in before]
    assert not leaked, f"session loop threads left running: {leaked}"


def _session_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name == "repro-async-session"
    ]


@pytest.fixture
def tiny_db() -> Database:
    """Six objects, three lists, hand-checkable grades."""
    return Database.from_rows(
        {
            "a": (0.9, 0.8, 0.7),
            "b": (0.8, 0.9, 0.6),
            "c": (0.7, 0.2, 0.9),
            "d": (0.3, 0.6, 0.5),
            "e": (0.2, 0.5, 0.4),
            "f": (0.1, 0.1, 0.1),
        }
    )


@pytest.fixture
def two_list_db() -> Database:
    """Five objects, two lists, with a grade tie in list 0."""
    return Database.from_rows(
        {
            1: (1.0, 0.2),
            2: (0.8, 0.8),
            3: (0.8, 0.5),
            4: (0.5, 1.0),
            5: (0.1, 0.9),
        }
    )
