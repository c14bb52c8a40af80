"""A per-test time limit: a test that runs past TEST_TIMEOUT_S seconds (a
max-flow that never ends, say) dumps every thread's traceback and ends the
run, instead of hanging the suite. The slowest test takes a few seconds."""

import faulthandler
import os

import pytest

TEST_TIMEOUT_S = 120

_stderr_fd = None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    global _stderr_fd
    # Output capture is off between tests, so fd 2 is the real stderr here.
    # The traceback goes to a copy of it: during the test fd 2 is captured,
    # and a process that exits drops what was captured.
    if _stderr_fd is None:
        _stderr_fd = os.dup(2)
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
