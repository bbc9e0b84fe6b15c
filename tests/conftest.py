"""A wall-clock limit on every test.

A solver that stops terminating should fail its test, not hold the whole
suite for minutes.  The limit is armed with ``setitimer`` and SIGALRM, so
it is skipped on platforms without SIGALRM; no test may use SIGALRM itself.
"""

import signal

import pytest

TEST_LIMIT_S = 60


def _on_alarm(signum, frame):
    pytest.fail(f"ran past the {TEST_LIMIT_S} s limit per test", pytrace=False)


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
