"""A wall-clock limit on every test.

A solver that stops terminating should fail its test, not hold the whole
suite for minutes.  The limit is armed with ``setitimer`` and SIGALRM, so
it is skipped on platforms without SIGALRM; no test may use SIGALRM itself.
The first test that runs past the limit also stops the session: a fault
that hangs one solver call usually hangs many tests, and waiting out the
limit on each of them would keep the report back for half an hour.
"""

import signal

import pytest

TEST_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    fired = []

    def on_alarm(signum, frame):
        fired.append(signum)
        pytest.fail(f"ran past the {TEST_LIMIT_S} s limit per test", pytrace=False)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if fired:
            request.session.shouldstop = (
                f"{request.node.nodeid} ran past the {TEST_LIMIT_S} s limit per test")
