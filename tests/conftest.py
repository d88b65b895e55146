import signal

import pytest


@pytest.fixture
def hang_guard():
    """A test that hangs fails after 60 s instead."""
    def timeout(signum, frame):
        raise TimeoutError("the test hung")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
