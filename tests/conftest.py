import os
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


@pytest.fixture
def no_child_left():
    """No child may outlive a test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
