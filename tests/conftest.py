import os

import pytest

FD_DIR = "/proc/self/fd"


def _open_fds():
    return set(os.listdir(FD_DIR)) if os.path.isdir(FD_DIR) else None


@pytest.fixture(autouse=True)
def no_child_or_descriptor_left():
    """Fail a test that leaves a child process running or unreaped, or a file descriptor open."""
    fds = _open_fds()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail("the test left a child process running" if pid == 0 else f"the test left child {pid} unreaped")
    left = _open_fds()
    if fds is not None and left - fds:
        pytest.fail(f"the test left file descriptors open: {sorted(left - fds, key=int)}")
