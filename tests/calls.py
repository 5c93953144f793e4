"""Counting the Python frames a call runs, for tests that bound them."""

import sys


def python_calls(action) -> int:
    """Python 'call' events, generator resumes included, while action() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(old)
    return calls
