"""Counting the Python frames a call runs, tracing the memory it allocates,
and recording the scan's steps, for tests that bound or check them."""

import sys
import tracemalloc


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


def traced_peak(action) -> tuple[int, int]:
    """(peak, live) bytes that tracemalloc traces while action() runs; live is
    read on its return, with the result still held."""
    tracemalloc.start()
    try:
        result = action()  # held while live is read
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, live


def scan_steps(construct, view, **options):
    """(outcome, [(j, k, l), ...]) of construct(view, **options).

    The steps are the ones lex_scan passes to its charge hook.  The scan that
    construct's module calls is swapped for the run with one that records
    each step and then calls the charge the constructor passed, if any.
    """
    module = sys.modules[construct.__module__]  # lexid.sparse or lexid.dense
    scan = module.lex_scan
    steps = []

    def recording_scan(*args, charge=None, **kwargs):
        def record(j, k, l):
            steps.append((j, k, l))
            if charge is not None:
                charge(j, k, l)

        return scan(*args, charge=record, **kwargs)

    module.lex_scan = recording_scan
    try:
        outcome = construct(view, **options)
    finally:
        module.lex_scan = scan
    return outcome, steps
