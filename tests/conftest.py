"""Every test runs under a time bound.

A reduction that stops terminating would otherwise hang the suite rather
than fail it.  At TIME_BOUND_S a SIGALRM handler raises TimeBoundExceeded
inside the test, which fails it with the traceback of where it was.  If
the interpreter cannot run that handler (stuck inside one C call),
faulthandler prints every thread's stack and ends the process at twice
the bound.  The slowest test takes under 1 s and the whole suite about
12 s on a 2-vCPU machine; where there is no SIGALRM, tests run unbounded.
"""

import faulthandler
import os
import signal
import sys

import pytest

TIME_BOUND_S = 60.0
_STDERR = pytest.StashKey[object]()


class TimeBoundExceeded(BaseException):
    """A test ran past TIME_BOUND_S.  Not an Exception, so that neither the
    code under test nor hypothesis catches it as an ordinary failure."""


def _overran(signum, frame):
    raise TimeBoundExceeded(f"test ran longer than {TIME_BOUND_S:g} s")


def pytest_configure(config):
    # a copy of the real stderr, taken before any test output is captured,
    # so that faulthandler's dump is seen even when it ends the process
    config.stash[_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def time_bound(pytestconfig):
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    stderr = pytestconfig.stash[_STDERR]
    faulthandler.dump_traceback_later(2 * TIME_BOUND_S, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
