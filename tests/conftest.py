"""Print the session's CPU time beside its wall time.

On a shared machine the wall time of a run moves with the load of other
processes; the CPU seconds the test process spends (user + system, read with
``resource.getrusage``) move much less.  Both are printed at the end of a
run, measured from the start of the session.  They are reported only: no
test and no exit status depends on them.
"""

import resource
import time

import pytest

_START = pytest.StashKey[tuple]()


def _now():
    """(CPU seconds, user + system, of this process; wall clock seconds)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, time.perf_counter()


def pytest_sessionstart(session):
    session.config.stash[_START] = _now()


def pytest_terminal_summary(terminalreporter, config):
    (cpu0, wall0), (cpu1, wall1) = config.stash[_START], _now()
    terminalreporter.write_line(
        f"session: {cpu1 - cpu0:.2f} s CPU (user + system), {wall1 - wall0:.2f} s wall")
