"""A hard wall-clock deadline for a test, stdlib only.

`deadline(seconds)` arms `signal.setitimer` on the main thread for the block
or test it wraps (it works as a `with` block and as a decorator), and its
handler raises `Hang`.  A test that bounds its own wall time by asserting
after the call returns would otherwise hang on a regression instead of
failing.  POSIX only, like `signal.SIGALRM`.
"""

import contextlib
import signal


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so `cli.run` cannot turn it into exit 4."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise `Hang` in the wrapped block once it has run for `seconds`."""
    def alarm(signum, frame):
        raise Hang(f"still running after the {seconds} s deadline")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
