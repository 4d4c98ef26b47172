"""Run one function in a forked child while the caller goes on working.

    with Forked(fn, *args) as job:
        ...                  # work that does not need fn's value
        value = job.result()

The child computes fn(*args) on a copy of the parent's memory, so fn and its
arguments need not pickle (families hold lambdas); only the value, or the
exception, comes back through a pipe.  The child leaves by os._exit, so it
runs no atexit handler and flushes none of the parent's stdio buffers.
Leaving the block kills and reaps a child whose result was not taken.
Without os.fork, off Linux, when the fork fails, or when the child ends
without a result, result() computes fn(*args) inline, so the value is the
same on every path.
"""

import os
import pickle
import sys
import warnings

FORK = hasattr(os, "fork") and sys.platform.startswith("linux")


class Forked:
    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._pid = self._fd = self._outcome = None

    def __enter__(self):
        if not FORK:
            return self
        try:
            read, write = os.pipe()
        except OSError:
            return self
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork beside the BLAS pool's threads;
                # the child runs numpy only, and OpenBLAS re-forms its pool
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return self
        if pid == 0:
            self._child(read, write)
        os.close(write)
        self._pid, self._fd = pid, read
        return self

    def _child(self, read, write):
        code = 1
        try:
            os.close(read)
            fn, args = self._call
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:   # raised again by the parent
                outcome = (False, exc)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)

    def _join(self):
        """(ok, value) from the child, or None when it left no result."""
        with os.fdopen(self._fd, "rb") as pipe:
            self._fd = None
            data = pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        try:
            return pickle.loads(data) if status == 0 else None
        except Exception:          # an exception type that does not unpickle
            return None

    def result(self):
        """fn(*args): the child's value, or its exception raised here."""
        if self._pid is not None:
            self._outcome = self._join()
        if self._outcome is None:
            fn, args = self._call
            return fn(*args)
        ok, value = self._outcome
        if ok:
            return value
        raise value

    def __exit__(self, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._pid is not None:     # the caller left without the result
            import signal   # here, off the import path: it takes ~1.5 ms
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
