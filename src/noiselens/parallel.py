"""Forked workers, for the text writer and reader in ``codec`` and for
``trainer.train_heads``: each deals its work into shares, one per process,
and enters ``forked``, which runs each share but the first in a child with
an anonymous temporary file as its result channel. The caller does the
first share itself and decides what a failed child means. No child
outlives ``forked``, also when the caller raises or is interrupted.
"""

import os
import signal
import tempfile
from contextlib import contextmanager, suppress


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where that is unknown or where
    processes cannot be forked."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def forked(shares: list, work, dir=None):
    """Call ``work(share, out)`` for each of ``shares`` but the first in a
    forked child, ``out`` being a new anonymous binary temporary file in
    ``dir``. Yields an iterator of ``(status, out)``, one per child in the
    order they started, each once that child has exited: the status
    ``_run`` gave it, or minus the signal that killed it, and ``out``
    rewound. A share whose fork fails (``EAGAIN``, ``ENOMEM``) is done here
    into its file, with status 0. A caller whose children return through
    shared memory, as the text reader's do, leaves each file empty. Leaving
    the ``with`` block kills and reaps every child not yet collected and
    closes every file."""
    pids, files = [], []
    try:
        for share in shares[1:]:
            files.append(tempfile.TemporaryFile(dir=dir))
            pids.append(_fork(work, share, files[-1]))
        yield _collect(pids, files)
    finally:
        for pid in filter(None, pids):
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for out in files:
            out.close()


def _fork(work, share, out) -> int:
    """The pid of a child that exits with ``_run``'s status, or 0 when the
    fork fails and this process has done the work."""
    try:
        pid = os.fork()
    except OSError:
        work(share, out)
        return 0
    if pid == 0:
        code = 255  # after any exception but an ``OSError``
        try:
            code = _run(work, share, out)
        finally:
            os._exit(code)
    return pid


def _run(work, share, out) -> int:
    """0 once ``work`` has returned and ``out`` is flushed, or the errno of
    an ``OSError`` it raises (255 for one with no errno below 255)."""
    try:
        work(share, out)
        out.flush()
    except OSError as exc:
        return exc.errno if 0 < (exc.errno or 0) < 255 else 255
    return 0


def _collect(pids: list, files: list):
    """Each child's status and rewound file; a child waited for is no longer
    killed on the way out."""
    for i, out in enumerate(files):
        status = pids[i] and os.waitstatus_to_exitcode(os.waitpid(pids[i], 0)[1])
        pids[i] = 0
        out.seek(0)
        yield status, out
