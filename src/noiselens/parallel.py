"""Forked workers, for the text writer and reader in ``codec`` and for
``trainer.train_heads``: each deals its work into shares, one per process,
and enters ``forked``, which runs each share but the first in a child with
an anonymous temporary file as its result channel. The caller does the
first share, and each share that no child finished. No child outlives
``forked``, also when the caller raises or is interrupted.
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
    ``dir``. Yields one entry per child, in start order, once it has exited:
    its file, rewound, when its work returned and the file was flushed, else
    None, as when the fork failed (``EAGAIN``, ``ENOMEM``). A caller whose
    children return through shared memory, as the text reader's do, leaves
    each file empty. Leaving the ``with`` block kills and reaps every child
    not yet collected and closes every file."""
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
    """The pid of a child that exits 0 once ``work`` has returned and ``out``
    is flushed, else 1; 0 when the fork fails."""
    try:
        pid = os.fork()
    except OSError:
        return 0
    if pid == 0:
        try:
            work(share, out)
            out.flush()
            os._exit(0)
        finally:
            os._exit(1)  # reached only when ``work`` or the flush raised
    return pid


def _collect(pids: list, files: list):
    """Each child's rewound file, or None; a child waited for is no longer
    killed on the way out."""
    for i, out in enumerate(files):
        finished = pids[i] and os.waitpid(pids[i], 0)[1] == 0
        pids[i] = 0
        out.seek(0)
        yield out if finished else None
