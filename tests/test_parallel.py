"""Tests for the forked workers that the text codec and the trainer share:
every child is collected in start order as its file when its work returned,
else None, a share whose fork fails is left to the caller, and no child
outlives the call."""

import errno
import os
import signal
import tempfile
import time

import pytest

from noiselens import parallel

FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _raise(exc):
    raise exc


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# share -> what its work does after writing the share's name to its file
ACTS = {
    "ok": lambda: None,
    "enospc": lambda: _raise(OSError(errno.ENOSPC, "full")),
    "no-errno": lambda: _raise(OSError("no errno")),
    "exception": lambda: _raise(ValueError("bad")),
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


def _work(share, out) -> None:
    out.write(share.encode("ascii"))
    ACTS[share]()


@FORKS
def test_children_are_collected_in_start_order():
    """The first share is the caller's; each other share's entry is the file
    its child wrote when the work returned, else None."""
    shares = ["exception", "ok", "enospc", "no-errno", "exception", "killed", "ok"]
    with parallel.forked(shares, _work) as children:
        got = [out and out.read() for out in children]
    assert got == [b"ok", None, None, None, None, b"ok"]
    _no_child_left()


def test_one_share_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked")))
    with parallel.forked(["ok"], _work) as children:
        assert list(children) == []


@FORKS
def test_a_share_whose_fork_fails_is_done_by_the_caller(monkeypatch):
    """``forked`` does no work for a share whose fork fails: it yields None
    in that share's place, so that the caller does it."""
    fork, calls, done = os.fork, [], []

    def second_fork_fails():
        calls.append(1)
        return _raise(BlockingIOError(errno.EAGAIN, "fork")) if len(calls) == 2 else fork()

    def work(share, out):
        done.append(share)  # in this process only
        _work(share.rstrip("0123456789"), out)

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with parallel.forked(["ok0", "ok1", "ok2", "ok3"], work) as children:
        assert [out and out.read() for out in children] == [b"ok", None, b"ok"]
        assert done == []
    _no_child_left()


@FORKS
@pytest.mark.parametrize("leave", [KeyboardInterrupt, ValueError], ids=["interrupt", "error"])
def test_leaving_kills_every_child_and_closes_every_file(monkeypatch, leave):
    """Leaving on an interrupt, or on an error of the caller's redo of a
    share whose fork failed, ends every child at once."""
    fork, make, files = os.fork, tempfile.TemporaryFile, []
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kw: files.append(make(**kw)) or files[-1])

    def work(share, out):
        if os.getpid() == parent:
            raise ValueError("bad")
        time.sleep(60)

    parent, started = os.getpid(), time.perf_counter()
    if leave is ValueError:  # the first child's fork fails
        monkeypatch.setattr(os, "fork", lambda: fork() if len(files) > 1 else _raise(OSError()))
    with pytest.raises(leave):
        with parallel.forked(["a", "b", "c", "d"], work) as children:
            if leave is ValueError:
                assert next(children) is None
                work("b", None)  # the caller's redo raises
            raise leave
    assert time.perf_counter() - started < 30
    assert len(files) == 3 and all(out.closed for out in files)
    _no_child_left()


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_one_usable_cpu_without_fork_or_affinity(monkeypatch, name):
    monkeypatch.delattr(os, name, raising=False)
    assert parallel.usable_cpus() == 1
