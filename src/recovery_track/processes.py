"""One forked child working beside the run, for the trip reader, the changes
writer and the synthetic city generator.

A caller that splits its work in two checks `second_cpu()` and then runs its
half inside `forked(send)`: the child calls send(pipe), which pickles its
half's result down the pipe, while the run works on its own half and then
takes the child's result with `receive()`. Where the fork fails or the child
fails in any way, `receive()` gives None and the caller does the child's
half itself, so the outcome never depends on the child. The child always
ends in os._exit, never returning into its caller, and is reaped (killed
first unless it has sent all of its result) before `forked` is left.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager

# Cells of a key x day matrix from which the changes writer and the synthetic
# city generator split their work in two; the trip reader splits by bytes.
SPLIT_CELLS = 1 << 17


def second_cpu() -> bool:
    """Whether a forked child can run beside this process: os.fork exists and
    at least two CPUs are usable (os.sched_getaffinity, else os.cpu_count)."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


class _Child:
    def __init__(self, pid, pipe):
        self.pid = pid
        self.pipe = pipe

    def receive(self):
        """What the child pickled down the pipe, once it has exited with
        status 0; None where it failed in any way, or there is no child."""
        if self.pid is None:
            return None
        try:
            part = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # the child sent less than a whole part
            part = None
        status = self.reap(kill=part is None)
        return part if status == 0 else None

    def reap(self, kill):
        """Wait for the child, killing it first where `kill`; its wait status."""
        pid, self.pid = self.pid, None
        if kill:
            os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1]


@contextmanager
def forked(send):
    """A `_Child` whose forked process runs send(pipe), with `pipe` a binary
    file on the write end of a pipe, and then exits with status 0; status 1
    where send raises. With no process to spare there is no child, and its
    receive() gives None."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        yield _Child(None, None)
        return
    if pid == 0:
        _run_and_exit(send, read_fd, write_fd)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:  # open until the child is dead: it may be writing
        child = _Child(pid, pipe)
        try:
            yield child
        finally:
            if child.pid is not None:
                child.reap(kill=True)


def _run_and_exit(send, read_fd, write_fd):
    """In the forked child: send(pipe), then exit. Never returns."""
    status = 1
    try:
        os.close(read_fd)
        pipe = open(write_fd, "wb")
        send(pipe)
        pipe.flush()
        status = 0
    finally:
        os._exit(status)  # which closes the pipe: the parent reads its end once the status is set
