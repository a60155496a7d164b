"""Two processes, the two sizes and the split rule of whole-line file I/O, and staged writes.

Five callers split their work in two: the trip reader
(ingest._parse_activity), the writer of work/changes.csv
(pipeline._changes_csv), its reader for `--only milestones`
(pipeline._read_changes), the synthetic city generator (synth.generate) and
the Moran's I permutation tests of the stats stage (pipeline._stage_stats).
Each runs its own half inside `beside(work, split)`, which yields a
function giving work()'s result. Where `split` holds and a second CPU, a
descriptor pair and a process are free, a forked child computes work()
while the block runs and pickles the result down a pipe. Where there is no
child, or it failed in any way, this process computes work() itself, when
the result is asked for; so the outcome never depends on the child, and a
block that never asks computes nothing. A child whose work() raises exits
with status 1, and this process does the work again itself, which raises
the same error, such as the refusal of a damaged file. The
child always ends in os._exit, never returning into its caller, and is
reaped before the block is left, killed first unless all of its result has
been received.

The two file readers, of trips and transactions and of work/changes.csv,
split a file of SPLIT_BYTES or more by one rule, `split_point`: at the first
line start at or after the middle byte, whatever the line holds. The two
producers, the changes writer and the city generator, have no file to
measure and split from SPLIT_CELLS cells; the stats stage splits where one
Moran field's shuffles take SPLIT_CELLS pair products (permutations times
region pairs). Whole-line I/O moves BLOCK_BYTES at a time: `line_blocks`
reads every line file, the inputs and the artifacts, and the run writes its
artifacts so.

`staged(out_dir, error)` gives the run and `synth` one way to replace a set
of files together: written to a staging directory, then moved into place.
`creation_refusal(out_dir)` tells `validate`, creating nothing, whether
staged can make `out_dir`.
"""

from __future__ import annotations

import errno
import math
import os
import pickle
import shutil
import signal
import stat
import tempfile
from contextlib import contextmanager
from pathlib import Path

# Where the two producers (cells of a key x day matrix), the stats stage (pair
# products of one Moran field's shuffles) and the two file readers (bytes of
# the file) have a forked child do part of their work.
SPLIT_CELLS = 1 << 17
SPLIT_BYTES = 4 << 20

# Bytes of whole lines read at a time, and characters of an artifact written
# at a time; both bound the text alive at once.
BLOCK_BYTES = 1 << 20


def second_cpu() -> bool:
    """Whether a forked child can run beside this process: os.fork exists and
    at least two CPUs are usable (os.sched_getaffinity, else os.cpu_count).
    beside() forks only where it holds; the trip reader and the changes
    reader, whose split itself costs work, ask it before they split, so that
    they read whole where no child can run."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def split_point(path):
    """Where a two-process reader splits the file at `path`: the first line
    start at or after the middle byte. None, for a whole read, with one
    usable CPU, below SPLIT_BYTES, where no line starts there, and for a file
    that cannot be read or is not regular; stat() comes first, so a named
    pipe is never opened here.
    """
    if not second_cpu():
        return None
    try:
        status = os.stat(path)
        if not stat.S_ISREG(status.st_mode) or status.st_size < SPLIT_BYTES:
            return None
        with open(path, "rb") as handle:
            handle.seek(max(status.st_size // 2 - 1, 0))
            handle.readline()
            start = handle.tell()
    except OSError:
        return None
    return start if start < status.st_size else None


def line_blocks(handle, start, stop):
    """Blocks of about BLOCK_BYTES of whole lines of binary file `handle`,
    from byte `start` to byte `stop` (line starts; None for the end of the
    file). Every block ends at a line end, except the last block of a file
    that lacks a final newline. A `start` of 0 reads on from where it
    stands: a pipe cannot seek."""
    if start:
        handle.seek(start)
    left = math.inf if stop is None else stop - start  # bytes of the range not yet read
    while block := handle.read(min(BLOCK_BYTES, left)):
        if len(block) < left:
            block += handle.readline()
        left -= len(block)
        yield block


@contextmanager
def beside(work, split=True):
    """A function giving work()'s result, computed by a forked child while
    the block runs where `split` holds and a child can be had; see the module
    docstring. Only the first call can take the child's result, and none
    keeps it: a result held here would outlive the caller's last use of it."""
    pid, pipe = _fork(work) if split and second_cpu() else (None, None)

    def result():
        nonlocal pid
        if pid is not None:
            sent = None
            try:
                sent = (pickle.load(pipe),)
            except (EOFError, pickle.UnpicklingError):  # the child sent less than a whole result
                pass
            child, pid = pid, None
            # a result sent whole by a child that then failed is not trusted
            if _reap(child, kill=sent is None) == 0 and sent is not None:
                return sent[0]
        return work()

    try:
        yield result
    finally:
        if pid is not None:
            _reap(pid, kill=True)
        if pipe is not None:
            pipe.close()  # only now: a live child may still be writing


def _fork(work):
    """(pid, read end of the pipe as a binary file) of a forked child that
    sends work() down the pipe; (None, None) where no descriptor pair or
    process is free."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, None
    if pid == 0:  # the child: exit with status 0 once all is sent, 1 where anything raises
        status = 1
        try:
            os.close(read_fd)
            pipe = open(write_fd, "wb")
            _send(pipe, work())
            pipe.flush()
            status = 0
        finally:
            os._exit(status)  # which closes the pipe: the parent reads its end once the status is set
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _send(pipe, result):
    """Pickle `result` down `pipe`; protocol 5 sends the bytes of arrays without a copy."""
    pickle.dump(result, pipe, protocol=5)


def _reap(pid, kill):
    """Wait for child `pid`, killing it first where `kill`; its wait status."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitpid(pid, 0)[1]


def _cannot_create(out_dir, reason):
    return f"cannot create output directory {out_dir}: {reason}"


def creation_refusal(out_dir: Path):
    """The message staged(out_dir, ...) ends in where `out_dir` cannot be
    made as Path.mkdir(parents=True, exist_ok=True) makes it, told from the
    paths alone, creating nothing; None where it can be. A path that exists
    and is no directory refuses it (File exists), and so does a path under a
    file (Not a directory); a missing path defers to its parent. The last
    path tried, "/" or ".", always exists."""
    for path in (out_dir, *out_dir.parents):
        try:
            os.lstat(path)
        except FileNotFoundError:
            continue
        except OSError as exc:
            return _cannot_create(out_dir, exc.strerror or exc)
        return None if path.is_dir() else _cannot_create(out_dir, os.strerror(errno.EEXIST))


@contextmanager
def staged(out_dir: Path, error):
    """A new staging directory in `out_dir`, whose files are moved to the same
    names in `out_dir` once the block has written them.

    Every target's directory is made and every target checked before the
    first move, so a target that cannot be replaced, such as a directory,
    leaves `out_dir` as it was, and so does a block that raises. The staging
    directory is removed on any outcome. An OSError ends in error(message),
    naming the path.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    except OSError as exc:
        raise error(_cannot_create(out_dir, exc.strerror or exc)) from None
    try:
        yield staging
        names = [path.relative_to(staging) for path in sorted(staging.rglob("*")) if not path.is_dir()]
        for name in names:
            (out_dir / name).parent.mkdir(parents=True, exist_ok=True)
            if (out_dir / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_dir / name))
        for name in names:
            os.replace(staging / name, out_dir / name)
    except OSError as exc:
        raise error(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)
