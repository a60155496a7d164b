from __future__ import annotations

import errno
import io
import os
import signal
import threading
import time

import pytest

from recovery_track import processes
from recovery_track.config import load_config
from recovery_track.pipeline import run
from recovery_track.synth import ScenarioSpec, generate

GOLDEN_SCENARIO = {
    "name": "golden-city",
    "seed": 42,
    "n_regions": 200,
}

GOLDEN_ARTIFACTS = (
    "milestones.csv",
    "metric.csv",
    "stats.json",
    "lorenz.csv",
    "coverage_report.json",
)


def write_csv(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def golden_city(tmp_path_factory):
    """The bundled synthetic city (200 regions, seed 42, noiseless), run once."""
    root = tmp_path_factory.mktemp("golden-city")
    spec = ScenarioSpec.from_mapping(GOLDEN_SCENARIO)
    paths = generate(spec, root)
    config = load_config(paths["config.json"])
    run(config)
    return {"root": root, "spec": spec, "config": config, "out": config.output_dir}


class Children(dict):
    """{pid: wait status} of the children processes.beside forks, and the one
    way a test makes them fail."""

    def __init__(self, patch):
        super().__init__()
        self.patch = patch

    def exit_codes(self):
        """Each child's exit code, or minus the signal that ended it."""
        return [os.waitstatus_to_exitcode(status) for status in self.values()]

    def fail(self, failure, wrong=None):
        """Make every later child fail as `failure` names, where beside sends
        its result (processes._send):

        raise, interrupt, memory: work() raises RuntimeError,
            KeyboardInterrupt or MemoryError, and the child exits 1;
        killed, hang: the child is killed, or sleeps 30 s;
        short: all but the last byte of the result is sent, and the child exits 0;
        exit: the child exits 3;
        exit_after_sending: wrong(result) is sent whole, then the child exits 3;
        no_fork, no_pipe: os.fork or os.pipe fails, and there is no child.
        """
        send = processes._send
        errors = {
            "raise": RuntimeError("the child fails"), "interrupt": KeyboardInterrupt(), "memory": MemoryError(),
            "no_fork": BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
            "no_pipe": OSError(errno.EMFILE, "Too many open files"),
        }

        def failing(pipe=None, result=None):
            if failure in errors:
                raise errors[failure]
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "hang":
                time.sleep(30)
            if failure == "short":
                whole = io.BytesIO()
                send(whole, result)
                pipe.write(whole.getvalue()[:-1])
                return
            if failure == "exit_after_sending":
                send(pipe, wrong(result))
                pipe.flush()
            os._exit(3)

        self.patch.setattr(processes, "_send", failing)
        unavailable = {"no_fork": "fork", "no_pipe": "pipe"}
        if failure in unavailable:
            self.patch.setattr(os, unavailable[failure], failing)


@pytest.fixture
def forks(monkeypatch):
    """The Children of processes.beside, for the trip reader, the changes
    writer and reader, the city generator, the stats stage's last three Moran
    fields or a test of its own, on a machine taken to have two CPUs.

    Afterwards every child must have been reaped and no descriptor left open.
    """
    if not hasattr(os, "fork"):
        pytest.skip("two-process reads need os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    children = Children(monkeypatch)
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if pid:
            children[pid] = None
        return pid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        if pid in children:
            children[pid] = reaped[1]
        return reaped

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    fds = sorted(os.listdir("/dev/fd"))
    yield children
    assert sorted(os.listdir("/dev/fd")) == fds
    assert None not in children.values()


@pytest.fixture(autouse=True, scope="session")
def one_thread_at_every_fork():
    """Fail the test whose process forks beside another thread: the package
    pins numpy's BLAS so that every fork copies one thread. Python 3.12 only
    warns of such a fork, and clears the error a warnings filter makes of it."""
    if not hasattr(os, "fork"):
        yield
        return
    fork = os.fork

    def checked_fork():
        try:
            threads = len(os.listdir("/proc/self/task"))
        except OSError:  # no /proc: Python's own threads only
            threads = threading.active_count()
        if threads > 1:
            pytest.fail(f"os.fork beside {threads - 1} other thread(s)")
        return fork()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", checked_fork)
        yield
