"""processes.beside, a result computed beside the caller's block, and
processes.staged, files moved into place together."""

from __future__ import annotations

import errno
import io
import os
import pickle
import signal
import time
import weakref

import numpy as np
import pytest

from recovery_track import processes
from recovery_track.errors import PipelineError


def _exit_codes(children):
    return [os.WEXITSTATUS(status) if os.WIFEXITED(status) else None for status in children.values()]


class _Work:
    """A work() that counts its calls in the process that makes them."""

    def __init__(self, result):
        self.result = result
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.result


def _same(got, expected):
    assert type(got) is type(expected) and got.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(got[key], value, equal_nan=True) and got[key].dtype == value.dtype


RESULT = {"counts": np.arange(100_000, dtype=np.int32), "values": np.array([np.nan, -0.0, 1e-310, np.inf])}


def test_the_result_is_what_work_gives(forks):
    work = _Work(RESULT)
    with processes.beside(work) as result:
        _same(result(), RESULT)
        assert work.calls == 0  # computed by the child alone
        _same(result(), RESULT)  # the child's result is not kept: asked again, this process computes it
    assert work.calls == 1
    assert _exit_codes(forks) == [0]


def test_a_result_of_none_comes_from_the_child(forks):
    work = _Work(None)
    with processes.beside(work) as result:
        assert result() is None
    assert work.calls == 0 and _exit_codes(forks) == [0]


class _Result:
    """A result whose lifetime a weak reference shows."""


@pytest.mark.parametrize("split", [True, False])
def test_the_result_lives_only_as_long_as_the_caller_keeps_it(forks, split):
    # a result kept here would hold, say, the trip reader's second half until the parse returns
    with processes.beside(_Result, split) as result:
        taken = weakref.ref(result())
        assert taken() is None
    assert len(forks) == split


@pytest.mark.parametrize("asked", [0, 1])
def test_without_a_child_work_runs_only_when_asked(forks, asked):
    work = _Work(RESULT)
    with processes.beside(work, split=False) as result:
        assert work.calls == 0
        for _ in range(asked):
            _same(result(), RESULT)
    assert work.calls == asked
    assert not forks


def test_one_cpu_forks_nothing(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    work = _Work(RESULT)
    with processes.beside(work) as result:
        _same(result(), RESULT)
    assert work.calls == 1 and not forks


def test_a_result_never_asked_for_kills_the_child(forks):
    with processes.beside(lambda: time.sleep(30)):
        pass
    [status] = forks.values()
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


FAILURES = {  # what a failed child does, and the status it exits with
    "raise": 1, "interrupt": 1, "exit_after_sending": 3, "short": 0, "no_fork": None, "no_pipe": None,
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_child_leaves_work_to_this_process(monkeypatch, forks, failure):
    send = processes._send

    def fail(pipe, result):
        if failure == "raise":
            raise RuntimeError("the child fails")
        if failure == "interrupt":
            raise KeyboardInterrupt
        if failure == "short":  # all but the end of the result, and a clean exit
            whole = io.BytesIO()
            send(whole, result)
            pipe.write(whole.getvalue()[:-40])
            return
        # a wrong result, sent whole, is not trusted after a failed exit
        pickle.dump({"counts": np.zeros(3)}, pipe)
        pipe.flush()
        os._exit(3)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(processes, "_send", fail)
    if failure == "no_fork":
        monkeypatch.setattr(os, "fork", no_fork)
    if failure == "no_pipe":
        monkeypatch.setattr(os, "pipe", no_pipe)
    work = _Work(RESULT)
    with processes.beside(work) as result:
        _same(result(), RESULT)
    assert work.calls == 1
    expected = FAILURES[failure]
    assert _exit_codes(forks) == ([] if expected is None else [expected])


def test_a_failure_in_the_block_kills_and_reaps_the_child(monkeypatch, forks):
    monkeypatch.setattr(processes, "_send", lambda *args: time.sleep(30))  # a child that hangs
    with pytest.raises(RuntimeError, match="the block fails"):
        with processes.beside(_Work(RESULT)):
            raise RuntimeError("the block fails")
    [status] = forks.values()
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    work = _Work(RESULT)
    with pytest.raises(KeyboardInterrupt):
        with processes.beside(work):
            raise KeyboardInterrupt
    assert len(forks) == 2 and None not in forks.values() and work.calls == 0


def test_staged_files_move_in_together(tmp_path):
    out = tmp_path / "out"
    with processes.staged(out, PipelineError) as staging:
        (staging / "work").mkdir()
        (staging / "work" / "a.csv").write_text("a\n")
        (staging / "b.json").write_text("{}\n")
        assert not out.joinpath("b.json").exists()
    assert sorted(str(path.relative_to(out)) for path in out.rglob("*")) == ["b.json", "work", "work/a.csv"]
    assert (out / "work" / "a.csv").read_text() == "a\n"


@pytest.mark.parametrize("failure", ["raise", "directory_in_the_way"])
def test_staged_files_leave_the_directory_as_it_was(tmp_path, failure):
    out = tmp_path / "out"
    (out / "kept.csv").parent.mkdir()
    (out / "kept.csv").write_text("old\n")
    (out / "b.json" / "inner").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(PipelineError if failure != "raise" else ValueError) as caught:
        with processes.staged(out, PipelineError) as staging:
            (staging / "a.csv").write_text("new\n")
            (staging / "kept.csv").write_text("new\n")
            if failure == "raise":
                raise ValueError("the block fails")
            (staging / "b.json").write_text("{}\n")
    if failure != "raise":
        assert str(caught.value) == f"cannot write {out / 'b.json'}: Is a directory"
    assert sorted(tmp_path.rglob("*")) == before  # no file moved, no staging directory left
    assert (out / "kept.csv").read_text() == "old\n"


def test_staged_names_the_directory_it_cannot_create(tmp_path):
    out = tmp_path / "out"
    out.touch()
    with pytest.raises(PipelineError, match=f"cannot create output directory {out}: File exists"):
        with processes.staged(out, PipelineError):
            pytest.fail("the block runs")
