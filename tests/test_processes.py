"""processes.beside, a result computed beside the caller's block;
processes.split_point and processes.line_blocks, the split rule and the
block reader of the two-process file readers; and processes.staged, files
moved into place together, with processes.creation_refusal, which foretells
its refusal to make the directory; and the one OS thread of every process."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from recovery_track import processes
from recovery_track.errors import PipelineError


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
    assert forks.exit_codes() == [0]


def test_a_result_of_none_comes_from_the_child(forks):
    work = _Work(None)
    with processes.beside(work) as result:
        assert result() is None
    assert work.calls == 0 and forks.exit_codes() == [0]


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
    assert forks.exit_codes() == [-signal.SIGKILL]


FAILURES = {  # what a failed child does, and the status it exits with
    "raise": 1, "interrupt": 1, "memory": 1, "exit_after_sending": 3, "short": 0, "no_fork": None, "no_pipe": None,
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_child_leaves_work_to_this_process(forks, failure):
    # a wrong result, sent whole, is not trusted after a failed exit
    forks.fail(failure, wrong=lambda result: {"counts": np.zeros(3)})
    work = _Work(RESULT)
    with processes.beside(work) as result:
        _same(result(), RESULT)
    assert work.calls == 1
    expected = FAILURES[failure]
    assert forks.exit_codes() == ([] if expected is None else [expected])


def test_a_failure_in_the_block_kills_and_reaps_the_child(forks):
    forks.fail("hang")
    with pytest.raises(RuntimeError, match="the block fails"):
        with processes.beside(_Work(RESULT)):
            raise RuntimeError("the block fails")
    assert forks.exit_codes() == [-signal.SIGKILL]
    work = _Work(RESULT)
    with pytest.raises(KeyboardInterrupt):
        with processes.beside(work):
            raise KeyboardInterrupt
    assert len(forks) == 2 and None not in forks.values() and work.calls == 0


def _random_lines(rng):
    """Random lines of a few bytes each, some empty, the last perhaps without its newline."""
    lines = [bytes(rng.choice(list(b"ab,"), rng.integers(0, 12))) + b"\n" for _ in range(rng.integers(1, 40))]
    if rng.random() < 0.3:
        lines[-1] = lines[-1][:-1] or b"a"
    return b"".join(lines)


def _first_line_start(data):
    """split_point's answer worked out from the bytes: the first line start
    at or after the middle byte."""
    return next((at for at in range(len(data) // 2, len(data)) if data[at - 1 : at] == b"\n"), None)


def test_split_point_is_the_first_line_start_after_the_middle(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(processes, "SPLIT_BYTES", 0)
    rng = np.random.default_rng(0)
    path = tmp_path / "lines.csv"
    found = 0
    for _ in range(300):
        data = _random_lines(rng)
        if len(data) < 2:
            continue
        path.write_bytes(data)
        expected = _first_line_start(data)
        assert processes.split_point(path) == expected
        found += expected is not None
    assert 200 < found < 290  # both answers occur: None where the middle byte is in the last line
    assert not forks


def test_split_point_reads_the_file_whole_where_it_cannot_split(tmp_path, monkeypatch, forks):
    path = tmp_path / "lines.csv"
    path.write_bytes(b"header\nb,1\nb,2\na,3\nb,4\n")
    monkeypatch.setattr(processes, "SPLIT_BYTES", 0)
    middle = processes.split_point(path)
    assert middle == path.read_bytes().index(b"b,2")
    monkeypatch.setattr(processes, "SPLIT_BYTES", path.stat().st_size)
    assert processes.split_point(path) == middle
    # the file is smaller than SPLIT_BYTES, no line starts after its middle, or it is missing
    monkeypatch.setattr(processes, "SPLIT_BYTES", path.stat().st_size + 1)
    assert processes.split_point(path) is None
    monkeypatch.setattr(processes, "SPLIT_BYTES", 0)
    last_line = tmp_path / "last.csv"
    last_line.write_bytes(b"header\n" + b"b" * 20 + b"\n")
    assert processes.split_point(last_line) is None
    assert processes.split_point(tmp_path / "missing.csv") is None
    assert processes.split_point(tmp_path) is None  # a directory
    # a named pipe is never opened: opening one with no writer would block
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    with monkeypatch.context() as patch:
        patch.setattr(processes, "open", lambda *args: pytest.fail("opened"), raising=False)
        assert processes.split_point(fifo) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert processes.split_point(path) is None  # one usable CPU
    assert not forks


def test_line_blocks_give_the_bytes_of_the_range_in_whole_lines(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    path = tmp_path / "lines.csv"
    for _ in range(300):
        data = _random_lines(rng)
        path.write_bytes(data)
        line_starts = [0] + [at + 1 for at, byte in enumerate(data) if byte == ord("\n")]
        start, stop = sorted(rng.choice(line_starts, 2))
        stop = None if stop == len(data) and rng.random() < 0.5 else int(stop)
        size = int(rng.integers(1, 40))
        monkeypatch.setattr(processes, "BLOCK_BYTES", size)
        with open(path, "rb") as handle:
            blocks = list(processes.line_blocks(handle, int(start), stop))
            assert handle.tell() == (len(data) if stop is None else stop)
        assert b"".join(blocks) == data[start:stop]
        for block in blocks[:-1]:
            assert len(block) >= size and block.endswith(b"\n")
        assert not blocks or blocks[-1].endswith(b"\n") or not data.endswith(b"\n")


def test_staged_files_move_in_together(tmp_path):
    out = tmp_path / "out"
    with processes.staged(out, PipelineError) as staging:
        (staging / "work").mkdir()
        (staging / "work" / "a.csv").write_text("a\n")
        (staging / "b.json").write_text("{}\n")
        assert not out.joinpath("b.json").exists()
    assert sorted(str(path.relative_to(out)) for path in out.rglob("*")) == ["b.json", "work", "work/a.csv"]
    assert (out / "work" / "a.csv").read_text() == "a\n"


@pytest.mark.parametrize("failure", ["raise", "directory_in_the_way", "raise_in_a_new_directory"])
def test_staged_files_leave_the_directory_as_it_was(tmp_path, failure):
    out = tmp_path / "out"
    (out / "kept.csv").parent.mkdir()
    (out / "kept.csv").write_text("old\n")
    (out / "b.json" / "inner").mkdir(parents=True)
    if failure == "raise_in_a_new_directory":
        out = tmp_path / "new" / "out"
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(PipelineError if failure == "directory_in_the_way" else ValueError) as caught:
        with processes.staged(out, PipelineError) as staging:
            (staging / "a.csv").write_text("new\n")
            (staging / "kept.csv").write_text("new\n")
            (staging / "a").mkdir()  # out/a is made before b.json is found in the way
            (staging / "a" / "c.csv").write_text("new\n")
            if failure != "directory_in_the_way":
                raise ValueError("the block fails")
            (staging / "b.json").write_text("{}\n")
    if failure == "directory_in_the_way":
        assert str(caught.value) == f"cannot write {out / 'b.json'}: Is a directory"
    # no file moved, and no staging directory, nor any directory staged made, left
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "out" / "kept.csv").read_text() == "old\n"


def test_staged_names_the_directory_it_cannot_create(tmp_path):
    out = tmp_path / "out"
    out.touch()
    with pytest.raises(PipelineError, match=f"cannot create output directory {out}: File exists"):
        with processes.staged(out, PipelineError):
            pytest.fail("the block runs")


@pytest.mark.parametrize(
    "out",
    ["out", "new/out", "file", "file/out", "file/a/out", "file/../out", "dangling", "dangling/out", "linked/out"],
)
def test_creation_refusal_foretells_staged_and_creates_nothing(tmp_path, out):
    (tmp_path / "file").write_text("a file\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "dangling").symlink_to(tmp_path / "gone")
    (tmp_path / "linked").symlink_to(tmp_path / "out")
    before = sorted(tmp_path.rglob("*"))
    refusal = processes.creation_refusal(tmp_path / out)
    assert sorted(tmp_path.rglob("*")) == before
    try:
        with processes.staged(tmp_path / out, PipelineError):
            pass
    except PipelineError as exc:
        assert refusal == str(exc)
    else:
        assert refusal is None
    assert (refusal is None) == (out in ("out", "new/out", "linked/out"))


def test_the_cli_imports_into_one_os_thread_and_keeps_a_blas_setting_of_its_own():
    # with numpy's BLAS pinned before numpy is imported, every fork copies one thread
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counting OS threads needs /proc/self/task")
    probe = "import os, recovery_track.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("OPENBLAS_NUM_THREADS", None)

    def probed(**setting):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120, env={**env, **setting}
        )
        return done.stdout.split()

    assert probed() == ["1", "1"]
    assert probed(OPENBLAS_NUM_THREADS="2")[1] == "2"
