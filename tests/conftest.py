from __future__ import annotations

import os
import threading

import pytest

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


@pytest.fixture
def forks(monkeypatch):
    """{pid: wait status} of the children processes.beside forks, for the trip
    reader, the changes writer and reader, the city generator, the stats
    stage's last three Moran fields or a test of its own, on a machine taken to
    have two CPUs.

    Afterwards every child must have been reaped and no descriptor left open.
    """
    if not hasattr(os, "fork"):
        pytest.skip("two-process reads need os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    children = {}
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
