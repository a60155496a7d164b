"""The key x day change matrix against the per-key references in oracles.py, bit for bit."""

from __future__ import annotations

import signal
from datetime import date

import numpy as np
import pytest

from oracles import brute_force_recovery_day, moving_average, percent_change, series_by_key
from recovery_track import pipeline, processes
from recovery_track.aggregate import SeriesSet
from recovery_track.config import load_config
from recovery_track.errors import SeriesError
from recovery_track.milestones import detect_recovery_days
from recovery_track.pipeline import CHANGES_ARTIFACT, _changes_csv, _read_changes, _RunArtifacts, run
from recovery_track.series import (
    BOUNDARY_SKIP,
    BOUNDARY_TRUNCATE,
    build_change_series,
    compute_baselines,
)
from recovery_track.synth import ScenarioSpec, generate
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 8, 30))
BASELINE_WINDOW = DateWindow(date(2017, 8, 1), date(2017, 8, 10))


def _keys(n_regions):
    return [
        (f"R{i:03d}", source, category)
        for i in range(n_regions)
        for source in ("transaction", "trip")
        for category in ("essential", "non-essential")
    ]


def _random_set(rng, n_regions=15):
    keys = _keys(n_regions)
    values = rng.uniform(0, 100, size=(len(keys), WINDOW.n_days))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[::7] *= 1e-12  # below the default min_baseline: insufficient
    values[1::5] = values[0::5]  # rows shared bit for bit, as Zip-inherited ones are
    return SeriesSet(WINDOW, keys, values)


@pytest.mark.parametrize("boundary", [BOUNDARY_TRUNCATE, BOUNDARY_SKIP])
@pytest.mark.parametrize("half_width", [0, 1, 3, WINDOW.n_days - 1, WINDOW.n_days, WINDOW.n_days + 4])
def test_change_matrix_equals_scalar_smoothing_and_change(boundary, half_width):
    rng = np.random.default_rng(half_width)
    for _ in range(5):
        series_set = _random_set(rng)
        values, sufficient = compute_baselines(series_set, BASELINE_WINDOW)
        changes = build_change_series(series_set, (values, sufficient), half_width, boundary)
        baseline_of = dict(zip(series_set.keys(), values.tolist()))
        series = series_by_key(series_set)
        expected = [key for key, ok in zip(series_set.keys(), sufficient.tolist()) if ok]
        assert changes.keys() == expected
        assert 0 < len(expected) < len(series_set.keys())
        for key, row in zip(changes.keys(), changes.values):
            smoothed = moving_average(series[key], half_width=half_width, boundary=boundary)
            want = percent_change(smoothed, baseline_of[key])
            assert row.tobytes() == want.tobytes(), key


def test_change_matrix_rejects_a_sufficient_nonpositive_baseline():
    # compute_baselines never marks a zero baseline sufficient; the pair is built by hand
    keys = _keys(2)
    series_set = SeriesSet(WINDOW, keys, np.ones((len(keys), WINDOW.n_days)))
    values = np.ones(len(keys))
    values[5] = 0.0
    baselines = (values, np.ones(len(keys), dtype=bool))
    with pytest.raises(SeriesError, match="baseline must be positive"):
        build_change_series(series_set, baselines)


def test_change_matrix_checks_smoothing_options():
    series_set = _random_set(np.random.default_rng(1), n_regions=1)
    baselines = compute_baselines(series_set, BASELINE_WINDOW)
    with pytest.raises(SeriesError, match="half_width"):
        build_change_series(series_set, baselines, half_width=-1)
    with pytest.raises(SeriesError, match="boundary"):
        build_change_series(series_set, baselines, boundary="wrap")


@pytest.mark.parametrize("run_length", [1, 2, 3, 4, 5])
def test_vectorised_detection_equals_scalar_detection(run_length):
    rng = np.random.default_rng(run_length)
    threshold = 0.9 - 1.0
    for _ in range(40):
        n_keys, n_days = int(rng.integers(1, 30)), int(rng.integers(1, 40))
        changes = rng.uniform(-0.3, 0.1, size=(n_keys, n_days))
        # values exactly at the threshold qualify, one ulp below do not
        changes[rng.random(changes.shape) < 0.2] = threshold
        changes[rng.random(changes.shape) < 0.1] = np.nextafter(threshold, -1.0)
        changes[rng.random(changes.shape) < 0.1] = np.nan
        d0 = int(rng.integers(0, n_days))
        # half the time the horizon ends on the last day
        last = n_days - 1 if rng.random() < 0.5 else int(rng.integers(d0, n_days))
        horizon = last - d0
        got = detect_recovery_days(changes, d0, horizon, threshold, run_length)
        for row, day in zip(changes, got):
            want = brute_force_recovery_day(row, d0, horizon, threshold, run_length)
            assert day == (-1 if want is None else want)


def test_vectorised_detection_checks_like_the_scalar_scan():
    with pytest.raises(SeriesError, match="run_length"):
        detect_recovery_days(np.zeros((2, 10)), 0, 5, run_length=0)
    with pytest.raises(SeriesError, match="does not cover"):
        detect_recovery_days(np.zeros((2, 10)), 3, 7)


def _per_cell_csv(changes):
    """The artifact rendered the plain way: one f-string per cell."""
    lines = ["region,source,category,day_index,change\n"]
    for (region, source, category), row in zip(changes.keys(), changes.values):
        for day, value in enumerate(row):
            lines.append(f"{region},{source},{category},{day},{float(value)!r}\n")
    return "".join(lines)


def _special_values():
    """Changes with every kind of float the artifact must keep, and rows reused or nearly so."""
    rng = np.random.default_rng(9)
    keys = _keys(6)
    shape = (len(keys), WINDOW.n_days)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    subnormals = [5e-324, -2.5e-320, 2.2250738585072009e-308]
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, *subnormals, 1e16, 1e-5]
    values[0, : len(specials)] = specials
    values[4, 0] = -0.0
    values[3] = values[0]  # a row rendered once and reused
    values[9] = values[4]
    # rows equal but for one day, or for the sign of a zero, are rendered on their own
    values[7] = values[4]
    values[7, -1] = 1.0
    values[10] = values[4]
    values[10, 0] = 0.0
    return SeriesSet(WINDOW, keys, values)


def _read_back(text, keys, output_dir, committed=False):
    """`text` parsed back as work/changes.csv: produced in this run, or committed to `output_dir`."""
    artifacts = _RunArtifacts(output_dir)
    if committed:
        (output_dir / "work").mkdir(parents=True)
        (output_dir / CHANGES_ARTIFACT).write_bytes(text.encode("utf-8"))
    else:
        artifacts.produced[CHANGES_ARTIFACT] = text
    return _read_changes(artifacts, WINDOW, list(keys))


def test_changes_artifact_round_trips_every_float_bit_for_bit(tmp_path):
    changes = _special_values()
    keys, values = changes.keys(), changes.values

    text = _changes_csv(changes)
    assert text == _per_cell_csv(changes)
    parsed = _read_back(text, keys, tmp_path)
    assert parsed.keys() == keys
    assert parsed.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("committed", [False, True], ids=["produced", "committed"])
@pytest.mark.parametrize("block_bytes", [1, 7])
def test_changes_artifact_streams_bit_for_bit_across_read_blocks(tmp_path, monkeypatch, block_bytes, committed):
    # blocks this small hold one line of a committed file each; a produced text is one block
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    changes = _special_values()
    parsed = _read_back(_changes_csv(changes), changes.keys(), tmp_path, committed)
    assert parsed.keys() == changes.keys()
    assert parsed.values.tobytes() == changes.values.tobytes()
    empty = SeriesSet(WINDOW, [], np.empty((0, WINDOW.n_days)))
    parsed = _read_back(_changes_csv(empty), [], tmp_path / "empty", committed)
    assert parsed.keys() == [] and parsed.values.shape == (0, WINDOW.n_days)


def test_changes_artifact_of_no_keys(tmp_path):
    changes = SeriesSet(WINDOW, [], np.empty((0, WINDOW.n_days)))
    text = _changes_csv(changes)
    assert text == "region,source,category,day_index,change\n"
    parsed = _read_back(text, [], tmp_path)
    assert parsed.keys() == [] and parsed.values.shape == (0, WINDOW.n_days)


# ---------------------------------------------------------------------------
# work/changes.csv rendered in two processes


def _check_split(monkeypatch, changes):
    """_changes_csv(changes) in two processes equals it in one; the text."""
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 << 62)
    expected = _changes_csv(changes)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    assert _changes_csv(changes) == expected
    return expected


def _shared_across_the_middle_key():
    """24 keys, whose middle one, the child's first, is R003's first."""
    rng = np.random.default_rng(4)
    keys = _keys(6)
    values = rng.standard_normal((len(keys), WINDOW.n_days))
    for category in range(2):  # R001 to R004 inherit one Zip's transactions
        values[4 + category : 20 : 4] = values[4 + category]
    values[11] = values[12]  # the last key of this process's half and the child's first
    return SeriesSet(WINDOW, keys, values)


def _non_ascii_regions():
    regions = sorted(["Zürich-1", "Ōsaka", "東京-3", "Région-É", "R001"])
    keys = [(region, "trip", category) for region in regions for category in ("essential", "non-essential")]
    return SeriesSet(WINDOW, keys, np.random.default_rng(5).standard_normal((len(keys), WINDOW.n_days)))


@pytest.mark.parametrize("make", [_special_values, _shared_across_the_middle_key, _non_ascii_regions])
def test_changes_render_the_same_in_two_processes(monkeypatch, forks, make):
    changes = make()
    assert _check_split(monkeypatch, changes) == _per_cell_csv(changes)
    assert forks.exit_codes() == [0]


def test_any_number_of_keys_renders_the_same_in_two_processes(monkeypatch, forks):
    changes = _random_set(np.random.default_rng(3), n_regions=5)
    for n_keys, children in ((1, 0), (2, 1), (7, 2), (16, 3)):
        _check_split(monkeypatch, SeriesSet(WINDOW, changes.keys()[:n_keys], changes.values[:n_keys]))
        assert len(forks) == children  # one key leaves nothing for a second process
    assert set(forks.exit_codes()) == {0}


def test_a_criterion_03_city_renders_in_one_process(tmp_path, forks):
    spec = {
        "seed": 0, "n_regions": 30, "horizon_days": 60, "noise": 0.02, "regions_per_zip": 3,
        "drop_range": [0.25, 0.85], "ramp_range": [8, 30], "flat_fraction": 0.0, "censored_fraction": 0.0,
    }
    config = load_config(generate(ScenarioSpec.from_mapping(spec), tmp_path)["config.json"])
    run(config)
    with open(config.output_dir / CHANGES_ARTIFACT, encoding="utf-8") as handle:
        cells = sum(1 for _ in handle) - 1
    assert 5_000 < cells < processes.SPLIT_CELLS
    assert not forks


@pytest.mark.parametrize("failure", ["raise", "exit_after_sending", "short", "no_fork", "no_pipe"])
def test_a_failed_writer_child_leaves_its_keys_to_this_process(monkeypatch, forks, failure):
    forks.fail(failure, wrong=lambda pieces: ["wrong\n"] * len(pieces))
    changes = _special_values()
    assert _check_split(monkeypatch, changes) == _per_cell_csv(changes)
    assert forks.exit_codes() == {"raise": [1], "exit_after_sending": [3], "short": [0]}.get(failure, [])


def test_a_failure_in_this_process_kills_and_reaps_the_writer_child(monkeypatch, forks):
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    forks.fail("hang")
    pieces = pipeline._changes_pieces

    def fail_first_half(changes, start, stop):
        if start == 0:
            raise RuntimeError("this process fails")
        return pieces(changes, start, stop)

    monkeypatch.setattr(pipeline, "_changes_pieces", fail_first_half)
    with pytest.raises(RuntimeError, match="this process fails"):
        _changes_csv(_special_values())
    assert forks.exit_codes() == [-signal.SIGKILL]



# ---------------------------------------------------------------------------
# work/changes.csv read back in two processes


def _specials_in_every_row(n_keys):
    """n_keys keys, each row holding every kind of float the artifact must keep."""
    rng = np.random.default_rng(n_keys)
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2250738585072009e-308]
    values = rng.standard_normal((n_keys, WINDOW.n_days)) * 10.0 ** rng.integers(-300, 300, (n_keys, WINDOW.n_days))
    values[1:, ::2] = 0.5  # shorter lines after the first key: two keys split at the second
    for row in values:
        row[rng.choice(WINDOW.n_days, len(specials), replace=False)] = specials
    return SeriesSet(WINDOW, _keys(2)[:n_keys], values)


def _check_read_split(monkeypatch, output_dir, changes):
    """work/changes.csv of `changes`, committed to `output_dir`, read by the
    milestones stage in two processes equals it read in one and `changes`."""
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 << 62)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1 << 62)
    (output_dir / "work").mkdir(parents=True, exist_ok=True)
    (output_dir / CHANGES_ARTIFACT).write_text(_changes_csv(changes), encoding="utf-8")
    sufficient = list(changes.keys())
    expected = pipeline._read_changes(_RunArtifacts(output_dir), WINDOW, sufficient)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    got = pipeline._read_changes(_RunArtifacts(output_dir), WINDOW, sufficient)
    assert got.keys() == expected.keys() == changes.keys()
    assert got.values.tobytes() == expected.values.tobytes() == changes.values.tobytes()


@pytest.mark.parametrize("n_keys, children", [(1, 1), (2, 1), (3, 1), (7, 1)])
def test_changes_read_the_same_in_two_processes(tmp_path, monkeypatch, forks, n_keys, children):
    _check_read_split(monkeypatch, tmp_path, _specials_in_every_row(n_keys))
    assert forks.exit_codes() == [0] * children  # one key is split among its days


def test_changes_split_inside_a_key_read_the_same_in_two_processes(tmp_path, monkeypatch, forks):
    # the child's first line is not its key's first: the key's lines are read in two processes
    _check_read_split(monkeypatch, tmp_path, _specials_in_every_row(7))
    with open(tmp_path / CHANGES_ARTIFACT, "rb") as handle:
        handle.seek(processes.split_point(tmp_path / CHANGES_ARTIFACT))
        day_index = handle.readline().split(b",")[3]
    assert day_index != b"0" and forks.exit_codes() == [0]


def test_non_ascii_keys_read_the_same_in_two_processes(tmp_path, monkeypatch, forks):
    _check_read_split(monkeypatch, tmp_path, _non_ascii_regions())
    assert forks.exit_codes() == [0]


@pytest.mark.parametrize("failure", ["raise", "killed", "short"])
def test_a_failed_reader_child_leaves_its_half_to_this_process(tmp_path, monkeypatch, forks, failure):
    part, parts = pipeline._changes_part, []
    forks.fail(failure)
    monkeypatch.setattr(pipeline, "_changes_part", lambda *args: parts.append(args) or part(*args))
    _check_read_split(monkeypatch, tmp_path, _specials_in_every_row(7))
    assert len(parts) == 1  # read by this process, once, after the child failed
    assert forks.exit_codes() == [{"raise": 1, "killed": -signal.SIGKILL, "short": 0}[failure]]


def test_a_criterion_03_city_reruns_milestones_in_one_process(tmp_path, forks):
    spec = {
        "seed": 0, "n_regions": 30, "horizon_days": 60, "noise": 0.02, "regions_per_zip": 3,
        "drop_range": [0.25, 0.85], "ramp_range": [8, 30], "flat_fraction": 0.0, "censored_fraction": 0.0,
    }
    config = load_config(generate(ScenarioSpec.from_mapping(spec), tmp_path)["config.json"])
    run(config)
    milestones = (config.output_dir / "milestones.csv").read_bytes()
    run(config, only="milestones")
    assert (config.output_dir / "milestones.csv").read_bytes() == milestones
    sufficient = (config.output_dir / "work" / "baselines.csv").read_text().count(",true\n")
    assert 0 < sufficient * config.window.n_days < processes.SPLIT_CELLS
    assert (config.output_dir / CHANGES_ARTIFACT).stat().st_size < processes.SPLIT_BYTES
    assert not forks
