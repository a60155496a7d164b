"""The key x day change matrix against the per-key references in oracles.py, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import brute_force_recovery_day, moving_average, percent_change
from recovery_track import pipeline
from recovery_track.aggregate import SeriesSet
from recovery_track.errors import SeriesError
from recovery_track.milestones import detect_recovery_days
from recovery_track.pipeline import CHANGES_ARTIFACT, _changes_csv, _parse_changes_artifact, _RunArtifacts
from recovery_track.series import (
    BOUNDARY_SKIP,
    BOUNDARY_TRUNCATE,
    build_change_series,
    compute_baselines,
)
from recovery_track.windows import DateWindow

WINDOW = DateWindow.from_strings("2017-08-01", "2017-08-30")
BASELINE_WINDOW = DateWindow.from_strings("2017-08-01", "2017-08-10")


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
        expected = [key for key, ok in zip(series_set.keys(), sufficient.tolist()) if ok]
        assert changes.keys() == expected
        assert 0 < len(expected) < len(series_set.keys())
        for key, row in zip(changes.keys(), changes.values):
            smoothed = moving_average(series_set[key], half_width=half_width, boundary=boundary)
            want = percent_change(smoothed, baseline_of[key])
            assert row.tobytes() == want.tobytes(), key


def test_change_matrix_rejects_a_sufficient_nonpositive_baseline():
    keys = _keys(2)
    values = np.ones((len(keys), WINDOW.n_days))
    values[5] = 0.0
    series_set = SeriesSet(WINDOW, keys, values)
    baselines = compute_baselines(series_set, BASELINE_WINDOW, min_baseline=0.0)
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
    return _parse_changes_artifact(artifacts.lines(CHANGES_ARTIFACT), WINDOW, set(keys))


def test_changes_artifact_round_trips_every_float_bit_for_bit(tmp_path):
    changes = _special_values()
    keys, values = changes.keys(), changes.values

    text = _changes_csv(changes)
    assert text == _per_cell_csv(changes)
    parsed = _read_back(text, keys, tmp_path)
    assert parsed.keys() == keys
    assert parsed.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("committed", [False, True], ids=["produced", "committed"])
@pytest.mark.parametrize("read_chars", [1, 7])
def test_changes_artifact_streams_bit_for_bit_across_read_blocks(tmp_path, monkeypatch, read_chars, committed):
    # blocks this small end inside keys, day indices and values, and right at each newline
    monkeypatch.setattr(pipeline, "_READ_CHARS", read_chars)
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
