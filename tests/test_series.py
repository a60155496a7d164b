from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import write_csv
from oracles import activity_from_rows, baseline_mean, seven_term_mean
from recovery_track.aggregate import SeriesSet, build_daily_series, load_taxonomy
from recovery_track.errors import SeriesError
from recovery_track.ingest import broadcast_zip_to_regions
from recovery_track.series import (
    BOUNDARY_SKIP,
    BOUNDARY_TRUNCATE,
    DEFAULT_MIN_BASELINE,
    _smooth_rows,
    build_change_series,
    compute_baselines,
)
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 9, 30))
BASELINE_WINDOW = DateWindow(date(2017, 8, 1), date(2017, 8, 21))
KEY = ("R001", "trip", "essential")


def _values(prefix):
    data = np.zeros(WINDOW.n_days)
    data[: len(prefix)] = prefix
    return data


def _one_key(values, window=WINDOW) -> SeriesSet:
    return SeriesSet(window, [KEY], np.asarray(values, dtype=float).reshape(1, -1))


def _baseline(values, window, baseline_window) -> tuple[float, bool]:
    """(value, sufficient) of one series."""
    values, sufficient = compute_baselines(_one_key(values, window), baseline_window)
    assert values.shape == sufficient.shape == (1,)
    return values.tolist()[0], sufficient.tolist()[0]


def _smoothed(values, boundary=BOUNDARY_TRUNCATE):
    """The smoothing build_change_series applies, on one series."""
    return _smooth_rows(np.asarray(values, dtype=float).reshape(1, -1), 3, boundary, [KEY])[0]


def _change(values, baseline: float, half_width=0):
    """build_change_series of one series against a sufficient `baseline`."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    window = DateWindow(WINDOW.start, WINDOW.start + timedelta(days=len(values) - 1))
    baselines = (np.array([baseline]), np.array([True]))
    changes = build_change_series(_one_key(values, window), baselines, half_width)
    return changes.values[0]


def test_baseline_constant_series():
    value, sufficient = _baseline(_values([10.0] * 21), WINDOW, BASELINE_WINDOW)
    assert value == 10.0
    assert sufficient is True


def test_baseline_arithmetic_mean():
    value, _ = _baseline(_values(range(1, 22)), WINDOW, BASELINE_WINDOW)
    assert value == pytest.approx(11.0, abs=1e-12)


def test_baseline_all_zero_flagged_insufficient():
    _, sufficient = _baseline(np.zeros(WINDOW.n_days), WINDOW, BASELINE_WINDOW)
    assert sufficient is False


def test_baselines_align_with_keys_and_sum_exactly():
    rng = np.random.default_rng(8)
    keys = [(f"R{i:03d}", "trip", "essential") for i in range(40)]
    values = rng.uniform(0, 1e6, size=(len(keys), WINDOW.n_days))
    values[::3, :21] *= 1e-16  # means below the default min_baseline
    baselines, sufficient = compute_baselines(SeriesSet(WINDOW, keys, values), BASELINE_WINDOW)
    assert baselines.dtype == np.float64 and sufficient.dtype == np.bool_
    for row, value, ok in zip(values, baselines.tolist(), sufficient.tolist()):
        assert value == math.fsum(row[:21].tolist()) / 21
        assert ok == (value >= DEFAULT_MIN_BASELINE)
    assert 0 < sufficient.sum() < len(keys)


def _hard_rows(rng, n_rows):
    """Seeded series whose exactly rounded totals a plain sum misses: mixed
    signs and exponents, exact cancellations, subnormals, terms near 1e307,
    all-zero rows and rows of -0.0."""
    rows = np.ldexp(rng.uniform(0.5, 1.0, (n_rows, WINDOW.n_days)), rng.integers(-60, 60, (n_rows, WINDOW.n_days)))
    rows[rng.random(rows.shape) < 0.4] *= -1.0
    rows[0::6, 1] = -rows[0::6, 0]
    rows[1::6] = rng.integers(1, 1 << 20, rows[1::6].shape) * 5e-324
    # alternating signs keep every partial sum far from the float range; 17 terms of 1e307 sum just below it
    rows[2::6] = rng.uniform(0.5, 1.0, rows[2::6].shape) * 1e307 * (-1.0) ** np.arange(WINDOW.n_days)
    rows[3::6] = 0.0
    rows[3::6, :17] = rng.uniform(0.99, 1.0, rows[3::6, :17].shape) * 1e307
    rows[4::6] = 0.0
    rows[5::6] = -0.0
    rows[5::12, ::5] = 0.0  # -0.0 with 0.0 sums to 0.0
    return rows


def test_baselines_equal_the_fsum_reference_bit_for_bit():
    values = _hard_rows(np.random.default_rng(12), 120)
    keys = [(f"R{i:03d}", "trip", "essential") for i in range(len(values))]
    baselines, _ = compute_baselines(SeriesSet(WINDOW, keys, values), BASELINE_WINDOW)
    want = [baseline_mean(row[: BASELINE_WINDOW.n_days], BASELINE_WINDOW.n_days) for row in values.tolist()]
    assert [value.hex() for value in baselines.tolist()] == [value.hex() for value in want]


def test_the_baselines_of_a_weight_of_minus_zero_are_the_fsum_reference(tmp_path):
    # grocery is essential's one type: every essential day sums -0.0 terms, whose sign math.fsum decides
    taxonomy = load_taxonomy(write_csv(
        tmp_path, "taxonomy.csv", "service_type,category,weight_percent\ngrocery,essential,-0\nretail,non-essential,100\n"
    ))
    trips = activity_from_rows(
        (day, region, code, 7.0) for day in range(0, 30, 3) for region in ("R1", "R2") for code in ("grocery", "retail")
    )
    transactions = activity_from_rows([(4, "77001", "grocery", 12.5), (5, "77001", "retail", 3.25)])
    broadcast = broadcast_zip_to_regions(transactions, {"R1": "77001", "R2": "77001", "R3": "77001"})
    series_set, _, _ = build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW)
    baselines, _ = compute_baselines(series_set, BASELINE_WINDOW)
    want = [baseline_mean(row[: BASELINE_WINDOW.n_days], BASELINE_WINDOW.n_days) for row in series_set.values.tolist()]
    assert [value.hex() for value in baselines.tolist()] == [value.hex() for value in want]
    zero = {key for key, value in zip(series_set.key_list, baselines.tolist()) if value == 0}
    assert zero == {key for key in series_set.key_list if key[2] == "essential"} | {("R3", "trip", "non-essential")}


def test_baselines_of_no_keys_are_empty():
    empty = SeriesSet(WINDOW, [], np.zeros((0, WINDOW.n_days)))
    baselines, sufficient = compute_baselines(empty, BASELINE_WINDOW)
    assert baselines.shape == sufficient.shape == (0,)
    assert build_change_series(empty, (baselines, sufficient)).keys() == []


def test_baseline_window_outside_data_errors():
    narrow = DateWindow(date(2017, 8, 10), date(2017, 9, 30))
    with pytest.raises(SeriesError):
        _baseline(np.zeros(narrow.n_days), narrow, BASELINE_WINDOW)


# ---------------------------------------------------------------------------
# moving average


def test_moving_average_constant_is_identity():
    values = np.full(30, 7.5)
    smoothed = _smoothed(values)
    assert smoothed == pytest.approx(values)


def test_moving_average_interior_seven_term_mean():
    values = np.array([1.0, 2, 3, 4, 5, 6, 7, 100, 100])
    assert _smoothed(values)[3] == pytest.approx(4.0)


def test_moving_average_truncated_first_day():
    values = np.array([2.0, 4.0, 6.0, 8.0])
    assert _smoothed(values)[0] == pytest.approx(5.0)


def test_moving_average_matches_direct_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        values = rng.uniform(0, 100, size=rng.integers(1, 60))
        smoothed = _smoothed(values)
        for i in range(len(values)):
            assert smoothed[i] == pytest.approx(seven_term_mean(list(values), i), rel=1e-12)


def test_moving_average_skip_mode_marks_boundaries():
    values = np.arange(10.0)
    smoothed = _smoothed(values, boundary=BOUNDARY_SKIP)
    assert np.isnan(smoothed[:3]).all()
    assert np.isnan(smoothed[-3:]).all()
    assert smoothed[4] == pytest.approx(4.0)


def test_moving_average_preserves_mean_on_circular_padding():
    rng = np.random.default_rng(33)
    for _ in range(20):
        values = rng.uniform(0, 50, size=rng.integers(8, 60))
        h = 3
        padded = np.concatenate([values[-h:], values, values[:h]])
        smoothed = _smoothed(padded)[h:-h]
        assert smoothed.mean() == pytest.approx(values.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# percent change


def test_percent_change_examples():
    assert _change(100.0, 100.0) == 0.0
    assert _change(95.0, 100.0) == pytest.approx(-0.05)
    assert _change(0.0, 50.0) == -1.0


def test_percent_change_requires_positive_baseline():
    with pytest.raises(SeriesError):
        _change(1.0, 0.0)
    with pytest.raises(SeriesError):
        _change(1.0, -2.0)


def test_change_is_exactly_minus_one_when_smoothed_is_zero():
    baselines = np.linspace(0.1, 500, 100)
    for b in baselines:
        assert _change(0.0, float(b)) == -1.0


def test_smoothing_and_change_commute():
    rng = np.random.default_rng(55)
    for _ in range(50):
        values = rng.uniform(0, 100, size=40)
        baseline = rng.uniform(1, 50)
        change_then_smooth = _smoothed(_change(values, baseline))
        smooth_then_change = _change(values, baseline, half_width=3)
        assert change_then_smooth == pytest.approx(smooth_then_change, rel=1e-12, abs=1e-12)


def test_percent_change_of_baseline_is_exact_zero():
    for value in (0.001, 1.0, 3.7, 123456.789):
        assert _change(value, value) == 0.0
