"""Pre-event baselines, centered smoothing, and percent change vs baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import SeriesSet
from .errors import SeriesError
from .windows import DateWindow

DEFAULT_MIN_BASELINE = 1e-9

BOUNDARY_TRUNCATE = "truncate"
BOUNDARY_SKIP = "skip"


@dataclass(frozen=True)
class Baseline:
    value: float
    sufficient: bool


def compute_baseline(
    values: np.ndarray,
    window: DateWindow,
    baseline_window: DateWindow,
    min_baseline: float = DEFAULT_MIN_BASELINE,
) -> Baseline:
    """Mean daily value over the baseline window (missing days count as 0).

    Keys whose mean falls below `min_baseline` are flagged insufficient and
    excluded from every downstream computation that divides by the baseline.
    """
    start = window.index_of(baseline_window.start)
    end = window.index_of(baseline_window.end)
    if start < 0 or end >= len(values):
        raise SeriesError(
            f"baseline window {baseline_window.start}..{baseline_window.end} "
            f"is outside the data window"
        )
    mean = math.fsum(values[start : end + 1]) / baseline_window.n_days
    return Baseline(value=mean, sufficient=mean >= min_baseline)


def moving_average(
    values: np.ndarray, half_width: int = 3, boundary: str = BOUNDARY_TRUNCATE
) -> np.ndarray:
    """Centered moving average over [d - half_width, d + half_width].

    `truncate` averages whatever days exist near the window edges; `skip`
    leaves edge days NaN so they never qualify as recovered.
    """
    _check_smoothing(half_width, boundary)
    n = len(values)
    if half_width == 0 or n == 0:
        return np.array(values, dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=float)))
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half_width)
        hi = min(n - 1, i + half_width)
        out[i] = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    if boundary == BOUNDARY_SKIP:
        out[:half_width] = np.nan
        if half_width > 0:
            out[n - half_width :] = np.nan
    return out


def _check_smoothing(half_width: int, boundary: str):
    if half_width < 0:
        raise SeriesError(f"half_width must be nonnegative, got {half_width}")
    if boundary not in (BOUNDARY_TRUNCATE, BOUNDARY_SKIP):
        raise SeriesError(f"unknown boundary mode {boundary!r}")


def _smooth_rows(values: np.ndarray, half_width: int, boundary: str) -> np.ndarray:
    """moving_average of every row of a (keys, days) matrix, with the same arithmetic.

    Each row's cumulative sum is the same sequential sum, and each day divides
    the same window difference by the same count. May return `values` itself.
    """
    n = values.shape[1]
    if half_width == 0 or n == 0:
        return values
    csum = np.zeros((values.shape[0], n + 1))
    np.cumsum(values, axis=1, out=csum[:, 1:])
    day = np.arange(n)
    lo = np.maximum(day - half_width, 0)
    hi = np.minimum(day + half_width, n - 1)
    out = (csum[:, hi + 1] - csum[:, lo]) / (hi - lo + 1)
    if boundary == BOUNDARY_SKIP:
        out[:, :half_width] = np.nan
        out[:, n - half_width :] = np.nan
    return out


def percent_change(smoothed, baseline: float):
    """(smoothed - baseline) / baseline; requires a positive baseline."""
    if baseline <= 0:
        raise SeriesError(f"baseline must be positive, got {baseline}")
    return (smoothed - baseline) / baseline


def compute_baselines(
    series_set: SeriesSet,
    baseline_window: DateWindow,
    min_baseline: float = DEFAULT_MIN_BASELINE,
) -> dict:
    """Baseline per series key, in key order."""
    return {
        key: compute_baseline(row, series_set.window, baseline_window, min_baseline)
        for key, row in zip(series_set.keys(), series_set.values)
    }


def build_change_series(
    series_set: SeriesSet,
    baselines: dict,
    half_width: int = 3,
    boundary: str = BOUNDARY_TRUNCATE,
) -> SeriesSet:
    """Smoothed percent-change series for every key with a sufficient baseline.

    All keys at once; each value goes through the same operations as
    moving_average and then percent_change, so rows equal theirs bit for bit.
    """
    _check_smoothing(half_width, boundary)
    rows = [i for i, key in enumerate(series_set.keys()) if baselines[key].sufficient]
    keys = [series_set.key_list[i] for i in rows]
    base = np.array([baselines[key].value for key in keys]).reshape(-1, 1)
    if (base <= 0).any():
        raise SeriesError(f"baseline must be positive, got {float(base[base <= 0][0])}")
    smoothed = _smooth_rows(series_set.values[rows], half_width, boundary)
    return SeriesSet(series_set.window, keys, (smoothed - base) / base)
