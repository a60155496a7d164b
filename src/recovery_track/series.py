"""Pre-event baselines, centered smoothing, and percent change vs baseline."""

from __future__ import annotations

import numpy as np

from .aggregate import SeriesSet, exact_sums, refuse_overflow
from .errors import SeriesError
from .windows import DateWindow

DEFAULT_MIN_BASELINE = 1e-9

BOUNDARY_TRUNCATE = "truncate"
BOUNDARY_SKIP = "skip"
BOUNDARIES = (BOUNDARY_TRUNCATE, BOUNDARY_SKIP)


def _sum_of(what, keys):
    """refuse_overflow's name of row i's sum: `what` of the key keys[i]."""
    return lambda row: "{1} data: the {what} of {2} services for region {0}".format(*keys[row], what=what)


def _smooth_rows(values: np.ndarray, half_width: int, boundary: str, keys) -> np.ndarray:
    """Centered moving average over [d - half_width, d + half_width] of every row.

    `truncate` averages whatever days exist near the window edges; `skip`
    leaves edge days NaN so they never qualify as recovered. Each day divides
    a difference of the row's sequential cumulative sum by the day count; a
    row whose cumulative sum passes the float range is refused, naming its
    key in `keys`. May return `values` itself. Every half width of at least
    `n` days gives the same result, so it is clamped to `n` before the index
    arithmetic.
    """
    n = values.shape[1]
    half_width = min(half_width, n)
    if half_width == 0 or n == 0:
        return values
    csum = np.zeros((values.shape[0], n + 1))
    with np.errstate(over="ignore"):
        np.cumsum(values, axis=1, out=csum[:, 1:])
    # a partial sum past the float range leaves every later one past it, the last included
    refuse_overflow(csum[:, -1], _sum_of("smoothing's running total", keys))
    day = np.arange(n)
    lo = np.maximum(day - half_width, 0)
    hi = np.minimum(day + half_width, n - 1)
    out = (csum[:, hi + 1] - csum[:, lo]) / (hi - lo + 1)
    if boundary == BOUNDARY_SKIP:
        out[:, :half_width] = np.nan
        out[:, n - half_width :] = np.nan
    return out


def compute_baselines(
    series_set: SeriesSet,
    baseline_window: DateWindow,
    min_baseline: float = DEFAULT_MIN_BASELINE,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, sufficient) per row of `series_set`: the mean daily value over the window.

    Both arrays align with `series_set.key_list`. Missing days count as 0.
    Totals are exactly rounded (aggregate.exact_sums); one past the float range is refused.
    Rows whose mean falls below `min_baseline`, or is 0, are flagged
    insufficient and excluded from every downstream computation that divides
    by the baseline.
    """
    start = series_set.window.index_of(baseline_window.start)
    end = series_set.window.index_of(baseline_window.end)
    if start < 0 or end >= series_set.window.n_days:
        raise SeriesError(
            f"baseline window {baseline_window.start}..{baseline_window.end} "
            f"is outside the data window"
        )
    totals = exact_sums(series_set.values[:, start : end + 1, None])[:, 0]
    refuse_overflow(totals, _sum_of("baseline total", series_set.key_list))
    values = totals / baseline_window.n_days
    return values, (values >= min_baseline) & (values > 0)


def build_change_series(
    series_set: SeriesSet,
    baselines: tuple[np.ndarray, np.ndarray],
    half_width: int = 3,
    boundary: str = BOUNDARY_TRUNCATE,
) -> SeriesSet:
    """Smoothed percent-change series for every key with a sufficient baseline.

    `baselines` is the (values, sufficient) pair of compute_baselines. A
    change is (smoothed - baseline) / baseline, computed for all keys at once.
    A key whose running sum for smoothing passes the float range is refused.
    """
    if half_width < 0:
        raise SeriesError(f"half_width must be nonnegative, got {half_width}")
    if boundary not in BOUNDARIES:
        raise SeriesError(f"unknown boundary mode {boundary!r}")
    values, sufficient = baselines
    rows = np.flatnonzero(sufficient)
    keys = [series_set.key_list[i] for i in rows.tolist()]
    base = values[rows].reshape(-1, 1)
    if (base <= 0).any():
        raise SeriesError(f"baseline must be positive, got {float(base[base <= 0][0])}")
    smoothed = _smooth_rows(series_set.values[rows], half_width, boundary, keys)
    return SeriesSet(series_set.window, keys, (smoothed - base) / base)
