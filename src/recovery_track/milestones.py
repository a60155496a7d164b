"""Recovery-day detection and the four per-region milestone durations.

A key counts as recovered on the last day of the first run of `run_length`
consecutive days, at or after the event day, whose smoothed activity change
stays at or above the threshold (default -0.10, i.e. 90% of baseline).
Regions that never sustain such a run within the horizon are censored at the
horizon, not dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import CATEGORIES, SOURCES, SeriesSet
from .errors import SeriesError


def change_threshold(recovered_fraction: float) -> float:
    """Map a recovered fraction of baseline (e.g. 0.90) to a change threshold.

    Every consumer must use this same conversion; 0.9 - 1.0 is one ulp away
    from the literal -0.1, which matters to nothing but byte determinism.
    """
    return recovered_fraction - 1.0


DEFAULT_RECOVERED_FRACTION = 0.90
DEFAULT_CHANGE_THRESHOLD = change_threshold(DEFAULT_RECOVERED_FRACTION)
DEFAULT_RUN_LENGTH = 3

# column stems, in output order
MILESTONE_FIELDS = (
    "trip_essential",
    "trip_nonessential",
    "transaction_essential",
    "transaction_nonessential",
)


def milestone_field(source: str, category: str) -> str:
    return f"{source}_{category.replace('-', '')}"


@dataclass(frozen=True)
class Milestone:
    duration_days: int
    censored: bool


def detect_recovery_day(
    changes,
    d0: int,
    horizon: int,
    threshold: float = DEFAULT_CHANGE_THRESHOLD,
    run_length: int = DEFAULT_RUN_LENGTH,
):
    """Index of the qualifying run's last day, or None when censored.

    Scans [d0, d0 + horizon] with a single run counter; NaN days (skip-mode
    smoothing boundaries) never qualify and reset the run.
    """
    _check_scan(len(changes), d0, horizon, run_length)
    run = 0
    for day in range(d0, d0 + horizon + 1):
        value = changes[day]
        if not math.isnan(value) and value >= threshold:
            run += 1
            if run == run_length:
                return day
        else:
            run = 0
    return None


def _check_scan(n_days: int, d0: int, horizon: int, run_length: int):
    if run_length < 1:
        raise SeriesError(f"run_length must be >= 1, got {run_length}")
    if d0 < 0 or d0 + horizon >= n_days:
        raise SeriesError(
            f"change series of length {n_days} does not cover [{d0}, {d0 + horizon}]"
        )


def detect_recovery_days(
    changes: np.ndarray,
    d0: int,
    horizon: int,
    threshold: float = DEFAULT_CHANGE_THRESHOLD,
    run_length: int = DEFAULT_RUN_LENGTH,
) -> np.ndarray:
    """detect_recovery_day of every row of a (keys, days) matrix; -1 where censored.

    One run counter per row steps across [d0, d0 + horizon]; a row's first
    day with a counter of `run_length` is its recovery day.
    """
    _check_scan(changes.shape[1], d0, horizon, run_length)
    run = np.zeros(len(changes), dtype=np.int64)
    found = np.full(len(changes), -1, dtype=np.int64)
    for day in range(d0, d0 + horizon + 1):
        run = np.where(changes[:, day] >= threshold, run + 1, 0)  # NaN never qualifies
        found[(run == run_length) & (found < 0)] = day
    return found


def recovery_duration(d0: int, dn, horizon: int) -> Milestone:
    """Days from event to recovery; censored keys are pinned at the horizon."""
    if dn is None:
        return Milestone(duration_days=horizon, censored=True)
    if dn < d0:
        raise SeriesError(f"recovery day {dn} precedes event day {d0}")
    return Milestone(duration_days=dn - d0, censored=False)


def build_milestone_table(
    changes: SeriesSet,
    d0: int,
    horizon: int,
    threshold: float = DEFAULT_CHANGE_THRESHOLD,
    run_length: int = DEFAULT_RUN_LENGTH,
):
    """All four milestones per region.

    A region is included only when all four change series exist (i.e. all four
    baselines were sufficient); the rest are reported with their missing
    fields. Returns (table, excluded) with the table keyed by region in sorted
    order.
    """
    days = detect_recovery_days(changes.values, d0, horizon, threshold, run_length)
    row_of = {key: i for i, key in enumerate(changes.keys())}
    table: dict[str, dict[str, Milestone]] = {}
    excluded: dict[str, list[str]] = {}
    for region in changes.regions:
        missing = []
        row = {}
        for source in SOURCES:
            for category in CATEGORIES:
                field = milestone_field(source, category)
                i = row_of.get((region, source, category))
                if i is None:
                    missing.append(field)
                    continue
                dn = int(days[i]) if days[i] >= 0 else None
                row[field] = recovery_duration(d0, dn, horizon)
        if missing:
            excluded[region] = missing
        else:
            table[region] = row
    return table, excluded
