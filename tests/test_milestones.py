from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from oracles import brute_force_recovery_day
from recovery_track.aggregate import SeriesSet
from recovery_track.errors import SeriesError
from recovery_track.milestones import (
    Milestone,
    build_milestone_table,
    detect_recovery_day,
    recovery_duration,
)
from recovery_track.windows import DateWindow


def _series(changes, d0=0, horizon=None):
    """Pad a change list so it covers [d0, d0 + horizon]."""
    if horizon is None:
        horizon = len(changes) - d0 - 1
    data = np.array(changes, dtype=float)
    return data, d0, horizon


def test_detection_waits_for_full_run():
    changes, d0, horizon = _series([-0.5, -0.2, -0.05, -0.04, -0.02, 0.0, 0.0])
    assert detect_recovery_day(changes, d0, horizon) == d0 + 4


def test_detection_immediate_recovery():
    changes, d0, horizon = _series([0.0, 0.1, 0.2, 0.0, 0.0])
    assert detect_recovery_day(changes, d0, horizon) == d0 + 2


def test_detection_dip_resets_run():
    changes, d0, horizon = _series([-0.05, -0.05, -0.15, -0.05, -0.05, -0.05])
    assert detect_recovery_day(changes, d0, horizon) == d0 + 5


def test_detection_censored_within_horizon():
    changes, d0, horizon = _series([-0.5] * 30)
    assert detect_recovery_day(changes, d0, horizon) is None


def test_detection_run_must_finish_inside_horizon():
    # qualifying days start only at the last two indices of the horizon
    changes = np.array([-0.5] * 8 + [0.0, 0.0, 0.0])
    assert detect_recovery_day(changes, 0, 10) == 10
    assert detect_recovery_day(changes, 0, 9) is None


def test_detection_requires_covering_series():
    with pytest.raises(SeriesError):
        detect_recovery_day(np.zeros(5), 0, 10)


def test_detection_scans_from_d0_only():
    # a qualifying run before d0 must not count
    changes = np.array([0.0, 0.0, 0.0, -0.5, -0.5, 0.0, 0.0, 0.0])
    assert detect_recovery_day(changes, 3, 4) == 7


def test_nan_days_never_qualify():
    changes = np.array([0.0, np.nan, 0.0, 0.0, 0.0])
    assert detect_recovery_day(changes, 0, 4) == 4


def test_brute_force_agreement_on_random_series():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        n = int(rng.integers(5, 80))
        changes = rng.uniform(-0.5, 0.3, size=n)
        d0 = int(rng.integers(0, max(1, n - 4)))
        horizon = int(rng.integers(3, n - d0 - 1)) if n - d0 > 4 else n - d0 - 1
        threshold = float(rng.uniform(-0.3, 0.0))
        run_length = int(rng.integers(1, 5))
        got = detect_recovery_day(changes, d0, horizon, threshold, run_length)
        want = brute_force_recovery_day(changes, d0, horizon, threshold, run_length)
        assert got == want


def test_raising_threshold_never_recovers_earlier():
    rng = np.random.default_rng(78)
    for _ in range(300):
        changes = rng.uniform(-0.5, 0.3, size=60)
        loose = detect_recovery_day(changes, 0, 59, threshold=-0.15)
        strict = detect_recovery_day(changes, 0, 59, threshold=-0.05)
        if strict is not None:
            assert loose is not None
            assert loose <= strict


def test_durations_translation_invariant():
    rng = np.random.default_rng(79)
    for _ in range(200):
        changes = rng.uniform(-0.5, 0.3, size=50)
        shift = int(rng.integers(1, 20))
        shifted = np.concatenate([np.full(shift, -0.99), changes])
        base = detect_recovery_day(changes, 0, 40)
        moved = detect_recovery_day(shifted, shift, 40)
        base_duration = recovery_duration(0, base, 40).duration_days
        moved_duration = recovery_duration(shift, moved, 40).duration_days
        assert base_duration == moved_duration


# ---------------------------------------------------------------------------
# durations and the table


def test_duration_examples():
    assert recovery_duration(0, 10, 120) == Milestone(10, False)
    assert recovery_duration(5, 5, 120) == Milestone(0, False)
    assert recovery_duration(0, None, 120) == Milestone(120, True)
    with pytest.raises(SeriesError):
        recovery_duration(10, 5, 120)


def _change_set(changes: dict, n_days: int) -> SeriesSet:
    """A change matrix holding the series of `changes`, keys sorted."""
    keys = sorted(changes)
    values = np.array([changes[key] for key in keys]).reshape(len(keys), n_days)
    return SeriesSet(DateWindow(date(2017, 8, 1), date(2017, 8, n_days)), keys, values)


def test_milestone_table_requires_all_four_series():
    full = np.zeros(20)
    changes = {}
    for source in ("trip", "transaction"):
        for category in ("essential", "non-essential"):
            changes[("R001", source, category)] = full
    changes[("R002", "trip", "essential")] = full
    table, excluded = build_milestone_table(_change_set(changes, 20), d0=0, horizon=10)
    assert sorted(table) == ["R001"]
    assert set(table["R001"]) == {
        "trip_essential",
        "trip_nonessential",
        "transaction_essential",
        "transaction_nonessential",
    }
    assert "R002" in excluded
    assert len(excluded["R002"]) == 3


def test_milestone_table_empty_input():
    table, excluded = build_milestone_table(_change_set({}, 20), d0=0, horizon=10)
    assert table == {} and excluded == {}
