from __future__ import annotations

import csv
import filecmp

import pytest

from recovery_track.errors import ScenarioError
from recovery_track.ingest import (
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
    resolve_crosswalk,
    broadcast_zip_to_regions,
)
from recovery_track.synth import (
    ScenarioSpec,
    analytic_recovery_day,
    generate,
    level_at,
    _ground_truth_for,
)

SMALL = {
    "name": "small",
    "seed": 5,
    "n_regions": 12,
    "horizon_days": 60,
    "regions_per_zip": 3,
}


def test_analytic_recovery_day_flat_curve():
    assert analytic_recovery_day(0.0, 10) == 2
    assert analytic_recovery_day(0.05, 25) == 2  # never leaves the 90% band


def test_analytic_recovery_day_half_drop_twenty_day_ramp():
    # curve reaches 90% of baseline at ceil(0.8 * 20) = 16 days, run ends at 18
    assert analytic_recovery_day(0.5, 20) == 18


def test_scan_truth_matches_analytic_in_interior_regime():
    # drop 0.3, ramp 31: crossing at day 21 sits >= 3 days from the event and
    # the run ends >= 3 days before the ramp ends, so smoothing is transparent
    drop, ramp = 0.3, 31
    pre, horizon = 21, 60
    level = 500.0
    values = [level] * (pre + 5)
    d0 = len(values)
    values += [level_at(t, level, drop, ramp) for t in range(horizon + 1)]
    duration, censored = _ground_truth_for(values, pre, d0, horizon)
    assert not censored
    assert duration == analytic_recovery_day(drop, ramp)


def test_ground_truth_censors_at_horizon():
    level = 300.0
    pre, horizon = 21, 40
    values = [level] * (pre + 5) + [level * 0.4] * (horizon + 1)
    duration, censored = _ground_truth_for(values, pre, pre + 5, horizon)
    assert censored
    assert duration == horizon


def test_generation_is_deterministic(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    generate(spec, tmp_path / "a")
    generate(spec, tmp_path / "b")
    for name in (
        "trips.csv",
        "transactions.csv",
        "overlaps.csv",
        "adjacency.csv",
        "attributes.csv",
        "ground_truth.csv",
        "config.json",
    ):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


def test_generated_files_roundtrip_with_zero_warnings(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    paths = generate(spec, tmp_path)
    window = spec.window

    trips = parse_trips(paths["trips.csv"], window)
    assert trips.dropped == 0
    transactions = parse_transactions(paths["transactions.csv"], window)
    assert transactions.dropped == 0
    overlaps = parse_overlaps(paths["overlaps.csv"])
    adjacency = parse_adjacency(paths["adjacency.csv"])
    attributes = parse_attributes(paths["attributes.csv"])

    crosswalk = resolve_crosswalk(overlaps.records)
    regions = set(crosswalk)
    assert set(trips.records.entities) <= regions
    broadcast = broadcast_zip_to_regions(transactions.records, crosswalk)
    assert broadcast.unmatched_zip_rows == {}
    assert set(attributes.records) == regions
    assert set(adjacency.records) == regions


def test_ground_truth_covers_every_region_and_milestone(tmp_path):
    spec = ScenarioSpec.from_mapping(SMALL)
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == spec.n_regions * 4
    for row in rows:
        duration = int(row["duration_days"])
        assert 0 <= duration <= spec.horizon_days
        if row["censored"] == "true":
            assert duration == spec.horizon_days


def test_censored_scenario_marks_everything_censored(tmp_path):
    spec = ScenarioSpec.from_mapping(
        {**SMALL, "flat_fraction": 0.0, "censored_fraction": 1.0}
    )
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["censored"] == "true" for row in rows)


def test_flat_scenario_recovers_immediately(tmp_path):
    spec = ScenarioSpec.from_mapping(
        {**SMALL, "flat_fraction": 1.0, "censored_fraction": 0.0}
    )
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert all(int(row["duration_days"]) == 2 for row in rows)


def test_exponential_ramp_supported(tmp_path):
    spec = ScenarioSpec.from_mapping({**SMALL, "ramp_shape": "exponential"})
    paths = generate(spec, tmp_path)
    with open(paths["ground_truth.csv"]) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == spec.n_regions * 4


def test_spec_errors_name_the_field():
    with pytest.raises(ScenarioError, match="n_regions"):
        ScenarioSpec.from_mapping({})
    with pytest.raises(ScenarioError, match="drop_range"):
        ScenarioSpec.from_mapping({**SMALL, "drop_range": [0.5, 1.4]})
    with pytest.raises(ScenarioError, match="noise"):
        ScenarioSpec.from_mapping({**SMALL, "noise": -0.5})
    with pytest.raises(ScenarioError, match="unknown scenario field"):
        ScenarioSpec.from_mapping({**SMALL, "wibble": 3})
    with pytest.raises(ScenarioError, match="baseline_days"):
        ScenarioSpec.from_mapping({**SMALL, "event_day": "2017-08-10"})
    mistyped = [
        ("seed", "abc"),
        ("n_regions", 6.7),
        ("clusters", True),
        ("horizon_days", "60"),
        ("noise", "0.1"),
        ("flat_fraction", False),
        ("ramp_range", [5, 60.5]),
        ("ramp_range", [True, 60]),
        ("drop_range", ["0.2", 0.9]),
        ("seed", -1),
        ("event_day", 20170910),
        ("window_start", 1),
        # past the calendar
        ("horizon_days", 1_000_000_000),
        ("baseline_days", 1_000_000_000),
    ]
    for field, value in mistyped:
        with pytest.raises(ScenarioError, match=field):
            ScenarioSpec.from_mapping({**SMALL, field: value})
    assert ScenarioSpec.from_mapping({**SMALL, "n_regions": 6.0}).n_regions == 6
