from __future__ import annotations

import math
import random
from datetime import date

import pytest

from conftest import write_csv
from recovery_track.aggregate import (
    ESSENTIAL,
    NON_ESSENTIAL,
    POLICY_SKIP,
    build_daily_series,
    load_taxonomy,
    weighted_measurement,
)
from recovery_track.errors import TaxonomyError
from recovery_track.ingest import Activity, broadcast_zip_to_regions
from recovery_track.windows import DateWindow

WINDOW = DateWindow.from_strings("2017-08-01", "2017-09-30")

DEFAULT_WEIGHTS = {
    "drug_store": (ESSENTIAL, 0.05),
    "healthcare": (ESSENTIAL, 0.0001),
    "grocery": (ESSENTIAL, 0.947),
    "utilities": (ESSENTIAL, 0.002),
    "self_care": (NON_ESSENTIAL, 0.005),
    "retail": (NON_ESSENTIAL, 0.288),
    "recreation": (NON_ESSENTIAL, 0.076),
    "restaurant": (NON_ESSENTIAL, 0.631),
}


@pytest.fixture(scope="module")
def taxonomy():
    return load_taxonomy()


def test_default_taxonomy_matches_documented_weights(taxonomy):
    for code, (category, weight) in DEFAULT_WEIGHTS.items():
        entry = taxonomy[code]
        assert entry.category == category
        assert entry.weight == pytest.approx(weight, abs=1e-4)


def test_classify_examples(taxonomy):
    assert taxonomy["grocery"].category == ESSENTIAL
    assert taxonomy["grocery"].weight == pytest.approx(0.947, abs=1e-12)
    assert taxonomy["restaurant"].category == NON_ESSENTIAL
    assert taxonomy["restaurant"].weight == pytest.approx(0.631, abs=1e-12)
    with pytest.raises(TaxonomyError):
        taxonomy["florist"]


def test_weighted_measurement_unit_inputs(taxonomy):
    essential = {c: 100.0 for c, (cat, _) in DEFAULT_WEIGHTS.items() if cat == ESSENTIAL}
    assert weighted_measurement(essential, taxonomy, ESSENTIAL) == pytest.approx(99.91, abs=1e-10)
    zeros = {c: 0.0 for c in essential}
    assert weighted_measurement(zeros, taxonomy, ESSENTIAL) == 0.0


def test_weighted_measurement_identity_weight(tmp_path):
    path = write_csv(
        tmp_path, "taxonomy.csv",
        "service_type,category,weight_percent\nonly_type,essential,100.0\n",
    )
    taxonomy = load_taxonomy(path)
    assert weighted_measurement({"only_type": 42.0}, taxonomy, ESSENTIAL) == 42.0


def test_weighted_measurement_rejects_wrong_category(taxonomy):
    with pytest.raises(TaxonomyError):
        weighted_measurement({"restaurant": 1.0}, taxonomy, ESSENTIAL)


def test_weighted_measurement_linearity(taxonomy):
    rng = random.Random(7)
    codes = [c for c, (cat, _) in DEFAULT_WEIGHTS.items() if cat == NON_ESSENTIAL]
    for _ in range(200):
        values = {c: rng.uniform(0, 1000) for c in codes}
        a = rng.uniform(0, 10)
        scaled = {c: a * v for c, v in values.items()}
        lhs = weighted_measurement(scaled, taxonomy, NON_ESSENTIAL)
        rhs = a * weighted_measurement(values, taxonomy, NON_ESSENTIAL)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_renormalized_weights_sum_to_one(taxonomy):
    renorm = taxonomy.renormalized()
    for category in (ESSENTIAL, NON_ESSENTIAL):
        total = math.fsum(renorm[c].weight for c in renorm.codes(category))
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# daily series


def _activity(rows):
    """(ISO day, entity, code, value) rows as columns over WINDOW."""
    return Activity.from_rows(
        (WINDOW.index_of(date.fromisoformat(day)), entity, code, float(value))
        for day, entity, code, value in rows
    )


def _series(taxonomy, trips=(), transactions=(), crosswalk=None, **options):
    """Daily series of trip rows (per region) and transaction rows (per zip).

    The default crosswalk takes every trip region, all in zip 77001.
    """
    trips, transactions = _activity(trips), _activity(transactions)
    if crosswalk is None:
        crosswalk = {region: "77001" for region in trips.entities}
    broadcast = broadcast_zip_to_regions(transactions, crosswalk)
    return build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW, **options)


def test_single_trip_weights_into_series(taxonomy):
    series_set, unknown = _series(taxonomy, trips=[("2017-08-05", "R001", "grocery", 10)])
    values = series_set[("R001", "trip", ESSENTIAL)]
    assert values[WINDOW.index_of(date.fromisoformat("2017-08-05"))] == pytest.approx(9.47)
    assert unknown == {}


def test_all_four_series_exist_even_without_records(taxonomy):
    series_set, _ = _series(taxonomy, crosswalk={"R009": "77001"})
    assert len(series_set.keys()) == 4
    for key, values in zip(series_set.keys(), series_set.values):
        assert key[0] == "R009"
        assert values.sum() == 0.0


def test_same_day_records_sum_before_weighting(taxonomy):
    series_set, _ = _series(
        taxonomy,
        transactions=[("2017-08-05", "77001", "restaurant", 100.0), ("2017-08-05", "77001", "restaurant", 50.0)],
        crosswalk={"R001": "77001"},
    )
    value = series_set[("R001", "transaction", NON_ESSENTIAL)][4]
    assert value == pytest.approx(0.631 * 150.0, rel=1e-12)


def test_series_additivity_under_dataset_split(taxonomy):
    rng = random.Random(11)
    trips = [
        (f"2017-08-{rng.randrange(1, 28):02d}", f"R{rng.randrange(3):03d}",
         rng.choice(list(DEFAULT_WEIGHTS)), rng.randrange(0, 50))
        for _ in range(400)
    ]
    crosswalk = {f"R{i:03d}": "77001" for i in range(3)}
    whole, _ = _series(taxonomy, trips=trips, crosswalk=crosswalk)
    first, _ = _series(taxonomy, trips=trips[::2], crosswalk=crosswalk)
    second, _ = _series(taxonomy, trips=trips[1::2], crosswalk=crosswalk)
    for key in whole.keys():
        combined = first[key] + second[key]
        assert combined == pytest.approx(whole[key], rel=1e-12, abs=1e-12)


def test_series_independent_of_record_order(taxonomy):
    rng = random.Random(13)
    trips = [
        (f"2017-08-{rng.randrange(1, 28):02d}", "R001",
         rng.choice(list(DEFAULT_WEIGHTS)), rng.randrange(0, 50))
        for _ in range(300)
    ]
    reference, _ = _series(taxonomy, trips=trips)
    shuffled = trips[:]
    rng.shuffle(shuffled)
    permuted, _ = _series(taxonomy, trips=shuffled)
    for key in reference.keys():
        assert (reference[key] == permuted[key]).all()


def test_unknown_code_policies(taxonomy):
    trips = [("2017-08-05", "R001", "florist", 3)]
    with pytest.raises(TaxonomyError):
        _series(taxonomy, trips=trips)
    _, unknown = _series(taxonomy, trips=trips, unknown_policy=POLICY_SKIP)
    assert unknown == {"florist": 1}


def test_unknown_code_counts_input_rows_not_inheriting_regions(taxonomy):
    crosswalk = {f"R00{i}": "77001" for i in range(1, 5)}
    transactions = [("2017-08-05", "77001", "florist", 9.99), ("2017-08-05", "77001", "grocery", 5.0)]
    _, unknown = _series(
        taxonomy, transactions=transactions, crosswalk=crosswalk, unknown_policy=POLICY_SKIP
    )
    assert unknown == {"florist": 1}


def test_unknown_code_error_names_first_in_file_order_trips_first(taxonomy):
    crosswalk = {"R001": "77001"}
    trips = [
        ("2017-08-05", "R001", "grocery", 1),
        ("2017-08-06", "R001", "kiosk", 1),
        ("2017-08-05", "R001", "atm", 1),
    ]
    transactions = [("2017-08-05", "77001", "bakery", 1.0)]
    with pytest.raises(TaxonomyError, match="'kiosk' in trip data"):
        _series(taxonomy, trips=trips, transactions=transactions, crosswalk=crosswalk)
    transactions.append(("2017-08-04", "77001", "atm", 1.0))
    with pytest.raises(TaxonomyError, match="'bakery' in transaction data"):
        _series(taxonomy, trips=trips[:1], transactions=transactions, crosswalk=crosswalk)
