from __future__ import annotations

import math
import random
from datetime import date

import numpy as np
import pytest

from conftest import write_csv
from oracles import activity_from_rows, series_by_key, taxonomy_entries
from recovery_track.aggregate import (
    ESSENTIAL,
    NON_ESSENTIAL,
    POLICY_SKIP,
    build_daily_series,
    load_taxonomy,
)
from recovery_track.errors import ParseError, TaxonomyError
from recovery_track.ingest import broadcast_zip_to_regions
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 9, 30))

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
    entries = taxonomy_entries(taxonomy)
    for code, (category, weight) in DEFAULT_WEIGHTS.items():
        entry_category, entry_weight = entries[code]
        assert entry_category == category
        assert entry_weight == pytest.approx(weight, abs=1e-4)


def test_classify_examples(taxonomy):
    entries = taxonomy_entries(taxonomy)
    assert entries["grocery"][0] == ESSENTIAL
    assert entries["grocery"][1] == pytest.approx(0.947, abs=1e-12)
    assert entries["restaurant"][0] == NON_ESSENTIAL
    assert entries["restaurant"][1] == pytest.approx(0.631, abs=1e-12)
    assert "florist" not in taxonomy.codes


# the bundled taxonomy.csv: (code, category, weight_percent) in file order
BUNDLED_ROWS = [
    ("drug_store", ESSENTIAL, 5.0),
    ("healthcare", ESSENTIAL, 0.01),
    ("grocery", ESSENTIAL, 94.7),
    ("utilities", ESSENTIAL, 0.2),
    ("self_care", NON_ESSENTIAL, 0.5),
    ("retail", NON_ESSENTIAL, 28.8),
    ("recreation", NON_ESSENTIAL, 7.6),
    ("restaurant", NON_ESSENTIAL, 63.1),
]


def _taxonomy_file(tmp_path, rows, name="taxonomy.csv"):
    lines = [f"{code},{category},{percent}\n" for code, category, percent in rows]
    return write_csv(tmp_path, name, "service_type,category,weight_percent\n" + "".join(lines))


def _assert_bundled_layout(taxonomy):
    assert taxonomy.codes == (
        "drug_store", "grocery", "healthcare", "utilities",
        "recreation", "restaurant", "retail", "self_care",
    )
    assert taxonomy.rows == (slice(0, 4), slice(4, 8))
    assert taxonomy.weights.dtype == np.float64
    percents = {code: percent for code, _, percent in BUNDLED_ROWS}
    assert taxonomy.weights.tolist() == [percents[code] / 100.0 for code in taxonomy.codes]


def test_taxonomy_codes_weights_and_rows_of_the_bundled_file(taxonomy):
    _assert_bundled_layout(taxonomy)


def test_taxonomy_layout_does_not_depend_on_row_order(tmp_path):
    rng = random.Random(3)
    for trial in range(5):
        rows = list(BUNDLED_ROWS)
        rng.shuffle(rows)
        _assert_bundled_layout(load_taxonomy(_taxonomy_file(tmp_path, rows, f"shuffled{trial}.csv")))


@pytest.mark.parametrize("renormalize", [False, True])
def test_a_category_with_no_codes_takes_an_empty_slice(tmp_path, renormalize):
    path = _taxonomy_file(tmp_path, [("retail", NON_ESSENTIAL, 40.0), ("grocery", NON_ESSENTIAL, 60.0)])
    taxonomy = load_taxonomy(path, renormalize=renormalize)
    assert taxonomy.codes == ("grocery", "retail")
    assert taxonomy.rows == (slice(0, 0), slice(0, 2))
    assert taxonomy.weights.tolist() == ([0.6, 0.4] if renormalize else [60.0 / 100.0, 40.0 / 100.0])


def test_renormalize_refuses_a_category_whose_weights_sum_to_zero(tmp_path):
    path = _taxonomy_file(tmp_path, [
        ("grocery", ESSENTIAL, 50.0), ("retail", NON_ESSENTIAL, 0.0), ("recreation", NON_ESSENTIAL, 0),
    ])
    assert load_taxonomy(path).weights.tolist() == [0.5, 0.0, 0.0]
    with pytest.raises(TaxonomyError, match="^category non-essential has zero total weight$"):
        load_taxonomy(path, renormalize=True)


def _measurement(values, taxonomy, category):
    """One day's series value of a region with one trip row per type of `values`."""
    trips = [("2017-08-05", "R001", code, value) for code, value in values.items()]
    series_set, _ = _series(taxonomy, trips=trips)
    return series_by_key(series_set)[("R001", "trip", category)][WINDOW.index_of(date(2017, 8, 5))]


def test_weighted_measurement_unit_inputs(taxonomy):
    essential = {c: 100.0 for c, (cat, _) in DEFAULT_WEIGHTS.items() if cat == ESSENTIAL}
    assert _measurement(essential, taxonomy, ESSENTIAL) == pytest.approx(99.91, abs=1e-10)
    zeros = {c: 0.0 for c in essential}
    assert _measurement(zeros, taxonomy, ESSENTIAL) == 0.0


def test_weighted_measurement_identity_weight(tmp_path):
    path = write_csv(
        tmp_path, "taxonomy.csv",
        "service_type,category,weight_percent\nonly_type,essential,100.0\n",
    )
    taxonomy = load_taxonomy(path)
    assert _measurement({"only_type": 42.0}, taxonomy, ESSENTIAL) == 42.0


def test_taxonomy_file_errors_read_like_the_other_inputs(tmp_path):
    bad_header = write_csv(tmp_path, "header.csv", "code,category,weight\ngrocery,essential,1\n")
    with pytest.raises(ParseError) as err:
        load_taxonomy(bad_header)
    assert err.value.row_errors == [(
        1,
        "header ['code', 'category', 'weight'] does not match expected "
        "['service_type', 'category', 'weight_percent']",
    )]
    rows = write_csv(
        tmp_path, "rows.csv",
        "service_type,category,weight_percent\n\ngrocery,essential\nretail,non-essential,x\n",
    )
    with pytest.raises(ParseError) as err:
        load_taxonomy(rows)
    assert err.value.row_errors == [
        (3, "expected 3 fields, got 2"),
        (4, "weight_percent 'x' is not a number"),
    ]
    assert err.value.total_rows == 2


def test_weighted_measurement_linearity(taxonomy):
    rng = random.Random(7)
    codes = [c for c, (cat, _) in DEFAULT_WEIGHTS.items() if cat == NON_ESSENTIAL]
    for _ in range(200):
        values = {c: rng.uniform(0, 1000) for c in codes}
        a = rng.uniform(0, 10)
        scaled = {c: a * v for c, v in values.items()}
        lhs = _measurement(scaled, taxonomy, NON_ESSENTIAL)
        rhs = a * _measurement(values, taxonomy, NON_ESSENTIAL)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_renormalized_weights_sum_to_one():
    renorm = taxonomy_entries(load_taxonomy(renormalize=True))
    for category in (ESSENTIAL, NON_ESSENTIAL):
        total = math.fsum(weight for of, weight in renorm.values() if of == category)
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# daily series


def _activity(rows):
    """(ISO day, entity, code, value) rows as columns over WINDOW."""
    return activity_from_rows(
        (WINDOW.index_of(date.fromisoformat(day)), entity, code, float(value))
        for day, entity, code, value in rows
    )


def _series(taxonomy, trips=(), transactions=(), crosswalk=None, **options):
    """(SeriesSet, unknown code counts) of trip rows (per region) and transaction rows (per zip).

    The default crosswalk takes every trip region, all in zip 77001.
    """
    trips, transactions = _activity(trips), _activity(transactions)
    if crosswalk is None:
        crosswalk = {region: "77001" for region in trips.entities}
    broadcast = broadcast_zip_to_regions(transactions, crosswalk)
    series_set, unknown, _ = build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW, **options)
    return series_set, unknown


def test_single_trip_weights_into_series(taxonomy):
    series_set, unknown = _series(taxonomy, trips=[("2017-08-05", "R001", "grocery", 10)])
    values = series_by_key(series_set)[("R001", "trip", ESSENTIAL)]
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
    value = series_by_key(series_set)[("R001", "transaction", NON_ESSENTIAL)][4]
    assert value == pytest.approx(0.631 * 150.0, rel=1e-12)


def test_series_additivity_under_dataset_split(taxonomy):
    rng = random.Random(11)
    trips = [
        (f"2017-08-{rng.randrange(1, 28):02d}", f"R{rng.randrange(3):03d}",
         rng.choice(list(DEFAULT_WEIGHTS)), rng.randrange(0, 50))
        for _ in range(400)
    ]
    crosswalk = {f"R{i:03d}": "77001" for i in range(3)}
    whole, first, second = (
        series_by_key(_series(taxonomy, trips=part, crosswalk=crosswalk)[0])
        for part in (trips, trips[::2], trips[1::2])
    )
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
    reference = series_by_key(_series(taxonomy, trips=trips)[0])
    shuffled = trips[:]
    rng.shuffle(shuffled)
    permuted = series_by_key(_series(taxonomy, trips=shuffled)[0])
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


def test_rows_no_region_takes_are_counted_per_entity_whatever_their_code(taxonomy):
    # R002 and Zip 77002 resolve no region: their unknown codes neither fail nor count as unknown
    trips = _activity([
        ("2017-08-05", "R001", "grocery", 1),
        ("2017-08-05", "R002", "florist", 2),
        ("2017-08-06", "R002", "grocery", 3),
        ("2017-08-06", "R003", "grocery", 4),
    ])
    transactions = _activity([("2017-08-05", "77001", "grocery", 1.0), ("2017-08-05", "77002", "florist", 1.0)])
    broadcast = broadcast_zip_to_regions(transactions, {"R001": "77001", "R003": "77001"})
    _, unknown, unmatched = build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW)
    assert unknown == {}
    assert unmatched == {"trip": {"R002": 2}, "transaction": {"77002": 1}}
    broadcast = broadcast_zip_to_regions(transactions, {"R001": "77001", "R002": "77002", "R003": "77001"})
    with pytest.raises(TaxonomyError, match="'florist' in trip data"):
        build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW)
