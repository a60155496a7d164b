from __future__ import annotations

import math
import random
from datetime import date

import pytest

from conftest import write_csv
from oracles import activity_from_rows
from recovery_track.aggregate import build_daily_series, load_taxonomy
from recovery_track.errors import ParseError
from recovery_track.ingest import (
    OverlapEntry,
    broadcast_zip_to_regions,
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
    resolve_crosswalk,
)
from recovery_track.windows import DateWindow

WINDOW = DateWindow.from_strings("2017-08-01", "2017-12-25")


def test_parse_trips_maps_fields(tmp_path):
    path = write_csv(
        tmp_path, "trips.csv",
        "date,origin_region,service_type,trip_count\n"
        "2017-08-15,R001,grocery,12\n",
    )
    result = parse_trips(path, WINDOW)
    columns = result.records
    assert WINDOW.date_at(int(columns.day[0])).isoformat() == "2017-08-15"
    assert columns.entities[columns.entity[0]] == "R001"
    assert columns.codes[columns.code[0]] == "grocery"
    assert columns.value[0] == 12.0
    assert result.accepted == 1 and result.dropped == 0


def test_parse_trips_negative_count_names_line(tmp_path):
    path = write_csv(
        tmp_path, "trips.csv",
        "date,origin_region,service_type,trip_count\n"
        "2017-08-15,R001,grocery,12\n"
        "2017-08-16,R001,grocery,-3\n",
    )
    with pytest.raises(ParseError) as err:
        parse_trips(path, WINDOW)
    assert err.value.row_errors[0][0] == 3
    assert "line 3" in str(err.value)


def test_parse_trips_window_filter_counts(tmp_path):
    rows = ["date,origin_region,service_type,trip_count"]
    rows += [f"2017-08-{10 + i:02d},R001,grocery,{i}" for i in range(8)]
    rows += ["2017-07-30,R001,grocery,1", "2018-01-02,R001,grocery,1"]
    path = write_csv(tmp_path, "trips.csv", "\n".join(rows) + "\n")
    result = parse_trips(path, WINDOW)
    assert result.accepted == 8
    assert result.dropped == 2
    assert result.total_rows == 10


def test_parse_trips_header_mismatch(tmp_path):
    path = write_csv(tmp_path, "trips.csv", "date,region,type,count\n2017-08-15,R001,grocery,1\n")
    with pytest.raises(ParseError):
        parse_trips(path, WINDOW)


def test_parse_transactions_zero_amount_is_valid(tmp_path):
    path = write_csv(
        tmp_path, "transactions.csv",
        "date,zip,merchant_type,amount\n2017-08-15,77005,restaurant,0.00\n",
    )
    result = parse_transactions(path, WINDOW)
    assert result.records.value[0] == 0.0


def test_parse_transactions_keeps_duplicates(tmp_path):
    path = write_csv(
        tmp_path, "transactions.csv",
        "date,zip,merchant_type,amount\n"
        "2017-08-15,77005,restaurant,230.50\n"
        "2017-08-15,77005,restaurant,19.50\n",
    )
    result = parse_transactions(path, WINDOW)
    assert len(result.records) == 2
    assert result.records.value.sum() == 250.0


def test_parser_reconciliation_on_random_files(tmp_path):
    rng = random.Random(1234)
    for trial in range(50):
        rows = ["date,origin_region,service_type,trip_count"]
        expect_ok = expect_drop = expect_err = 0
        for _ in range(rng.randrange(1, 40)):
            shape = rng.random()
            if shape < 0.5:
                rows.append("2017-09-01,R001,grocery,5")
                expect_ok += 1
            elif shape < 0.7:
                rows.append("2016-01-01,R001,grocery,5")
                expect_drop += 1
            elif shape < 0.8:
                rows.append("2017-09-01,R001,grocery,-1")
                expect_err += 1
            elif shape < 0.9:
                rows.append("not-a-date,R001,grocery,5")
                expect_err += 1
            else:
                rows.append("2017-09-01,,grocery,5")
                expect_err += 1
        path = write_csv(tmp_path, f"trial{trial}.csv", "\n".join(rows) + "\n")
        total = expect_ok + expect_drop + expect_err
        if expect_err:
            with pytest.raises(ParseError) as err:
                parse_trips(path, WINDOW)
            exc = err.value
            assert exc.accepted + exc.dropped + exc.errored == total
            assert exc.accepted == expect_ok and exc.dropped == expect_drop
        else:
            result = parse_trips(path, WINDOW)
            assert result.accepted + result.dropped == total


# ---------------------------------------------------------------------------
# crosswalk


def test_crosswalk_prefers_largest_area():
    overlaps = [OverlapEntry("R001", "77005", 0.7), OverlapEntry("R001", "77030", 0.3)]
    assert resolve_crosswalk(overlaps) == {"R001": "77005"}


def test_crosswalk_single_entry():
    assert resolve_crosswalk([OverlapEntry("R002", "77005", 1.0)]) == {"R002": "77005"}


def test_crosswalk_tie_breaks_to_smaller_zip():
    overlaps = [OverlapEntry("R003", "77030", 0.5), OverlapEntry("R003", "77005", 0.5)]
    assert resolve_crosswalk(overlaps) == {"R003": "77005"}


def test_crosswalk_invariant_under_permutation():
    rng = random.Random(99)
    overlaps = []
    for r in range(40):
        zips = rng.sample(range(77001, 77060), k=rng.randrange(1, 5))
        for z in zips:
            overlaps.append(OverlapEntry(f"R{r:03d}", str(z), rng.choice([0.1, 0.25, 0.5, 0.5])))
    reference = resolve_crosswalk(overlaps)
    for _ in range(20):
        rng.shuffle(overlaps)
        assert resolve_crosswalk(overlaps) == reference


def test_overlaps_rejects_duplicates_and_nonpositive_area(tmp_path):
    path = write_csv(
        tmp_path, "overlaps.csv",
        "region,zip,overlap_area\nR001,77005,0.5\nR001,77005,0.4\n",
    )
    with pytest.raises(ParseError):
        parse_overlaps(path)
    path = write_csv(tmp_path, "overlaps2.csv", "region,zip,overlap_area\nR001,77005,0\n")
    with pytest.raises(ParseError):
        parse_overlaps(path)


@pytest.mark.parametrize("region", ["R,0001", "R\n0001", "R\r0001"])
def test_overlaps_refuses_a_region_no_artifact_can_carry(tmp_path, region):
    # the region is the key of every artifact, whose lines are split on commas and newlines
    path = tmp_path / "overlaps.csv"
    path.write_bytes(f'region,zip,overlap_area\nR001,77005,0.5\n"{region}",77005,0.4\n'.encode())
    with pytest.raises(ParseError) as caught:
        parse_overlaps(path)
    assert caught.value.row_errors == [
        (3, f"region {region!r} holds a comma or line break, which no artifact can carry")
    ]


def test_a_row_is_numbered_by_the_line_it_starts_on(tmp_path):
    # the quoted Zip takes lines 2 and 3, so the bad area is on line 4
    path = write_csv(tmp_path, "overlaps.csv", 'region,zip,overlap_area\nR001,"77\n005",0.5\nR002,77005,zero\n')
    with pytest.raises(ParseError) as caught:
        parse_overlaps(path)
    assert caught.value.row_errors == [(4, "overlap_area 'zero' is not a number")]


# ---------------------------------------------------------------------------
# broadcast


def _tx(rows):
    """(ISO day, zip, amount) grocery rows as transaction columns."""
    return activity_from_rows(
        (WINDOW.index_of(date.fromisoformat(day)), zip_code, "grocery", amount)
        for day, zip_code, amount in rows
    )


def _tx_series(transactions, broadcast):
    no_trips = activity_from_rows([])
    series_set, _ = build_daily_series(no_trips, transactions, broadcast, load_taxonomy(), WINDOW)
    return {r: series_set[(r, "transaction", "essential")] for r in series_set.regions}


def test_broadcast_copies_full_value_to_each_region():
    transactions = _tx([("2017-08-15", "77005", 100.0)])
    result = broadcast_zip_to_regions(transactions, {"R001": "77005", "R002": "77005"})
    assert len(result.records) == 2
    assert result.regions == ["R001", "R002"]
    assert result.records.tolist() == [0, 0]
    grocery = load_taxonomy()["grocery"].weight
    for values in _tx_series(transactions, result).values():
        assert values[14] == grocery * 100.0


def test_broadcast_counts_unmatched_zip():
    result = broadcast_zip_to_regions(_tx([("2017-08-15", "99999", 5.0)]), {"R001": "77005"})
    assert result.records.tolist() == [-1]
    assert result.unmatched_zip_rows == {"99999": 1}


def test_broadcast_identity_single_pair():
    transactions = _tx([("2017-08-15", "77005", 7.5)])
    result = broadcast_zip_to_regions(transactions, {"R001": "77005"})
    assert len(result.records) == 1
    assert result.regions == ["R001"]
    assert _tx_series(transactions, result)["R001"][14] == load_taxonomy()["grocery"].weight * 7.5


def test_broadcast_preserves_per_zip_daily_values():
    rng = random.Random(5)
    rows = []
    for day in range(1, 20):
        for zip_code in ("77001", "77002", "77003"):
            for _ in ("grocery", "retail"):
                rows.append((f"2017-08-{day:02d}", zip_code, rng.uniform(0, 500)))
    crosswalk = {f"R{i:03d}": rng.choice(["77001", "77002", "77003"]) for i in range(12)}
    series = _tx_series(_tx(rows), broadcast_zip_to_regions(_tx(rows), crosswalk))
    grocery = load_taxonomy()["grocery"].weight
    by_zip_day = {}
    for day, zip_code, amount in rows:
        by_zip_day.setdefault((zip_code, day), []).append(amount)
    for region, zip_code in crosswalk.items():
        for (z, day), amounts in by_zip_day.items():
            if z == zip_code:
                index = WINDOW.index_of(date.fromisoformat(day))
                assert series[region][index] == grocery * math.fsum(amounts)


# ---------------------------------------------------------------------------
# adjacency and attributes


def test_adjacency_symmetric_and_rejects_self_loops(tmp_path):
    path = write_csv(tmp_path, "adjacency.csv", "region_a,region_b\nR001,R002\nR002,R003\n")
    neighbors = parse_adjacency(path).records
    assert neighbors["R001"] == {"R002"}
    assert neighbors["R002"] == {"R001", "R003"}
    bad = write_csv(tmp_path, "bad.csv", "region_a,region_b\nR001,R001\n")
    with pytest.raises(ParseError):
        parse_adjacency(bad)


def test_attributes_validation(tmp_path):
    path = write_csv(
        tmp_path, "attributes.csv",
        "region,flood_fraction,minority_fraction,per_capita_income\n"
        "R001,0.25,0.4,35000\n",
    )
    records = parse_attributes(path).records
    assert records["R001"].flood_fraction == 0.25
    bad = write_csv(
        tmp_path, "bad_attr.csv",
        "region,flood_fraction,minority_fraction,per_capita_income\nR001,1.5,0.4,35000\n",
    )
    with pytest.raises(ParseError):
        parse_attributes(bad)


@pytest.mark.parametrize("income", ["inf", "nan", "-1"])
def test_attributes_refuse_an_income_that_is_not_a_finite_number_at_least_0(tmp_path, income):
    path = write_csv(
        tmp_path, "attributes.csv",
        "region,flood_fraction,minority_fraction,per_capita_income\n"
        f"R001,0.25,0.4,35000\nR002,0.5,0.5,{income}\nR003,0.5,0.5,0\n",
    )
    with pytest.raises(ParseError) as err:
        parse_attributes(path)
    assert err.value.row_errors == [(3, f"per_capita_income {income} must be a finite number >= 0")]
    assert err.value.accepted == 2
