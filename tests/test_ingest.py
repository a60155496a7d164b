from __future__ import annotations

import math
import os
import random
import threading
from datetime import date

import pytest

from conftest import write_csv
from oracles import activity_from_rows, series_by_key, taxonomy_entries
from recovery_track import processes
from recovery_track.aggregate import build_daily_series, load_taxonomy
from recovery_track.errors import ParseError
from recovery_track.ingest import (
    broadcast_zip_to_regions,
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
    resolve_crosswalk,
)
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 12, 25))


def test_parse_trips_maps_fields(tmp_path):
    path = write_csv(
        tmp_path, "trips.csv",
        "date,origin_region,service_type,trip_count\n"
        "2017-08-15,R001,grocery,12\n",
    )
    result = parse_trips(path, WINDOW)
    columns = result.records
    assert WINDOW.date_at(int(columns.day[0])).isoformat() == "2017-08-15"
    pair = columns.pair[0]
    assert columns.entities[columns.pair_entity[pair]] == "R001"
    assert columns.codes[columns.pair_code[pair]] == "grocery"
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
    assert len(result.records.value) == 2
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
    overlaps = {("R001", "77005"): 0.7, ("R001", "77030"): 0.3}
    assert resolve_crosswalk(overlaps) == {"R001": "77005"}


def test_crosswalk_single_entry():
    assert resolve_crosswalk({("R002", "77005"): 1.0}) == {"R002": "77005"}


def test_crosswalk_tie_breaks_to_smaller_zip():
    overlaps = {("R003", "77030"): 0.5, ("R003", "77005"): 0.5}
    assert resolve_crosswalk(overlaps) == {"R003": "77005"}


def test_crosswalk_invariant_under_permutation():
    # the same map, built in 20 insertion orders
    rng = random.Random(99)
    overlaps = []
    for r in range(40):
        zips = rng.sample(range(77001, 77060), k=rng.randrange(1, 5))
        for z in zips:
            overlaps.append(((f"R{r:03d}", str(z)), rng.choice([0.1, 0.25, 0.5, 0.5])))
    reference = resolve_crosswalk(dict(overlaps))
    for _ in range(20):
        rng.shuffle(overlaps)
        assert resolve_crosswalk(dict(overlaps)) == reference


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


# Each small input as its parser reads it, in a file of eight lines: a quoted
# line break (in a field that a 16-byte block ends inside), CRLF and LF line
# ends, a lone CR between two rows and blank lines; four rows in all.
SMALL_FILES = {
    "overlaps": (
        lambda path: parse_overlaps(path).records,
        'region,zip,overlap_area\r\nR001,"77\n001",0.5\r\n\r\nR002,77001,0.7\rR003,77002,0.9\n\nR004,77002,0.8\n',
    ),
    "adjacency": (
        lambda path: parse_adjacency(path).records,
        'region_a,region_b\r\nR001,"R\n002"\r\n\nR002,R003\rR003,R004\n\r\n"R004",R005\r\n',
    ),
    "attributes": (
        lambda path: parse_attributes(path).records,
        "region,flood_fraction,minority_fraction,per_capita_income\r\n"
        '"R\n001",0.1,0.2,50000\r\n\r\nR002,0.4,0.5,30000\rR003,0.2,0.3,45000\n\nR004,0.8,0.7,20000\n',
    ),
    "taxonomy": (
        lambda path: taxonomy_entries(load_taxonomy(path)),
        'service_type,category,weight_percent\r\n"gro\ncery",essential,94.7\r\n\r\n'
        "drug_store,essential,5.3\rrestaurant,non-essential,60\n\nretail,non-essential,40\n",
    ),
}


def _read_through_pipe(read, path, fifo):
    """read(fifo) while a thread writes the bytes of `path` into the named pipe `fifo`."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("name", sorted(SMALL_FILES))
def test_small_inputs_read_the_same_at_any_block_size_and_from_a_pipe(tmp_path, monkeypatch, name):
    read, text = SMALL_FILES[name]
    clean, bad = tmp_path / f"{name}.csv", tmp_path / f"bad-{name}.csv"
    clean.write_bytes(text.encode())
    # lines 9 to 12: one field, one field over two quoted lines, a line that is not UTF-8
    bad.write_bytes(text.encode() + b'one\r\n"two\nlines"\r\n\xff\n')
    outcomes = []
    for block_bytes in (16, 1 << 20):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        with pytest.raises(ParseError) as caught:
            read(bad)
        error = caught.value
        outcomes.append((read(clean), str(error), error.row_errors, error.accepted, error.total_rows))
    assert outcomes[0] == outcomes[1]
    width = text.split("\r\n", 1)[0].count(",") + 1
    got_one = f"expected {width} fields, got 1"
    assert outcomes[0][2:] == ([(9, got_one), (10, got_one), (12, "not UTF-8 text")], 4, 7)
    if hasattr(os, "mkfifo"):  # 16-byte blocks: the quoted line break is past the first block
        monkeypatch.setattr(processes, "BLOCK_BYTES", 16)
        assert _read_through_pipe(read, clean, tmp_path / f"{name}.fifo") == outcomes[0][0]


TRIPS_HEADER_NOT_UTF8 = b"date\xff,origin_region,service_type,trip_count\n"


@pytest.mark.parametrize(
    "parse, data",
    [
        (parse_overlaps, b"region\xff,zip,overlap_area\nR001,77001,0.5\n"),
        (lambda path: parse_trips(path, WINDOW), TRIPS_HEADER_NOT_UTF8 + b"2017-08-01,R001,grocery,1\n"),
        (lambda path: parse_trips(path, WINDOW), TRIPS_HEADER_NOT_UTF8 + b'2017-08-01,"R001",grocery,1\n'),
    ],
    ids=["overlaps", "trips-plain", "trips-quoted"],
)
def test_a_header_that_is_not_utf8_refuses_the_file(tmp_path, parse, data):
    path = tmp_path / "bad-header.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        parse(path)
    assert caught.value.row_errors == [(1, "not UTF-8 text")]


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
    series_set, _, _ = build_daily_series(no_trips, transactions, broadcast, load_taxonomy(), WINDOW)
    series = series_by_key(series_set)
    return {r: series[(r, "transaction", "essential")] for r in broadcast.regions}


def test_broadcast_copies_full_value_to_each_region():
    transactions = _tx([("2017-08-15", "77005", 100.0)])
    result = broadcast_zip_to_regions(transactions, {"R001": "77005", "R002": "77005"})
    assert len(result.records) == 2
    assert result.regions == ["R001", "R002"]
    assert result.records.tolist() == [0, 0]
    grocery = taxonomy_entries(load_taxonomy())["grocery"][1]
    for values in _tx_series(transactions, result).values():
        assert values[14] == grocery * 100.0


def test_broadcast_counts_unmatched_zip():
    transactions = _tx([("2017-08-15", "99999", 5.0)])
    result = broadcast_zip_to_regions(transactions, {"R001": "77005"})
    assert result.records.tolist() == [-1]
    _, _, unmatched = build_daily_series(activity_from_rows([]), transactions, result, load_taxonomy(), WINDOW)
    assert unmatched["transaction"] == {"99999": 1}


def test_broadcast_identity_single_pair():
    transactions = _tx([("2017-08-15", "77005", 7.5)])
    result = broadcast_zip_to_regions(transactions, {"R001": "77005"})
    assert len(result.records) == 1
    assert result.regions == ["R001"]
    assert _tx_series(transactions, result)["R001"][14] == taxonomy_entries(load_taxonomy())["grocery"][1] * 7.5


def test_broadcast_preserves_per_zip_daily_values():
    rng = random.Random(5)
    rows = []
    for day in range(1, 20):
        for zip_code in ("77001", "77002", "77003"):
            for _ in ("grocery", "retail"):
                rows.append((f"2017-08-{day:02d}", zip_code, rng.uniform(0, 500)))
    crosswalk = {f"R{i:03d}": rng.choice(["77001", "77002", "77003"]) for i in range(12)}
    series = _tx_series(_tx(rows), broadcast_zip_to_regions(_tx(rows), crosswalk))
    grocery = taxonomy_entries(load_taxonomy())["grocery"][1]
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
    assert records["R001"] == (0.25, 0.4, 35000.0)
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


# ---------------------------------------------------------------------------
# every refusal of the four small readers, exact

SMALL_READERS = {
    "overlaps": ("region,zip,overlap_area\n", parse_overlaps),
    "adjacency": ("region_a,region_b\n", parse_adjacency),
    "attributes": ("region,flood_fraction,minority_fraction,per_capita_income\n", parse_attributes),
    "taxonomy": ("service_type,category,weight_percent\n", load_taxonomy),
}

BAD_CATEGORY = "category must be one of ('essential', 'non-essential'), got 'staple'"

# (file, data rows after the header, the one row error they give); a row that
# fails two checks is refused by the first in the reader's order
SMALL_REFUSALS = [
    ("overlaps", ",77005,0.5", (2, "empty region")),
    ("overlaps", '"R,1",77005,0.5', (2, "region 'R,1' holds a comma or line break, which no artifact can carry")),
    ("overlaps", "R001, ,0.5", (2, "empty zip")),
    ("overlaps", "R001,77005,zero", (2, "overlap_area 'zero' is not a number")),
    ("overlaps", "R001,77005,1e400", (2, "overlap_area '1e400' is not a finite number")),
    ("overlaps", "R001,77005,inf", (2, "overlap_area 'inf' is not a finite number")),
    ("overlaps", "R001,77005,nan", (2, "overlap_area 'nan' is not a finite number")),
    ("overlaps", "R001,77005,-inf", (2, "overlap_area '-inf' is not a finite number")),
    ("overlaps", "R001,77005,0", (2, "overlap_area must be positive, got 0")),
    ("overlaps", "R001,77005,-0.5", (2, "overlap_area must be positive, got -0.5")),
    ("overlaps", "R001,77005,0.5\nR001,77005,0.4", (3, "duplicate (region, zip) pair (R001, 77005)")),
    ("overlaps", ",,zero", (2, "empty region")),
    ("overlaps", "R001,77005,0.5\nR001,77005,0", (3, "overlap_area must be positive, got 0")),
    ("adjacency", "R001,", (2, "empty region identifier")),
    ("adjacency", " ,R001", (2, "empty region identifier")),
    ("adjacency", "R001,R001", (2, "self-loop on region R001")),
    ("attributes", ",0.5,0.5,30000", (2, "empty region")),
    ("attributes", "R001,0.5,0.5,30000\nR001,0.2,0.2,40000", (3, "duplicate region R001")),
    ("attributes", "R001,x,0.5,30000", (2, "flood_fraction 'x' is not a number")),
    ("attributes", "R001,0.5,x,30000", (2, "minority_fraction 'x' is not a number")),
    ("attributes", "R001,0.5,0.5,", (2, "per_capita_income '' is not a number")),
    ("attributes", "R001,1.5,0.5,30000", (2, "flood_fraction 1.5 outside [0, 1]")),
    ("attributes", "R001,nan,0.5,30000", (2, "flood_fraction nan outside [0, 1]")),
    ("attributes", "R001,0.5,-0.1,30000", (2, "minority_fraction -0.1 outside [0, 1]")),
    ("attributes", "R001,0.5,0.5,-1", (2, "per_capita_income -1 must be a finite number >= 0")),
    ("attributes", "R001,2,x,-1", (2, "minority_fraction 'x' is not a number")),
    ("attributes", "R001,2,2,-1", (2, "flood_fraction 2 outside [0, 1]")),
    ("attributes", "R001,0.5,0.5,1\nR001,x,0.5,1", (3, "duplicate region R001")),
    ("taxonomy", ",essential,5", (2, "empty service_type")),
    ("taxonomy", "grocery,staple,5", (2, BAD_CATEGORY)),
    ("taxonomy", "grocery,essential,abc", (2, "weight_percent 'abc' is not a number")),
    ("taxonomy", "grocery,essential,nan", (2, "weight_percent 'nan' is not a finite number")),
    ("taxonomy", "grocery,essential,1e400", (2, "weight_percent '1e400' is not a finite number")),
    ("taxonomy", "grocery,essential,-inf", (2, "weight_percent '-inf' is not a finite number")),
    ("taxonomy", "grocery,essential,-5", (2, "weight_percent must be nonnegative, got -5")),
    ("taxonomy", "grocery,essential,5\ngrocery,essential,6", (3, "duplicate service_type 'grocery'")),
    ("taxonomy", ",staple,abc", (2, "empty service_type")),
    ("taxonomy", "grocery,essential,5\ngrocery,staple,6", (3, BAD_CATEGORY)),
]


@pytest.mark.parametrize("name,rows,error", SMALL_REFUSALS)
def test_small_file_refusals_are_exact(tmp_path, name, rows, error):
    header, read = SMALL_READERS[name]
    path = write_csv(tmp_path, f"{name}.csv", header + rows + "\n")
    with pytest.raises(ParseError) as caught:
        read(path)
    refused = caught.value
    assert refused.row_errors == [error]
    assert (refused.accepted, refused.dropped, refused.total_rows) == (rows.count("\n"), 0, rows.count("\n") + 1)
