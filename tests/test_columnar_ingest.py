"""The vectorised ingest path against the row-by-row parser and weighted_measurement.

The row loops and the scalar weighted_measurement are the references: every
case must give bit-identical columns and series, the same row counts, and the
same ParseError line lists.
"""

from __future__ import annotations

import math
import random
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import write_csv
from recovery_track import ingest
from recovery_track.aggregate import (
    CATEGORIES,
    SOURCES,
    _cell_fsums,
    _exact_sums,
    build_daily_series,
    load_taxonomy,
    weighted_measurement,
)
from recovery_track.errors import ParseError
from recovery_track.windows import DateWindow

WINDOW = DateWindow.from_strings("2017-08-01", "2017-08-31")
CODES = ("grocery", "restaurant", "drug_store", "retail", "utilities", "recreation")

# public parser, header, fast-path value reader, row-loop value parser
PARSERS = {
    "trips": (ingest.parse_trips, ingest.TRIPS_HEADER, ingest._plain_counts, ingest._trip_count),
    "transactions": (
        ingest.parse_transactions, ingest.TRANSACTIONS_HEADER,
        ingest._plain_amounts, ingest._amount,
    ),
}


def _random_rows(rng, kind, n, entities=4):
    """Rows with repeated (entity, code, day) groups and some out-of-window dates."""
    rows = []
    for _ in range(n):
        day = (WINDOW.start + timedelta(days=rng.randrange(-3, 34))).isoformat()
        code = rng.choice(CODES)
        if kind == "trips":
            rows.append([day, f"R{rng.randrange(entities):03d}", code, str(rng.randrange(60))])
        else:
            amount = rng.choice(["0.10", "0.20", "0.30", "1e16", "3.3", "0", "2.5e-3", "9007199254740993"])
            if rng.random() < 0.5:
                amount = f"{rng.uniform(0, 1e4):.2f}"
            rows.append([day, f"7700{rng.randrange(entities)}", code, amount])
    return rows


def _write(tmp_path, name, kind, rows, newline="\n"):
    lines = [",".join(PARSERS[kind][1])] + [",".join(row) for row in rows]
    return write_csv(tmp_path, name, newline.join(lines) + newline)


def _assert_same_columns(a, b):
    assert a.entities == b.entities and a.codes == b.codes
    for name in ("day", "entity", "code", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _check_against_rows(path, kind, plain):
    """parse_* on `path` equals the row loop; `plain` says whether the fast path takes the file."""
    public, header, plain_values, parse_value = PARSERS[kind]
    assert (ingest._read_plain_activity(path, WINDOW, header, plain_values) is not None) == plain
    try:
        expected = ingest._parse_activity_rows(path, WINDOW, header, parse_value)
    except ParseError as reference:
        with pytest.raises(ParseError) as err:
            public(path, WINDOW)
        assert err.value.row_errors == reference.row_errors
        got = (err.value.accepted, err.value.dropped, err.value.total_rows)
        assert got == (reference.accepted, reference.dropped, reference.total_rows)
        return None
    result = public(path, WINDOW)
    assert (result.accepted, result.dropped, result.total_rows) == (
        expected.accepted, expected.dropped, expected.total_rows,
    )
    _assert_same_columns(result.records, expected.records)
    return result


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_plain_files_take_the_fast_path_and_match_rows(tmp_path, kind):
    rng = random.Random(kind)
    for trial in range(20):
        rows = _random_rows(rng, kind, rng.randrange(1, 300) if trial else 0)
        result = _check_against_rows(_write(tmp_path, f"{trial}.csv", kind, rows), kind, plain=True)
        assert result.dropped == sum(not WINDOW.contains(date.fromisoformat(r[0])) for r in rows)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_files_outside_the_plain_form_parse_to_the_same_columns(tmp_path, kind):
    rows = _random_rows(random.Random(3), kind, 200)
    reference = _check_against_rows(_write(tmp_path, "plain.csv", kind, rows), kind, plain=True)
    header = ",".join(PARSERS[kind][1])
    body = "\n".join(",".join(row) for row in rows)
    padded = [[f" {row[0]}", row[1], f"{row[2]}  ", f"\t{row[3]}"] for row in rows]
    padded_code = [[row[0], row[1], f"{row[2]} ", row[3]] for row in rows]
    quoted = [[row[0], f'"{row[1]}"', row[2], f'"{row[3]}"'] for row in rows]
    quoted_entity = [[row[0], f'"{row[1]}"', row[2], row[3]] for row in rows]
    variants = {
        "crlf.csv": (_write(tmp_path, "crlf.csv", kind, rows, newline="\r\n"), False),
        "padded.csv": (_write(tmp_path, "padded.csv", kind, padded), False),
        "padded_code.csv": (_write(tmp_path, "padded_code.csv", kind, padded_code), False),
        "quoted.csv": (_write(tmp_path, "quoted.csv", kind, quoted), False),
        "quoted_entity.csv": (_write(tmp_path, "quoted_entity.csv", kind, quoted_entity), False),
        "padded_header.csv": (
            write_csv(tmp_path, "padded_header.csv", header.replace(",", ", ") + "\n" + body + "\n"),
            False,
        ),
        "blank_line.csv": (
            write_csv(tmp_path, "blank_line.csv", header + "\n" + body.replace("\n", "\n\n", 1) + "\n"),
            False,
        ),
        "no_final_newline.csv": (write_csv(tmp_path, "no_final_newline.csv", header + "\n" + body), True),
    }
    for name, (path, plain) in variants.items():
        result = _check_against_rows(path, kind, plain)
        assert (result.accepted, result.dropped, result.total_rows) == (
            reference.accepted, reference.dropped, reference.total_rows,
        ), name
        _assert_same_columns(result.records, reference.records)


def test_trip_counts_beyond_float_precision_and_int64(tmp_path):
    counts = [
        str(2**53 + 1), str(2**53 + 3), str(2**63 + 1025), str(2**64 + 1),
        "1" + "0" * 30, "0" * 5 + "7", str(2**1023 * 3 // 2),
    ]
    rows = [["2017-08-02", "R001", "grocery", count] for count in counts]
    result = _check_against_rows(_write(tmp_path, "huge.csv", "trips", rows), "trips", plain=True)
    assert result.records.value.tolist() == [float(int(count)) for count in counts]

    rows.append(["2017-08-03", "R001", "grocery", "9" * 400])  # no float holds it
    _check_against_rows(_write(tmp_path, "overflow.csv", "trips", rows), "trips", plain=False)


@pytest.mark.parametrize(
    "kind,bad",
    [
        ("trips", [["2017-02-30", "R001", "grocery", "3"]]),
        ("trips", [["2017-08-02", "", "grocery", "3"]]),
        ("trips", [["2017-08-02", "R001", "", "3"]]),
        ("trips", [["2017-08-02", "R001", "grocery", "-3"]]),
        ("trips", [["2017-08-02", "R001", "grocery", "1.5"]]),
        ("trips", [["2017-08-02", "R001", "grocery", "+4"]]),
        ("trips", [["2017-08-02", "R001", "grocery"]]),
        ("trips", [["2017-08-02", "R001", "grocery", "3", "x"]]),
        ("trips", [["2017-08-02", "R0\r01", "grocery", "3"]]),  # the csv module ends the row at \r
        # short then long: together they split into two valid-looking rows
        ("trips", [["2017-08-02", "R001", "grocery"], ["5", "2017-08-03", "R001", "grocery", "6"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "nan"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "-inf"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "-0.50"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "12,50"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "1e400"]]),
        ("transactions", [["2017-08-02", "77001", "grocery", "\x1c5.00"]]),
        ("transactions", [["not-a-date", "77001", "grocery", "3.00"]]),
    ],
)
def test_bad_rows_keep_the_row_loop_errors_and_counts(tmp_path, kind, bad):
    rng = random.Random(str(bad))
    rows = _random_rows(rng, kind, 50)
    for position in sorted(rng.sample(range(50), 3), reverse=True):
        rows[position:position] = bad
    _check_against_rows(_write(tmp_path, "bad.csv", kind, rows), kind, plain=False)


# ---------------------------------------------------------------------------
# series


def _scalar_series(trips, transactions, crosswalk, taxonomy):
    """Record-per-row aggregation: per-type math.fsum totals, then weighted_measurement."""
    buckets = {}

    def add(region, source, day, code, value):
        key = (region, source, taxonomy[code].category)
        buckets.setdefault(key, {}).setdefault(day, {}).setdefault(code, []).append(value)

    for i in range(len(trips)):
        region = trips.entities[trips.entity[i]]
        if region in crosswalk:
            add(region, "trip", int(trips.day[i]), trips.codes[trips.code[i]], float(trips.value[i]))
    for i in range(len(transactions)):
        zip_code = transactions.entities[transactions.entity[i]]
        for region in sorted(crosswalk):
            if crosswalk[region] == zip_code:
                code = transactions.codes[transactions.code[i]]
                add(region, "transaction", int(transactions.day[i]), code, float(transactions.value[i]))

    series = {}
    for region in sorted(crosswalk):
        for source in SOURCES:
            for category in CATEGORIES:
                values = np.zeros(WINDOW.n_days)
                for day, per_code in buckets.get((region, source, category), {}).items():
                    totals = {code: math.fsum(vals) for code, vals in per_code.items()}
                    values[day] = weighted_measurement(totals, taxonomy, category)
                series[(region, source, category)] = values
    return series


def _shuffled(path, tmp_path, rng):
    lines = path.read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    rng.shuffle(body)
    return write_csv(tmp_path, "shuffled-" + path.name, "\n".join([lines[0], *body]) + "\n")


def test_series_match_the_scalar_reference_in_any_row_order(tmp_path):
    taxonomy = load_taxonomy()
    rng = random.Random(17)
    for trial in range(10):
        trips_path = _write(tmp_path, f"trips{trial}.csv", "trips", _random_rows(rng, "trips", 400))
        tx_path = _write(tmp_path, f"tx{trial}.csv", "transactions", _random_rows(rng, "transactions", 400))
        # R003 has no zip of its own rows; 77009 gets none; R004 appears in no trip row
        crosswalk = {"R000": "77000", "R001": "77000", "R002": "77001", "R003": "77009", "R004": "77002"}
        reference = None
        for trips_file, tx_file in ((trips_path, tx_path), (_shuffled(trips_path, tmp_path, rng), _shuffled(tx_path, tmp_path, rng))):
            trips = ingest.parse_trips(trips_file, WINDOW).records
            transactions = ingest.parse_transactions(tx_file, WINDOW).records
            broadcast = ingest.broadcast_zip_to_regions(transactions, crosswalk)
            got, unknown = build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW)
            assert unknown == {}
            if reference is None:
                reference = _scalar_series(trips, transactions, crosswalk, taxonomy)
            assert got.keys() == sorted(reference)
            for key, values in reference.items():
                assert got[key].tobytes() == values.tobytes(), key


def test_exact_sums_equal_fsum_bit_for_bit():
    rng = np.random.default_rng(5)
    for n_terms in (0, 1, 2, 4, 7):
        mantissas = rng.uniform(0.5, 1.0, size=(60, n_terms, 30))
        terms = np.ldexp(mantissas, rng.integers(-60, 60, size=mantissas.shape))
        terms[rng.random(terms.shape) < 0.3] *= -1.0
        terms[rng.random(terms.shape) < 0.1] = 0.0
        terms[rng.random(terms.shape) < 0.01] = -0.0
        if n_terms >= 2:
            terms[:5, 1] = -terms[:5, 0]  # exact cancellations
            terms[5:8, 0] = np.inf
        if n_terms >= 3:
            # the lost 2**-60 decides a tie: sum + errors alone rounds the wrong way
            terms[10:20, :3] = np.array([2.0**53, 1.0, 2.0**-60])[:, None]
            terms[20:30, :3] = np.array([1.0, 2.0**-60, 2.0**53])[:, None]
        with np.errstate(invalid="ignore"):
            got = _exact_sums(terms)
        for row in range(terms.shape[0]):
            for day in range(terms.shape[2]):
                want = math.fsum(terms[row, :, day].tolist())
                assert got[row, day].tobytes() == np.float64(want).tobytes(), (n_terms, row, day)


def test_cell_fsums_equal_fsum_per_group():
    rng = np.random.default_rng(8)
    cells = rng.integers(0, 50, size=300)
    values = np.ldexp(rng.uniform(0.5, 1.0, size=300), rng.integers(-40, 40, size=300))
    values[rng.random(300) < 0.1] = -0.0
    values[:3], cells[:3] = -0.0, [60, 61, 61]  # a lone -0.0, and a pair of them
    got = _cell_fsums(cells, values, 64)
    for cell in range(64):
        want = math.fsum(values[cells == cell].tolist())
        assert got[cell].tobytes() == np.float64(want).tobytes(), cell
