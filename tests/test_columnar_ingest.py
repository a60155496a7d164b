"""The activity reader against the row-by-row oracle, and the series against weighted_measurement.

oracles.parse_activity_rows and oracles.weighted_measurement are the
references: every case must give bit-identical columns and series, the same
row counts, and the same ParseError line lists, whatever the block size the
reader tokenises with. A file read in two processes must give what the same
file read in one gives, bit for bit, including the ParseError text.
"""

from __future__ import annotations

import errno
import io
import math
import os
import random
import signal
import threading
import time
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

import corpus
from conftest import write_csv
from oracles import amount, parse_activity_rows, trip_count, weighted_measurement
from recovery_track import ingest, processes
from recovery_track.aggregate import (
    CATEGORIES,
    SOURCES,
    _cell_fsums,
    _exact_sums,
    build_daily_series,
    load_taxonomy,
)
from recovery_track.config import load_config
from recovery_track.errors import ParseError
from recovery_track.pipeline import validate
from recovery_track.synth import ScenarioSpec, generate
from recovery_track.windows import DateWindow

WINDOW = DateWindow.from_strings("2017-08-01", "2017-08-31")
CODES = ("grocery", "restaurant", "drug_store", "retail", "utilities", "recreation")

# public parser, header, oracle value parser
PARSERS = {
    "trips": (ingest.parse_trips, ingest.TRIPS_HEADER, trip_count),
    "transactions": (ingest.parse_transactions, ingest.TRANSACTIONS_HEADER, amount),
}

# value texts at the edges of what int() and float() take: signs, underscores,
# padding, non-ASCII digits, int()'s digit limit, and refused ones
VALUE_QUIRKS = {
    "trips": [
        "+5", "1_000", "-0", "007", " 7", "7\t", "\u0663", "-3", "1.5", " 1.5", "", "1__0", "_1",
        "9" * 400, "0" * 5000 + "7",
    ],
    "transactions": [
        "+5", "1_000.5", "-0", "-0.0", " 2.50", "\x1c5.00", "nan", " nan", "-inf", "-0.50", "1e400",
        "12,50", "", "0x10", "\u0663.5",
    ],
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


def _check_against_rows(path, kind):
    """parse_* on `path` equals the row-by-row oracle; the result, or None on a ParseError."""
    public, header, parse_value = PARSERS[kind]
    try:
        expected = parse_activity_rows(path, WINDOW, header, parse_value)
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
def test_plain_files_match_the_row_loop(tmp_path, kind):
    rng = random.Random(kind)
    for trial in range(20):
        rows = _random_rows(rng, kind, rng.randrange(1, 300) if trial else 0)
        result = _check_against_rows(_write(tmp_path, f"{trial}.csv", kind, rows), kind)
        assert result.dropped == sum(not WINDOW.contains(date.fromisoformat(r[0])) for r in rows)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_rows_at_the_ends_of_the_calendar_are_dropped(tmp_path, kind):
    # day offsets are int32: the first and last ISO dates must not wrap into the window
    rows = _random_rows(random.Random(11), kind, 40)
    edges = [[day, *row[1:]] for row in rows[:6] for day in ("0001-01-01", "9999-12-31")]
    result = _check_against_rows(_write(tmp_path, "edges.csv", kind, rows + edges), kind)
    in_window = sum(WINDOW.contains(date.fromisoformat(r[0])) for r in rows)
    assert (result.accepted, result.dropped) == (in_window, len(rows) + len(edges) - in_window)
    assert result.records.day.dtype == np.int32
    assert ((result.records.day >= 0) & (result.records.day < WINDOW.n_days)).all()


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_files_outside_the_plain_form_parse_to_the_same_columns(tmp_path, kind):
    rows = _random_rows(random.Random(3), kind, 200)
    reference = _check_against_rows(_write(tmp_path, "plain.csv", kind, rows), kind)
    header = ",".join(PARSERS[kind][1])
    body = "\n".join(",".join(row) for row in rows)
    padded = [[f" {row[0]}", row[1], f"{row[2]}  ", f"\t{row[3]}"] for row in rows]
    padded_code = [[row[0], row[1], f"{row[2]} ", row[3]] for row in rows]
    quoted = [[row[0], f'"{row[1]}"', row[2], f'"{row[3]}"'] for row in rows]
    quoted_entity = [[row[0], f'"{row[1]}"', row[2], row[3]] for row in rows]
    variants = {
        "crlf.csv": _write(tmp_path, "crlf.csv", kind, rows, newline="\r\n"),
        "padded.csv": _write(tmp_path, "padded.csv", kind, padded),
        "padded_code.csv": _write(tmp_path, "padded_code.csv", kind, padded_code),
        "quoted.csv": _write(tmp_path, "quoted.csv", kind, quoted),
        "quoted_entity.csv": _write(tmp_path, "quoted_entity.csv", kind, quoted_entity),
        "padded_header.csv": write_csv(
            tmp_path, "padded_header.csv", header.replace(",", ", ") + "\n" + body + "\n"
        ),
        "blank_line.csv": write_csv(
            tmp_path, "blank_line.csv", header + "\n" + body.replace("\n", "\n\n", 1) + "\n"
        ),
        "no_final_newline.csv": write_csv(tmp_path, "no_final_newline.csv", header + "\n" + body),
    }
    for name, path in variants.items():
        result = _check_against_rows(path, kind)
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
    result = _check_against_rows(_write(tmp_path, "huge.csv", "trips", rows), "trips")
    assert result.records.value.tolist() == [float(int(count)) for count in counts]

    rows.append(["2017-08-03", "R001", "grocery", "9" * 400])  # no float holds it
    assert _check_against_rows(_write(tmp_path, "overflow.csv", "trips", rows), "trips") is None


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
    _check_against_rows(_write(tmp_path, "bad.csv", kind, rows), kind)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("block_bytes", [16, 200, 1 << 20])
def test_bad_rows_and_value_quirks_inside_plain_blocks(tmp_path, monkeypatch, kind, block_bytes):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(kind)
    rows = _random_rows(rng, kind, 300)
    for quirk in VALUE_QUIRKS[kind]:
        rows[rng.randrange(60, 240)][3] = quirk
    rows[rng.randrange(60, 240)][0] = "2017-13-01"
    rows[rng.randrange(60, 240)][1] = " "
    _check_against_rows(_write(tmp_path, "quirks.csv", kind, rows), kind)
    # every quirk that int() or float() takes, alone in an otherwise plain file
    for quirk in VALUE_QUIRKS[kind]:
        rows = _random_rows(rng, kind, 40)
        rows[20][3] = quirk
        _check_against_rows(_write(tmp_path, "quirk.csv", kind, rows), kind)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_blank_lines_quotes_and_crlf_across_block_boundaries(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    rows = _random_rows(random.Random(kind), kind, 40)
    lines = [",".join(PARSERS[kind][1])] + [",".join(row) for row in rows]
    quoted = '{},"{}, north\nside",{},{}'.format(*rows[0])
    for at in range(1, len(lines)):
        for name, edited in {
            "blank": [*lines[:at], "", *lines[at:]],
            "quoted": [*lines[:at], quoted, *lines[at:]],
        }.items():
            path = write_csv(tmp_path, f"{name}.csv", "\n".join(edited) + "\n")
            _check_against_rows(path, kind)
        # CRLF from line `at` on, so it first shows up after the first block
        text = "\n".join(lines[:at]) + "\n" + "\r\n".join(lines[at:]) + "\r\n"
        _check_against_rows(write_csv(tmp_path, "crlf.csv", text), kind)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("block_bytes", [16, 64, 1 << 20])
def test_lone_carriage_return_after_crlf_blocks(tmp_path, monkeypatch, kind, block_bytes):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    rows = _random_rows(random.Random(kind), kind, 40)
    rows[30][1] = rows[30][1][:2] + "\r" + rows[30][1][2:]  # the csv module ends the row at \r
    path = _write(tmp_path, "lone_cr.csv", kind, rows, newline="\r\n")
    assert _check_against_rows(path, kind) is None  # both halves have the wrong width


def _random_file(rng, kind):
    """Header and rows with random damage: the forms the csv module and int()/float() read."""
    rows = _random_rows(rng, kind, rng.randrange(0, 60))
    damage = rng.choice([0.0, 0.02, 0.3])
    for row in rows:
        roll = rng.random() / damage if damage else 1.0
        if roll < 0.2:
            row[0] = rng.choice(
                ["2017-02-30", " 2017-02-30", "", "not-a-date", " 2017-08-02 ", "20170802", "2017-08-02T00"]
            )
        elif roll < 0.4:
            row[rng.choice([1, 2])] = rng.choice(["", " ", "\t", f" {row[1]}", f"{row[2]} "])
        elif roll < 0.7:
            row[3] = rng.choice(VALUE_QUIRKS[kind])
        elif roll < 0.85:
            row[1] = f'"{row[1]},{rng.choice(["", "x", chr(10)])}"'
        elif roll < 1.0:
            row.append("extra") if rng.random() < 0.5 else row.pop()
    lines = [",".join(PARSERS[kind][1])] + [",".join(row) for row in rows]
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(["", " ", ","]))
    newline = rng.choice(["\n", "\n", "\n", "\r\n"])
    text = newline.join(lines) + rng.choice([newline, ""])
    if rng.random() < 0.1:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + "\r" + text[at:]
    return text


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_random_files_match_the_row_loop_at_any_block_size(tmp_path, monkeypatch, kind):
    rng = random.Random(f"fuzz-{kind}")
    for trial in range(150):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", rng.choice([16, 50, 256, 4096, 1 << 20]))
        path = write_csv(tmp_path, f"{trial}.csv", _random_file(rng, kind))
        _check_against_rows(path, kind)


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
                    values[day] = weighted_measurement(totals, taxonomy)
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


def _traced_peak(func, *args):
    """func(*args), and the peak of the memory it allocated, numpy buffers included."""
    tracemalloc.start()
    try:
        result = func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_series_stage_memory_per_row(tmp_path, monkeypatch):
    # 60 regions: 70,560 trip rows; small blocks keep the reader's own text out of the peak
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64 << 10)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    trips, peak = _traced_peak(ingest.parse_trips, config.inputs["trips"], config.window)
    assert trips.accepted == 70_560
    # the columns take 20 B a row, and joining their chunks one column at a time adds 8 more
    assert peak / trips.accepted < 48
    transactions = ingest.parse_transactions(config.inputs["transactions"], config.window)
    crosswalk = ingest.resolve_crosswalk(ingest.parse_overlaps(config.inputs["overlaps"]).records)
    broadcast = ingest.broadcast_zip_to_regions(transactions.records, crosswalk)
    _, peak = _traced_peak(
        build_daily_series, trips.records, transactions.records, broadcast, load_taxonomy(), config.window
    )
    # an int64 cell index and one float total per trip row, plus the series
    assert peak / trips.accepted < 40


# ---------------------------------------------------------------------------
# two-process reads


def _failed(children):
    """How many children exited with a nonzero code."""
    return sum(os.WIFEXITED(status) and os.WEXITSTATUS(status) != 0 for status in children.values())


def _outcome(read, path):
    """read(path), or the text, row errors and counts of the ParseError it raises."""
    try:
        return read(path)
    except ParseError as exc:
        return str(exc), exc.row_errors, exc.accepted, exc.dropped, exc.total_rows


def _check_split(monkeypatch, read, path):
    """read(path) in two processes equals read(path) in one; the outcome.

    `read` may also be a parse_* caller such as validate, whose result is compared whole.
    """
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1 << 62)
    expected = _outcome(read, path)
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1)
    got = _outcome(read, path)
    if not isinstance(expected, ingest.ParseResult):
        assert got == expected
    else:
        assert (got.accepted, got.dropped, got.total_rows, got.path) == (
            expected.accepted, expected.dropped, expected.total_rows, expected.path,
        )
        _assert_same_columns(got.records, expected.records)
    return expected


def _reader(kind, window=WINDOW):
    return lambda path: PARSERS[kind][0](path, window)


def _lines(kind, rows):
    return [",".join(PARSERS[kind][1])] + [",".join(row) for row in rows]


@pytest.mark.parametrize("case", [c for c in corpus.CASES if c[1] in PARSERS], ids=lambda c: c[0])
def test_corpus_reads_the_same_in_two_processes(tmp_path, monkeypatch, forks, case):
    name, kind, text, _ = case
    window = DateWindow.from_strings("2017-08-01", "2017-12-25")
    _check_split(monkeypatch, _reader(kind, window), write_csv(tmp_path, f"{name}.csv", text))
    assert _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_random_files_read_the_same_in_two_processes(tmp_path, monkeypatch, forks, kind):
    rng = random.Random(f"split-{kind}")
    for trial in range(50):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", rng.choice([16, 50, 256, 1 << 20]))
        _check_split(monkeypatch, _reader(kind), write_csv(tmp_path, f"{trial}.csv", _random_file(rng, kind)))
    assert len(forks) > 35 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_bad_and_dropped_rows_in_both_halves(tmp_path, monkeypatch, forks, kind):
    rows = _random_rows(random.Random(kind), kind, 300)
    rows[40][0], rows[260][1], rows[270][3] = "2017-02-30", "", "-5"
    rows[120:120] = [rows[5][:3], [*rows[6], "extra"]]
    reference = _check_split(monkeypatch, _reader(kind), _write(tmp_path, "bad.csv", kind, rows))
    lines = [line for line, _ in reference[1]]
    assert len(lines) == 5 and lines[0] < 100 and lines[-1] > 250
    clean = [row for row in rows if len(row) == 4 and row[1] and not row[3].startswith("-")]
    clean = [row for row in clean if row[0] != "2017-02-30"]
    result = _check_split(monkeypatch, _reader(kind), _write(tmp_path, "clean.csv", kind, clean))
    assert result.dropped > 0
    assert len(forks) == 2 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_headers_and_line_ends_around_the_middle(tmp_path, monkeypatch, forks, kind):
    read = _reader(kind)
    rows = _random_rows(random.Random(kind), kind, 40)
    lines = _lines(kind, rows)
    header = lines[0]
    quoted, cr = (lambda line: line.replace(",", ',"', 1) + '"'), (lambda line: line.replace(",", "\r,", 1))
    # the middle falls on the last line: nothing is left for a second process
    text = "\n".join(lines[:3]) + "\n" + lines[3].replace(",", "," + " " * 400, 1)
    _check_split(monkeypatch, read, write_csv(tmp_path, "long_last_line.csv", text))
    assert not forks
    texts = {
        "header_only": header + "\n",
        "header_then_blank_lines": header + "\n" * 200,
        "bad_header": "day,region,type,count\n" + "\n".join(lines[1:]) + "\n",
        "quoted_first": "\n".join([header, quoted(lines[1]), *lines[2:]]) + "\n",
        "cr_first": "\n".join([header, cr(lines[1]), *lines[2:]]) + "\n",
    }
    for name, text in texts.items():
        _check_split(monkeypatch, read, write_csv(tmp_path, f"{name}.csv", text))
    for at in range(len(lines) // 2 - 2, len(lines) // 2 + 2):
        for block_bytes in (16, 1 << 20):
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            for name, edited in {
                "blank": [*lines[:at], "", "", *lines[at:]],
                "quoted_at": [*lines[:at], quoted(lines[at]), *lines[at + 1:]],
                "cr_at": [*lines[:at], cr(lines[at]), *lines[at + 1:]],
                "quoted_last": [*lines[:-1], quoted(lines[-1])],
            }.items():
                for newline in ("\n", "\r\n"):
                    path = write_csv(tmp_path, f"{name}.csv", newline.join(edited) + newline)
                    _check_split(monkeypatch, read, path)
    assert len(forks) > 60 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("half", [0, 1])
def test_a_byte_that_is_not_utf8_in_either_half(tmp_path, monkeypatch, forks, kind, half):
    lines = _lines(kind, _random_rows(random.Random(kind), kind, 100))
    at = 20 if half == 0 else 80
    data = ("\n".join(lines[:at]) + "\n").encode() + b"\xff" + ("\n".join(lines[at:]) + "\n").encode()
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    message, *_ = _check_split(monkeypatch, _reader(kind), path)
    assert message.endswith("not UTF-8 text")
    assert len(forks) == 1 and _failed(forks) == half  # a child that fails leaves its lines to the parent


@pytest.mark.parametrize("failure", ["raise", "interrupt", "exit", "short", "exit_after_sending"])
def test_a_failed_child_leaves_its_lines_to_this_process(tmp_path, monkeypatch, forks, failure):
    send = processes._send

    def fail(pipe, part):
        if failure == "raise":
            raise RuntimeError("the child fails")
        if failure == "interrupt":
            raise KeyboardInterrupt
        if failure == "short":  # all but the end of the last column, and a clean exit
            whole = io.BytesIO()
            send(whole, part)
            pipe.write(whole.getvalue()[:-40])
            return
        if failure == "exit_after_sending":  # a wrong count, sent whole, is not trusted either
            accepted, *rest = part
            send(pipe, (accepted + 1, *rest))
            pipe.flush()
        os._exit(3)

    monkeypatch.setattr(processes, "_send", fail)
    rows = _random_rows(random.Random(failure), "trips", 300)
    result = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "clean.csv", "trips", rows))
    assert result.accepted > 0
    rows[30][3], rows[280][3] = "1.5", "-2"
    message, errors, *_ = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "bad.csv", "trips", rows))
    assert [line for line, _ in errors] == [32, 282]
    assert len(forks) == 2 and _failed(forks) == (0 if failure == "short" else 2)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_is_read_in_one_process(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1)
    rows = _random_rows(random.Random(9), "trips", 300)
    lines = _lines("trips", rows)
    texts = {
        "plain": "\n".join(lines) + "\n",
        # the csv module reads these from the pipe without seeking back
        "quoted": "\n".join([*lines[:200], '"{}","{}",{},"{}"'.format(*rows[199]), *lines[201:]]) + "\n",
        "lone_cr": "\n".join([*lines[:200], lines[200].replace(",", "\r,", 1), *lines[201:]]) + "\n",
    }
    for name, text in texts.items():
        path = write_csv(tmp_path, f"{name}.csv", text)
        expected = _outcome(_reader("trips"), path)
        fifo = tmp_path / f"{name}.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            result = _outcome(_reader("trips"), fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        if name == "lone_cr":  # a row split in two by the carriage return
            assert result == (expected[0].replace(str(path), str(fifo)), *expected[1:])
            continue
        assert (result.accepted, result.dropped, result.total_rows) == (
            expected.accepted, expected.dropped, expected.total_rows,
        )
        _assert_same_columns(result.records, expected.records)
    assert len(forks) == 3  # the regular files alone were split


def test_without_a_process_to_spare_the_file_is_read_in_one(tmp_path, monkeypatch, forks):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = _random_rows(random.Random(5), "transactions", 300)
    rows[30][3], rows[280][3] = "nan", "-2"
    _check_split(monkeypatch, _reader("transactions"), _write(tmp_path, "bad.csv", "transactions", rows))
    assert not forks


def test_without_a_descriptor_pair_the_file_is_read_in_one(tmp_path, monkeypatch, forks):
    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    rows = _random_rows(random.Random(6), "trips", 300)
    result = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "clean.csv", "trips", rows))
    assert result.accepted > 0
    rows[30][3], rows[280][3] = "1.5", "-2"
    message, errors, *_ = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "bad.csv", "trips", rows))
    assert [line for line, _ in errors] == [32, 282]
    assert not forks


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_a_bad_header_in_the_first_range_kills_and_reaps_the_child(tmp_path, monkeypatch, forks, kind):
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(processes, "_send", lambda pipe, part: time.sleep(30))  # a child that hangs
    lines = _lines(kind, _random_rows(random.Random(kind), kind, 2000))
    path = write_csv(tmp_path, "bad_header.csv", "\n".join(["day,region,type,count", *lines[1:]]) + "\n")
    with pytest.raises(ParseError, match="does not match"):
        PARSERS[kind][0](path, WINDOW)
    [status] = forks.values()
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


def test_validate_diagnoses_the_same_in_two_processes(tmp_path, monkeypatch, forks):
    paths = generate(ScenarioSpec.from_mapping({"n_regions": 12, "horizon_days": 60}), tmp_path)
    config = load_config(paths["config.json"])
    # an unmatched region or Zip in the first half; an unknown code and out-of-window rows in the second
    for name, first, last in (
        ("trips.csv", "2017-08-02,R999,grocery,5", "2017-08-03,{},florist,4\n2030-01-01,{},grocery,7"),
        ("transactions.csv", "2017-08-02,77999,grocery,12.50", "2030-01-01,{},grocery,3.00"),
    ):
        header, *lines = paths[name].read_text(encoding="utf-8").splitlines()
        last = last.replace("{}", lines[0].split(",")[1])
        paths[name].write_text("\n".join([header, first, *lines, last]) + "\n", encoding="utf-8")
    diagnostics = _check_split(monkeypatch, lambda _: validate(config), None)
    assert {d["kind"] for d in diagnostics} == {
        "out-of-window-rows", "unmatched-region", "unmatched-zip", "unknown-service-type",
    }
    with open(paths["trips.csv"], "a", encoding="utf-8") as handle:
        handle.write("2017-08-04,R001,grocery,-1\n")
    diagnostics = _check_split(monkeypatch, lambda _: validate(config), None)
    assert [d["kind"] for d in diagnostics] == ["schema-error", "out-of-window-rows"]
    assert len(forks) == 4 and _failed(forks) == 0


def test_series_stage_memory_per_row_in_two_processes(tmp_path, monkeypatch, forks):
    # test_series_stage_memory_per_row's trip file, read in two processes: the
    # child's columns, received and joined, must not add a copy of the columns
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    trips, peak = _traced_peak(ingest.parse_trips, config.inputs["trips"], config.window)
    assert trips.accepted == 70_560 and len(forks) == 1 and _failed(forks) == 0
    assert peak / trips.accepted < 48
