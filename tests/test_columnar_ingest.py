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
import itertools
import math
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

import corpus
from conftest import write_csv
from oracles import amount, parse_activity_rows, series_by_key, taxonomy_entries, trip_count, weighted_measurement
from recovery_track import ingest, processes
from recovery_track.aggregate import (
    CATEGORIES,
    SOURCES,
    _cell_fsums,
    exact_sums,
    build_daily_series,
    load_taxonomy,
)
from recovery_track.config import load_config
from recovery_track.errors import ParseError
from recovery_track.pipeline import validate
from recovery_track.synth import ScenarioSpec, generate
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 8, 31))
CODES = ("grocery", "restaurant", "drug_store", "retail", "utilities", "recreation")

# public parser, header, oracle value parser
PARSERS = {
    "trips": (ingest.parse_trips, ingest.TRIPS_HEADER, trip_count),
    "transactions": (ingest.parse_transactions, ingest.TRANSACTIONS_HEADER, amount),
}

# trip counts at the edges of the plain-block path: 1-15 ASCII digits are read
# from the bytes, 16 or more (from 2**53 - 1 on, or not) go through int()
SHORT_COUNTS = ["0", "007", "000000000000007", "9" * 15, "12345678901", "100000000000000"]
LONG_COUNTS = [
    "1" + "0" * 15, str(2**53 - 1), str(2**53), str(2**53 + 1), "98765432109876543", "9" * 18, "9" * 19,
]
EDGE_COUNTS = SHORT_COUNTS + LONG_COUNTS

# value texts at the edges of what int() and float() take: signs, underscores,
# padding, non-ASCII digits, int()'s digit limit, and refused ones; and at the
# edges of the amounts read from the bytes: a point before, after or twice,
# 15 digits and 16 (read by float())
VALUE_QUIRKS = {
    "trips": [
        "+5", "1_000", "-0", "007", " 7", "7\t", "\u0663", "-3", "1.5", " 1.5", "", "1__0", "_1",
        "9" * 400, "0" * 5000 + "7", *EDGE_COUNTS,
    ],
    "transactions": [
        "+5", "1_000.5", "-0", "-0.0", " 2.50", "\x1c5.00", "nan", " nan", "-inf", "-0.50", "1e400",
        "12,50", "", "0x10", "\u0663.5", "12.", ".5", "007.50", ".", "1.2.3", "0.000000000000001",
        "99999999999999.9", "999999999999999", "1234567890123.456", "5e-1",
    ],
}


def _random_rows(rng, kind, n, entities=4):
    """Rows with repeated (entity, code, day) groups and some out-of-window dates."""
    rows = []
    for _ in range(n):
        day = (WINDOW.start + timedelta(days=rng.randrange(-3, 34))).isoformat()
        code = rng.choice(CODES)
        if kind == "trips":
            count = rng.choice(EDGE_COUNTS) if rng.random() < 0.03 else str(rng.randrange(60))
            rows.append([day, f"R{rng.randrange(entities):03d}", code, count])
        else:
            amount = rng.choice(
                ["0.10", "0.20", "0.30", "1e16", "3.3", "0", "2.5e-3", "9007199254740993", "123456789.012345"]
            )
            if rng.random() < 0.5:
                amount = f"{rng.uniform(0, 1e4):.2f}"
            rows.append([day, f"7700{rng.randrange(entities)}", code, amount])
    return rows


def _write(tmp_path, name, kind, rows, newline="\n"):
    lines = [",".join(PARSERS[kind][1])] + [",".join(row) for row in rows]
    return write_csv(tmp_path, name, newline.join(lines) + newline)


def _assert_same_columns(a, b):
    assert a.entities == b.entities and a.codes == b.codes
    for name in ("pair_entity", "pair_code", "day", "pair", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _csv_reads(monkeypatch):
    """The first line of each range of lines the activity reader hands to the
    csv module in this process from now on, as a list that grows."""
    reads = []
    rows_from = ingest._ActivityReader.rows_from

    def spy(self, blocks, line_no, header):
        reads.append(line_no)
        return rows_from(self, blocks, line_no, header)

    monkeypatch.setattr(ingest._ActivityReader, "rows_from", spy)
    return reads


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
def test_plain_files_match_the_row_loop(tmp_path, monkeypatch, kind):
    rng = random.Random(kind)
    reads = _csv_reads(monkeypatch)
    for trial in range(20):
        rows = _random_rows(rng, kind, rng.randrange(1, 300) if trial else 0)
        result = _check_against_rows(_write(tmp_path, f"{trial}.csv", kind, rows), kind)
        assert result.dropped == sum(not WINDOW.start <= date.fromisoformat(r[0]) <= WINDOW.end for r in rows)
        assert reads == []


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_rows_at_the_ends_of_the_calendar_are_dropped(tmp_path, kind):
    # day offsets are int32: the first and last ISO dates must not wrap into the window
    rows = _random_rows(random.Random(11), kind, 40)
    edges = [[day, *row[1:]] for row in rows[:6] for day in ("0001-01-01", "9999-12-31")]
    result = _check_against_rows(_write(tmp_path, "edges.csv", kind, rows + edges), kind)
    in_window = sum(WINDOW.start <= date.fromisoformat(r[0]) <= WINDOW.end for r in rows)
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
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    rng = random.Random(kind)
    reads = _csv_reads(monkeypatch)
    rows = _random_rows(rng, kind, 300)
    for quirk in VALUE_QUIRKS[kind]:
        rows[rng.randrange(60, 240)][3] = quirk
    rows[rng.randrange(60, 240)][0] = "2017-13-01"
    rows[rng.randrange(60, 240)][1] = " "
    _check_against_rows(_write(tmp_path, "quirks.csv", kind, rows), kind)
    # only a block that holds a value with a comma ("12,50") goes to the csv module
    assert bool(reads) == any("," in quirk for quirk in VALUE_QUIRKS[kind])
    # every quirk that int() or float() takes, alone in an otherwise plain file
    for quirk in VALUE_QUIRKS[kind]:
        reads.clear()
        rows = _random_rows(rng, kind, 40)
        rows[20][3] = quirk
        _check_against_rows(_write(tmp_path, "quirk.csv", kind, rows), kind)
        assert bool(reads) == ("," in quirk), quirk


@pytest.mark.parametrize("block_bytes", [16, 256, 1 << 20])
def test_edge_counts_inside_plain_blocks(tmp_path, monkeypatch, forks, block_bytes):
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    rng = random.Random(block_bytes)
    for name, counts in [("short", SHORT_COUNTS), ("edge", EDGE_COUNTS)]:
        rows = [[*row[:3], str(rng.randrange(60))] for row in _random_rows(rng, "trips", 300)]
        for at, count in zip(rng.sample(range(300), 3 * len(counts)), counts * 3):
            rows[at][3] = count
        path = _write(tmp_path, f"{name}.csv", "trips", rows)
        result = _check_against_rows(path, "trips")
        in_window = [row for row in rows if WINDOW.start <= date.fromisoformat(row[0]) <= WINDOW.end]
        assert sorted(result.records.value.tolist()) == sorted(float(int(row[3])) for row in in_window)
        _check_split(monkeypatch, _reader("trips"), path)
    assert len(forks) >= 2 and _failed(forks) == 0


def test_decimal_amounts_read_as_float_of_their_text(tmp_path, monkeypatch, forks):
    # 1-15 digits are read from the bytes, and 16 by float(), in the same plain blocks
    monkeypatch.setattr(processes, "BLOCK_BYTES", 1 << 12)
    reads = _csv_reads(monkeypatch)
    rng = random.Random("decimals")
    texts = []
    for _ in range(10**5):
        digits = "".join(rng.choices("0123456789", k=16 if rng.random() < 0.005 else rng.randint(1, 15)))
        places = rng.randint(0, min(15, len(digits)))  # all the digits: a leading point
        cut = len(digits) - places
        texts.append(digits[:cut] + "." + digits[cut:] if places or rng.random() < 0.1 else digits)
    rows = [["2017-08-02", f"7700{i % 4}", CODES[i % 6], text] for i, text in enumerate(texts)]
    path = _write(tmp_path, "decimals.csv", "transactions", rows)
    expected = np.array([float(text) for text in texts]).tobytes()
    for split in (1 << 62, 1):  # one process, then two
        monkeypatch.setattr(processes, "SPLIT_BYTES", split)
        assert ingest.parse_transactions(path, WINDOW).records.value.tobytes() == expected
    assert reads == [] and len(forks) == 1 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("block_bytes", [16, 256, 1 << 20])
def test_padded_and_empty_pairs_inside_plain_blocks(tmp_path, monkeypatch, forks, kind, block_bytes):
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    rng = random.Random(f"{kind}-{block_bytes}")

    def padded(entity, code):
        return [(f" {entity}", code), (f"{entity} ", code), (entity, f" {code}"), (entity, f"{code}\t"),
                (f" {entity} ", f" {code} ")]

    def empty(entity, code):
        return [*padded(entity, code), ("", code), (entity, ""), ("", ""), (" ", code), (entity, " ")]

    reads = _csv_reads(monkeypatch)
    for forms in (padded, empty):  # columns compared, then the row errors
        rows = _random_rows(rng, kind, 300)
        for at in rng.sample(range(300), 40):
            rows[at][1:3] = rng.choice(forms(*rows[at][1:3]))
        path = _write(tmp_path, f"{forms.__name__}.csv", kind, rows)
        assert (_check_against_rows(path, kind) is None) == (forms is empty)
        _check_split(monkeypatch, _reader(kind), path)
    assert reads == [] and len(forks) >= 2 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_blank_lines_quotes_and_crlf_across_block_boundaries(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(processes, "BLOCK_BYTES", 64)
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
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
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
        monkeypatch.setattr(processes, "BLOCK_BYTES", rng.choice([16, 50, 256, 4096, 1 << 20]))
        path = write_csv(tmp_path, f"{trial}.csv", _random_file(rng, kind))
        _check_against_rows(path, kind)


# ---------------------------------------------------------------------------
# byte keys: a plain block's date and "entity,code" fields looked up by their bytes

BLOCK_SIZES = (16, 64, 256, 4096, 1 << 20)


def _key_cases(kind):
    """{name: rows} whose date and "entity,code" fields sit at the edges of
    the key tables' words (ingest._KEY_BYTES a key, 8 a word)."""
    rng = random.Random(f"keys-{kind}")
    base = _random_rows(rng, kind, 200)

    def named(entities, codes):
        return [[row[0], rng.choice(entities), rng.choice(codes), row[3]] for row in base]

    long = ingest._KEY_BYTES
    every = [  # each (entity, code) of 10 names and 6 codes on each of 17 days, shuffled below
        [(WINDOW.start + timedelta(days=day)).isoformat(), f"E{entity:02d}", code, str(entity + day)]
        for day in range(-2, 15) for entity in range(10) for code in CODES
    ]
    rng.shuffle(every)
    return {
        # pair fields that share their first 8 or 16 bytes ("ABCDEFG," is 8), and one word more or less
        "prefix": named(["ABCDEFG", "ABCDEFGH", "ABCDEFGHIJKLMNO", "ABCDEFGHIJKLMNOP"], ["x", "xy", "x" * 8, "x" * 9]),
        # pair fields of a key's width, one byte under and over, and far over; names of two-byte characters
        "long": named(["L" * (long - 3), "L" * (long - 2), "L" * (long - 1), "L" * 40, "L" * 40 + "M"], ["x", "é" * 10]),
        # padded dates as wide as a key, and wider
        "long_dates": [[row[0].ljust(rng.choice([long - 1, long, long + 1, 40])), *row[1:]] for row in base],
        # a NUL byte is a character of the name: its bytes differ from those of the name without it
        "nul": named(["R001", "R001\x00", "R00\x001", "\x00R001"], ["grocery", "grocery\x00"]),
        "shuffled": every,
    }


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("case", ["prefix", "long", "long_dates", "nul", "shuffled"])
def test_byte_keys_match_the_row_loop(tmp_path, monkeypatch, forks, kind, case):
    if case == "nul" and sys.version_info < (3, 11):
        pytest.skip("the csv module of the oracle reads NUL from Python 3.11 on")
    path = _write(tmp_path, f"{case}.csv", kind, _key_cases(kind)[case])
    reads = _csv_reads(monkeypatch)
    for block_bytes, split in itertools.product(BLOCK_SIZES, (1 << 62, 1)):  # one process, then two
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(processes, "SPLIT_BYTES", split)
        _check_against_rows(path, kind)
    assert reads == [] and len(forks) == len(BLOCK_SIZES) and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_keys_in_one_slot_are_told_apart_by_their_bytes(tmp_path, monkeypatch, forks, kind):
    # every key hashes to slot 0: each is found by its words and width alone
    monkeypatch.setattr(ingest, "_key_hash", lambda words: np.zeros_like(words[0]))
    for case, rows in _key_cases(kind).items():
        if case == "nul" and sys.version_info < (3, 11):
            continue
        path = _write(tmp_path, f"{case}.csv", kind, rows)
        for block_bytes, split in itertools.product((256, 1 << 20), (1 << 62, 1)):
            monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(processes, "SPLIT_BYTES", split)
            _check_against_rows(path, kind)
    assert len(forks) >= 8 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_keys_first_met_in_the_second_half(tmp_path, monkeypatch, forks, kind):
    # the child's reader meets dates, names and codes that this process's never does
    rng = random.Random(f"second-{kind}")
    rows = [row for row in _random_rows(rng, kind, 400) if row[0] < "2017-08-20"]
    late = [[f"2017-08-{rng.randrange(20, 32)}", f"{row[1]}{rng.choice('XY')}", row[2], row[3]] for row in rows[:60]]
    late += [[row[0], row[1], rng.choice(["florist", "x" * 30]), row[3]] for row in rows[60:90]]
    text = "\n".join(_lines(kind, rows + late)) + "\n"
    path = write_csv(tmp_path, "late.csv", text)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    assert processes.split_point(path) < len("\n".join(_lines(kind, rows)))
    for block_bytes, split in itertools.product(BLOCK_SIZES, (1 << 62, 1)):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(processes, "SPLIT_BYTES", split)
        _check_against_rows(path, kind)
    assert len(forks) == len(BLOCK_SIZES) and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("field", [0, 1, 2], ids=["date", "entity", "code"])
def test_a_new_key_that_is_not_utf8_after_known_keys(tmp_path, monkeypatch, forks, kind, field):
    # blocks of known keys, then a field with a byte that is not UTF-8: its
    # block goes to the csv module, and the line is a row error
    rows = _random_rows(random.Random(kind), kind, 300)
    at = 250
    lines = [line.encode() for line in _lines(kind, rows)]
    bad = lines[at].split(b",")
    bad[field] += b"\xff"
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\n".join([*lines[:at], b",".join(bad), *lines[at + 1:]]) + b"\n")
    expected = parse_activity_rows(_write(tmp_path, "clean.csv", kind, rows[: at - 1] + rows[at:]), WINDOW,
                                   *PARSERS[kind][1:])
    reads = _csv_reads(monkeypatch)
    for block_bytes, split in itertools.product((64, 256, 1 << 20), (1 << 62, 1)):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(processes, "SPLIT_BYTES", split)
        with pytest.raises(ParseError) as caught:
            PARSERS[kind][0](path, WINDOW)
        assert caught.value.row_errors == [(at + 1, "not UTF-8 text")]
        assert (caught.value.accepted, caught.value.dropped, caught.value.total_rows) == (
            expected.accepted, expected.dropped, expected.total_rows + 1,
        )
        if split > 1:  # the child's reads are its own: line `at` is in its half
            assert reads and max(reads) <= at + 1  # the line's block, and no block after it
        reads.clear()
    assert len(forks) == 3 and _failed(forks) == 0


# ---------------------------------------------------------------------------
# series


def _scalar_series(trips, transactions, crosswalk, taxonomy):
    """Record-per-row aggregation: per-type math.fsum totals, then weighted_measurement."""
    buckets = {}
    categories = {code: category for code, (category, _) in taxonomy_entries(taxonomy).items()}

    def add(region, source, day, code, value):
        key = (region, source, categories[code])
        buckets.setdefault(key, {}).setdefault(day, {}).setdefault(code, []).append(value)

    for i in range(len(trips.value)):
        pair = trips.pair[i]
        region = trips.entities[trips.pair_entity[pair]]
        if region in crosswalk:
            add(region, "trip", int(trips.day[i]), trips.codes[trips.pair_code[pair]], float(trips.value[i]))
    for i in range(len(transactions.value)):
        pair = transactions.pair[i]
        zip_code = transactions.entities[transactions.pair_entity[pair]]
        for region in sorted(crosswalk):
            if crosswalk[region] == zip_code:
                code = transactions.codes[transactions.pair_code[pair]]
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
            got, unknown, _ = build_daily_series(trips, transactions, broadcast, taxonomy, WINDOW)
            assert unknown == {}
            if reference is None:
                reference = _scalar_series(trips, transactions, crosswalk, taxonomy)
            assert got.keys() == sorted(reference)
            got = series_by_key(got)
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
            got = exact_sums(terms)
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
    monkeypatch.setattr(processes, "BLOCK_BYTES", 64 << 10)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    trips, peak = _traced_peak(ingest.parse_trips, config.inputs["trips"], config.window)
    assert trips.accepted == 70_560
    # the columns take 16 B a row, and joining their chunks one column at a time adds 8 more
    assert peak / trips.accepted < 28
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
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1 << 62)
    expected = _outcome(read, path)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    got = _outcome(read, path)
    if not isinstance(expected, ingest.ParseResult):
        assert got == expected
    else:
        assert (got.accepted, got.dropped, got.total_rows) == (
            expected.accepted, expected.dropped, expected.total_rows,
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
    window = DateWindow(date(2017, 8, 1), date(2017, 12, 25))
    _check_split(monkeypatch, _reader(kind, window), write_csv(tmp_path, f"{name}.csv", text))
    assert _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_random_files_read_the_same_in_two_processes(tmp_path, monkeypatch, forks, kind):
    rng = random.Random(f"split-{kind}")
    for trial in range(50):
        monkeypatch.setattr(processes, "BLOCK_BYTES", rng.choice([16, 50, 256, 1 << 20]))
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
            monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
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
    message, errors, *_ = _check_split(monkeypatch, _reader(kind), path)
    # the line is a data row in error, and every other row is read
    assert message.endswith(f"1 invalid row(s); first at line {at + 1}: not UTF-8 text")
    assert errors == [(at + 1, "not UTF-8 text")]
    assert len(forks) == 1 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("half", [0, 1])
def test_a_field_over_the_csv_limit_ends_the_file_in_either_half(tmp_path, monkeypatch, forks, kind, half):
    # an unquoted field of 131,073 characters, on a line whose field count sends
    # its block to the csv module: it ends the file, whatever the block size
    lines = _lines(kind, _random_rows(random.Random(kind), kind, 10_000))
    at = 1000 if half == 0 else 9000
    lines.insert(at, "x" * 131_073)
    path = write_csv(tmp_path, "long.csv", "\n".join(lines) + "\n")
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    assert (processes.split_point(path) < len("\n".join(lines[:at]))) == half
    outcomes = []
    for block_bytes in (4096, 1 << 20):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        outcomes.append(_check_split(monkeypatch, _reader(kind), path))
    assert outcomes[0] == outcomes[1]
    message, errors, accepted, dropped, total_rows = outcomes[0]
    assert errors == [(at + 1, "quoted field not closed, or a field over 131072 characters")]
    assert total_rows == at  # the rows before it, and itself
    assert len(forks) == 2 and _failed(forks) == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("half", [0, 1])
def test_a_value_over_the_csv_limit_in_a_plain_block_is_a_row_error(tmp_path, monkeypatch, forks, kind, half):
    # a plain block sets no length limit on a field: the value is refused as
    # any other is, and the rows after it are read and counted
    lines = _lines(kind, _random_rows(random.Random(kind), kind, 10_000))
    at = 1000 if half == 0 else 9000
    long = "x" * 131_073
    lines[at] = lines[at][: lines[at].rindex(",") + 1] + long
    path = write_csv(tmp_path, "long.csv", "\n".join(lines) + "\n")
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    assert (processes.split_point(path) < len("\n".join(lines[:at]))) == half
    reads = _csv_reads(monkeypatch)
    outcomes = []
    for block_bytes in (4096, 1 << 20):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        outcomes.append(_check_split(monkeypatch, _reader(kind), path))
    assert outcomes[0] == outcomes[1] and reads == []
    message, errors, accepted, dropped, total_rows = outcomes[0]
    refusal = f"trip_count {long!r} is not an integer" if kind == "trips" else f"amount {long!r} is not a number"
    assert errors == [(at + 1, refusal)]
    assert total_rows == 10_000
    assert len(forks) == 2 and _failed(forks) == 0


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
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    rows = _random_rows(random.Random(9), "trips", 300)
    lines = _lines("trips", rows)
    texts = {
        "plain": "\n".join(lines) + "\n",
        # the csv module reads these from the pipe without seeking back
        "quoted": "\n".join([*lines[:200], '"{}","{}",{},"{}"'.format(*rows[199]), *lines[201:]]) + "\n",
        "quoted_line_break": "\n".join([*lines[:200], '{},"R\n{}",{},{}'.format(*rows[199]), *lines[201:]]) + "\n",
        "lone_cr": "\n".join([*lines[:200], lines[200].replace(",", "\r,", 1), *lines[201:]]) + "\n",
    }
    for (name, text), block_bytes in itertools.product(texts.items(), (16, 1 << 20)):
        monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
        path = write_csv(tmp_path, f"{name}.csv", text)
        expected = _outcome(_reader("trips"), path)
        fifo = tmp_path / f"{name}-{block_bytes}.fifo"
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
    assert len(forks) == 8  # the regular files alone were split


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


def test_one_cpu_reads_the_file_whole(tmp_path, monkeypatch, forks):
    # where no child can run beside this process, no half is read and joined
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    joined = []
    join = ingest._ActivityReader.join
    monkeypatch.setattr(ingest._ActivityReader, "join", lambda self, part: joined.append(part) or join(self, part))
    rows = _random_rows(random.Random(7), "trips", 300)
    result = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "clean.csv", "trips", rows))
    assert result.accepted > 0
    rows[30][3], rows[280][3] = "1.5", "-2"
    message, errors, *_ = _check_split(monkeypatch, _reader("trips"), _write(tmp_path, "bad.csv", "trips", rows))
    assert [line for line, _ in errors] == [32, 282]
    assert not joined and not forks


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_a_bad_header_in_the_first_range_kills_and_reaps_the_child(tmp_path, monkeypatch, forks, kind):
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
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


@pytest.mark.parametrize("split", [False, True], ids=["one-process", "two-processes"])
def test_rows_after_a_quoted_line_break_keep_their_line_numbers(tmp_path, monkeypatch, forks, split):
    # lines 2 to 2001 plain, a row whose quoted region takes lines 2002 and 2003, a bad count on line 2004
    lines = _lines("trips", _random_rows(random.Random(11), "trips", 2000))
    text = "\n".join([*lines, '2017-08-01,"R\nX",grocery,1', "2017-08-02,R001,grocery,bad"]) + "\n"
    path = write_csv(tmp_path, "trips.csv", text)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1 if split else 1 << 62)
    with pytest.raises(ParseError) as caught:
        ingest.parse_trips(path, WINDOW)
    assert caught.value.row_errors == [(2004, "trip_count 'bad' is not an integer")]
    # the quoted row is past the middle: the child reads it, and numbers its lines from the split
    assert text.index('"R') > len(text) // 2
    assert len(forks) == split and _failed(forks) == 0


def test_series_stage_memory_per_row_in_two_processes(tmp_path, monkeypatch, forks):
    # test_series_stage_memory_per_row's trip file, read in two processes: the
    # child's columns, received and joined, must not add a copy of the columns
    monkeypatch.setattr(processes, "BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    trips, peak = _traced_peak(ingest.parse_trips, config.inputs["trips"], config.window)
    assert trips.accepted == 70_560 and len(forks) == 1 and _failed(forks) == 0
    assert peak / trips.accepted < 28
