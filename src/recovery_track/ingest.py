"""Parse and validate the five input CSVs and resolve Zip-level data to regions.

All files are UTF-8, comma separated, first row is a header that must match
the documented schema exactly, dates are ISO-8601. Parsers validate every row,
collect all violations, and raise a single ParseError naming the offending
lines, so `accepted + dropped + errored` always reconciles with the data row
count. A file that cannot be opened or is not UTF-8 raises a ParseError too.

trips.csv and transactions.csv are read into columns (`Activity`) in one
pass: whole lines are split on newlines and commas a block of
processes.BLOCK_BYTES at a time, or by the csv module where that would split
them differently, and each chunk of rows is validated at once, dates, names
and codes once per distinct text and values in one vectorised conversion
where the chunk allows it. Rows are numbered by the file line they start on.

A file of processes.SPLIT_BYTES or more is read in two halves where
processes.split_point splits it: this process reads the lines before the
split, and a second reader (_read_part) the rest beside it
(processes.beside). Their columns, names, counts and row errors are merged
in file order (_ActivityReader.join), bit for bit as one reader of the whole
file gives them, ParseError included. The child's memory counts in a peak
RSS taken over the run and its children, not in the run's own.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from . import processes
from .errors import ParseError
from .windows import DateWindow

TRIPS_HEADER = ["date", "origin_region", "service_type", "trip_count"]
TRANSACTIONS_HEADER = ["date", "zip", "merchant_type", "amount"]
OVERLAPS_HEADER = ["region", "zip", "overlap_area"]
ADJACENCY_HEADER = ["region_a", "region_b"]
ATTRIBUTES_HEADER = ["region", "flood_fraction", "minority_fraction", "per_capita_income"]


@dataclass(frozen=True)
class Activity:
    """Accepted rows of trips.csv or transactions.csv as columns, in file order.

    `entity` indexes `entities` (region or Zip names, sorted) and `code`
    indexes `codes` (service or merchant types, sorted); `day` is the offset
    from the window start and `value` the trip count or amount as a float.
    `day`, `entity` and `code` are int32 and `value` is float64: 20 bytes a row.
    """

    entities: tuple[str, ...]
    codes: tuple[str, ...]
    day: np.ndarray
    entity: np.ndarray
    code: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def rows_per_entity(self) -> dict[str, int]:
        """Accepted rows per entity name, in name order."""
        counts = np.bincount(self.entity, minlength=len(self.entities))
        return dict(zip(self.entities, counts.tolist()))


@dataclass(frozen=True)
class OverlapEntry:
    region: str
    zip_code: str
    overlap_area: float


@dataclass(frozen=True)
class RegionAttributes:
    region: str
    flood_fraction: float
    minority_fraction: float
    per_capita_income: float


@dataclass
class ParseResult:
    """Records (an `Activity` for trips and transactions) plus the counters
    needed for coverage reconciliation."""

    records: object
    accepted: int
    dropped: int
    total_rows: int
    path: str


@contextmanager
def reading(path):
    """Turn a file that cannot be opened or is not UTF-8 into a ParseError naming it."""
    try:
        yield
    except UnicodeDecodeError:
        raise ParseError(path, [], detail="not UTF-8 text") from None
    except OSError as exc:
        raise ParseError(path, [], detail=f"cannot read ({exc.strerror or exc})") from None


class _RowReader:
    """Shared CSV scaffolding: header check, line numbers, error collection."""

    def __init__(self, path, expected_header):
        self.path = path
        self.expected_header = expected_header
        self.errors = []
        self.accepted = 0
        self.dropped = 0
        self.total_rows = 0

    def rows(self):
        with reading(self.path), open(self.path, "rb") as handle:
            yield from self.rows_from(handle, 1, True)

    def rows_from(self, handle, line_no, header):
        """(line number, fields) of the data rows the csv module reads from
        binary `handle`, which stands at the start of line `line_no`, the
        header row where `header` is true. A row is numbered by the line it
        starts on, so a quoted field holding a line break moves no later row."""
        with io.TextIOWrapper(handle, encoding="utf-8", newline="") as text:
            reader = csv.reader(text)
            if header:
                self.check_header(next(reader, None))
            read = reader.line_num  # lines before the next row; one row may take several
            for row in reader:
                row_no, read = line_no + read, reader.line_num
                if not row:
                    continue  # blank lines are not data rows
                self.total_rows += 1
                if len(row) != len(self.expected_header):
                    self.error(row_no, f"expected {len(self.expected_header)} fields, got {len(row)}")
                    continue
                yield row_no, row

    def check_header(self, header):
        if header is None:
            raise ParseError(self.path, [(1, "empty file, missing header row")])
        if [h.strip() for h in header] != self.expected_header:
            raise ParseError(
                self.path,
                [(1, f"header {header!r} does not match expected {self.expected_header!r}")],
            )

    def error(self, line_no, message):
        self.errors.append((line_no, message))

    def finish(self, records) -> ParseResult:
        if self.errors:
            # sorted: the activity reader finds a chunk's bad widths before its bad fields
            raise ParseError(
                self.path, sorted(self.errors), accepted=self.accepted,
                dropped=self.dropped, total_rows=self.total_rows,
            )
        return ParseResult(
            records=records, accepted=self.accepted,
            dropped=self.dropped, total_rows=self.total_rows, path=str(self.path),
        )


def parse_trips(path, window: DateWindow) -> ParseResult:
    """Parse trips.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRIPS_HEADER, _plain_counts, _trip_count)


def parse_transactions(path, window: DateWindow) -> ParseResult:
    """Parse transactions.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRANSACTIONS_HEADER, _plain_amounts, _amount)


def _trip_count(text: str) -> float:
    try:
        count = int(text)
    except ValueError:
        raise ValueError(f"trip_count {text!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"negative trip_count {count}")
    try:
        return float(count)
    except OverflowError:
        raise ValueError(f"trip_count {text!r} is too large") from None


def _amount(text: str) -> float:
    try:
        amount = float(text)
    except ValueError:
        amount = math.nan  # reported with the non-finite amounts
    if not math.isfinite(amount):
        raise ValueError(f"amount {text!r} is not a number")
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    return amount


# What a bad date, an empty name or code, or a refused value resolves to. Day
# offsets between any two calendar dates, under 3.7 million, never reach it.
_BAD = np.iinfo(np.int32).min

# Rows per chunk the csv module hands to validation; like the blocks of
# processes.BLOCK_BYTES tokenised at once, it bounds the Python strings alive.
_CHUNK_ROWS = 1 << 14


def _parse_activity(path, window: DateWindow, header, plain_values, parse_value) -> ParseResult:
    reader = _ActivityReader(path, header, window, plain_values, parse_value)
    mid = processes.split_point(path)
    with processes.beside(lambda: _read_part(reader, mid), split=mid is not None) as rest:
        reader.read(stop=mid)
        # where the csv module read on through the second half, its lines are taken in already
        if mid is not None and reader.line_no is not None:
            reader.join(rest())
    return reader.result()


class _ActivityReader(_RowReader):
    """The accepted rows of trips.csv or transactions.csv as column chunks,
    taken in a range of whole lines at a time."""

    def __init__(self, path, header, window: DateWindow, plain_values, parse_value):
        super().__init__(path, header)
        self.window = window
        self.plain_values = plain_values
        self.parse_value = parse_value
        self.day_of: dict[str, int] = {}  # raw date text -> offset from the window start, or _BAD
        self.entity_of: dict[str, int] = {}  # raw text -> provisional id, or _BAD
        self.code_of: dict[str, int] = {}
        self.entity_ids: dict[str, int] = {}  # stripped name -> provisional id, in first-seen order
        self.code_ids: dict[str, int] = {}
        # the kept rows of each chunk, one list per column: day, entity, code, value
        self.kept = tuple([np.zeros(0, t)] for t in (np.int32, np.int32, np.int32, np.float64))
        # the number of the next line to read; None once the csv module has read to the end
        self.line_no = 1

    def read(self, start=0, stop=None):
        """Take in the rows of the lines from byte `start` (a line start) to
        byte `stop` (a line start, or None for the end of the file)."""
        header = self.expected_header

        def name_id(ids):
            return lambda text: ids.setdefault(text, len(ids)) if text else _BAD

        for lines, dates, entities, codes, texts in _activity_chunks(self, start, stop):
            day = _resolve(self.day_of, dates, lambda text: self.window.index_of(date.fromisoformat(text)))
            entity = _resolve(self.entity_of, entities, name_id(self.entity_ids))
            code = _resolve(self.code_of, codes, name_id(self.code_ids))
            value = self.plain_values(texts)
            if value is None:  # no value parse_value takes is NaN, so NaN marks a refused one
                value = _resolve({}, texts, self.parse_value, math.nan, np.float64)
            bad = (day == _BAD) | (entity == _BAD) | (code == _BAD) | np.isnan(value)
            for i in np.flatnonzero(bad).tolist():
                if day[i] == _BAD:
                    message = f"bad date {dates[i].strip()!r}"
                elif entity[i] == _BAD:
                    message = f"empty {header[1]}"
                elif code[i] == _BAD:
                    message = f"empty {header[2]}"
                else:
                    message = _refusal(self.parse_value, texts[i].strip())
                self.error(int(lines[i]), message)
            good = ~bad
            keep = good & (day >= 0) & (day < self.window.n_days)
            accepted = int(np.count_nonzero(keep))
            self.accepted += accepted
            self.dropped += int(np.count_nonzero(good)) - accepted
            for pieces, column in zip(self.kept, (day, entity, code, value)):
                pieces.append(column[keep])
            del dates, entities, codes, texts  # free the chunk before the next one is split

    def join(self, part):
        """Take in what _read_part gave of the lines from line self.line_no
        on, numbered from 0."""
        accepted, dropped, total_rows, errors, entities, codes, (day, entity, code, value) = part
        self.accepted += accepted
        self.dropped += dropped
        self.total_rows += total_rows
        self.errors.extend((line + self.line_no, message) for line, message in errors)
        entity = _renumber(self.entity_ids, entities, entity)
        code = _renumber(self.code_ids, codes, code)
        for pieces, more in zip(self.kept, (day, entity, code, value)):
            pieces.extend(more)

    def result(self) -> ParseResult:
        day, entity, code, value = map(_concatenate, self.kept)
        entities, entity = _sorted_names(self.entity_ids, entity)
        codes, code = _sorted_names(self.code_ids, code)
        return self.finish(
            Activity(entities=entities, codes=codes, day=day, entity=entity, code=code, value=value)
        )


def _activity_chunks(reader: _ActivityReader, start, stop):
    """(line numbers, dates, entities, codes, values) of the data rows between
    byte offsets `start` and `stop`, a chunk at a time; the header is read
    where `start` is 0.

    Fields are the raw texts, unstripped. CRLF line ends are read as LF. A
    block whose every line has four fields is split with str.split alone.
    The csv module reads any other block, and the rest of the file from the
    first block that holds a quote or a carriage return not directly before
    a newline; on the other blocks it would split the same way.
    """
    with reading(reader.path), open(reader.path, "rb") as handle:
        header = start == 0
        for block in processes.line_blocks(handle, start, stop):
            crlf = block.count(b"\r\n") if b"\r" in block else 0
            if b'"' in block or block.count(b"\r") != crlf:
                rest = io.BufferedReader(_Chained(block, handle))  # no seek: a pipe cannot
                yield from _row_chunks(reader.rows_from(rest, reader.line_no, header))
                reader.line_no = None
                return
            if crlf:
                block = block.replace(b"\r\n", b"\n")
            if not block.endswith(b"\n"):
                block += b"\n"
            if header:
                first, block = block.split(b"\n", 1)
                reader.check_header(first.decode("utf-8").split(",") if first else [])
                reader.line_no += 1
                header = False
                if not block:
                    continue
            raw = np.frombuffer(block, dtype=np.uint8)
            line_ends = np.flatnonzero(raw == ord("\n"))
            commas_per_line = np.diff(
                np.searchsorted(np.flatnonzero(raw == ord(",")), line_ends), prepend=0
            )
            if (commas_per_line == 3).all():
                fields = block[:-1].decode("utf-8").replace("\n", ",").split(",")
                reader.total_rows += len(line_ends)
                lines = np.arange(reader.line_no, reader.line_no + len(line_ends))
                yield lines, fields[0::4], fields[1::4], fields[2::4], fields[3::4]
            else:
                yield from _row_chunks(reader.rows_from(io.BytesIO(block), reader.line_no, False))
            reader.line_no += len(line_ends)
        if header:
            reader.check_header(None)


class _Chained(io.RawIOBase):
    """The bytes `head`, then the rest of binary file `tail`, read as one stream."""

    def __init__(self, head: bytes, tail):
        self.head = io.BytesIO(head)
        self.tail = tail

    def readable(self):
        return True

    def readinto(self, buffer):
        return self.head.readinto(buffer) or self.tail.readinto(buffer)


def _read_part(reader: _ActivityReader, mid):
    """What a new reader of `reader`'s file takes in of the lines from byte
    `mid` on, numbered from 0, for join(): its counters, row errors, names
    and column chunks."""
    part = _ActivityReader(
        reader.path, reader.expected_header, reader.window, reader.plain_values, reader.parse_value
    )
    part.line_no = 0
    part.read(start=mid)
    return (
        part.accepted, part.dropped, part.total_rows, part.errors,
        list(part.entity_ids), list(part.code_ids), part.kept,
    )


def _row_chunks(records):
    """Columns of (line number, four fields) records, _CHUNK_ROWS at a time."""
    while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
        lines, dates, entities, codes, texts = zip(*((n, *fields) for n, fields in chunk))
        yield np.array(lines, dtype=np.int64), dates, entities, codes, texts


def _concatenate(pieces: list) -> np.ndarray:
    """np.concatenate(pieces), emptying `pieces` so that each is freed once copied."""
    whole = np.concatenate(pieces)
    pieces.clear()
    return whole


def _resolve(known: dict, texts, parse, refused=_BAD, dtype=np.int32) -> np.ndarray:
    """parse(text.strip()) of every text, or `refused` where that raises
    ValueError, computed once per distinct text and remembered in `known`;
    only texts not found there are gathered and parsed."""
    try:
        return np.fromiter(map(known.__getitem__, texts), dtype, len(texts))
    except KeyError:
        pass
    for text in set(texts).difference(known):
        try:
            known[text] = parse(text.strip())
        except ValueError:
            known[text] = refused
    return np.fromiter(map(known.__getitem__, texts), dtype, len(texts))


def _refusal(parse_value, text) -> str:
    """The message `parse_value` refuses `text` with."""
    try:
        parse_value(text)
    except ValueError as exc:
        return str(exc)


def _renumber(ids: dict, names: list, pieces: list) -> list:
    """`pieces` of a column of ids into `names`, as ids in `ids`, which takes in the names it lacks."""
    renumber = np.array([ids.setdefault(name, len(ids)) for name in names], dtype=np.int32)
    return [renumber[piece] for piece in pieces]


def _sorted_names(ids: dict, column: np.ndarray):
    """Names used by accepted rows, sorted, and `column` renumbered to match."""
    by_id = list(ids)
    used = np.flatnonzero(np.bincount(column, minlength=len(by_id)))
    names = sorted(by_id[i] for i in used)
    renumber = np.zeros(len(by_id), dtype=np.int32)
    renumber[[ids[name] for name in names]] = np.arange(len(names))
    return tuple(names), renumber[column]


def _plain_counts(texts):
    """Trip counts written as at most 308 ASCII digits, as floats; None for anything else.

    float() of a digit string rounds the exact integer once, as float(int())
    does, so counts above 2**53 and above the int64 range come out the same.
    308 digits keep every count below the float range and int()'s digit limit.
    """
    joined = "".join(texts)
    if not (joined.isascii() and joined.isdigit()):
        return None
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    if lengths.min() < 1 or lengths.max() > 308:
        return None
    return np.fromiter(map(float, texts), np.float64, len(texts))


def _plain_amounts(texts):
    """Finite, nonnegative amounts as floats; None for anything else.

    Where float() takes a padded amount at all, it reads it as it reads the
    stripped text, so padding needs no check here.
    """
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None
    if not (np.isfinite(values).all() and (values >= 0).all()):
        return None
    return values


def parse_overlaps(path) -> ParseResult:
    """Parse overlaps.csv; (region, zip) pairs must be unique, areas positive."""
    reader = _RowReader(path, OVERLAPS_HEADER)
    records = []
    seen = set()
    for line_no, row in reader.rows():
        region, zip_code, raw_area = (f.strip() for f in row)
        if not region:
            reader.error(line_no, "empty region")
            continue
        if any(mark in region for mark in ",\n\r"):  # the keys of artifacts that never quote
            reader.error(line_no, f"region {region!r} holds a comma or line break, which no artifact can carry")
            continue
        if not zip_code:
            reader.error(line_no, "empty zip")
            continue
        try:
            area = float(raw_area)
        except ValueError:
            reader.error(line_no, f"overlap_area {raw_area!r} is not a number")
            continue
        if not math.isfinite(area) or area <= 0:
            reader.error(line_no, f"overlap_area must be positive, got {raw_area}")
            continue
        if (region, zip_code) in seen:
            reader.error(line_no, f"duplicate (region, zip) pair ({region}, {zip_code})")
            continue
        seen.add((region, zip_code))
        reader.accepted += 1
        records.append(OverlapEntry(region, zip_code, area))
    return reader.finish(records)


def parse_adjacency(path) -> ParseResult:
    """Parse adjacency.csv (undirected edge list) into region -> neighbor set."""
    reader = _RowReader(path, ADJACENCY_HEADER)
    neighbors: dict[str, set[str]] = {}
    for line_no, row in reader.rows():
        a, b = (f.strip() for f in row)
        if not a or not b:
            reader.error(line_no, "empty region identifier")
            continue
        if a == b:
            reader.error(line_no, f"self-loop on region {a}")
            continue
        reader.accepted += 1
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    return reader.finish(neighbors)


def parse_attributes(path) -> ParseResult:
    """Parse attributes.csv into region -> RegionAttributes."""
    reader = _RowReader(path, ATTRIBUTES_HEADER)
    records: dict[str, RegionAttributes] = {}
    for line_no, row in reader.rows():
        region, raw_flood, raw_minority, raw_income = (f.strip() for f in row)
        if not region:
            reader.error(line_no, "empty region")
            continue
        if region in records:
            reader.error(line_no, f"duplicate region {region}")
            continue
        try:
            flood = float(raw_flood)
            minority = float(raw_minority)
            income = float(raw_income)
        except ValueError:
            reader.error(line_no, "non-numeric attribute value")
            continue
        if not (0.0 <= flood <= 1.0):
            reader.error(line_no, f"flood_fraction {raw_flood} outside [0, 1]")
            continue
        if not (0.0 <= minority <= 1.0):
            reader.error(line_no, f"minority_fraction {raw_minority} outside [0, 1]")
            continue
        if not math.isfinite(income) or income < 0:
            reader.error(line_no, f"per_capita_income {raw_income} must be a finite number >= 0")
            continue
        reader.accepted += 1
        records[region] = RegionAttributes(region, flood, minority, income)
    return reader.finish(records)


def resolve_crosswalk(overlaps: list[OverlapEntry]) -> dict[str, str]:
    """Assign each region the zip with the largest overlap area.

    Ties break to the lexicographically smallest zip, so the result is
    invariant under any permutation of the input entries.
    """
    best: dict[str, OverlapEntry] = {}
    for entry in overlaps:
        current = best.get(entry.region)
        if current is None:
            best[entry.region] = entry
            continue
        if (-entry.overlap_area, entry.zip_code) < (-current.overlap_area, current.zip_code):
            best[entry.region] = entry
    return {region: entry.zip_code for region, entry in sorted(best.items())}


@dataclass
class BroadcastResult:
    """Each region's Zip as a row of the per-Zip transaction columns.

    `records[i]` is the index in `Activity.entities` of the Zip that
    `regions[i]` resolves to, or -1 when that Zip has no accepted rows.
    """

    regions: list[str]
    records: np.ndarray
    unmatched_zip_rows: dict[str, int] = field(default_factory=dict)


def broadcast_zip_to_regions(transactions: Activity, crosswalk: dict[str, str]) -> BroadcastResult:
    """Point every region at the transaction stream of its resolved zip.

    Values are inherited whole, not apportioned: if two regions resolve to the
    same zip, both index that zip's amounts. Rows whose zip resolves no region
    are counted per zip and used nowhere.
    """
    regions = sorted(crosswalk)
    zip_row = {zip_code: i for i, zip_code in enumerate(transactions.entities)}
    records = np.array([zip_row.get(crosswalk[region], -1) for region in regions], dtype=np.int64)
    resolved = set(crosswalk.values())
    unmatched = {
        zip_code: rows
        for zip_code, rows in transactions.rows_per_entity().items()
        if zip_code not in resolved
    }
    return BroadcastResult(regions=regions, records=records, unmatched_zip_rows=unmatched)
