"""Parse and validate the five input CSVs and resolve Zip-level data to regions.

All files are UTF-8, comma separated, first row is a header that must match
the documented schema exactly, dates are ISO-8601. Parsers validate every row,
collect all violations, and raise a single ParseError naming the offending
lines, so `accepted + dropped + errored` always reconciles with the data row
count.

trips.csv and transactions.csv are read into columns (`Activity`). A
vectorised reader takes files in the plain form generators and feed exports
write: no quotes, carriage returns or padding, four fields on every line and
every row valid. It hands any other file to the row-by-row loop, which stays
the reference for both the values and the per-line error messages.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

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
    """

    entities: tuple[str, ...]
    codes: tuple[str, ...]
    day: np.ndarray
    entity: np.ndarray
    code: np.ndarray
    value: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "Activity":
        """Columns of (day index, entity name, code name, value) rows."""
        rows = list(rows)
        entities = tuple(sorted({row[1] for row in rows}))
        codes = tuple(sorted({row[2] for row in rows}))
        entity_index = {name: i for i, name in enumerate(entities)}
        code_index = {name: i for i, name in enumerate(codes)}
        return cls(
            entities=entities,
            codes=codes,
            day=np.array([row[0] for row in rows], dtype=np.int64),
            entity=np.array([entity_index[row[1]] for row in rows], dtype=np.int64),
            code=np.array([code_index[row[2]] for row in rows], dtype=np.int64),
            value=np.array([row[3] for row in rows], dtype=np.float64),
        )

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
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(self.path, [(1, "empty file, missing header row")])
            if [h.strip() for h in header] != self.expected_header:
                raise ParseError(
                    self.path,
                    [(1, f"header {header!r} does not match expected {self.expected_header!r}")],
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue  # blank trailing lines are not data rows
                self.total_rows += 1
                if len(row) != len(self.expected_header):
                    self.error(line_no, f"expected {len(self.expected_header)} fields, got {len(row)}")
                    continue
                yield line_no, row

    def error(self, line_no, message):
        self.errors.append((line_no, message))

    def finish(self, records) -> ParseResult:
        if self.errors:
            raise ParseError(
                self.path, self.errors, accepted=self.accepted,
                dropped=self.dropped, total_rows=self.total_rows,
            )
        return ParseResult(
            records=records, accepted=self.accepted,
            dropped=self.dropped, total_rows=self.total_rows, path=str(self.path),
        )


class _DateParser:
    """Memoized ISO date parsing; input files repeat a small set of dates."""

    def __init__(self):
        self._cache = {}

    def __call__(self, text: str) -> date:
        day = self._cache.get(text)
        if day is None:
            day = date.fromisoformat(text)
            self._cache[text] = day
        return day


def parse_trips(path, window: DateWindow) -> ParseResult:
    """Parse trips.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRIPS_HEADER, _plain_counts, _trip_count)


def parse_transactions(path, window: DateWindow) -> ParseResult:
    """Parse transactions.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRANSACTIONS_HEADER, _plain_amounts, _amount)


def _parse_activity(path, window, header, plain_values, parse_value) -> ParseResult:
    result = _read_plain_activity(path, window, header, plain_values)
    return result if result is not None else _parse_activity_rows(path, window, header, parse_value)


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


def _parse_activity_rows(path, window: DateWindow, header, parse_value) -> ParseResult:
    """Row-by-row parser of trips.csv or transactions.csv: the reference, and
    the path for any file the vectorised reader does not take."""
    reader = _RowReader(path, header)
    parse_date = _DateParser()
    rows = []
    for line_no, row in reader.rows():
        raw_date, entity, code, raw_value = (f.strip() for f in row)
        try:
            day = parse_date(raw_date)
        except ValueError:
            reader.error(line_no, f"bad date {raw_date!r}")
            continue
        if not entity:
            reader.error(line_no, f"empty {header[1]}")
            continue
        if not code:
            reader.error(line_no, f"empty {header[2]}")
            continue
        try:
            value = parse_value(raw_value)
        except ValueError as exc:
            reader.error(line_no, str(exc))
            continue
        if not window.contains(day):
            reader.dropped += 1
            continue
        reader.accepted += 1
        rows.append((window.index_of(day), entity, code, value))
    return reader.finish(Activity.from_rows(rows))


# Bytes per block of whole lines the vectorised reader splits at once; bounds
# the Python strings alive at one time.
_BLOCK_BYTES = 1 << 20


def _read_plain_activity(path, window: DateWindow, header, plain_values):
    """Vectorised read of a plain activity file, or None when the row loop must decide.

    Plain means: no quote or carriage return, the characters the csv module
    treats specially; the exact header; four fields on every line, so no
    blank line; dates, entities and codes that are unpadded, non-empty and
    (dates) ISO; values that `plain_values` takes. Such a file parses to
    exactly what the row loop returns, and has no error to report.
    """
    day_of: dict[str, int] = {}  # date text -> offset from the window start
    entity_ids: dict[str, int] = {}  # provisional ids in first-seen order
    code_ids: dict[str, int] = {}
    no_rows = np.zeros(0, dtype=np.int64)
    blocks = [(no_rows, no_rows, no_rows, np.zeros(0))]
    total = dropped = 0
    with open(path, "rb") as handle:
        if handle.readline() != (",".join(header) + "\n").encode("ascii"):
            return None
        while block := handle.read(_BLOCK_BYTES):
            block += handle.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
            if b'"' in block or b"\r" in block:
                return None
            raw = np.frombuffer(block, dtype=np.uint8)
            line_ends = np.flatnonzero(raw == ord("\n"))
            commas_per_line = np.diff(
                np.searchsorted(np.flatnonzero(raw == ord(",")), line_ends), prepend=0
            )
            if (commas_per_line != 3).any():
                return None
            try:
                fields = block[:-1].decode("utf-8").replace("\n", ",").split(",")
            except UnicodeDecodeError:
                return None
            dates, entities, codes = fields[0::4], fields[1::4], fields[2::4]
            values = plain_values(fields[3::4])
            if values is None or not (
                _learn(day_of, dates, lambda text: window.index_of(date.fromisoformat(text)))
                and _learn(entity_ids, entities, lambda _: len(entity_ids))
                and _learn(code_ids, codes, lambda _: len(code_ids))
            ):
                return None
            day = np.fromiter(map(day_of.__getitem__, dates), np.int64, len(dates))
            keep = (day >= 0) & (day < window.n_days)
            total += len(day)
            dropped += len(day) - int(np.count_nonzero(keep))
            blocks.append((
                day[keep],
                np.fromiter(map(entity_ids.__getitem__, entities), np.int64, len(entities))[keep],
                np.fromiter(map(code_ids.__getitem__, codes), np.int64, len(codes))[keep],
                values[keep],
            ))

    day, entity, code, value = (np.concatenate(column) for column in zip(*blocks))
    entities, entity = _sorted_names(entity_ids, entity)
    codes, code = _sorted_names(code_ids, code)
    activity = Activity(entities=entities, codes=codes, day=day, entity=entity, code=code, value=value)
    return ParseResult(
        records=activity, accepted=total - dropped, dropped=dropped,
        total_rows=total, path=str(path),
    )


def _learn(known: dict, texts, parse) -> bool:
    """Map every new text to parse(text); False if one is empty, padded or rejected."""
    for text in set(texts).difference(known):
        if not text or text != text.strip():
            return False
        try:
            known[text] = parse(text)
        except ValueError:
            return False
    return True


def _sorted_names(ids: dict, column: np.ndarray):
    """Names used by accepted rows, sorted, and `column` renumbered to match."""
    by_id = list(ids)
    used = np.flatnonzero(np.bincount(column, minlength=len(by_id)))
    names = sorted(by_id[i] for i in used)
    renumber = np.zeros(len(by_id), dtype=np.int64)
    renumber[[ids[name] for name in names]] = np.arange(len(names))
    return tuple(names), renumber[column]


def _plain_counts(texts):
    """Trip counts written as ASCII digits, as floats; None for anything else.

    float() of a digit string rounds the exact integer once, as float(int())
    does, so counts above 2**53 and above the int64 range come out the same;
    one too large for a float goes to the row loop.
    """
    joined = "".join(texts)
    if not (all(texts) and joined.isascii() and joined.isdigit()):
        return None
    values = np.fromiter(map(float, texts), np.float64, len(texts))
    return values if np.isfinite(values).all() else None


def _plain_amounts(texts):
    """Finite, nonnegative amounts as floats; None for anything else.

    Where float() takes a padded amount at all, it reads it as the row loop
    reads the stripped text, so padding needs no check here.
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
            reader.error(line_no, f"per_capita_income {raw_income} must be nonnegative")
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
