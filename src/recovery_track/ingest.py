"""Parse and validate the five input CSVs and resolve Zip-level data to regions.

All files are UTF-8 (a byte order mark before the header is ignored), comma
separated, first row is a header that must match the documented schema
exactly, dates are YYYY-MM-DD (parse_iso_date). Every file is read in
blocks of whole lines (processes.line_blocks). Parsers
validate every row, collect all violations, and raise a single
ParseError naming the offending lines, so `accepted + dropped + errored`
always reconciles with the data row count. A line that is not UTF-8 is a row
error; so is a field the csv module cannot end, such as a quote never closed,
and no line after it is read. A file that cannot be opened or read raises a
ParseError too. A check refuses a value or a row by raising ValueError, whose
text is the row error: overlaps.csv, adjacency.csv, attributes.csv and the
taxonomy (aggregate.load_taxonomy) share one row loop, read_rows, which hands
each row's stripped fields to the reader's `take`.

trips.csv and transactions.csv are read into columns (`Activity`) in one
pass. A plain block, four fields on every line, is read from its bytes: its
values where _byte_values takes them, and its date and "entity,code" fields
by byte keys. Each field's bytes are looked up in a key table of the reader,
one for dates and one for pairs (_KeyTable), which decodes and parses a key
only the first time the reader meets it, so once per distinct key per
reader; no text is made for a field of a line, except for the values that
_byte_values leaves. The csv module splits any other block, whose dates and
pairs are parsed once per distinct text. A pair, by text or by key, gets a
provisional pair id that result() maps into the sorted pair table. Values
not read from bytes are parsed a chunk at a time (_values). Rows are
numbered by the file line they start on.

A file of processes.SPLIT_BYTES or more is read in two halves where
processes.split_point splits it: this process reads the lines before the
split, and a second reader (_read_part) the rest beside it
(processes.beside). Their columns, pairs, counts and row errors are merged
in file order (_ActivityReader.join), bit for bit as one reader of the whole
file gives them, ParseError included. The child's memory counts in a peak
RSS taken over the run and its children, not in the run's own.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import processes
from .errors import ParseError
from .windows import DateWindow, parse_iso_date

TRIPS_HEADER = ["date", "origin_region", "service_type", "trip_count"]
TRANSACTIONS_HEADER = ["date", "zip", "merchant_type", "amount"]
OVERLAPS_HEADER = ["region", "zip", "overlap_area"]
ADJACENCY_HEADER = ["region_a", "region_b"]
ATTRIBUTES_HEADER = ["region", "flood_fraction", "minority_fraction", "per_capita_income"]


@dataclass(frozen=True)
class Activity:
    """Accepted rows of trips.csv or transactions.csv as columns, in file order.

    The pair table lists each (entity, code) pair of the rows once, sorted by
    name: pair i is (entities[pair_entity[i]], codes[pair_code[i]]), with
    `entities` the region or Zip names and `codes` the service or merchant
    types, each sorted. Row r is `pair[r]` on day `day[r]`, the offset from
    the window start, with `value[r]` the trip count or amount as a float.
    `day` and `pair` are int32 and `value` is float64: 16 bytes a row.
    """

    entities: tuple[str, ...]
    codes: tuple[str, ...]
    pair_entity: np.ndarray
    pair_code: np.ndarray
    day: np.ndarray
    pair: np.ndarray
    value: np.ndarray


@dataclass
class ParseResult:
    """Records (an `Activity` for trips and transactions) plus the counters
    needed for coverage reconciliation."""

    records: object
    accepted: int
    dropped: int
    total_rows: int


@contextmanager
def reading(path):
    """Turn a file that cannot be opened or read into a ParseError naming it."""
    try:
        yield
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
        # the number of the next line to read; None once the csv module has read
        # to the end of the file, or stopped at a field it cannot end
        self.line_no = 1

    def rows_from(self, blocks, line_no, header):
        """(line number, fields) of the data rows the csv module reads from
        `blocks` of whole lines, the first line `line_no`, the header row where
        `header` is true; each block is decoded once (where it is not UTF-8, a
        line at a time by decoded()) and split at \\n, \\r\\n and a lone \\r, as a
        file opened with newline="" is. A row is numbered by the line it starts
        on, so a quoted field holding a line break moves no later row. A field
        the csv module cannot end within csv.field_size_limit() characters, such
        as a quoted field that is not closed, is its row's error and ends the file."""

        def lines(block):
            if header and not reader.line_num:  # the first block: a byte order mark is not text
                block = block.removeprefix(codecs.BOM_UTF8)
            try:
                return io.StringIO(block.decode("utf-8"), newline="")
            except UnicodeDecodeError:
                numbered = enumerate(block.splitlines(keepends=True), line_no + reader.line_num)
                return (self.decoded(line, n, header and n == line_no) for n, line in numbered)

        reader = csv.reader(itertools.chain.from_iterable(map(lines, blocks)))
        read = 0  # lines before the next row; one row may take several
        try:
            if header:
                self.check_header(next(reader, None))
            read = reader.line_num
            for row in reader:
                row_no, read = line_no + read, reader.line_num
                if not row:
                    continue  # blank lines are not data rows
                self.total_rows += 1
                if len(row) != len(self.expected_header):
                    self.errors.append((row_no, f"expected {len(self.expected_header)} fields, got {len(row)}"))
                    continue
                yield row_no, row
        except csv.Error:  # past a field never closed, rows have no defined ends
            self.total_rows += 1
            limit = csv.field_size_limit()
            self.errors.append((line_no + read, f"quoted field not closed, or a field over {limit} characters"))
            self.line_no = None

    def decoded(self, line: bytes, line_no, header) -> str:
        """`line` decoded. A line that is not UTF-8 refuses the file where it is
        the header, and is otherwise a data row in error, read as a blank line."""
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError:
            if header:
                raise ParseError(self.path, [(line_no, "not UTF-8 text")]) from None
            self.total_rows += 1
            self.errors.append((line_no, "not UTF-8 text"))
            return "\n"

    def check_header(self, header):
        if header is None:
            raise ParseError(self.path, [(1, "empty file, missing header row")])
        if [h.strip() for h in header] != self.expected_header:
            raise ParseError(
                self.path,
                [(1, f"header {header!r} does not match expected {self.expected_header!r}")],
            )

    def finish(self, records) -> ParseResult:
        if self.errors:
            # sorted: the activity reader finds a chunk's bad widths before its bad fields
            raise ParseError(
                self.path, sorted(self.errors), accepted=self.accepted,
                dropped=self.dropped, total_rows=self.total_rows,
            )
        return ParseResult(
            records=records, accepted=self.accepted,
            dropped=self.dropped, total_rows=self.total_rows,
        )


def parse_trips(path, window: DateWindow) -> ParseResult:
    """Parse trips.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRIPS_HEADER, _trip_count)


def parse_transactions(path, window: DateWindow) -> ParseResult:
    """Parse transactions.csv; rows outside `window` are dropped and counted."""
    return _parse_activity(path, window, TRANSACTIONS_HEADER, _amount)


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
    amount = number(text, "amount")
    if not math.isfinite(amount):
        raise ValueError(f"amount {text!r} is not a number")
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    return amount


# What a bad date, a pair with an empty name, or a refused value resolves to. Day
# offsets between any two calendar dates, under 3.7 million, never reach it.
_BAD = np.iinfo(np.int32).min

# Rows per chunk the csv module hands to validation; like the blocks of
# processes.BLOCK_BYTES tokenised at once, it bounds the Python strings alive.
_CHUNK_ROWS = 1 << 14


def _parse_activity(path, window: DateWindow, header, parse_value) -> ParseResult:
    reader = _ActivityReader(path, header, window, parse_value)
    mid = processes.split_point(path)
    with processes.beside(lambda: _read_part(reader, mid), split=mid is not None) as rest:
        reader.read(stop=mid)
        # where the csv module read on through the second half, its lines are taken in already
        if mid is not None and reader.line_no is not None:
            reader.join(rest())
    return reader.result()


class _ActivityReader(_RowReader):
    """The accepted rows of trips.csv or transactions.csv as column chunks of
    day, provisional pair id and value, taken in a range of whole lines at a time."""

    def __init__(self, path, header, window: DateWindow, parse_value):
        super().__init__(path, header)
        self.window = window
        self.parse_value = parse_value
        # a plain block's amounts, not its trip counts, may hold a point (_byte_values)
        self.point = parse_value is _amount
        # raw text -> offset from the window start, or provisional pair id; _BAD where refused.
        # No cache refers back to the reader, so the caches go with it, not with a later gc.
        self.day_of = _Known(lambda text: window.index_of(parse_iso_date(text.strip())))
        # the stripped entity and code names of each provisional pair id, one id a distinct pair
        # text, as two lists: a tuple a pair, once freed onto Python's free list, would keep the
        # memory around it resident. A name is one str (`distinct`), in however many pairs.
        self.names = entities, codes = [], []
        distinct: dict[str, str] = {}

        def new_pair(pair) -> int:
            entity, code = (name.strip() for name in _split(pair))
            if not (entity and code):
                return _BAD
            entities.append(distinct.setdefault(entity, entity))
            codes.append(distinct.setdefault(code, code))
            return len(codes) - 1

        # "entity,code" text, or (entity, code) texts of the csv module -> provisional pair id
        self.pair_of = _Known(new_pair)
        # the date and the "entity,code" field of a plain block's lines -> day, pair id (by bytes)
        self.keys = _KeyTable(self.day_of), _KeyTable(self.pair_of)
        # the kept rows of each chunk, one list per column: day, pair, value
        self.kept = tuple([np.zeros(0, t)] for t in (np.int32, np.int32, np.float64))

    def read(self, start=0, stop=None):
        """Take in the rows of the lines from byte `start` (a line start) to
        byte `stop` (a line start, or None for the end of the file)."""
        header = self.expected_header
        for lines, (day, pair, values), (dates, pairs, texts) in _activity_chunks(self, start, stop):
            bad = (day == _BAD) | (pair == _BAD) | np.isnan(values)
            for i in np.flatnonzero(bad).tolist():
                if day[i] == _BAD:
                    message = f"bad date {dates[i].strip()!r}"
                elif pair[i] == _BAD:
                    message = f"empty {header[2] if _split(pairs[i])[0].strip() else header[1]}"
                else:
                    message = _refusal(self.parse_value, texts[i].strip())
                self.errors.append((int(lines[i]), message))
            good = ~bad
            keep = good & (day >= 0) & (day < self.window.n_days)
            accepted = int(np.count_nonzero(keep))
            self.accepted += accepted
            self.dropped += int(np.count_nonzero(good)) - accepted
            for pieces, column in zip(self.kept, (day, pair, values)):
                pieces.append(column if accepted == len(keep) else column[keep])
            del dates, pairs, values, texts  # free the chunk before the next one is read

    def join(self, part):
        """Take in what _read_part gave of the lines from line self.line_no
        on, numbered from 0."""
        accepted, dropped, total_rows, errors, (entities, codes), (day, pair, value) = part
        self.accepted += accepted
        self.dropped += dropped
        self.total_rows += total_rows
        self.errors.extend((line + self.line_no, message) for line, message in errors)
        # the child's pairs take the ids after this reader's; result() merges those of the same names
        offset = len(self.names[1])
        for names, more in zip(self.names, (entities, codes)):
            names.extend(more)
        for pieces, more in zip(self.kept, (day, [piece + offset for piece in pair], value)):
            pieces.extend(more)

    def result(self) -> ParseResult:
        self.keys = None  # the key tables go before the columns are joined
        day, pair, value = map(_concatenate, self.kept)
        entity_names, code_names = self.names
        used = np.flatnonzero(np.bincount(pair, minlength=len(code_names))).tolist()
        # one place in the sorted pair table for every provisional id of a pair's names
        pairs, place = _sorted_index([(entity_names[i], code_names[i]) for i in used])
        renumber = np.zeros(len(code_names), np.int32)
        renumber[used] = place
        entities, pair_entity = _sorted_index([entity for entity, _ in pairs])
        codes, pair_code = _sorted_index([code for _, code in pairs])
        return self.finish(Activity(entities, codes, pair_entity, pair_code, day, renumber[pair], value))


def _activity_chunks(reader: _ActivityReader, start, stop):
    """(line numbers, (days, provisional pair ids, values), (dates, pairs,
    value texts)) of the data rows between byte offsets `start` and `stop`, a
    chunk at a time; the header is read where `start` is 0.

    Values are NaN where refused. The texts, by row index, are the raw
    fields, unstripped, for the messages of bad rows. CRLF line ends are read
    as LF. A plain block, UTF-8 with four fields on every line, is read by
    _plain_columns. The csv module reads any other block (_row_chunks), and
    the rest of the file from the first block that holds a quote or a
    carriage return not directly before a newline; on the other blocks it
    would split the same way.
    """
    with reading(reader.path), open(reader.path, "rb") as handle:
        header = start == 0
        for block in processes.line_blocks(handle, start, stop):
            crlf = b"\r" in block
            if b'"' in block or crlf and block.count(b"\r") != block.count(b"\r\n"):
                rest = itertools.chain([block], processes.line_blocks(handle, 0, None))  # no seek: a pipe cannot
                yield from _row_chunks(reader, reader.rows_from(rest, reader.line_no, header))
                reader.line_no = None
                return
            if crlf:
                block = block.replace(b"\r\n", b"\n")
            if not block.endswith(b"\n"):
                block += b"\n"
            if header:
                first, block = block.removeprefix(codecs.BOM_UTF8).split(b"\n", 1)
                reader.check_header(reader.decoded(first, 1, True).split(",") if first else [])
                reader.line_no += 1
                header = False
                if not block:
                    continue
            # zeros after the last line, which a key read past a short field may take in
            raw = np.frombuffer(block + bytes(_KEY_BYTES), dtype=np.uint8)
            line_ends = np.flatnonzero(raw == ord("\n"))
            commas = np.flatnonzero(raw == ord(","))
            # three commas a line: each line ends after its third and before the next line's first
            plain = len(commas) == 3 * len(line_ends) and (commas[2::3] < line_ends).all() and (
                commas[3::3] > line_ends[:-1]
            ).all()
            columns = None
            if plain:
                columns = _plain_columns(reader, block, raw, line_ends, commas.reshape(-1, 3))
            if columns is not None:
                reader.total_rows += len(line_ends)
                yield np.arange(reader.line_no, reader.line_no + len(line_ends)), *columns
            else:
                yield from _row_chunks(reader, reader.rows_from([block], reader.line_no, False))
                if reader.line_no is None:
                    return
            reader.line_no += len(line_ends)
        if header:
            reader.check_header(None)


def _plain_columns(reader: _ActivityReader, block, raw, line_ends, commas):
    """The (days, provisional pair ids, values) and the (dates, "entity,code"
    pairs, value texts) of the lines of a plain block, `commas` the three of
    each line; None where the block is not UTF-8 (rows_from names each line
    that is not).

    The date and pair fields are looked up by their bytes in the reader's key
    tables, which decode a field only the first time they meet it. The values
    are read from the bytes after each third comma (_byte_values, where the
    reader's `point` lets it read a point); the texts of those it leaves as
    NaN are cut out of the block at once and parsed by _values. The texts
    given back decode a line's field when asked for.
    """
    starts = np.concatenate(([0], line_ends[:-1] + 1))
    fields = (
        _Fields(block, starts, commas[:, 0]),
        _Fields(block, commas[:, 0] + 1, commas[:, 2]),
        _Fields(block, commas[:, 2] + 1, line_ends),
    )
    windows = sliding_window_view(raw, _KEY_BYTES)
    values = _byte_values(raw, commas[:, 2] + 1, line_ends, reader.point)
    left = np.flatnonzero(np.isnan(values))
    # the bytes of each value left and its line end, `size` from its third comma on, at one index
    size = line_ends[left] - commas[left, 2]
    at = np.arange(size.sum()) + np.repeat(commas[left, 2] + 1 - np.cumsum(size) + size, size)
    try:
        day, pair = (table.resolve(windows, column) for table, column in zip(reader.keys, fields))
        texts = str(raw[at], "utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    texts.pop()  # after the last line end
    values[left] = _values(reader.parse_value, texts)
    return (day, pair, values), fields


class _Fields:
    """The texts of one field of a plain block's lines, by line index, each
    decoded when asked for: block[starts[i]:stops[i]]."""

    def __init__(self, block, starts, stops):
        self.block = block
        self.starts = starts
        self.stops = stops

    def __getitem__(self, i):
        return self.block[self.starts[i] : self.stops[i]].decode("utf-8")


# A date or "entity,code" field of up to _KEY_BYTES bytes is looked up by its
# bytes, as _KEY_BYTES // 8 little-endian words, each byte past its width 0; a
# longer field by its text.
_KEY_BYTES = 24
_KEY_WORDS = _KEY_BYTES // 8
# Lines apart of the fields that _KeyTable.resolve looks up first
_SAMPLE_STRIDE = 64
# the low k bytes of a word, by k from 0 to 8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# an odd multiplier a word, for _key_hash
_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)


def _key_hash(words: np.ndarray) -> np.ndarray:
    """A multiplicative hash of each key, `words` its words by row, as uint64,
    whose top bits pick a table slot. Words that are 0 add nothing, so a key
    hashes the same whatever the number of words it is read as. Arrays only:
    a numpy scalar warns where the product wraps."""
    hashes = words[0] * _MULTIPLIERS[0]
    for j in range(1, len(words)):
        hashes += words[j] * _MULTIPLIERS[j]
    return hashes


class _KeyTable:
    """known[text] of the fields of one column of plain blocks, looked up by
    the fields' bytes, so that a field is decoded only the first time it is met.

    An open-addressing table, linearly probed, of the distinct fields of up to
    _KEY_BYTES met so far: each one's words and width, with known[its text].
    A key is found only where both its words and its width equal the stored
    ones, never by its hash alone. At most a quarter of the slots are taken:
    the table doubles as keys come.
    """

    def __init__(self, known: _Known):
        self.known = known
        self.count = 0
        self._clear(64)

    def _clear(self, size):
        self.words = np.zeros((_KEY_WORDS, size), np.uint64)
        self.widths = np.full(size, -1, np.int64)  # -1: an empty slot
        self.values = np.zeros(size, np.int32)
        self.shift = np.uint64(64 - (size.bit_length() - 1))

    def resolve(self, windows, fields: _Fields) -> np.ndarray:
        """known[text] of every field as int32, `windows` the block's
        _KEY_BYTES-byte windows. A field met for the first time is decoded,
        and raises UnicodeDecodeError where it is not UTF-8.

        The fields _SAMPLE_STRIDE lines apart are looked up first: the key of
        many lines, such as a date of a date-sorted file, is then stored
        before the rest are looked up, and few of them miss."""
        stride = slice(None, None, _SAMPLE_STRIDE)
        self._lookup(windows, _Fields(fields.block, fields.starts[stride], fields.stops[stride]))
        return self._lookup(windows, fields)

    def _lookup(self, windows, fields: _Fields) -> np.ndarray:
        """known[text] of every field, storing the keys not yet stored."""
        width = fields.stops - fields.starts
        narrowest, widest = int(width.min()), int(width.max())
        # words past the widest short field are 0 in every key: only the first `used` are read,
        # one row of words each
        used = max(1, min(_KEY_WORDS, -(-widest // 8)))
        words = np.ascontiguousarray(windows[fields.starts].view("<u8")[:, :used].T)
        for j in range(used):
            if narrowest < 8 * (j + 1):  # a field ends before this word does: zero the bytes after it
                # one mask for all where the widths are equal, as the dates of most files are
                bytes_in = min(widest - 8 * j, 8) if narrowest == widest else np.clip(width - 8 * j, 0, 8)
                words[j] &= _LOW_BYTES[bytes_in]
        slot = self._home(words)
        missed = self._find(words, width, slot)
        value = self.values[slot]
        if len(missed):
            long = missed[width[missed] > _KEY_BYTES]
            value[long] = [self.known[fields[i]] for i in long.tolist()]
            self._insert(words, width, slot, missed[width[missed] <= _KEY_BYTES], value, fields)
        return value

    def _insert(self, words, width, slot, rows, value, fields=None):
        """Store the keys of `rows`, probed to the empty slots `slot[rows]`,
        and set value[rows]. Rows probed to the same empty slot claim it, and
        one of them, its head, is stored there, with known[its text] where
        `fields` is given, else its value; then the rows probe again, and those
        of a head's key find it. So each key is stored, and decoded, once."""
        while len(rows):
            claims = np.empty(len(self.widths), np.intp)
            claims[slot[rows]] = rows
            heads = rows[claims[slot[rows]] == rows]
            if 4 * (self.count + len(heads)) > len(self.widths):
                self._grow(4 * (self.count + len(heads)))
                slot[rows] = self._home(words[:, rows])
            else:
                if fields is not None:
                    value[heads] = [self.known[text] for text in [fields[i] for i in heads.tolist()]]
                taken = slot[heads]
                self.words[: len(words), taken] = words[:, heads]
                self.widths[taken] = width[heads]
                self.values[taken] = value[heads]
                self.count += len(heads)
            probed = slot[rows]
            missed = self._find(words[:, rows], width[rows], probed)
            slot[rows] = probed
            found = np.ones(len(rows), bool)
            found[missed] = False
            value[rows[found]] = self.values[probed[found]]
            rows = rows[missed]

    def _grow(self, keys):
        """Double the table until `keys` fit in it, and store its keys again."""
        size = len(self.widths)
        while size < keys:
            size *= 2
        taken = np.flatnonzero(self.widths >= 0)
        words, width, value = self.words[:, taken], self.widths[taken], self.values[taken]
        self._clear(size)
        self.count = 0
        slot = self._home(words)
        self._insert(words, width, slot, self._find(words, width, slot), value)

    def _home(self, words):
        return (_key_hash(words) >> self.shift).astype(np.intp)

    def _find(self, words, width, slot):
        """Probe each key from `slot` on, to the slot it is stored in, or else
        to the first empty one; the rows of the keys not stored."""
        missed = []
        rows = np.flatnonzero(~self._holds(words, width, slot))
        while len(rows):
            empty = self.widths[slot[rows]] < 0
            missed.append(rows[empty])
            rows = rows[~empty]
            slot[rows] = (slot[rows] + 1) & (len(self.widths) - 1)
            rows = rows[~self._holds(words[:, rows], width[rows], slot[rows])]
        return np.concatenate(missed) if missed else rows

    def _holds(self, words, width, slot):
        """Whether each slot holds its row's key."""
        same = self.widths[slot] == width
        for j in range(len(words)):
            same &= self.words[j][slot] == words[j]
        return same


def _read_part(reader: _ActivityReader, mid):
    """What a new reader of `reader`'s file takes in of the lines from byte
    `mid` on, numbered from 0, for join(): its counters, row errors, the
    names of its provisional pair ids and its column chunks."""
    part = _ActivityReader(reader.path, reader.expected_header, reader.window, reader.parse_value)
    part.line_no = 0
    part.read(start=mid)
    return part.accepted, part.dropped, part.total_rows, part.errors, part.names, part.kept


def _row_chunks(reader: _ActivityReader, records):
    """The columns of (line number, four fields) records, as _activity_chunks
    gives them, _CHUNK_ROWS at a time: each pair is an (entity, code) tuple,
    and dates and pairs are looked up once per distinct text in the reader's
    caches."""
    while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
        lines, dates, entities, codes, texts = zip(*((n, *fields) for n, fields in chunk))
        pairs = list(zip(entities, codes))
        columns = _resolve(reader.day_of, dates), _resolve(reader.pair_of, pairs), _values(reader.parse_value, texts)
        yield np.array(lines, dtype=np.int64), columns, (dates, pairs, texts)


def _concatenate(pieces: list) -> np.ndarray:
    """np.concatenate(pieces), emptying `pieces` so that each is freed once copied."""
    whole = np.concatenate(pieces)
    pieces.clear()
    return whole


class _Known(dict):
    """parse(key) of each key looked up, or `refused` where that raises
    ValueError; computed on its first lookup and kept."""

    def __init__(self, parse, refused=_BAD):
        super().__init__()
        self.parse = parse
        self.refused = refused

    def __missing__(self, key):
        try:
            value = self.parse(key)
        except ValueError:
            value = self.refused
        self[key] = value
        return value


def _split(pair):
    """The (entity, code) texts of an "entity,code" text or of the csv module's tuple."""
    return pair.split(",") if isinstance(pair, str) else pair


def _resolve(known: _Known, texts, dtype=np.int32) -> np.ndarray:
    """known[text] of every text, in one pass; each text `known` lacks is
    parsed on its first lookup, so once per distinct text."""
    return np.fromiter(map(known.__getitem__, texts), dtype, len(texts))


def _values(parse_value, texts) -> np.ndarray:
    """parse_value(text.strip()) of every value text as float64, NaN where
    refused. Amounts are read by one float() pass over the texts where it
    takes them all, and refused as _amount refuses them; float() ignores the
    very whitespace that strip() removes from a text it takes. Trip counts,
    and the amounts of a chunk where float() raises, are parsed once per
    distinct text."""
    if parse_value is _amount:
        try:
            amounts = np.fromiter(map(float, texts), np.float64, len(texts))
        except ValueError:
            pass
        else:
            amounts[~((amounts >= 0) & (amounts < math.inf))] = math.nan  # NaN, negative or infinite
            return amounts
    return _resolve(_Known(lambda text: parse_value(text.strip()), math.nan), texts, np.float64)


def _refusal(parse_value, text) -> str:
    """The message `parse_value` refuses `text` with."""
    try:
        parse_value(text)
    except ValueError as exc:
        return str(exc)


def _sorted_index(keys: list):
    """The distinct `keys`, sorted, and the place of each key among them, as int32."""
    distinct = sorted(set(keys))
    place = {key: i for i, key in enumerate(distinct)}
    return tuple(distinct), np.array([place[key] for key in keys], np.int32)


# 10**k as a float for k up to 15, each exact
_POWERS = np.array([float(10**k) for k in range(16)])


def _byte_values(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, point: bool) -> np.ndarray:
    """The values at raw[starts[i]:stops[i]] as floats, each of 1-15 ASCII
    digits with, where `point` holds, at most one "." among or around them
    ("12.", ".5"); NaN for any other value.

    A value is its digits as an integer over 10**k, k the digits after the
    point. Every integer below 10**15 is below 2**53, so both are floats
    exactly and their quotient, rounded once, equals float(text) bit for bit,
    and float(int(text)) where there is no point. The 15 is a property of
    float64; a longer value goes through parse_value.
    """
    lengths = stops - starts
    refused = lengths > 15 + point
    whole = np.zeros(len(stops), np.int64)
    if point:
        points = np.zeros(len(stops), np.int64)  # points read so far
        places = np.zeros(len(stops), np.int64)  # digits read after a point
    for k in range(min(lengths.max(), 15 + point)):
        # the k-th byte of each value, or its last for a shorter one; a byte below "0" wraps past 9
        byte = raw[np.minimum(starts + k, stops - 1)]
        digit = byte - np.uint8(ord("0"))
        read = lengths > k
        if point:
            dot = byte == ord(".")
            refused |= read & (digit > 9) & ~dot
            points += dot & read
            read &= ~dot
            places += read & (points > 0)
        else:
            refused |= read & (digit > 9)
        whole = np.where(read, whole * 10 + digit, whole)
    if not point:
        refused |= lengths < 1
        return np.where(refused, math.nan, whole)
    digits = lengths - points
    refused |= (points > 1) | (digits < 1) | (digits > 15)
    return np.where(refused, math.nan, whole / _POWERS[places])


def read_rows(path, header, take, records) -> ParseResult:
    """`records` once take(*fields) has been called with the stripped fields
    of each data row of `path`, whose header must be `header`. A ValueError
    from take refuses its row, with the error's text; take changes nothing
    before it has made every check."""
    reader = _RowReader(path, header)
    with reading(path), open(path, "rb") as handle:
        for line_no, row in reader.rows_from(processes.line_blocks(handle, 0, None), 1, True):
            try:  # take alone: a UnicodeDecodeError of the reading is a ValueError too
                take(*(field.strip() for field in row))
            except ValueError as exc:
                reader.errors.append((line_no, str(exc)))
            else:
                reader.accepted += 1
    return reader.finish(records)


def number(text: str, column: str) -> float:
    """float(text), refused as a ValueError naming `column`."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{column} {text!r} is not a number") from None


def parse_overlaps(path) -> ParseResult:
    """Parse overlaps.csv into {(region, zip): area}; pairs must be unique, areas positive."""
    areas: dict[tuple[str, str], float] = {}

    def take(region, zip_code, text):
        if not region:
            raise ValueError("empty region")
        if any(mark in region for mark in ",\n\r"):  # the keys of artifacts that never quote
            raise ValueError(f"region {region!r} holds a comma or line break, which no artifact can carry")
        if not zip_code:
            raise ValueError("empty zip")
        area = number(text, "overlap_area")
        if not math.isfinite(area):
            raise ValueError(f"overlap_area {text!r} is not a finite number")
        if area <= 0:
            raise ValueError(f"overlap_area must be positive, got {text}")
        if (region, zip_code) in areas:
            raise ValueError(f"duplicate (region, zip) pair ({region}, {zip_code})")
        areas[region, zip_code] = area

    return read_rows(path, OVERLAPS_HEADER, take, areas)


def parse_adjacency(path) -> ParseResult:
    """Parse adjacency.csv (undirected edge list) into region -> neighbor set."""
    neighbors: dict[str, set[str]] = {}

    def take(a, b):
        if not a or not b:
            raise ValueError("empty region identifier")
        if a == b:
            raise ValueError(f"self-loop on region {a}")
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    return read_rows(path, ADJACENCY_HEADER, take, neighbors)


def parse_attributes(path) -> ParseResult:
    """Parse attributes.csv into {region: (flood_fraction, minority_fraction,
    per_capita_income)}, in ATTRIBUTES_HEADER order; regions must be unique."""
    records: dict[str, tuple[float, float, float]] = {}

    def take(region, raw_flood, raw_minority, raw_income):
        if not region:
            raise ValueError("empty region")
        if region in records:
            raise ValueError(f"duplicate region {region}")
        flood, minority, income = map(number, (raw_flood, raw_minority, raw_income), ATTRIBUTES_HEADER[1:])
        if not (0.0 <= flood <= 1.0):
            raise ValueError(f"flood_fraction {raw_flood} outside [0, 1]")
        if not (0.0 <= minority <= 1.0):
            raise ValueError(f"minority_fraction {raw_minority} outside [0, 1]")
        if not math.isfinite(income) or income < 0:
            raise ValueError(f"per_capita_income {raw_income} must be a finite number >= 0")
        records[region] = (flood, minority, income)

    return read_rows(path, ATTRIBUTES_HEADER, take, records)


def resolve_crosswalk(areas: dict[tuple[str, str], float]) -> dict[str, str]:
    """{region: zip} in region order from parse_overlaps' {(region, zip): area}.

    Each region keeps the least (-area, zip): the largest overlap area, ties to
    the smallest zip, whatever the order of `areas`.
    """
    best: dict[str, tuple[float, str]] = {}
    for (region, zip_code), area in areas.items():
        if region not in best or (-area, zip_code) < best[region]:
            best[region] = (-area, zip_code)
    return {region: zip_code for region, (_, zip_code) in sorted(best.items())}


@dataclass
class BroadcastResult:
    """Each region's Zip as a row of the per-Zip transaction columns.

    `records[i]` is the index in `Activity.entities` of the Zip that
    `regions[i]` resolves to, or -1 when that Zip has no accepted rows.
    """

    regions: list[str]
    records: np.ndarray


def broadcast_zip_to_regions(transactions: Activity, crosswalk: dict[str, str]) -> BroadcastResult:
    """Point every region at the transaction stream of its resolved zip.

    Values are inherited whole, not apportioned: if two regions resolve to the
    same zip, both index that zip's amounts. Rows whose zip resolves no region
    are used nowhere.
    """
    regions = sorted(crosswalk)
    zip_row = {zip_code: i for i, zip_code in enumerate(transactions.entities)}
    records = np.array([zip_row.get(crosswalk[region], -1) for region in regions], dtype=np.int64)
    return BroadcastResult(regions=regions, records=records)
