"""Every crafted malformed file must fail (or warn) the documented way."""

from __future__ import annotations

from datetime import date

import pytest

import corpus
from conftest import write_csv
from recovery_track.errors import ParseError
from recovery_track.ingest import (
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
)
from recovery_track.windows import DateWindow

WINDOW = DateWindow(date(2017, 8, 1), date(2017, 12, 25))

PARSERS = {
    "trips": lambda path: parse_trips(path, WINDOW),
    "transactions": lambda path: parse_transactions(path, WINDOW),
    "overlaps": parse_overlaps,
    "adjacency": parse_adjacency,
    "attributes": parse_attributes,
}


def _data_rows(text: str) -> int:
    lines = [line for line in text.splitlines() if line]
    return max(0, len(lines) - 1)


@pytest.mark.parametrize(
    "name,parser_key,text,expectation",
    corpus.CASES,
    ids=[case[0] for case in corpus.CASES],
)
def test_malformed_corpus(tmp_path, name, parser_key, text, expectation):
    path = write_csv(tmp_path, f"{name}.csv", text)
    parser = PARSERS[parser_key]
    kind, detail = expectation
    if kind == "error":
        with pytest.raises(ParseError) as err:
            parser(path)
        exc = err.value
        assert detail in str(exc)
        assert exc.total_rows == _data_rows(text)
        assert exc.accepted + exc.dropped + exc.errored == exc.total_rows
    elif kind == "header-error":
        with pytest.raises(ParseError) as err:
            parser(path)
        exc = err.value
        assert detail in str(exc)
        # rejected before any data row was scanned
        assert exc.accepted == 0 and exc.dropped == 0 and exc.total_rows == 0
    else:
        result = parser(path)
        assert result.dropped == detail
        assert result.accepted + result.dropped == result.total_rows


def test_corpus_has_at_least_twenty_files():
    assert len(corpus.CASES) >= 20
