"""Inclusive calendar windows and day indexing.

Every per-day structure in the pipeline is an array indexed by offset from the
analysis window start, so date arithmetic lives here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

from .errors import ConfigError


def parse_iso_date(text: str) -> date:
    """The date of an ASCII YYYY-MM-DD text, the one form every input and
    setting takes; ValueError for any other. date.fromisoformat alone takes
    more forms from Python 3.11 on, such as 20170801 and 2017-W31-2."""
    if not (len(text) == 10 and text.isascii() and text[4] == text[7] == "-"):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


@dataclass(frozen=True)
class DateWindow:
    """Inclusive [start, end] range of calendar days."""

    start: date
    end: date

    def __post_init__(self):
        if self.end < self.start:
            raise ConfigError(f"window end {self.end} precedes start {self.start}")

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    def index_of(self, day: date) -> int:
        """Offset of `day` from the window start (may be out of range)."""
        return (day - self.start).days

    def date_at(self, index: int) -> date:
        return self.start + timedelta(days=index)

    def days(self):
        for i in range(self.n_days):
            yield self.start + timedelta(days=i)
