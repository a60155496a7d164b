"""Exception types shared across the pipeline."""

from __future__ import annotations


class RecoveryTrackError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RecoveryTrackError):
    """A file could not be read, or failed schema or row validation.

    Carries the per-row failures plus the accepted/dropped counters so callers
    can reconcile `accepted + dropped + errored == data rows`; `detail`
    describes a failure of the whole file.
    """

    def __init__(self, path, row_errors, accepted=0, dropped=0, total_rows=0, detail="invalid file"):
        self.path = str(path)
        self.row_errors = list(row_errors)  # (line_number, message) pairs
        self.accepted = accepted
        self.dropped = dropped
        self.total_rows = total_rows
        if self.row_errors:
            line, msg = self.row_errors[0]
            detail = f"{len(self.row_errors)} invalid row(s); first at line {line}: {msg}"
        super().__init__(f"{self.path}: {detail}")

    @property
    def errored(self) -> int:
        return len(self.row_errors)


class ConfigError(RecoveryTrackError):
    """Pipeline or scenario configuration is invalid."""


class TaxonomyError(RecoveryTrackError):
    """Service taxonomy is invalid or a service code cannot be classified."""


class SeriesError(RecoveryTrackError):
    """Baseline, smoothing, or change computation violated a precondition."""


class MetricError(RecoveryTrackError):
    """Normalization or categorization violated a precondition."""


class StatsError(RecoveryTrackError):
    """A statistic's precondition failed (degenerate table, constant field, ...)."""


class ScenarioError(ConfigError):
    """Synthetic scenario specification is invalid."""


class PipelineError(RecoveryTrackError):
    """A stage could not run, e.g. a missing upstream artifact."""
