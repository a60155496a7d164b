"""Service taxonomy and weighted daily activity series.

Each service type maps to an essential or non-essential category and a weight.
A day's measurement for a (region, source, category) key is the weighted sum
of that day's per-type totals. Weights live in a config CSV (percent on disk,
fractions in memory); the bundled default ships with the package.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, TaxonomyError
from .ingest import Activity, BroadcastResult
from .windows import DateWindow

ESSENTIAL = "essential"
NON_ESSENTIAL = "non-essential"
CATEGORIES = (ESSENTIAL, NON_ESSENTIAL)

SOURCE_TRIP = "trip"
SOURCE_TRANSACTION = "transaction"
SOURCES = (SOURCE_TRIP, SOURCE_TRANSACTION)

TAXONOMY_HEADER = ["service_type", "category", "weight_percent"]

POLICY_ERROR = "error"
POLICY_SKIP = "skip-with-warning"


@dataclass(frozen=True)
class TaxonomyEntry:
    category: str
    weight: float  # fraction, not percent


class ServiceTaxonomy:
    """Mapping of service-type code to category and weight fraction."""

    def __init__(self, entries: dict[str, TaxonomyEntry]):
        self._entries = dict(entries)
        # fixed summation order per category for deterministic dot products
        self._codes_by_category = {
            cat: tuple(sorted(c for c, e in self._entries.items() if e.category == cat))
            for cat in CATEGORIES
        }

    def __contains__(self, code: str) -> bool:
        return code in self._entries

    def __getitem__(self, code: str) -> TaxonomyEntry:
        try:
            return self._entries[code]
        except KeyError:
            raise TaxonomyError(f"unknown service type {code!r}") from None

    def codes(self, category: str) -> tuple[str, ...]:
        return self._codes_by_category[category]

    @property
    def entries(self) -> dict[str, TaxonomyEntry]:
        return dict(self._entries)

    def renormalized(self) -> "ServiceTaxonomy":
        """Rescale weights so each category sums to 1."""
        totals = {
            cat: math.fsum(self._entries[c].weight for c in self.codes(cat))
            for cat in CATEGORIES
        }
        entries = {}
        for code, entry in self._entries.items():
            total = totals[entry.category]
            if total <= 0:
                raise TaxonomyError(f"category {entry.category} has zero total weight")
            entries[code] = TaxonomyEntry(entry.category, entry.weight / total)
        return ServiceTaxonomy(entries)


def load_taxonomy(path=None, renormalize: bool = False) -> ServiceTaxonomy:
    """Load a taxonomy CSV; `path=None` loads the bundled default."""
    if path is None:
        ref = resources.files("recovery_track").joinpath("data/taxonomy.csv")
        with resources.as_file(ref) as bundled:
            return load_taxonomy(bundled, renormalize=renormalize)

    entries: dict[str, TaxonomyEntry] = {}
    errors = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TAXONOMY_HEADER:
            raise ParseError(path, [(1, f"header must be {TAXONOMY_HEADER!r}")])
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                errors.append((line_no, f"expected 3 fields, got {len(row)}"))
                continue
            code, category, raw_weight = (f.strip() for f in row)
            if not code:
                errors.append((line_no, "empty service_type"))
                continue
            if category not in CATEGORIES:
                errors.append((line_no, f"category must be one of {CATEGORIES}, got {category!r}"))
                continue
            try:
                weight_percent = float(raw_weight)
            except ValueError:
                errors.append((line_no, f"weight_percent {raw_weight!r} is not a number"))
                continue
            if not math.isfinite(weight_percent) or weight_percent < 0:
                errors.append((line_no, f"weight_percent must be nonnegative, got {raw_weight}"))
                continue
            if code in entries:
                errors.append((line_no, f"duplicate service_type {code!r}"))
                continue
            entries[code] = TaxonomyEntry(category, weight_percent / 100.0)
    if errors:
        raise ParseError(path, errors)
    if not entries:
        raise TaxonomyError(f"{path}: taxonomy has no entries")
    taxonomy = ServiceTaxonomy(entries)
    return taxonomy.renormalized() if renormalize else taxonomy


def weighted_measurement(values, taxonomy: ServiceTaxonomy, category: str) -> float:
    """Weighted sum of per-type values over one category.

    Terms are added in lexicographic code order so the float result does not
    depend on the mapping's insertion order. Keys outside `category` are an
    error, not a silent skip.
    """
    for code in values:
        entry = taxonomy[code]
        if entry.category != category:
            raise TaxonomyError(
                f"service type {code!r} is {entry.category}, not {category}"
            )
    return math.fsum(taxonomy[code].weight * values[code] for code in sorted(values))


@dataclass
class SeriesSet:
    """Daily series of (region, source, category) keys over one window, as one matrix.

    Row i of `values`, shape (n_keys, window.n_days), is the series of
    `key_list[i]`; keys are in sorted order.
    """

    window: DateWindow
    key_list: list[tuple[str, str, str]]
    values: np.ndarray

    def keys(self) -> list[tuple[str, str, str]]:
        return self.key_list

    def __getitem__(self, key) -> np.ndarray:
        row = bisect.bisect_left(self.key_list, key)
        if row == len(self.key_list) or self.key_list[row] != key:
            raise KeyError(key)
        return self.values[row]

    @property
    def regions(self) -> list[str]:
        """Regions with at least one key, in sorted order."""
        return list(dict.fromkeys(key[0] for key in self.key_list))


def build_daily_series(
    trips: Activity,
    transactions: Activity,
    broadcast: BroadcastResult,
    taxonomy: ServiceTaxonomy,
    window: DateWindow,
    unknown_policy: str = POLICY_ERROR,
):
    """Aggregate both sources into one daily series per (region, source, category).

    All four series exist for every region of `broadcast`, zero-filled where
    no activity was recorded. Trips reduce per region and transactions per
    Zip; each region then takes its Zip's row. Rows of entities no region
    takes are left out (the caller counts them). Each day's value is the
    weighted_measurement of its per-type math.fsum totals, so results are
    independent of row order. Unknown codes count once per input row.
    Returns (SeriesSet, unknown_code_counts).
    """
    if unknown_policy not in (POLICY_ERROR, POLICY_SKIP):
        raise TaxonomyError(f"unknown_policy must be {POLICY_ERROR!r} or {POLICY_SKIP!r}")

    regions = list(broadcast.regions)
    trip_row = {region: i for i, region in enumerate(trips.entities)}
    sources = (
        (SOURCE_TRIP, trips, np.array([trip_row.get(r, -1) for r in regions], dtype=np.int64)),
        (SOURCE_TRANSACTION, transactions, broadcast.records),
    )
    unknown: dict[str, int] = {}
    per_source = {}
    for source, activity, region_rows in sources:
        per_source[source], counts = _region_series(
            activity, region_rows, taxonomy, window, source, unknown_policy
        )
        for code, rows in counts.items():
            unknown[code] = unknown.get(code, 0) + rows

    # regions come sorted and CATEGORIES is in sorted order, so this is key order
    key_sources = sorted(SOURCES)
    keys = [(r, s, c) for r in regions for s in key_sources for c in CATEGORIES]
    values = np.stack([per_source[s] for s in key_sources], axis=1)
    values = values.reshape(len(keys), window.n_days)
    return SeriesSet(window, keys, values), dict(sorted(unknown.items()))


def _region_series(activity, region_rows, taxonomy, window, source, unknown_policy):
    """(regions, categories, days) series of one source, plus its unknown-code row counts.

    `region_rows[i]` is the entity whose rows region i takes, or -1 for none.
    """
    order = [code for category in CATEGORIES for code in taxonomy.codes(category)]
    position = {code: i for i, code in enumerate(order)}
    code_position = np.array([position.get(code, -1) for code in activity.codes], dtype=np.int64)
    taken = np.zeros(len(activity.entities), dtype=bool)
    taken[region_rows[region_rows >= 0]] = True

    rows_taken = taken[activity.entity]
    rows_known = code_position[activity.code] >= 0
    unknown_rows = rows_taken & ~rows_known
    unknown = {}
    if unknown_rows.any():
        if unknown_policy == POLICY_ERROR:
            first = activity.codes[activity.code[np.argmax(unknown_rows)]]
            raise TaxonomyError(f"unknown service type {first!r} in {source} data")
        counts = np.bincount(activity.code[unknown_rows], minlength=len(activity.codes))
        unknown = {activity.codes[i]: int(counts[i]) for i in np.flatnonzero(counts)}

    # entity x code x day totals over the taken entities only
    n_taken, n_codes, n_days = int(taken.sum()), len(order), window.n_days
    compact = np.cumsum(taken) - 1
    keep = rows_taken & rows_known
    cells = (
        compact[activity.entity[keep]] * n_codes + code_position[activity.code[keep]]
    ) * n_days + activity.day[keep]
    totals = _cell_fsums(cells, activity.value[keep], n_taken * n_codes * n_days)
    totals = totals.reshape(n_taken, n_codes, n_days)

    weights = np.array([taxonomy[code].weight for code in order])
    entity_series = np.zeros((n_taken + 1, len(CATEGORIES), n_days))  # last row: no data
    first = 0
    for c, category in enumerate(CATEGORIES):
        last = first + len(taxonomy.codes(category))
        with np.errstate(over="ignore", invalid="ignore"):  # such cells go to math.fsum
            products = totals[:, first:last, :] * weights[first:last, None]
            entity_series[:n_taken, c] = _exact_sums(products)
        first = last
    series_row = np.full(len(region_rows), n_taken)
    has_rows = region_rows >= 0
    series_row[has_rows] = compact[region_rows[has_rows]]
    return entity_series[series_row], unknown


def _cell_fsums(cells, values, n_cells):
    """math.fsum of `values` grouped by cell index; cells without rows are 0.0."""
    rows_in_cell = np.bincount(cells, minlength=n_cells)
    totals = np.zeros(n_cells)
    # a lone row is its own sum, except -0.0: fsum([-0.0]) is 0.0
    alone = (rows_in_cell[cells] == 1) & ~np.signbit(values)
    totals[cells[alone]] = values[alone]
    grouped = np.flatnonzero(~alone)
    if grouped.size:
        grouped = grouped[np.argsort(cells[grouped], kind="stable")]
        for group in np.split(grouped, np.flatnonzero(np.diff(cells[grouped])) + 1):
            totals[cells[group[0]]] = math.fsum(values[group].tolist())
    return totals


def _two_sum(a, b):
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _exact_sums(terms):
    """math.fsum over axis 1 of a (rows, terms, days) array, vectorised.

    The terms are added in order with TwoSum, which keeps each rounding error.
    Where the errors themselves add up without rounding, sum + errors is the
    exact total rounded once, which is what math.fsum returns. Cells where
    that check fails (a non-finite term or partial sum makes the error NaN),
    or with a -0.0 term, whose sign fsum decides, are summed with math.fsum.
    """
    total = np.zeros((terms.shape[0], terms.shape[2]))
    error = np.zeros_like(total)
    exact = np.ones(total.shape, dtype=bool)
    for k in range(terms.shape[1]):
        total, rounding = _two_sum(total, terms[:, k])
        error, residue = _two_sum(error, rounding)
        exact &= residue == 0
    result = total + error
    redo = ~exact | ((terms == 0) & np.signbit(terms)).any(axis=1)
    for row, day in zip(*np.nonzero(redo)):
        result[row, day] = math.fsum(terms[row, :, day].tolist())
    return result
