"""Service taxonomy and weighted daily activity series.

Each service type maps to an essential or non-essential category and a weight.
A day's measurement for a (region, source, category) key is the weighted sum
of that day's per-type totals. Weights live in a config CSV (percent on disk,
fractions in memory); the bundled default ships with the package. Either is
read once, by load_taxonomy, into the one layout all consumers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SeriesError, TaxonomyError
from .ingest import Activity, BroadcastResult, number, read_rows
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
class ServiceTaxonomy:
    """The service types: `codes`, each category's sorted, categories in CATEGORIES
    order; `weights[i]`, the float64 weight fraction (not percent) of `codes[i]`;
    `rows[c]`, the slice of `codes` that CATEGORIES[c] takes, empty if it has none."""

    codes: tuple[str, ...]
    weights: np.ndarray
    rows: tuple[slice, ...]


def load_taxonomy(path=None, renormalize: bool = False) -> ServiceTaxonomy:
    """Load a taxonomy CSV; `path=None` loads the bundled default. With
    `renormalize`, each category's weights are divided by their math.fsum;
    a category with codes whose weights sum to zero is refused."""
    if path is None:
        path = Path(__file__).with_name("data") / "taxonomy.csv"

    entries: dict[str, tuple[str, float]] = {}  # code -> (category, weight fraction)

    def take(code, category, text):
        if not code:
            raise ValueError("empty service_type")
        if category not in CATEGORIES:
            raise ValueError(f"category must be one of {CATEGORIES}, got {category!r}")
        weight_percent = number(text, "weight_percent")
        if not math.isfinite(weight_percent):
            raise ValueError(f"weight_percent {text!r} is not a finite number")
        if weight_percent < 0:
            raise ValueError(f"weight_percent must be nonnegative, got {text}")
        if code in entries:
            raise ValueError(f"duplicate service_type {code!r}")
        entries[code] = (category, weight_percent / 100.0)

    read_rows(path, TAXONOMY_HEADER, take, entries)
    if not entries:
        raise TaxonomyError(f"{path}: taxonomy has no entries")
    codes, weights, rows = [], [], []
    for category in CATEGORIES:
        mine = sorted(code for code, (of, _) in entries.items() if of == category)
        shares = [entries[code][1] for code in mine]
        total = math.fsum(shares) if renormalize and mine else 1.0  # x / 1.0 is x
        if total <= 0:
            raise TaxonomyError(f"category {category} has zero total weight")
        rows.append(slice(len(codes), len(codes) + len(mine)))
        codes += mine
        weights += [share / total for share in shares]
    return ServiceTaxonomy(tuple(codes), np.array(weights, dtype=np.float64), tuple(rows))


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
    takes are left out, and counted per entity. Each day's value is the
    weighted sum over the category's types of their per-type math.fsum
    totals, itself summed as by math.fsum, so results are independent of row
    order. Unknown codes count once per input row; any policy but
    POLICY_ERROR skips them.
    Returns (SeriesSet, unknown_code_counts, unmatched), where `unmatched`
    maps each source to {entity: accepted rows} of the entities no region takes.
    """
    regions = list(broadcast.regions)
    trip_row = {region: i for i, region in enumerate(trips.entities)}
    sources = (
        (SOURCE_TRIP, trips, np.array([trip_row.get(r, -1) for r in regions], dtype=np.int64)),
        (SOURCE_TRANSACTION, transactions, broadcast.records),
    )
    unknown: dict[str, int] = {}
    per_source, unmatched = {}, {}
    for source, activity, region_rows in sources:
        per_source[source], counts, unmatched[source] = _region_series(
            activity, region_rows, taxonomy, window, source, unknown_policy
        )
        for code, rows in counts.items():
            unknown[code] = unknown.get(code, 0) + rows

    # regions come sorted and CATEGORIES is in sorted order, so this is key order
    key_sources = sorted(SOURCES)
    keys = [(r, s, c) for r in regions for s in key_sources for c in CATEGORIES]
    values = np.stack([per_source[s] for s in key_sources], axis=1)
    values = values.reshape(len(keys), window.n_days)
    return SeriesSet(window, keys, values), dict(sorted(unknown.items())), unmatched


def _region_series(activity, region_rows, taxonomy, window, source, unknown_policy):
    """(regions, categories, days) series of one source, its unknown-code row
    counts, and the accepted rows of each entity no region takes, in entity order.

    `region_rows[i]` is the entity whose rows region i takes, or -1 for none.
    """
    position = {code: i for i, code in enumerate(taxonomy.codes)}
    taken = np.zeros(len(activity.entities), dtype=bool)
    taken[region_rows[region_rows >= 0]] = True
    # per pair of the activity's pair table: its code's place in taxonomy.codes
    # (-1 for none), and whether its rows are kept
    pair_position = np.array([position.get(code, -1) for code in activity.codes], np.int32)[activity.pair_code]
    pair_taken = taken[activity.pair_entity]
    pair_unknown = pair_taken & (pair_position < 0)
    pair_kept = pair_taken & ~pair_unknown

    keep = None  # rows of taken entities with known codes, where not all rows are
    unknown, unmatched = {}, {}
    if not pair_kept.all():
        pair_rows = np.bincount(activity.pair, minlength=len(pair_kept))
        rows = np.bincount(activity.pair_entity, pair_rows, len(activity.entities))
        unmatched = {activity.entities[i]: int(rows[i]) for i in np.flatnonzero(~taken)}
        if pair_unknown.any():
            if unknown_policy == POLICY_ERROR:
                first = activity.pair_code[activity.pair[np.argmax(pair_unknown[activity.pair])]]
                raise TaxonomyError(f"unknown service type {activity.codes[first]!r} in {source} data")
            counts = np.bincount(activity.pair_code, pair_rows * pair_unknown, len(activity.codes))
            unknown = {activity.codes[i]: int(counts[i]) for i in np.flatnonzero(counts)}
        keep = pair_kept[activity.pair]

    # entity x code x day totals over the taken entities only: each pair's cell
    # on day 0, then each row's, in int64 so that no city's cell count overflows it
    n_taken, n_codes, n_days = int(taken.sum()), len(taxonomy.codes), window.n_days
    compact = np.cumsum(taken, dtype=np.int64) - 1
    cells = ((compact[activity.pair_entity] * n_codes + pair_position) * n_days)[activity.pair]
    cells += activity.day
    values = activity.value
    if keep is not None:
        cells, values = cells[keep], values[keep]
    n_cells = n_taken * n_codes * n_days
    try:  # the dense arrays, of float64: a MemoryError names their shape
        totals = _cell_fsums(cells, values, n_cells)
        del cells, values
        totals = totals.reshape(n_taken, n_codes, n_days)
        entity_names = [activity.entities[i] for i in np.flatnonzero(taken)]
        _refuse_overflow(totals, source, entity_names, [f"service type {code!r}" for code in taxonomy.codes], window)

        entity_series = np.zeros((n_taken + 1, len(CATEGORIES), n_days))  # last row: no data
        for c, rows in enumerate(taxonomy.rows):
            with np.errstate(over="ignore"):  # such cells go to math.fsum
                products = totals[:, rows, :] * taxonomy.weights[rows, None]
            entity_series[:n_taken, c] = exact_sums(products)
        category_names = [f"{category} services" for category in CATEGORIES]
        _refuse_overflow(entity_series[:n_taken], source, entity_names, category_names, window)
        series_row = np.full(len(region_rows), n_taken)
        has_rows = region_rows >= 0
        series_row[has_rows] = compact[region_rows[has_rows]]
        return entity_series[series_row], unknown, unmatched
    except MemoryError:
        kind = "region" if source == SOURCE_TRIP else "Zip"
        raise SeriesError(
            f"{source} data: the daily totals of {n_taken:,} {kind}s x {n_codes} service types x {n_days:,} days "
            f"({n_cells:,} cells, {n_cells * 8 / 2**30:.2f} GiB) do not fit in memory"
        ) from None


def _refuse_overflow(sums, source, entity_names, column_names, window):
    """SeriesError naming the first (entity, column, day) cell of `sums` that is not finite.

    The inputs are finite and nonnegative, so only a sum past the float range is not.
    """
    if np.isfinite(sums).all():
        return
    entity, column, day = np.argwhere(~np.isfinite(sums))[0]
    kind = "region" if source == SOURCE_TRIP else "Zip"
    raise SeriesError(
        f"{source} data: the total of {column_names[column]} for {kind} {entity_names[entity]} "
        f"on {window.date_at(int(day))} passes the float range"
    )


def _fsum(values):
    """math.fsum of a float array, or inf where its nonnegative terms sum past the float range."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return math.inf


def _cell_fsums(cells, values, n_cells):
    """math.fsum of `values` grouped by cell index, as _fsum; cells without rows are 0.0."""
    grouped_cell = np.bincount(cells, minlength=n_cells) > 1
    totals = np.zeros(n_cells)
    # a lone row is its own sum, except -0.0: fsum([-0.0]) is 0.0, as is -0.0 + 0.0;
    # grouped cells take a row's value here and their fsum below
    totals[cells] = values
    totals += 0.0
    grouped = np.flatnonzero(grouped_cell[cells])
    if grouped.size:
        grouped = grouped[np.argsort(cells[grouped], kind="stable")]
        for group in np.split(grouped, np.flatnonzero(np.diff(cells[grouped])) + 1):
            totals[cells[group[0]]] = _fsum(values[group])
    return totals


def _two_sum(a, b):
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def exact_sums(terms):
    """math.fsum over axis 1 of a (rows, terms, days) array, vectorised.

    The terms are added in order with TwoSum, which keeps each rounding error.
    Where the errors themselves add up without rounding, sum + errors is the
    exact total rounded once, which is what math.fsum returns. Cells where
    that check fails (a non-finite term or partial sum makes the error NaN),
    or with a -0.0 term, whose sign fsum decides, are summed with _fsum.
    """
    total = np.zeros((terms.shape[0], terms.shape[2]))
    error = np.zeros_like(total)
    exact = np.ones(total.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # such cells fail the check
        for k in range(terms.shape[1]):
            total, rounding = _two_sum(total, terms[:, k])
            error, residue = _two_sum(error, rounding)
            exact &= residue == 0
        result = total + error
    redo = ~exact | ((terms == 0) & np.signbit(terms)).any(axis=1)
    for row, day in zip(*np.nonzero(redo)):
        result[row, day] = _fsum(terms[row, :, day])
    return result
