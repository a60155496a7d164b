"""End-to-end orchestration: ingest through stats, with staged artifacts.

Stages communicate through their serialized artifacts, so a full run and a
sequence of --only runs produce byte-identical files. The change matrix is the
one exception: in a full run the series stage passes it to the milestones
stage in memory, and only `--only milestones` parses work/changes.csv back.
Both give the same milestones because each change is written as its repr and
float(repr(x)) == x for every float; NaN reads back as NaN, which never
qualifies as recovered. All artifacts are computed first and moved into the
output directory together (processes.staged); a failing stage leaves the
directory untouched.

Stages read artifacts through one line reader, `_RunArtifacts.lines`, which
checks the header and the final newline. It splits bytes lines from blocks
of whole lines of processes.BLOCK_BYTES read from the file of a committed
artifact; an artifact produced in this run, a few hundred KB at most, is one
block. A line is decoded only where its text is used, so every refusal,
`not UTF-8 text` included, names its line, and the lines are checked in
order. `--only milestones` fills a change matrix allocated once from the
sufficient keys of work/baselines.csv, so it never holds the text of
work/changes.csv; each of its lines must hold the key and day that those
keys put there. From processes.SPLIT_BYTES on, it reads the file in two
halves by the split rule of processes.split_point, the first line start at
or after the middle byte, which may fall inside a key (_read_changes). The
file is read once: the first refusal of the two halves in line order is the
one a one-process read gives.

Work artifacts (work/baselines.csv, work/changes.csv) keep full float
precision; report artifacts round floats to 6 significant digits so the
golden bundle is stable. work/changes.csv is rendered in two halves, split
at the middle key, the second beside the run (_changes_csv): by a forked
child where it is large; the text is the one a single process renders.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from . import aggregate, ingest, metric, milestones, processes, series, stats
from .config import INPUT_NAMES, PipelineConfig
from .errors import MetricError, ParseError, PipelineError, SeriesError, StatsError, TaxonomyError
from .milestones import MILESTONE_FIELDS, change_threshold
from .windows import DateWindow

STAGE_SERIES = "series"
STAGE_MILESTONES = "milestones"
STAGE_METRIC = "metric"
STAGE_STATS = "stats"
STAGES = (STAGE_SERIES, STAGE_MILESTONES, STAGE_METRIC, STAGE_STATS)
_SERIES_INPUTS = ("trips", "transactions", "overlaps")  # the inputs the series stage reads

BASELINES_ARTIFACT = "work/baselines.csv"
CHANGES_ARTIFACT = "work/changes.csv"
COVERAGE_ARTIFACT = "coverage_report.json"
MILESTONES_ARTIFACT = "milestones.csv"
METRIC_ARTIFACT = "metric.csv"
STATS_ARTIFACT = "stats.json"
LORENZ_ARTIFACT = "lorenz.csv"

METRIC_COLUMNS = ("norm_trip_e", "norm_trip_ne", "norm_tx_e", "norm_tx_ne")  # in MILESTONE_FIELDS order

CHI_SQUARE_VARIABLES = ("per_capita_income", "minority_fraction", "flood_fraction")

BASELINES_HEADER = "region,source,category,baseline,sufficient"
CHANGES_HEADER = "region,source,category,day_index,change"
MILESTONES_HEADER = ",".join(
    ["region", *(f"{field}_{part}" for field in MILESTONE_FIELDS for part in ("days", "censored"))]
)
METRIC_HEADER = ",".join(["region", *METRIC_COLUMNS, "integrated", "category"])
_HEADERS = {
    BASELINES_ARTIFACT: BASELINES_HEADER,
    CHANGES_ARTIFACT: CHANGES_HEADER,
    MILESTONES_ARTIFACT: MILESTONES_HEADER,
    METRIC_ARTIFACT: METRIC_HEADER,
}


def format_sig(value: float) -> str:
    """Fixed 6-significant-digit rendering for report artifacts."""
    return f"{value:.6g}"


def round_sig(value: float) -> float:
    return float(format_sig(value))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# stage: series (ingest + aggregate + baseline + change)


def _read_input(config: PipelineConfig, name: str):
    """Input `name`, one of config.INPUT_NAMES or "taxonomy", parsed: both commands read each here.
    Parsers are looked up as called, so wrappers set on their modules (perfbench/tracer.py) run."""
    if name == "taxonomy":
        return aggregate.load_taxonomy(config.taxonomy, renormalize=config.renormalize_weights)
    path = config.inputs[name]
    if name == "trips":
        return ingest.parse_trips(path, config.window)
    if name == "transactions":
        return ingest.parse_transactions(path, config.window)
    if name == "overlaps":
        return ingest.parse_overlaps(path)
    if name == "adjacency":
        return ingest.parse_adjacency(path)
    return ingest.parse_attributes(path)


def _series(config: PipelineConfig, taxonomy, parsed: dict, unknown_policy):
    """(keys, baselines, changes, coverage) of the parsed inputs, for the series stage and validate().

    The sorted keys, the (values, sufficient) pair of series.compute_baselines
    aligned with them, the change series of the sufficient keys, and the
    content of coverage_report.json, whose findings validate() restates.
    The trips, transactions and overlaps are taken out of `parsed` and freed
    once the daily series are built.
    """
    trips, transactions, overlaps = (parsed.pop(name) for name in _SERIES_INPUTS)
    broadcast = ingest.broadcast_zip_to_regions(transactions.records, ingest.resolve_crosswalk(overlaps.records))
    series_set, unknown_codes, unmatched = aggregate.build_daily_series(
        trips.records, transactions.records, broadcast, taxonomy, config.window,
        unknown_policy=unknown_policy,
    )
    baselines = series.compute_baselines(series_set, config.baseline_window, config.min_baseline)
    insufficient: dict[str, list[str]] = {}  # region -> milestone fields lacking a baseline
    for (region, source, category), sufficient in zip(series_set.key_list, baselines[1].tolist()):
        if not sufficient:
            insufficient.setdefault(region, []).append(milestones.milestone_field(source, category))
    n_regions = len(broadcast.regions)
    coverage = {
        "window": {"start": config.window.start.isoformat(), "end": config.window.end.isoformat()},
        "regions": {
            "total": n_regions,
            "included": n_regions - len(insufficient),
            "excluded": list(insufficient),
        },
        "trips": {
            "data_rows": trips.total_rows,
            "accepted": trips.accepted,
            "dropped_out_of_window": trips.dropped,
            "unmatched_regions": unmatched[aggregate.SOURCE_TRIP],
        },
        "transactions": {
            "data_rows": transactions.total_rows,
            "accepted": transactions.accepted,
            "dropped_out_of_window": transactions.dropped,
            "unmatched_zips": unmatched[aggregate.SOURCE_TRANSACTION],
        },
        "insufficient_baselines": insufficient,
        "unknown_service_types": unknown_codes,
    }
    # the parse columns hold most of the stage's memory; nothing after this needs them
    del trips, transactions, overlaps, broadcast
    changes = series.build_change_series(
        series_set, baselines, config.smoothing_half_width, config.smoothing_boundary
    )
    return series_set.key_list, baselines, changes, coverage


def _stage_series(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    taxonomy = _read_input(config, "taxonomy")
    parsed = {name: _read_input(config, name) for name in _SERIES_INPUTS}
    keys, baselines, changes, coverage = _series(config, taxonomy, parsed, config.unknown_service_policy)

    rows = zip(keys, *(array.tolist() for array in baselines))
    baselines_csv = "".join(f"{','.join(key)},{value!r},{'true' if ok else 'false'}\n" for key, value, ok in rows)
    artifacts.changes = changes
    return {
        BASELINES_ARTIFACT: BASELINES_HEADER + "\n" + baselines_csv,
        CHANGES_ARTIFACT: _changes_csv(changes),
        COVERAGE_ARTIFACT: _json_text(coverage),
    }


def _changes_csv(changes: aggregate.SeriesSet) -> str:
    """work/changes.csv: one line per key and day, the change as its repr.

    The keys before the middle one are rendered by this process, the rest
    beside it (processes.beside): by a forked child from processes.SPLIT_CELLS
    change cells on, where one can be had. Each half gives its pieces, one per
    key, and they are joined once. A child's pieces are pickled as a list,
    which this process unpickles into the strings its join takes. Sent as one
    joined text, encoded and decoded again, they took a 1000-region city's
    peak RSS from 105 MB to 119 MB.
    """
    n_keys = len(changes.keys())
    mid = n_keys // 2
    split = mid > 0 and changes.values.size >= processes.SPLIT_CELLS
    with processes.beside(lambda: _changes_pieces(changes, mid, n_keys), split) as rest:
        pieces = _changes_pieces(changes, 0, mid)
        return "".join([CHANGES_HEADER + "\n", *pieces, *rest()])


def _changes_pieces(changes: aggregate.SeriesSet, start: int, stop: int) -> list[str]:
    """The lines of keys `start` to `stop` of work/changes.csv, one str per key.

    Rows equal bit for bit, such as those of regions that inherit one Zip's
    transactions, share one rendering of their day and value text, which is
    dropped after its last use.
    """
    day_cells = [f"{day}," for day in range(changes.values.shape[1])]
    values = changes.values[start:stop]
    blobs = [row.tobytes() for row in values]
    uses_left = Counter(blobs)
    rendered = {}
    pieces = []
    for (region, source, category), row, blob in zip(changes.keys()[start:stop], values, blobs):
        cells = rendered.pop(blob, None)
        if cells is None:
            cells = list(map(str.__add__, day_cells, map(repr, row.tolist())))
        uses_left[blob] -= 1
        if uses_left[blob]:
            rendered[blob] = cells
        prefix = f"{region},{source},{category},"
        pieces.append(prefix + ("\n" + prefix).join(cells) + "\n")
    return pieces


# --------------------------------------------------------------------------
# stage: milestones


def _read_changes_rows(lines, keys: list, n_days: int, cells: np.ndarray, first: int = 0) -> int:
    """Fill `cells`, the flat key x day matrix of changes, from data line
    `first` of work/changes.csv on, taking `lines`, the data lines from
    there as bytes; the number of the data line after the last.

    work/baselines.csv fixes the layout: data line i holds sufficient key
    `keys[i // n_days]` at day_index i % n_days. The lines of one key are
    checked at once, by one compare of their `key,day` heads joined and one
    float() map of their changes. Lines that fail are checked one by one,
    which raises the error of the first bad line; so does a line after the
    last key's. The caller checks that the lines run to the last key's end.
    """
    day_heads = [b",%d" % day for day in range(n_days)]
    at = first
    while chunk := list(itertools.islice(lines, n_days - at % n_days)):
        k, day = divmod(at, n_days)
        if k >= len(keys):
            raise PipelineError(
                f"{CHANGES_ARTIFACT} line {at + 2}: expected the end of the file "
                f"after the {len(keys)} sufficient keys of {BASELINES_ARTIFACT}"
            )
        changes = _changes_at_once(chunk, ",".join(keys[k]).encode("utf-8"), day_heads[day : day + len(chunk)])
        if changes is None:
            _refuse_lines(chunk, at, keys, n_days)
        cells[at : at + len(chunk)] = changes
        at += len(chunk)
    return at


def _changes_at_once(key_lines: list, key_text: bytes, day_heads: list):
    """The changes of lines of one key, where each reads `key_text,day,change`
    for the days of `day_heads` in turn and every change is a number; else None.

    No line holds a newline, so the heads joined by newlines equal the
    expected heads joined so exactly where each head equals its own. A line
    that is not UTF-8 text fails here: its head is not the expected text,
    or its change is not ASCII, which float() of bytes refuses.
    """
    heads, _, texts = zip(*map(bytes.rpartition, key_lines, itertools.repeat(b",")))
    if b"\n".join(heads) != key_text + (b"\n" + key_text).join(day_heads):
        return None
    try:
        return list(map(float, texts))
    except ValueError:
        return None


def _refuse_lines(key_lines: list, at: int, keys: list, n_days: int):
    """Raise the error of the first bad line of `key_lines`, data lines `at`
    on, which _changes_at_once refused; lines that pass these checks pass it."""
    for at, line in enumerate(key_lines, start=at):
        where, key, day = f"{CHANGES_ARTIFACT} line {at + 2}", keys[at // n_days], at % n_days
        fields = _text(CHANGES_ARTIFACT, at + 2, line).split(",")
        if len(fields) != 5:
            raise PipelineError(f"{where}: expected 5 fields, got {len(fields)}")
        if tuple(fields[:3]) != key:
            raise PipelineError(f"{where}: expected key {key} of {BASELINES_ARTIFACT}, got {tuple(fields[:3])}")
        if fields[3] != str(day):
            raise PipelineError(f"{where}: expected day_index {day}, got {fields[3]!r}")
        try:
            float(line.rpartition(b",")[2])  # as _changes_at_once reads it: ASCII only
        except ValueError:
            raise PipelineError(f"{where}: change {fields[4]!r} is not a number") from None


def _read_changes(artifacts: _RunArtifacts, window: DateWindow, keys: list) -> aggregate.SeriesSet:
    """The change matrix of the committed work/changes.csv, checking it is whole.

    Each line must hold the key and day work/baselines.csv puts there, `keys`
    being its sufficient keys (_read_changes_rows): a truncated, duplicated
    or reordered artifact would otherwise read as zero change, i.e. as
    recovered. The matrix is allocated once. Where processes.split_point
    splits the file, a forked child (processes.beside) reads the lines from
    there on, and its cells are copied in after this process's. The file is
    read once: every refusal names its line, and the lines are checked in
    order, so the first refusal of a split read, this process's or else the
    child's (raised here again by processes.beside), is the first refusal
    of a one-process read.
    """
    n_days = window.n_days
    matrix = np.empty((len(keys), n_days))
    cells = matrix.reshape(-1)
    mid = processes.split_point(artifacts.output_dir / CHANGES_ARTIFACT)
    with processes.beside(lambda: _changes_part(artifacts, mid, keys, n_days), mid is not None) as rest:
        end = _read_changes_rows(artifacts.lines(CHANGES_ARTIFACT, stop=mid), keys, n_days, cells)
        if mid is not None:
            part = rest()
            cells[end : end + len(part)] = part
            end += len(part)
    if end < cells.size:
        raise PipelineError(
            f"{CHANGES_ARTIFACT} line {end + 2}: expected key {keys[end // n_days]} "
            f"day_index {end % n_days}, got the end of the file"
        )
    return aggregate.SeriesSet(window, keys, matrix)


def _changes_part(artifacts: _RunArtifacts, start: int, keys: list, n_days: int):
    """The cells of the data lines of work/changes.csv from byte `start`, a
    line start, on. The lines are numbered by the line ends before `start`."""
    cells = np.empty(len(keys) * n_days)  # only the pages of its own cells are ever touched
    first = sum(block.count(b"\n") for block in artifacts._blocks(CHANGES_ARTIFACT, 0, start)) - 1
    end = _read_changes_rows(artifacts.lines(CHANGES_ARTIFACT, start, line_no=first + 2), keys, n_days, cells, first)
    return cells[first:end]


def _sufficient_keys(rows) -> list[tuple[str, str, str]]:
    """The sorted keys the data rows of work/baselines.csv mark sufficient,
    checking their flags and that the keys come in sorted order, each once,
    as written."""
    keys = []
    last = ()  # sorts before every key
    for line_no, cells in rows:
        where, key = f"{BASELINES_ARTIFACT} line {line_no}", (cells[0], cells[1], cells[2])
        if key <= last:
            raise PipelineError(f"{where}: key {key} is duplicated or out of order")
        if cells[4] not in ("true", "false"):
            raise PipelineError(f"{where}: sufficient {cells[4]!r} is not true or false")
        if cells[4] == "true":
            keys.append(key)
        last = key
    return keys


def _milestone_table(config: PipelineConfig, changes: aggregate.SeriesSet) -> dict:
    """The milestones of every region with all four keys sufficient, sorted by region."""
    d0, threshold = config.window.index_of(config.event_day), change_threshold(config.recovered_fraction)
    return milestones.build_milestone_table(changes, d0, config.horizon_days, threshold, config.run_length)[0]


def _stage_milestones(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    changes = artifacts.changes
    if changes is None:
        # baselines.csv is small: read it first, so that the matrix is allocated once
        changes = _read_changes(artifacts, config.window, _sufficient_keys(artifacts.rows(BASELINES_ARTIFACT)))
    table = _milestone_table(config, changes)

    out = [MILESTONES_HEADER + "\n"]
    for region, row in sorted(table.items()):
        cells = [f"{row[f].duration_days},{'true' if row[f].censored else 'false'}" for f in MILESTONE_FIELDS]
        out.append(",".join([region, *cells]) + "\n")
    return {MILESTONES_ARTIFACT: "".join(out)}


def parse_milestones_artifact(rows, horizon_days: int):
    """The data rows of milestones.csv -> (regions, durations), checking every cell.

    `durations` is a float matrix with one row per region, sorted by region,
    and one column per milestone in MILESTONE_FIELDS order. No milestone
    exceeds the horizon, so a longer duration fails like any damaged cell.
    """
    durations = {}
    for line_no, cells in rows:
        where, region = f"{MILESTONES_ARTIFACT} line {line_no}", cells[0]
        if not region:
            raise PipelineError(f"{where}: region is empty")
        if region in durations:
            raise PipelineError(f"{where}: region {region!r} is duplicated")
        row = []
        for k, field in enumerate(MILESTONE_FIELDS):
            days, censored = cells[2 * k + 1], cells[2 * k + 2]
            if not (days.isascii() and days.isdigit()):
                raise PipelineError(f"{where}: {field}_days {days!r} is not a whole number")
            digits = days.lstrip("0") or "0"
            # compare lengths first: int() refuses a text of over 4300 digits
            if len(digits) > len(str(horizon_days)) or int(digits) > horizon_days:
                raise PipelineError(f"{where}: {field}_days exceeds recovery.horizon_days ({horizon_days})")
            if censored not in ("true", "false"):
                raise PipelineError(f"{where}: {field}_censored {censored!r} is not true or false")
            row.append(int(digits))
        durations[region] = row
    regions = sorted(durations)
    return regions, np.array([durations[r] for r in regions], dtype=float).reshape(-1, len(MILESTONE_FIELDS))


# --------------------------------------------------------------------------
# stage: metric


def _stage_metric(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    regions, durations = parse_milestones_artifact(artifacts.rows(MILESTONES_ARTIFACT), config.horizon_days)
    normalized, integrated, categories = metric.build_metric_table(durations)

    out = [METRIC_HEADER + "\n"]
    for region, row, value, category in zip(regions, normalized.tolist(), integrated.tolist(), categories):
        out.append(",".join([region, *map(format_sig, row), format_sig(value), category]) + "\n")
    return {METRIC_ARTIFACT: "".join(out)}


def parse_metric_artifact(rows):
    """The data rows of metric.csv -> (regions, integrated metric), sorted by region, checking every cell."""
    integrated = {}
    columns = (*METRIC_COLUMNS, "integrated")
    for line_no, cells in rows:
        where, region, category = f"{METRIC_ARTIFACT} line {line_no}", cells[0], cells[-1]
        if region in integrated:
            raise PipelineError(f"{where}: region {region!r} is duplicated")
        for column, cell in zip(columns, cells[1:-1]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not 0.0 <= value <= 1.0:  # NaN included
                raise PipelineError(f"{where}: {column} {cell!r} is not a number in [0, 1]")
        if category not in metric.CATEGORY_LABELS:
            raise PipelineError(f"{where}: category {category!r} is not one of {metric.CATEGORY_LABELS}")
        integrated[region] = value
    regions = sorted(integrated)
    return regions, np.array([integrated[region] for region in regions], dtype=float)


# --------------------------------------------------------------------------
# stage: stats


def _moran_entry(values, weights, permutations, seed) -> dict:
    try:
        result = stats.morans_i(values, weights, permutations=permutations, seed=seed)
    except StatsError as exc:
        return {"error": str(exc)}

    def _finite(value):
        # NaN is not valid JSON; n == 3 leaves the variance undefined
        return round_sig(value) if math.isfinite(value) else None

    entry = {
        "i": round_sig(result.i),
        "expected_i": round_sig(result.expected_i),
        "variance": _finite(result.variance),
        "z_score": _finite(result.z_score),
        "p_value": _finite(result.p_value),
        "n": result.n,
    }
    entry["permutation_p"] = (
        round_sig(result.permutation_p) if result.permutation_p is not None else None
    )
    return entry


def _stage_stats(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    """stats.json and lorenz.csv, from milestones.csv, metric.csv, the adjacency and the attributes.

    Moran's I is computed for five fields, the four milestones and then the
    integrated metric, each shuffled by its own stream, [seed, field index],
    and each gathered by one index into weights.regions order. Where one
    field's shuffles take processes.SPLIT_CELLS pair products or more
    (permutations times region pairs), the last three fields are computed
    beside this process (processes.beside), by a forked child where one can
    be had, while this process computes the first two and then chi-square
    and Gini. The fork comes after every input is parsed, so every refusal
    keeps its order. A field's numbers do not depend on where it is
    computed, so the bytes are the same in one process or two.
    """
    regions, durations = parse_milestones_artifact(artifacts.rows(MILESTONES_ARTIFACT), config.horizon_days)
    metric_regions, integrated = parse_metric_artifact(artifacts.rows(METRIC_ARTIFACT))
    if metric_regions != regions:
        raise PipelineError(f"{METRIC_ARTIFACT} and {MILESTONES_ARTIFACT} list different regions")
    # the parsed adjacency serves only the weights; freed here, it lowers the stage's peak
    weights = stats.SpatialWeights.from_adjacency(_read_input(config, "adjacency").records, include=regions)
    attributes = _read_input(config, "attributes").records

    fields = (*MILESTONE_FIELDS, "integrated")
    columns = (*durations.T, integrated)
    position = {region: i for i, region in enumerate(regions)}
    at = np.array([position[region] for region in weights.regions], dtype=np.int64)

    def moran_entries(indices):
        return [_moran_entry(columns[i][at], weights, config.permutations, [config.seed, i]) for i in indices]

    split = config.permutations * len(weights.first) >= processes.SPLIT_CELLS
    with processes.beside(lambda: moran_entries(range(2, len(fields))), split) as later:
        first_two = moran_entries(range(2))

        with_attributes = [i for i, region in enumerate(regions) if region in attributes]
        attribute_matrix = np.array([attributes[regions[i]] for i in with_attributes], dtype=float)
        chi_section = {}
        for variable in CHI_SQUARE_VARIABLES:
            try:
                if len(with_attributes) < 4:
                    raise StatsError(
                        f"chi-square needs >= 4 regions with attributes, got {len(with_attributes)}"
                    )
                recovery_high = stats.dichotomize_by_median(integrated[with_attributes])
                attr_high = stats.dichotomize_by_median(
                    attribute_matrix[:, ingest.ATTRIBUTES_HEADER.index(variable) - 1]
                )
                result = stats.chi_square_2x2(recovery_high, attr_high, yates=config.yates)
                chi_section[variable] = {
                    "statistic": round_sig(result.statistic),
                    "dof": result.dof,
                    "p_value": round_sig(result.p_value),
                    "table": [list(result.table[0]), list(result.table[1])],
                    "n": len(with_attributes),
                }
            except StatsError as exc:
                chi_section[variable] = {"error": str(exc)}

        lorenz_text = "pop_share,metric_share\n"
        try:
            curve = stats.gini(integrated.tolist())
            gini_section = {"value": round_sig(curve.gini), "n": curve.n}
            lorenz_text += "".join(
                f"{format_sig(p)},{format_sig(s)}\n" for p, s in curve.points
            )
        except StatsError as exc:
            gini_section = {"error": str(exc)}
        moran_section = dict(zip(fields, first_two + later()))

    payload = {
        "regions": {
            "milestone_regions": len(regions),
            "moran_isolated": list(weights.isolated),
            "with_attributes": len(with_attributes),
        },
        "morans_i": moran_section,
        "chi_square": chi_section,
        "gini": gini_section,
        "options": {
            "permutations": config.permutations,
            "yates": config.yates,
            "seed": config.seed,
        },
    }
    return {STATS_ARTIFACT: _json_text(payload), LORENZ_ARTIFACT: lorenz_text}


# --------------------------------------------------------------------------
# runner


_STAGE_FUNCS = {
    STAGE_SERIES: _stage_series,
    STAGE_MILESTONES: _stage_milestones,
    STAGE_METRIC: _stage_metric,
    STAGE_STATS: _stage_stats,
}


class _RunArtifacts:
    """What the stages of one run read: artifacts produced so far, else committed files.

    Each artifact is read through one line reader, `lines`, which checks its
    header and that it ends with a newline. It splits bytes lines from blocks
    of whole lines: reads of about processes.BLOCK_BYTES of the file of a
    committed artifact, so a staged run never holds a whole file's text, and
    the text of one produced in this run, encoded whole, since within a run
    only milestones.csv and metric.csv are read back. A line is decoded where
    its text is used (_text), so a line that is not UTF-8 is refused at its
    number, in line order like every other refusal. A committed file can
    also be read from one line start to another, which is how
    `--only milestones` reads work/changes.csv in two halves
    (_read_changes); its child numbers its lines by counting the line ends
    of the blocks before its half. The series stage also leaves its change
    matrix here, which the milestones stage of the same run takes instead of
    parsing work/changes.csv back.
    """

    def __init__(self, output_dir: Path):
        self.output_dir = output_dir
        self.produced: dict[str, str] = {}
        self.changes: aggregate.SeriesSet | None = None

    def lines(self, name: str, start: int = 0, stop: int | None = None, line_no: int = 1):
        """The lines, as bytes, after the header of artifact `name`, checking the header is exact.

        For a committed file, `start` and `stop` may name the byte offsets of
        two line starts (stop None for the end of the file): the lines
        between them, the header checked and skipped only where start is 0,
        and a line that ends the file unfinished numbered from `line_no`,
        the number of the line at `start`.
        """
        lines = self._lines(name, start, stop, line_no)
        if start:
            return lines
        header = _HEADERS[name]
        first = next(lines, None)
        got = None if first is None else _text(name, 1, first)
        if got != header:
            raise PipelineError(f"{name} line 1: expected header {header!r}, got {got!r}")
        return lines

    def rows(self, name: str):
        """(line number, cells) of each data row of artifact `name`, all the header's width.

        The writers never quote, so rows split on commas.
        """
        n_cells = _HEADERS[name].count(",") + 1
        for line_no, line in enumerate(self.lines(name), start=2):
            cells = _text(name, line_no, line).split(",")
            if len(cells) != n_cells:
                raise PipelineError(f"{name} line {line_no}: expected {n_cells} fields, got {len(cells)}")
            yield line_no, cells

    def _lines(self, name: str, start, stop, line_no):
        for block in self._blocks(name, start, stop):
            lines = block.split(b"\n")
            del block  # drop each block and its lines before the next read
            tail = lines.pop()  # empty, but for the last block of a text with no final newline
            line_no += len(lines)
            yield from lines
            del lines
            if tail:
                raise PipelineError(f"{name} line {line_no}: the file ends mid-line")

    def _blocks(self, name: str, start, stop):
        if name in self.produced:
            yield self.produced[name].encode("utf-8")
            return
        path = self.output_dir / name
        if not path.exists():
            raise PipelineError(
                f"artifact {name} not found in {self.output_dir}; run upstream stages first"
            )
        try:
            with open(path, "rb") as handle:
                yield from processes.line_blocks(handle, start, stop)
        except OSError as exc:
            raise PipelineError(f"cannot read artifact {path}: {exc.strerror or exc}") from None


def _text(name: str, line_no: int, line: bytes) -> str:
    """Line `line_no` of artifact `name` decoded; a line that is not UTF-8 is refused."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise PipelineError(f"{name} line {line_no}: not UTF-8 text") from None


def run(config: PipelineConfig, only: str | None = None) -> list[str]:
    """Execute the pipeline (or one stage) and commit artifacts atomically;
    the sorted names, relative to config.output_dir, of the files written."""
    if only is not None and only not in STAGES:
        raise PipelineError(f"unknown stage {only!r}; expected one of {STAGES}")
    stages = STAGES if only is None else (only,)

    artifacts = _RunArtifacts(config.output_dir)
    for stage in stages:
        artifacts.produced.update(_STAGE_FUNCS[stage](config, artifacts))

    _commit(config.output_dir, artifacts.produced)
    return sorted(artifacts.produced)


def _commit(output_dir: Path, artifacts: dict):
    """Write the artifacts to a staging directory, then move them into
    `output_dir` together (processes.staged): a target that cannot be
    replaced leaves the bundle as it was, and any OSError ends the run with a
    PipelineError naming the path. Each text is encoded and written
    processes.BLOCK_BYTES characters at a time, which bounds the encoded
    copy of work/changes.csv alive at once.
    """
    with processes.staged(output_dir, PipelineError) as staging:
        for name, text in artifacts.items():
            target = staging / name
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "w", encoding="utf-8", newline="") as handle:
                for start in range(0, len(text), processes.BLOCK_BYTES):
                    handle.write(text[start : start + processes.BLOCK_BYTES])


# --------------------------------------------------------------------------
# validation (a run's refusals and findings, listed without committing)


def validate(config: PipelineConfig) -> list:
    """The diagnostics of a run of `config`, computed up to the metric by run()'s functions; [] if clean.

    It lists refusals instead of raising the first, renders nothing and
    commits nothing. A refusal of the milestones or metric computation is a
    stage-error, listed last; one of the series computation past the inputs
    is raised, as in a run.
    """
    diagnostics = []

    parsed = {}
    for name in INPUT_NAMES:
        path = config.inputs[name]
        if not Path(path).exists():
            diagnostics.append({"kind": "missing-file", "input": name, "detail": str(path)})
            continue
        try:
            parsed[name] = _read_input(config, name)
        except ParseError as exc:
            diagnostics.append({"kind": "schema-error", "input": name, "detail": str(exc)})
    refusal = processes.creation_refusal(config.output_dir)
    if refusal is not None:
        diagnostics.append({"kind": "output-dir", "detail": refusal})

    try:
        taxonomy = _read_input(config, "taxonomy")
    except (ParseError, TaxonomyError) as exc:  # taxonomy problems are diagnostics here
        diagnostics.append({"kind": "taxonomy-error", "detail": str(exc)})
        return diagnostics

    for name in ("trips", "transactions"):
        if name in parsed and parsed[name].dropped:
            diagnostics.append({"kind": "out-of-window-rows", "input": name, "rows": parsed[name].dropped})

    if any(name not in parsed for name in _SERIES_INPUTS):
        return diagnostics

    _, _, changes, coverage = _series(config, taxonomy, parsed, aggregate.POLICY_SKIP)
    findings = (
        ("unmatched-region", "region", "rows", coverage["trips"]["unmatched_regions"]),
        ("unmatched-zip", "zip", "rows", coverage["transactions"]["unmatched_zips"]),
        ("unknown-service-type", "code", "rows", coverage["unknown_service_types"]),
        ("insufficient-baseline", "region", "fields", coverage["insufficient_baselines"]),
    )
    for kind, name, field, counts in findings:
        diagnostics.extend({"kind": kind, name: key, field: value} for key, value in counts.items())

    stage = STAGE_MILESTONES
    try:
        table = _milestone_table(config, changes)
        stage = STAGE_METRIC
        durations = [[row[field].duration_days for field in MILESTONE_FIELDS] for row in table.values()]
        metric.build_metric_table(np.array(durations, dtype=float).reshape(-1, len(MILESTONE_FIELDS)))
    except (SeriesError, MetricError) as exc:
        diagnostics.append({"kind": "stage-error", "stage": stage, "detail": str(exc)})
    return diagnostics
