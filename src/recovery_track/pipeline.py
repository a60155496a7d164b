"""End-to-end orchestration: ingest through stats, with staged artifacts.

Stages communicate through their serialized artifacts, so a full run and a
sequence of --only runs produce byte-identical files. The change matrix is the
one exception: in a full run the series stage passes it to the milestones
stage in memory, and only `--only milestones` parses work/changes.csv back.
Both give the same milestones because each change is written as its repr and
float(repr(x)) == x for every float; NaN reads back as NaN, which never
qualifies as recovered. All artifacts are computed first and moved into the
output directory together; a failing stage leaves the directory untouched.

Work artifacts (work/baselines.csv, work/changes.csv) keep full float
precision; report artifacts round floats to 6 significant digits so the
golden bundle is stable.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aggregate, ingest, metric, milestones, series, stats
from .config import PipelineConfig
from .errors import ParseError, PipelineError, StatsError
from .milestones import MILESTONE_FIELDS, Milestone, change_threshold
from .windows import DateWindow

STAGE_SERIES = "series"
STAGE_MILESTONES = "milestones"
STAGE_METRIC = "metric"
STAGE_STATS = "stats"
STAGES = (STAGE_SERIES, STAGE_MILESTONES, STAGE_METRIC, STAGE_STATS)

BASELINES_ARTIFACT = "work/baselines.csv"
CHANGES_ARTIFACT = "work/changes.csv"
COVERAGE_ARTIFACT = "coverage_report.json"
MILESTONES_ARTIFACT = "milestones.csv"
METRIC_ARTIFACT = "metric.csv"
STATS_ARTIFACT = "stats.json"
LORENZ_ARTIFACT = "lorenz.csv"

METRIC_COLUMNS = {
    "trip_essential": "norm_trip_e",
    "trip_nonessential": "norm_trip_ne",
    "transaction_essential": "norm_tx_e",
    "transaction_nonessential": "norm_tx_ne",
}

CHI_SQUARE_VARIABLES = ("per_capita_income", "minority_fraction", "flood_fraction")

CHANGES_HEADER = "region,source,category,day_index,change"
MILESTONES_HEADER = ",".join(
    ["region", *(f"{field}_{part}" for field in MILESTONE_FIELDS for part in ("days", "censored"))]
)
METRIC_HEADER = ",".join(["region", *METRIC_COLUMNS.values(), "integrated", "category"])


def format_sig(value: float) -> str:
    """Fixed 6-significant-digit rendering for report artifacts."""
    return f"{value:.6g}"


def round_sig(value: float) -> float:
    return float(format_sig(value))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# stage: series (ingest + aggregate + baseline + change)


@dataclass
class PreparedSeries:
    """Daily series and baselines plus the coverage counts behind them."""

    series_set: aggregate.SeriesSet
    baselines: dict
    insufficient: dict[str, list[str]]  # region -> milestone fields lacking a baseline
    unmatched_regions: dict[str, int]  # trip rows per origin region no overlap names
    unmatched_zips: dict[str, int]  # transaction rows per zip no region resolves to
    unknown_codes: dict[str, int]  # input rows per unknown service code


def _prepare_series(config: PipelineConfig, taxonomy, trips, transactions, overlaps, unknown_policy):
    """Crosswalk, daily series and baselines from the parsed inputs.

    Shared by the series stage and validate(), so both count coverage the same way.
    """
    crosswalk = ingest.resolve_crosswalk(overlaps.records)
    unmatched_regions = {
        region: rows
        for region, rows in trips.records.rows_per_entity().items()
        if region not in crosswalk
    }
    broadcast = ingest.broadcast_zip_to_regions(transactions.records, crosswalk)
    series_set, unknown_codes = aggregate.build_daily_series(
        trips.records,
        transactions.records,
        broadcast,
        taxonomy,
        config.window,
        unknown_policy=unknown_policy,
    )
    baselines = series.compute_baselines(
        series_set, config.baseline_window, config.min_baseline
    )
    insufficient: dict[str, list[str]] = {}
    for key, baseline in sorted(baselines.items()):
        if not baseline.sufficient:
            region, source, category = key
            insufficient.setdefault(region, []).append(
                milestones.milestone_field(source, category)
            )
    return PreparedSeries(
        series_set=series_set,
        baselines=baselines,
        insufficient=insufficient,
        unmatched_regions=unmatched_regions,
        unmatched_zips=broadcast.unmatched_zip_rows,
        unknown_codes=unknown_codes,
    )


def _stage_series(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    taxonomy = aggregate.load_taxonomy(
        config.taxonomy, renormalize=config.renormalize_weights
    )
    trips_result = ingest.parse_trips(config.inputs["trips"], config.window)
    tx_result = ingest.parse_transactions(config.inputs["transactions"], config.window)
    overlaps_result = ingest.parse_overlaps(config.inputs["overlaps"])
    prepared = _prepare_series(
        config, taxonomy, trips_result, tx_result, overlaps_result,
        config.unknown_service_policy,
    )
    series_set, baselines, insufficient = (
        prepared.series_set, prepared.baselines, prepared.insufficient
    )
    changes = series.build_change_series(
        series_set,
        baselines,
        half_width=config.smoothing_half_width,
        boundary=config.smoothing_boundary,
    )
    included = [r for r in series_set.regions if r not in insufficient]
    coverage = {
        "window": {
            "start": config.window.start.isoformat(),
            "end": config.window.end.isoformat(),
        },
        "regions": {
            "total": len(series_set.regions),
            "included": len(included),
            "excluded": sorted(insufficient),
        },
        "trips": {
            "data_rows": trips_result.total_rows,
            "accepted": trips_result.accepted,
            "dropped_out_of_window": trips_result.dropped,
            "unmatched_regions": prepared.unmatched_regions,
        },
        "transactions": {
            "data_rows": tx_result.total_rows,
            "accepted": tx_result.accepted,
            "dropped_out_of_window": tx_result.dropped,
            "unmatched_zips": prepared.unmatched_zips,
        },
        "insufficient_baselines": {r: insufficient[r] for r in sorted(insufficient)},
        "unknown_service_types": prepared.unknown_codes,
    }
    # the parse columns hold most of the stage's memory; rendering needs none of it
    del trips_result, tx_result, overlaps_result, prepared, series_set

    baselines_csv = io.StringIO()
    baselines_csv.write("region,source,category,baseline,sufficient\n")
    for (region, source, category), baseline in sorted(baselines.items()):
        baselines_csv.write(
            f"{region},{source},{category},{baseline.value!r},"
            f"{'true' if baseline.sufficient else 'false'}\n"
        )
    artifacts.changes = changes
    return {
        BASELINES_ARTIFACT: baselines_csv.getvalue(),
        CHANGES_ARTIFACT: _changes_csv(changes),
        COVERAGE_ARTIFACT: _json_text(coverage),
    }


def _changes_csv(changes: aggregate.SeriesSet) -> str:
    """work/changes.csv: one line per key and day, the change as its repr.

    Rows equal bit for bit, such as those of regions that inherit one Zip's
    transactions, share one rendering of their day and value text, which is
    dropped after its last use.
    """
    day_cells = [f"{day}," for day in range(changes.values.shape[1])]
    blobs = [row.tobytes() for row in changes.values]
    uses_left = Counter(blobs)
    rendered = {}
    parts = [CHANGES_HEADER + "\n"]
    for (region, source, category), row, blob in zip(changes.keys(), changes.values, blobs):
        cells = rendered.pop(blob, None)
        if cells is None:
            cells = list(map(str.__add__, day_cells, map(repr, row.tolist())))
        uses_left[blob] -= 1
        if uses_left[blob]:
            rendered[blob] = cells
        prefix = f"{region},{source},{category},"
        parts.append(prefix + ("\n" + prefix).join(cells) + "\n")
    return "".join(parts)


# --------------------------------------------------------------------------
# stage: milestones


def _parse_changes_artifact(text: str, window: DateWindow) -> aggregate.SeriesSet:
    """work/changes.csv -> change matrix, checking it is whole.

    Rows must come as written: keys in sorted order, each with day_index 0 to
    n_days - 1 in turn, and a newline after the last. A truncated, duplicated
    or reordered artifact would otherwise read as zero change, i.e. as
    recovered.
    """
    n_days = window.n_days
    # every key but the last takes n_days lines, so this many rows hold all keys
    data_lines = max(text.count("\n") - 1, 0)
    matrix = np.empty(((data_lines + n_days - 1) // n_days, n_days))
    keys: list[tuple[str, str, str]] = []
    day_texts = [str(day) for day in range(n_days)]
    key_text, values, day = None, None, n_days
    for line_no, line in enumerate(_data_lines(text, CHANGES_ARTIFACT, CHANGES_HEADER), start=2):
        row = line.rsplit(",", 2)
        if day == n_days:
            key = tuple(row[0].split(","))
            if len(row) != 3 or len(key) != 3:
                raise PipelineError(
                    f"{CHANGES_ARTIFACT} line {line_no}: expected 5 fields, got {line.count(',') + 1}"
                )
            if keys and key <= keys[-1]:
                raise PipelineError(
                    f"{CHANGES_ARTIFACT} line {line_no}: key {key} is duplicated or out of order"
                )
            key_text, values, day = row[0], matrix[len(keys)], 0
            keys.append(key)
        elif len(row) != 3 or row[0] != key_text:
            if line.count(",") != 4:
                raise PipelineError(
                    f"{CHANGES_ARTIFACT} line {line_no}: expected 5 fields, got {line.count(',') + 1}"
                )
            raise PipelineError(
                f"{CHANGES_ARTIFACT} line {line_no}: key {keys[-1]} ends after {day} of {n_days} days"
            )
        if row[1] != day_texts[day]:
            raise PipelineError(
                f"{CHANGES_ARTIFACT} line {line_no}: expected day_index {day}, got {row[1]!r}"
            )
        try:
            values[day] = float(row[2])
        except ValueError:
            raise PipelineError(
                f"{CHANGES_ARTIFACT} line {line_no}: change {row[2]!r} is not a number"
            ) from None
        day += 1
    if day != n_days:
        raise PipelineError(f"{CHANGES_ARTIFACT}: key {keys[-1]} ends after {day} of {n_days} days")
    return aggregate.SeriesSet(window, keys, matrix[: len(keys)])


def _data_lines(text: str, name: str, header: str):
    """The lines after the header of an artifact, checking its framing.

    The header must be exact and a newline must end the text. The writers
    never quote, so rows split on commas.
    """
    if text and not text.endswith("\n"):
        raise PipelineError(f"{name} ends mid-line")
    lines = _lines(text)
    first = next(lines, None)
    if first != header:
        raise PipelineError(f"{name} line 1: expected header {header!r}, got {first!r}")
    return lines


def _data_rows(text: str, name: str, header: str):
    """(line number, cells) of each data row of a report artifact, all the header's width."""
    n_cells = header.count(",") + 1
    for line_no, line in enumerate(_data_lines(text, name, header), start=2):
        cells = line.split(",")
        if len(cells) != n_cells:
            raise PipelineError(f"{name} line {line_no}: expected {n_cells} fields, got {len(cells)}")
        yield line_no, cells


def _lines(text: str):
    """The lines of newline-terminated `text`, split about a megabyte at a time."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 20)) + 1 or len(text)
        yield from text[start : end - 1].split("\n")
        start = end


def _stage_milestones(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    changes = artifacts.changes
    if changes is None:
        changes = _parse_changes_artifact(artifacts.read(CHANGES_ARTIFACT), config.window)
    d0 = config.window.index_of(config.event_day)
    table, _ = milestones.build_milestone_table(
        changes,
        d0,
        config.horizon_days,
        threshold=change_threshold(config.recovered_fraction),
        run_length=config.run_length,
    )

    out = io.StringIO()
    out.write(MILESTONES_HEADER + "\n")
    for region in sorted(table):
        cells = [region]
        for field in MILESTONE_FIELDS:
            milestone = table[region][field]
            cells.append(str(milestone.duration_days))
            cells.append("true" if milestone.censored else "false")
        out.write(",".join(cells) + "\n")
    return {MILESTONES_ARTIFACT: out.getvalue()}


def parse_milestones_artifact(text: str) -> dict:
    """milestones.csv -> {region: {field: Milestone}}, checking every cell."""
    table = {}
    for line_no, cells in _data_rows(text, MILESTONES_ARTIFACT, MILESTONES_HEADER):
        where, region = f"{MILESTONES_ARTIFACT} line {line_no}", cells[0]
        if region in table:
            raise PipelineError(f"{where}: region {region!r} is duplicated")
        entry = {}
        for k, field in enumerate(MILESTONE_FIELDS):
            days, censored = cells[2 * k + 1], cells[2 * k + 2]
            if not (days.isascii() and days.isdigit()):
                raise PipelineError(f"{where}: {field}_days {days!r} is not a whole number")
            if censored not in ("true", "false"):
                raise PipelineError(f"{where}: {field}_censored {censored!r} is not true or false")
            entry[field] = Milestone(duration_days=int(days), censored=censored == "true")
        table[region] = entry
    return table


# --------------------------------------------------------------------------
# stage: metric


def _stage_metric(config: PipelineConfig, artifacts: _RunArtifacts) -> dict:
    table = parse_milestones_artifact(artifacts.read(MILESTONES_ARTIFACT))
    rows = metric.build_metric_table(table)

    out = io.StringIO()
    out.write(METRIC_HEADER + "\n")
    for region in sorted(rows):
        row = rows[region]
        cells = [region]
        cells.extend(format_sig(row.normalized[f]) for f in MILESTONE_FIELDS)
        cells.append(format_sig(row.integrated))
        cells.append(row.category)
        out.write(",".join(cells) + "\n")
    return {METRIC_ARTIFACT: out.getvalue()}


def parse_metric_artifact(text: str) -> dict:
    """metric.csv -> {region: (normalized, integrated, category)}, checking every cell."""
    rows = {}
    columns = METRIC_HEADER.split(",")
    for line_no, cells in _data_rows(text, METRIC_ARTIFACT, METRIC_HEADER):
        where, region, category = f"{METRIC_ARTIFACT} line {line_no}", cells[0], cells[-1]
        if region in rows:
            raise PipelineError(f"{where}: region {region!r} is duplicated")
        numbers = []
        for column, cell in zip(columns[1:-1], cells[1:-1]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise PipelineError(f"{where}: {column} {cell!r} is not a finite number")
            numbers.append(value)
        if category not in metric.CATEGORY_LABELS:
            raise PipelineError(f"{where}: category {category!r} is not one of {metric.CATEGORY_LABELS}")
        rows[region] = (dict(zip(METRIC_COLUMNS, numbers)), numbers[-1], category)
    return rows


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
    milestone_table = parse_milestones_artifact(artifacts.read(MILESTONES_ARTIFACT))
    metric_rows = parse_metric_artifact(artifacts.read(METRIC_ARTIFACT))
    if set(metric_rows) != set(milestone_table):
        raise PipelineError(f"{METRIC_ARTIFACT} and {MILESTONES_ARTIFACT} list different regions")
    adjacency = ingest.parse_adjacency(config.inputs["adjacency"]).records
    attributes = ingest.parse_attributes(config.inputs["attributes"]).records

    regions = sorted(milestone_table)
    weights = stats.SpatialWeights.from_adjacency(adjacency, include=regions)

    moran_section = {}
    fields = list(MILESTONE_FIELDS) + ["integrated"]
    for index, field in enumerate(fields):
        if field == "integrated":
            values = {region: metric_rows[region][1] for region in regions}
        else:
            values = {
                region: float(milestone_table[region][field].duration_days)
                for region in regions
            }
        moran_section[field] = _moran_entry(
            values, weights, config.permutations, [config.seed, index]
        )

    integrated = {region: metric_rows[region][1] for region in regions}
    with_attributes = sorted(set(regions) & set(attributes))
    chi_section = {}
    for variable in CHI_SQUARE_VARIABLES:
        try:
            if len(with_attributes) < 4:
                raise StatsError(
                    f"chi-square needs >= 4 regions with attributes, got {len(with_attributes)}"
                )
            recovery_labels, recovery_degenerate = stats.dichotomize_by_median(
                {region: integrated[region] for region in with_attributes}
            )
            attr_values = {
                region: getattr(attributes[region], variable) for region in with_attributes
            }
            attr_labels, attr_degenerate = stats.dichotomize_by_median(attr_values)
            if recovery_degenerate or attr_degenerate:
                raise StatsError("degenerate median split: all regions on one side")
            result = stats.chi_square_2x2(recovery_labels, attr_labels, yates=config.yates)
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
        curve = stats.gini(integrated.values())
        gini_section = {"value": round_sig(curve.gini), "n": curve.n}
        lorenz_text += "".join(
            f"{format_sig(p)},{format_sig(s)}\n" for p, s in curve.points
        )
    except StatsError as exc:
        gini_section = {"error": str(exc)}

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

    The series stage also leaves its change matrix here, which the milestones
    stage of the same run takes instead of parsing work/changes.csv back.
    """

    def __init__(self, output_dir: Path):
        self.output_dir = output_dir
        self.produced: dict[str, str] = {}
        self.changes: aggregate.SeriesSet | None = None

    def read(self, name: str) -> str:
        if name in self.produced:
            return self.produced[name]
        path = self.output_dir / name
        if not path.exists():
            raise PipelineError(
                f"artifact {name} not found in {self.output_dir}; run upstream stages first"
            )
        return path.read_text(encoding="utf-8")


@dataclass
class RunResult:
    output_dir: Path
    written: list[str]


def run(config: PipelineConfig, only: str | None = None) -> RunResult:
    """Execute the pipeline (or one stage) and commit artifacts atomically."""
    if only is not None and only not in STAGES:
        raise PipelineError(f"unknown stage {only!r}; expected one of {STAGES}")
    stages = STAGES if only is None else (only,)

    artifacts = _RunArtifacts(config.output_dir)
    for stage in stages:
        artifacts.produced.update(_STAGE_FUNCS[stage](config, artifacts))

    _commit(config.output_dir, artifacts.produced)
    return RunResult(output_dir=config.output_dir, written=sorted(artifacts.produced))


def _commit(output_dir: Path, artifacts: dict):
    output_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=output_dir))
    try:
        for name, text in artifacts.items():
            target = staging / name
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for name in artifacts:
            final = output_dir / name
            final.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging / name, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# --------------------------------------------------------------------------
# validation (diagnostics without running)


def validate(config: PipelineConfig) -> list:
    """Schema, coverage, and sufficiency diagnostics; empty list means clean."""
    diagnostics = []

    parsed = {}
    parsers = {
        "trips": lambda p: ingest.parse_trips(p, config.window),
        "transactions": lambda p: ingest.parse_transactions(p, config.window),
        "overlaps": ingest.parse_overlaps,
        "adjacency": ingest.parse_adjacency,
        "attributes": ingest.parse_attributes,
    }
    for name in ("trips", "transactions", "overlaps", "adjacency", "attributes"):
        path = config.inputs[name]
        if not Path(path).exists():
            diagnostics.append({"kind": "missing-file", "input": name, "detail": str(path)})
            continue
        try:
            parsed[name] = parsers[name](path)
        except ParseError as exc:
            diagnostics.append({"kind": "schema-error", "input": name, "detail": str(exc)})

    try:
        taxonomy = aggregate.load_taxonomy(
            config.taxonomy, renormalize=config.renormalize_weights
        )
    except Exception as exc:  # taxonomy problems are diagnostics here, not crashes
        diagnostics.append({"kind": "taxonomy-error", "detail": str(exc)})
        return diagnostics

    for name in ("trips", "transactions"):
        result = parsed.get(name)
        if result and result.dropped:
            diagnostics.append(
                {"kind": "out-of-window-rows", "input": name, "rows": result.dropped}
            )

    if "trips" not in parsed or "transactions" not in parsed or "overlaps" not in parsed:
        return diagnostics

    prepared = _prepare_series(
        config, taxonomy, parsed["trips"], parsed["transactions"], parsed["overlaps"],
        aggregate.POLICY_SKIP,
    )
    for region, rows in prepared.unmatched_regions.items():
        diagnostics.append({"kind": "unmatched-region", "region": region, "rows": rows})
    for zip_code, rows in prepared.unmatched_zips.items():
        diagnostics.append({"kind": "unmatched-zip", "zip": zip_code, "rows": rows})
    for code, rows in prepared.unknown_codes.items():
        diagnostics.append({"kind": "unknown-service-type", "code": code, "rows": rows})
    for region, fields in prepared.insufficient.items():
        diagnostics.append({"kind": "insufficient-baseline", "region": region, "fields": fields})
    return diagnostics
