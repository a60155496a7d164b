"""Synthetic multi-region scenario generator with known recovery ground truth.

Regions sit on a grid (rook adjacency) split into severity clusters. Each
region's activity holds a steady pre-event level, drops by a region-specific
fraction on the event day, and ramps back. Trips are planted per region,
transactions per zip (blocks of grid-adjacent regions), so the zip-to-region
broadcast path is exercised too.

Ground truth is computed from the exact values written to disk, with noise
forced to zero, through the generator's own smoothing, change, and run-scan
implementations. It is an oracle for the pipeline, not a reuse of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import processes
from .aggregate import CATEGORIES, ESSENTIAL, load_taxonomy
from .config import PipelineConfig, check_settings, days_after, read_json_object, read_settings, setting
from .errors import RecoveryTrackError, ScenarioError
from .ingest import (
    ADJACENCY_HEADER,
    ATTRIBUTES_HEADER,
    OVERLAPS_HEADER,
    TRANSACTIONS_HEADER,
    TRIPS_HEADER,
)
from .milestones import change_threshold
from .windows import DateWindow

RAMP_LINEAR = "linear"
RAMP_EXPONENTIAL = "exponential"

# per-category ramp multipliers: essential activity comes back faster
CATEGORY_RAMP_SCALE = {ESSENTIAL: 0.7, "non-essential": 1.3}

# the standard setup, PipelineConfig's defaults: the truth scans with it, config.json carries part of it
STANDARD = {f.name: f.default for f in fields(PipelineConfig)}


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    name: str = setting("scenario")
    seed: int = setting(0, minimum=0)
    n_regions: int = setting(MISSING, minimum=1)
    event_day: date = setting(date(2017, 8, 27))
    window_start: date = setting(date(2017, 8, 1))
    baseline_days: int = setting(21, minimum=1)
    horizon_days: int = setting(120, minimum=1)
    noise: float = setting(0.0)
    regions_per_zip: int = setting(4, minimum=1)
    clusters: int = setting(4, minimum=1)
    # 1e300 leaves room for noise and the sums of the ground truth under the float limit
    baseline_level_range: tuple[float, float] = setting((200.0, 2000.0), maximum=1e300)
    tx_level_range: tuple[float, float] = setting((2000.0, 20000.0), maximum=1e300)
    drop_range: tuple[float, float] = setting((0.2, 0.9), minimum=0, maximum=1)
    ramp_range: tuple[int, int] = setting((5, 60), minimum=1)
    flat_fraction: float = setting(0.05, minimum=0, maximum=1)
    censored_fraction: float = setting(0.05, minimum=0, maximum=1)
    ramp_shape: str = setting(RAMP_LINEAR, choices=(RAMP_LINEAR, RAMP_EXPONENTIAL))

    @classmethod
    def from_mapping(cls, raw: dict) -> "ScenarioSpec":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ScenarioError(f"unknown scenario field(s): {sorted(unknown)}")
        spec = cls(**read_settings(cls, lambda key: raw.get(key, MISSING), ScenarioError))
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        return cls.from_mapping(read_json_object(path, "scenario", ScenarioError))

    def validate(self):
        check_settings(self, ScenarioError)
        baseline_end = days_after(
            self.window_start, self.baseline_days - 1, "baseline_days", ScenarioError
        )
        days_after(self.event_day, self.horizon_days, "horizon_days", ScenarioError)
        if baseline_end >= self.event_day:
            raise ScenarioError(
                f"baseline_days: baseline window ends {baseline_end}, "
                f"not before event day {self.event_day}"
            )
        if not (0.0 <= self.noise < 1.0):
            raise ScenarioError(f"noise: must lie in [0, 1), got {self.noise}")
        if self.baseline_level_range[0] <= 0:
            raise ScenarioError("baseline_level_range: levels must be positive")
        if self.tx_level_range[0] <= 0:
            raise ScenarioError("tx_level_range: levels must be positive")
        if self.flat_fraction + self.censored_fraction > 1.0:
            raise ScenarioError("flat_fraction + censored_fraction exceed 1")

    @property
    def window(self) -> DateWindow:
        return DateWindow(self.window_start, self.event_day + timedelta(days=self.horizon_days))

    @property
    def baseline_window(self) -> DateWindow:
        return DateWindow(self.window_start, self.window_start + timedelta(days=self.baseline_days - 1))


# --------------------------------------------------------------------------
# planted curves


def level_at(t: np.ndarray, level, drop, ramp, shape: str = RAMP_LINEAR) -> np.ndarray:
    """Planted activity level at integer day offsets `t` from the event (t < 0
    is pre-event): of one entity, or of several, one row each, where level,
    drop and ramp are columns. A `drop` of 0 keeps `level` exactly."""
    t = np.asarray(t)
    if shape == RAMP_LINEAR:
        gap = 1.0 - np.minimum(1.0, t / ramp)
    else:
        # math.exp, not np.exp: the two may differ in the last bit, and the curve is a contract
        days, ramps = np.maximum(t, 0).tolist(), np.ravel(ramp).tolist()
        decay = {r: [math.exp(-3.0 * day / r) for day in days] for r in set(ramps)}
        gap = np.array([decay[r] for r in ramps]).reshape(np.broadcast_shapes(np.shape(ramp), t.shape))
    return np.where(t < 0, level, level * (1.0 - drop * gap))


# --------------------------------------------------------------------------
# generator internals


def _region_ids(n: int) -> list[str]:
    width = max(4, len(str(n)))
    return [f"R{i:0{width}d}" for i in range(1, n + 1)]


def _zip_ids(n_regions: int, per_zip: int) -> list[str]:
    n_zips = (n_regions + per_zip - 1) // per_zip
    return [f"{77001 + k:05d}" for k in range(n_zips)]


def _smooth_truncated(values, half_width: int):
    """Centered truncated-window mean, written independently of series.py:
    each window's exactly rounded sum over its length."""
    n = len(values)
    width = 2 * half_width + 1
    whole = max(0, n - width + 1)  # windows inside the series, centered on half_width to n - half_width - 1

    def truncated(i):
        window = values[max(0, i - half_width) : i + half_width + 1]
        return math.fsum(window) / len(window)

    head = [truncated(i) for i in range(min(half_width, n))]
    full = [math.fsum(window) / width for window in zip(*(values[k:k + whole] for k in range(width)))]
    tail = [truncated(i) for i in range(max(half_width, n - half_width), n)]
    return head + full + tail


def _scan_recovery(changes, d0: int, horizon: int, threshold: float, run_length: int):
    """First index t in [d0, d0+horizon] ending a run of `run_length`
    changes at or above `threshold` that starts at d0 or later, else None."""
    run = 0
    for t in range(d0, d0 + horizon + 1):
        run = run + 1 if changes[t] >= threshold else 0
        if run == run_length:
            return t
    return None


def _ground_truth_for(values, baseline_days: int, d0_index: int, horizon: int):
    baseline = math.fsum(values[:baseline_days]) / baseline_days
    smoothed = _smooth_truncated(values, STANDARD["smoothing_half_width"])
    threshold = change_threshold(STANDARD["recovered_fraction"])
    changes = [(s - baseline) / baseline for s in smoothed]
    dn = _scan_recovery(changes, d0_index, horizon, threshold, STANDARD["run_length"])
    if dn is None:
        return horizon, True
    return dn - d0_index, False


def _pick_kinds(rng, n: int, flat_fraction: float, censored_fraction: float) -> list[str]:
    kinds = ["ramped"] * n
    n_flat = int(round(flat_fraction * n))
    n_censored = int(round(censored_fraction * n))
    chosen = rng.choice(n, size=min(n, n_flat + n_censored), replace=False)
    for pos, index in enumerate(chosen):
        kinds[int(index)] = "flat" if pos < n_flat else "censored"
    return kinds


def _emit(spec: ScenarioSpec, offsets: np.ndarray, category_rows, profiles, block: slice, stream=None, out=None):
    """Per-type values of the entities of `block` before quantisation, into
    `out` where given, (entities, codes, days) with codes in category, then
    code order. `profiles` are the arrays (level, drop, ramp, shares) of
    every entity. The values are noisy, entity i drawing its (categories,
    days) noise from stream [seed, stream, i], as written, and noiseless, as
    the truth sees them, where `stream` is None."""
    level, drop, ramp = (column[block, np.newaxis, np.newaxis] for column in profiles[:3])
    shares = profiles[3][block]
    ramps = np.maximum(1.0, np.rint(ramp * [[CATEGORY_RAMP_SCALE[category]] for category in CATEGORIES]))
    curves = level_at(offsets, level, drop, ramps, spec.ramp_shape)  # (entities, categories, days)
    if stream is not None and spec.noise > 0.0:
        curves *= 1.0 + np.array([
            np.random.default_rng([spec.seed, stream, i]).uniform(-spec.noise, spec.noise, size=curves.shape[1:])
            for i in range(block.start, block.stop)
        ])
    out = np.empty(shares.shape + offsets.shape) if out is None else out
    for k, rows in enumerate(category_rows):
        np.multiply(shares[:, rows, np.newaxis], curves[:, k, np.newaxis], out=out[:, rows])
    return out


def _counts(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trip counts: nearest integer, ties to even as round() does, never negative."""
    return np.maximum(0.0, np.rint(values, out=out), out=out)


def _count_texts(counts: np.ndarray):
    """Per day, the texts of nonnegative integral counts (cells, days), as
    str(int(count)) gives them at any size. Where the largest count is below
    the number of cells, they come from one table of "0", "1", ... up to it,
    so the table never holds more texts than the file has cells. The counts
    go to integers a day at a time: a whole-matrix copy would raise the peak."""
    top = counts.max(initial=0.0)
    if top < counts.size:
        table = np.array([str(count) for count in range(int(top) + 1)], dtype=object)
        return (table[day.astype(np.intp)].tolist() for day in counts.T)
    return (map(str, map(int, day.tolist())) for day in counts.T)


def _cents(values: np.ndarray) -> list[str]:
    """Amounts as written, two decimals, never negative, in flattened order."""
    return [f"{v:.2f}" for v in np.maximum(0.0, values).ravel().tolist()]


def _amounts_as_read(values: np.ndarray) -> np.ndarray:
    """The amounts a reader of the written text gets back, so truth == parsed
    value: float(f"{v:.2f}") of each amount, never negative.

    Below 2^52, the product 100 * v rounds to the same whole number of cents
    as the exact one unless it is exactly a half-cent, and that number over
    100 is the double its two-decimal text parses to. A half-cent, a larger
    product (inf among them) or a NaN, never a negative amount, takes the
    text. Two block-sized temporaries, each written in place."""
    scaled = np.maximum(0.0, values)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(scaled, 100.0, out=scaled)
        cents = np.rint(scaled)
        text = ~(scaled < 2.0 ** 52)
        text |= np.abs(np.subtract(scaled, cents, out=scaled), out=scaled) == 0.5
    read = np.divide(cents, 100.0, out=cents)
    read[text] = [float(f"{v:.2f}") for v in values[text].tolist()]
    return read


def _weighted_series(values: np.ndarray, weights: np.ndarray) -> list[float]:
    """Exactly rounded weighted sum of a (n_codes, n_days) block, per day."""
    return [math.fsum(day) for day in (weights[:, np.newaxis] * values).T.tolist()]


def _lines(rows):
    return (",".join(row) + "\n" for row in rows)


def _day_blocks(window: DateWindow, prefixes: list[str], texts_by_day):
    """Lines of an activity file, one block per day: each "entity,code,"
    prefix with that day's value text, in prefix order."""
    for day, texts in zip(window.days(), texts_by_day):
        stamp = day.isoformat()
        yield "".join([f"{stamp},{prefix}{text}\n" for prefix, text in zip(prefixes, texts)])


def generate(spec: ScenarioSpec, out_dir) -> dict:
    """Write the five ingest CSVs, ground_truth.csv, and a ready pipeline config.

    Deterministic for a fixed spec: every entity draws from its own seeded
    streams, and files are emitted in sorted order. The profiles of the
    regions and of the Zips are arrays, one row per entity: level, drop,
    ramp and a row of code shares, entity i drawing them from stream
    [seed, 1, i] for a region and [seed, 2, i] for a Zip. Values are emitted
    a block of entities at a time, about processes.BLOCK_BYTES of them, each
    noisy entity drawing its noise from stream [seed, 3, i] or [seed, 4, i].

    A spec whose baseline quantises to zero for some entity and category
    has no truth; it is refused with a ScenarioError before anything is
    made. The ground truth is computed beside the writes of the five ingest
    CSVs (processes.beside): by a forked child from processes.SPLIT_CELLS
    trip cells (regions x codes x days) on, where one can be had, else by
    this process once they are written. The files are written to a staging
    directory and moved into `out_dir` once all seven are written
    (processes.staged), so a write that fails leaves the files of `out_dir`
    as they were. An OSError ends in a RecoveryTrackError naming the path.
    """
    out = Path(out_dir)
    window = spec.window
    d0_index = window.index_of(spec.event_day)
    offsets = np.arange(window.n_days) - d0_index
    taxonomy = load_taxonomy()
    # an entity's rows: each category's codes in sorted order, categories in order
    codes, weights, category_rows = taxonomy.codes, taxonomy.weights, taxonomy.rows
    n_codes = len(codes)

    regions = _region_ids(spec.n_regions)
    zips = _zip_ids(spec.n_regions, spec.regions_per_zip)
    cols = math.ceil(math.sqrt(spec.n_regions))

    def grid_pos(index):
        return index // cols, index % cols

    def cluster_of(index):
        _, col = grid_pos(index)
        return min(spec.clusters - 1, col * spec.clusters // cols)

    cluster_rng = np.random.default_rng([spec.seed, 0])
    cluster_bases = [
        (cluster_rng.uniform(*spec.drop_range), cluster_rng.uniform(*spec.ramp_range))
        for _ in range(spec.clusters)
    ]

    def sample(stream, kinds_stream, clusters, level_range):
        """(level, drop, ramp, shares) of the entities, entity i drawing from
        stream [seed, stream, i] its drop, ramp and level, then one shares
        draw per category; which are flat and which censored is drawn from
        stream [seed, kinds_stream]."""
        kinds = _pick_kinds(
            np.random.default_rng([spec.seed, kinds_stream]), len(clusters), spec.flat_fraction, spec.censored_fraction
        )
        level, drop, ramp = np.empty((3, len(kinds)))
        shares = np.empty((len(kinds), n_codes))
        for i, (cluster, kind) in enumerate(zip(clusters, kinds)):
            rng = np.random.default_rng([spec.seed, stream, i])
            base_drop, base_ramp = cluster_bases[cluster]
            drop[i] = min(max(base_drop + rng.uniform(-0.08, 0.08), spec.drop_range[0]), spec.drop_range[1])
            ramp[i] = min(max(round(base_ramp + rng.uniform(-4.0, 4.0)), spec.ramp_range[0]), spec.ramp_range[1])
            level[i] = rng.uniform(*level_range)
            if kind == "flat":
                drop[i] = 0.0
            elif kind == "censored":
                drop[i], ramp[i] = max(drop[i], 0.5), spec.horizon_days * 10
            for rows in category_rows:
                draw = rng.uniform(0.5, 1.5, size=rows.stop - rows.start)
                shares[i, rows] = draw / draw.sum()
        return level, drop, ramp, shares

    region_profiles = sample(1, 6, [cluster_of(i) for i in range(spec.n_regions)], spec.baseline_level_range)
    zip_profiles = sample(
        2, 7, [cluster_of(min(k * spec.regions_per_zip, spec.n_regions - 1)) for k in range(len(zips))],
        spec.tx_level_range,
    )

    # Every baseline day comes before the event, where each code's noiseless
    # value is share * level: a baseline the writing quantises to zero has no
    # percent change, and is refused before any file is made.
    for field, noun, entities, (level, _, _, shares), quantise in (
        ("baseline_level_range", "region", regions, region_profiles, _counts),
        ("tx_level_range", "Zip", zips, zip_profiles, _amounts_as_read),
    ):
        levels = quantise(shares.T * level)  # one column per entity, rows in `codes` order
        per_category = [_weighted_series(levels[rows], weights[rows]) for rows in category_rows]
        for entity, baselines in zip(entities, zip(*per_category)):
            for category, baseline in zip(CATEGORIES, baselines):
                if baseline == 0.0:
                    raise ScenarioError(
                        f"{field}: the {category} baseline of {noun} {entity} quantises to zero, "
                        "so it has no percent change; raise the range"
                    )

    def blocks(n):
        """Slices of n entities, each of whose values take about processes.BLOCK_BYTES."""
        size = max(1, processes.BLOCK_BYTES // (8 * n_codes * window.n_days))
        return (slice(start, min(start + size, n)) for start in range(0, n, size))

    def truth(profiles, quantise):
        """(duration, censored) per category of each entity, from its noiseless values as written."""
        return [
            [
                _ground_truth_for(
                    _weighted_series(clean[rows], weights[rows]), spec.baseline_days, d0_index, spec.horizon_days
                )
                for rows in category_rows
            ]
            for block in blocks(len(profiles[0]))
            for clean in quantise(_emit(spec, offsets, category_rows, profiles, block))
        ]

    def ground_truth():
        """The truth per region of trips and per Zip of transactions."""
        return truth(region_profiles, _counts), truth(zip_profiles, _amounts_as_read)

    written = []

    def write(name, header, lines):
        """Write the header line, then each block of whole lines, to the staging directory."""
        written.append(name)
        with open(staging / name, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(lines)

    # overlaps.csv: each region mostly in its own zip, a sliver in the next one
    def overlap_rows():
        for i, region in enumerate(regions):
            rng = np.random.default_rng([spec.seed, 5, i])
            own_zip = zips[i // spec.regions_per_zip]
            own_area = 0.5 + 0.4 * rng.uniform()
            yield (region, own_zip, f"{own_area:.6f}")
            neighbor_index = i // spec.regions_per_zip + 1
            if neighbor_index < len(zips):
                sliver = own_area * (0.1 + 0.8 * rng.uniform())
                yield (region, zips[neighbor_index], f"{sliver:.6f}")

    # adjacency.csv: rook edges on the grid
    def adjacency_rows():
        for i, region in enumerate(regions):
            row, col = grid_pos(i)
            for j in (i + 1, i + cols):  # east and south neighbors only, no duplicates
                if j >= spec.n_regions:
                    continue
                if j == i + 1 and grid_pos(j)[0] != row:
                    continue
                yield (region, regions[j])

    # attributes.csv: income anti-correlated and minority correlated with severity
    def attribute_rows():
        drop_lo, drop_hi = spec.drop_range
        span = max(drop_hi - drop_lo, 1e-9)
        for i, (region, drop) in enumerate(zip(regions, region_profiles[1].tolist())):
            rng = np.random.default_rng([spec.seed, 8, i])
            severity = (drop - drop_lo) / span if drop > 0 else 0.0
            severity = min(1.0, max(0.0, severity))
            flood = rng.uniform()
            minority = min(1.0, max(0.0, 0.15 + 0.6 * severity + rng.uniform(-0.2, 0.2)))
            income = max(0.0, 20000.0 + 45000.0 * (1.0 - severity) + rng.uniform(-8000.0, 8000.0))
            yield (region, f"{flood:.6f}", f"{minority:.6f}", f"{income:.2f}")

    def write_inputs():
        # trips.csv: per day x region x service type
        counts = np.empty((spec.n_regions, n_codes, window.n_days))
        for block in blocks(spec.n_regions):
            _emit(spec, offsets, category_rows, region_profiles, block, 3, counts[block])
        _counts(counts, out=counts)
        write("trips.csv", TRIPS_HEADER, _day_blocks(
            window, [f"{region},{code}," for region in regions for code in codes],
            _count_texts(counts.reshape(-1, window.n_days)),
        ))
        del counts  # freed before the amounts are drawn, so the two never sit in memory together
        # transactions.csv: per day x zip x merchant type
        amounts = np.empty((len(zips), n_codes, window.n_days))
        for block in blocks(len(zips)):
            _emit(spec, offsets, category_rows, zip_profiles, block, 4, amounts[block])
        write("transactions.csv", TRANSACTIONS_HEADER, _day_blocks(
            window, [f"{zip_code},{code}," for zip_code in zips for code in codes],
            (_cents(day) for day in amounts.reshape(-1, window.n_days).T),
        ))
        write("overlaps.csv", OVERLAPS_HEADER, _lines(overlap_rows()))
        write("adjacency.csv", ADJACENCY_HEADER, _lines(adjacency_rows()))
        write("attributes.csv", ATTRIBUTES_HEADER, _lines(attribute_rows()))

    # ground_truth.csv from the noiseless emitted values
    def truth_rows(trip_truth, tx_truth):
        for i, region in enumerate(regions):
            own_zip = i // spec.regions_per_zip
            for source, cells in (("trip", trip_truth[i]), ("transaction", tx_truth[own_zip])):
                for category, (duration, censored) in zip(CATEGORIES, cells):
                    yield (region, source, category, str(duration), "true" if censored else "false")

    config = {
        "inputs": {
            "trips": "trips.csv",
            "transactions": "transactions.csv",
            "overlaps": "overlaps.csv",
            "adjacency": "adjacency.csv",
            "attributes": "attributes.csv",
        },
        "event_day": spec.event_day.isoformat(),
        "window": {"start": window.start.isoformat(), "end": window.end.isoformat()},
        "baseline": {
            "start": spec.baseline_window.start.isoformat(),
            "end": spec.baseline_window.end.isoformat(),
        },
        "recovery": {"threshold": STANDARD["recovered_fraction"], "run_length": STANDARD["run_length"],
                     "horizon_days": spec.horizon_days},
        "output_dir": "out",
    }

    split = spec.n_regions * n_codes * window.n_days >= processes.SPLIT_CELLS
    with processes.staged(out, RecoveryTrackError) as staging:
        with processes.beside(ground_truth, split) as truths:
            write_inputs()
            write(
                "ground_truth.csv",
                ["region", "source", "category", "duration_days", "censored"],
                _lines(truth_rows(*truths())),
            )
        written.append("config.json")
        with open(staging / "config.json", "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=2)
            handle.write("\n")
    return {name: out / name for name in written}
