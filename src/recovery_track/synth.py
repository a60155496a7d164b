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
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import processes
from .aggregate import CATEGORIES, ESSENTIAL, load_taxonomy
from .config import check_settings, days_after, read_json_object, read_settings, setting
from .errors import RecoveryTrackError, ScenarioError
from .ingest import (
    ADJACENCY_HEADER,
    ATTRIBUTES_HEADER,
    OVERLAPS_HEADER,
    TRANSACTIONS_HEADER,
    TRIPS_HEADER,
)
from .milestones import DEFAULT_RUN_LENGTH, change_threshold
from .windows import DateWindow

RAMP_LINEAR = "linear"
RAMP_EXPONENTIAL = "exponential"

# per-category ramp multipliers: essential activity comes back faster
CATEGORY_RAMP_SCALE = {ESSENTIAL: 0.7, "non-essential": 1.3}


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
    baseline_level_range: tuple[float, float] = setting((200.0, 2000.0))
    tx_level_range: tuple[float, float] = setting((2000.0, 20000.0))
    drop_range: tuple[float, float] = setting((0.2, 0.9))
    ramp_range: tuple[int, int] = setting((5, 60))
    flat_fraction: float = setting(0.05)
    censored_fraction: float = setting(0.05)
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
        lo, hi = self.drop_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ScenarioError(f"drop_range: must lie in [0, 1], got {self.drop_range}")
        if self.baseline_level_range[0] <= 0:
            raise ScenarioError("baseline_level_range: levels must be positive")
        if self.tx_level_range[0] <= 0:
            raise ScenarioError("tx_level_range: levels must be positive")
        if self.ramp_range[0] < 1:
            raise ScenarioError(f"ramp_range: must be >= 1, got {self.ramp_range}")
        if not (0.0 <= self.flat_fraction <= 1.0):
            raise ScenarioError(f"flat_fraction: must lie in [0, 1], got {self.flat_fraction}")
        if not (0.0 <= self.censored_fraction <= 1.0):
            raise ScenarioError(
                f"censored_fraction: must lie in [0, 1], got {self.censored_fraction}"
            )
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


def level_at(
    t: np.ndarray, level: float, drop: float, ramp: int, shape: str = RAMP_LINEAR
) -> np.ndarray:
    """Planted activity level at integer day offsets `t` from the event (t < 0 is pre-event)."""
    t = np.asarray(t)
    if drop == 0.0:
        return np.full(t.shape, level)
    if shape == RAMP_LINEAR:
        fraction = np.minimum(1.0, t / ramp)
        curve = level * (1.0 - drop * (1.0 - fraction))
    else:
        # math.exp, not np.exp: the two may differ in the last bit, and the curve is a contract
        decay = [math.exp(-3.0 * day / ramp) for day in np.maximum(t, 0).tolist()]
        curve = level * (1.0 - drop * np.array(decay))
    return np.where(t < 0, level, curve)


def analytic_recovery_day(
    drop: float,
    ramp: int,
    recovered_fraction: float = 0.9,
    run_length: int = DEFAULT_RUN_LENGTH,
):
    """Recovery-day offset for the raw linear ramp, in exact rational arithmetic.

    First day the curve reaches the recovered fraction, plus run_length - 1
    qualifying days (the ramp never dips again). Arguments are read as decimal
    literals (0.9 means 9/10, not the nearest binary float) so boundary hits
    land exactly.
    """
    drop_frac = Fraction(str(drop))
    gap = 1 - Fraction(str(recovered_fraction))
    if drop_frac <= gap:
        return run_length - 1
    if drop_frac > 1:
        raise ScenarioError(f"drop must lie in [0, 1], got {drop}")
    first = math.ceil(ramp * (drop_frac - gap) / drop_frac)
    return first + run_length - 1


# --------------------------------------------------------------------------
# generator internals


@dataclass
class _EntityProfile:
    """Sampled parameters for one trip region or one transaction zip."""

    level: float
    drop: float
    ramp: int
    shares: dict  # category -> share of each of its codes, in sorted code order
    kind: str = "ramped"  # ramped | flat | censored


def _region_ids(n: int) -> list[str]:
    width = max(4, len(str(n)))
    return [f"R{i:0{width}d}" for i in range(1, n + 1)]


def _zip_ids(n_regions: int, per_zip: int) -> list[str]:
    n_zips = (n_regions + per_zip - 1) // per_zip
    return [f"{77001 + k:05d}" for k in range(n_zips)]


def _smooth_truncated(values, half_width: int = 3):
    """Centered truncated-window mean, written independently of series.py."""
    n = len(values)
    out = []
    for i in range(n):
        window = values[max(0, i - half_width) : min(n, i + half_width + 1)]
        out.append(math.fsum(window) / len(window))
    return out


def _scan_recovery(changes, d0: int, horizon: int, threshold: float, run_length: int):
    """First index t in [d0, d0+horizon] ending a qualifying run, else None."""
    for t in range(d0 + run_length - 1, d0 + horizon + 1):
        if all(changes[t - k] >= threshold for k in range(run_length)):
            return t
    return None


def _ground_truth_for(values, baseline_days: int, d0_index: int, horizon: int, label: str):
    baseline = math.fsum(values[:baseline_days]) / baseline_days
    if baseline == 0.0:
        raise ScenarioError(f"{label} quantises to zero, so it has no percent change; raise the range")
    smoothed = _smooth_truncated(values)
    threshold = change_threshold(0.9)
    changes = [(s - baseline) / baseline for s in smoothed]
    dn = _scan_recovery(changes, d0_index, horizon, threshold, DEFAULT_RUN_LENGTH)
    if dn is None:
        return horizon, True
    return dn - d0_index, False


def _sample_profile(
    rng, spec: ScenarioSpec, cluster_bases, cluster: int, level_range, kind: str,
    codes_by_category: dict,
):
    base_drop, base_ramp = cluster_bases[cluster]
    drop = float(np.clip(base_drop + rng.uniform(-0.08, 0.08), *spec.drop_range))
    ramp = int(np.clip(round(base_ramp + rng.uniform(-4.0, 4.0)), *spec.ramp_range))
    level = float(rng.uniform(*level_range))
    if kind == "flat":
        drop = 0.0
    elif kind == "censored":
        drop = max(drop, 0.5)
        ramp = spec.horizon_days * 10
    shares = {}
    for category in CATEGORIES:
        draws = rng.uniform(0.5, 1.5, size=len(codes_by_category[category]))
        shares[category] = draws / draws.sum()
    return _EntityProfile(level=level, drop=drop, ramp=ramp, shares=shares, kind=kind)


def _pick_kinds(rng, n: int, flat_fraction: float, censored_fraction: float) -> list[str]:
    kinds = ["ramped"] * n
    n_flat = int(round(flat_fraction * n))
    n_censored = int(round(censored_fraction * n))
    chosen = rng.choice(n, size=min(n, n_flat + n_censored), replace=False)
    for pos, index in enumerate(chosen):
        kinds[int(index)] = "flat" if pos < n_flat else "censored"
    return kinds


def _emit_entity(rng, spec: ScenarioSpec, profile: _EntityProfile, offsets: np.ndarray):
    """Per-type values of one entity before quantisation, (n_codes, n_days) with
    rows in category, then code order: noisy, drawn from `rng`, as emitted, and
    noiseless, as the truth sees them, where `rng` is None."""
    rows = []
    for category in CATEGORIES:
        ramp = max(1, round(profile.ramp * CATEGORY_RAMP_SCALE[category]))
        curve = level_at(offsets, profile.level, profile.drop, ramp, spec.ramp_shape)
        if rng is not None and spec.noise > 0.0:
            curve = curve * (1.0 + rng.uniform(-spec.noise, spec.noise, size=len(offsets)))
        rows.append(profile.shares[category][:, np.newaxis] * curve)
    return np.concatenate(rows)


def _counts(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trip counts: nearest integer, ties to even as round() does, never negative."""
    return np.maximum(0.0, np.rint(values, out=out), out=out)


def _count_texts(counts: np.ndarray):
    """Texts of nonnegative integral counts, as str(int(count)) gives them at any size."""
    return map(str, map(int, counts.tolist()))


def _cents(values: np.ndarray) -> list[str]:
    """Amounts as written, two decimals, never negative, in flattened order."""
    return [f"{v:.2f}" for v in np.maximum(0.0, values).ravel().tolist()]


def _amounts_as_read(values: np.ndarray) -> np.ndarray:
    """The amounts a reader of the written text gets back, so truth == parsed value."""
    return np.array(list(map(float, _cents(values)))).reshape(values.shape)


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
    stream, and files are emitted in sorted order.

    The ground truth is computed beside the writes of the five ingest CSVs
    (processes.beside): by a forked child from processes.SPLIT_CELLS trip
    cells (regions x codes x days) on, where one can be had, else by this
    process once they are written. The files are written to a staging
    directory and moved into `out_dir` once all seven are written
    (processes.staged), so a spec whose truth fails, or a write that fails,
    leaves the files of `out_dir` as they were. An OSError ends in a
    RecoveryTrackError naming the path.
    """
    out = Path(out_dir)
    window = spec.window
    d0_index = window.index_of(spec.event_day)
    offsets = np.arange(window.n_days) - d0_index
    taxonomy = load_taxonomy()
    codes_by_category = {category: taxonomy.codes(category) for category in CATEGORIES}
    # an entity's rows: each category's codes in sorted order, categories in order
    codes = [code for category in CATEGORIES for code in codes_by_category[category]]
    n_codes = len(codes)
    weights = np.array([taxonomy[code].weight for code in codes])
    bounds = np.cumsum([0] + [len(codes_by_category[category]) for category in CATEGORIES])
    category_rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def truth(clean, field, entity):
        """(duration, censored) per category of one entity, from its noiseless values."""
        return [
            _ground_truth_for(
                _weighted_series(clean[rows], weights[rows]),
                spec.baseline_days, d0_index, spec.horizon_days,
                f"{field}: the {category} baseline of {entity}",
            )
            for category, rows in zip(CATEGORIES, category_rows)
        ]

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
    region_kinds = _pick_kinds(
        np.random.default_rng([spec.seed, 6]), spec.n_regions,
        spec.flat_fraction, spec.censored_fraction,
    )
    zip_kinds = _pick_kinds(
        np.random.default_rng([spec.seed, 7]), len(zips),
        spec.flat_fraction, spec.censored_fraction,
    )
    region_profiles = [
        _sample_profile(
            np.random.default_rng([spec.seed, 1, i]), spec, cluster_bases,
            cluster_of(i), spec.baseline_level_range, region_kinds[i], codes_by_category,
        )
        for i in range(spec.n_regions)
    ]
    zip_profiles = [
        _sample_profile(
            np.random.default_rng([spec.seed, 2, k]), spec, cluster_bases,
            cluster_of(min(k * spec.regions_per_zip, spec.n_regions - 1)),
            spec.tx_level_range, zip_kinds[k], codes_by_category,
        )
        for k in range(len(zips))
    ]

    def ground_truth():
        """The truth per region of trips and per Zip of transactions, from the
        noiseless values as written."""
        trip_truth = [
            truth(_counts(_emit_entity(None, spec, profile, offsets)),
                  "baseline_level_range", f"region {region}")
            for region, profile in zip(regions, region_profiles)
        ]
        tx_truth = [
            truth(_amounts_as_read(_emit_entity(None, spec, profile, offsets)),
                  "tx_level_range", f"Zip {zip_code}")
            for zip_code, profile in zip(zips, zip_profiles)
        ]
        return trip_truth, tx_truth

    def emitted(profiles, stream):
        """Noisy values of the entities, one block of n_codes rows each."""
        values = np.empty((len(profiles) * n_codes, window.n_days))
        for i, profile in enumerate(profiles):
            rng = np.random.default_rng([spec.seed, stream, i])
            values[i * n_codes:(i + 1) * n_codes] = _emit_entity(rng, spec, profile, offsets)
        return values

    written = []

    def write(name, header, blocks):
        """Write the header line, then each block of whole lines, to the staging directory."""
        written.append(name)
        with open(staging / name, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(blocks)

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
        for i, region in enumerate(regions):
            rng = np.random.default_rng([spec.seed, 8, i])
            profile = region_profiles[i]
            severity = (profile.drop - drop_lo) / span if profile.drop > 0 else 0.0
            severity = min(1.0, max(0.0, severity))
            flood = rng.uniform()
            minority = float(np.clip(0.15 + 0.6 * severity + rng.uniform(-0.2, 0.2), 0.0, 1.0))
            income = max(0.0, 20000.0 + 45000.0 * (1.0 - severity) + rng.uniform(-8000.0, 8000.0))
            yield (region, f"{flood:.6f}", f"{minority:.6f}", f"{income:.2f}")

    def write_inputs():
        # trips.csv: per day x region x service type
        counts = emitted(region_profiles, 3)
        _counts(counts, out=counts)
        write("trips.csv", TRIPS_HEADER, _day_blocks(
            window, [f"{region},{code}," for region in regions for code in codes],
            (_count_texts(day) for day in counts.T),
        ))
        # transactions.csv: per day x zip x merchant type
        amounts = emitted(zip_profiles, 4)
        write("transactions.csv", TRANSACTIONS_HEADER, _day_blocks(
            window, [f"{zip_code},{code}," for zip_code in zips for code in codes],
            (_cents(day) for day in amounts.T),
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
        "recovery": {"threshold": 0.9, "run_length": 3, "horizon_days": spec.horizon_days},
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
