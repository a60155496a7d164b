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
from dataclasses import dataclass, field
from datetime import date, timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np

from .aggregate import CATEGORIES, ESSENTIAL, load_taxonomy
from .config import integer_field, number_field
from .errors import ScenarioError
from .milestones import DEFAULT_RUN_LENGTH, change_threshold
from .windows import DateWindow, parse_iso_date

RAMP_LINEAR = "linear"
RAMP_EXPONENTIAL = "exponential"

# per-category ramp multipliers: essential activity comes back faster
CATEGORY_RAMP_SCALE = {ESSENTIAL: 0.7, "non-essential": 1.3}

_SPEC_DEFAULTS = {
    "name": "scenario",
    "seed": 0,
    "n_regions": None,  # required
    "event_day": "2017-08-27",
    "window_start": "2017-08-01",
    "baseline_days": 21,
    "horizon_days": 120,
    "noise": 0.0,
    "regions_per_zip": 4,
    "clusters": 4,
    "baseline_level_range": (200.0, 2000.0),
    "tx_level_range": (2000.0, 20000.0),
    "drop_range": (0.2, 0.9),
    "ramp_range": (5, 60),
    "flat_fraction": 0.05,
    "censored_fraction": 0.05,
    "ramp_shape": RAMP_LINEAR,
}


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    n_regions: int
    event_day: date
    window_start: date
    baseline_days: int
    horizon_days: int
    noise: float
    regions_per_zip: int
    clusters: int
    baseline_level_range: tuple[float, float]
    tx_level_range: tuple[float, float]
    drop_range: tuple[float, float]
    ramp_range: tuple[int, int]
    flat_fraction: float
    censored_fraction: float
    ramp_shape: str

    @classmethod
    def from_mapping(cls, raw: dict) -> "ScenarioSpec":
        unknown = set(raw) - set(_SPEC_DEFAULTS)
        if unknown:
            raise ScenarioError(f"unknown scenario field(s): {sorted(unknown)}")
        merged = {**_SPEC_DEFAULTS, **raw}
        if merged["n_regions"] is None:
            raise ScenarioError("n_regions: field is required")

        def _integer(name):
            return integer_field(merged[name], name, ScenarioError)

        def _number(name):
            return number_field(merged[name], name, ScenarioError)

        def _pair(name, kind):
            value = merged[name]
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ScenarioError(f"{name}: expected a [low, high] pair")
            lo, hi = (kind(item, name, ScenarioError) for item in value)
            if lo > hi:
                raise ScenarioError(f"{name}: low {lo} exceeds high {hi}")
            return (lo, hi)

        try:
            event_day = parse_iso_date(str(merged["event_day"]))
            window_start = parse_iso_date(str(merged["window_start"]))
        except ValueError as exc:
            raise ScenarioError(f"event_day/window_start: {exc}") from None

        spec = cls(
            name=str(merged["name"]),
            seed=_integer("seed"),
            n_regions=_integer("n_regions"),
            event_day=event_day,
            window_start=window_start,
            baseline_days=_integer("baseline_days"),
            horizon_days=_integer("horizon_days"),
            noise=_number("noise"),
            regions_per_zip=_integer("regions_per_zip"),
            clusters=_integer("clusters"),
            baseline_level_range=_pair("baseline_level_range", number_field),
            tx_level_range=_pair("tx_level_range", number_field),
            drop_range=_pair("drop_range", number_field),
            ramp_range=_pair("ramp_range", integer_field),
            flat_fraction=_number("flat_fraction"),
            censored_fraction=_number("censored_fraction"),
            ramp_shape=str(merged["ramp_shape"]),
        )
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror or exc}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        return cls.from_mapping(raw)

    def validate(self):
        if self.n_regions < 1:
            raise ScenarioError(f"n_regions: must be >= 1, got {self.n_regions}")
        if self.baseline_days < 1:
            raise ScenarioError(f"baseline_days: must be >= 1, got {self.baseline_days}")
        if self.horizon_days < 1:
            raise ScenarioError(f"horizon_days: must be >= 1, got {self.horizon_days}")
        baseline_end = self.window_start + timedelta(days=self.baseline_days - 1)
        if baseline_end >= self.event_day:
            raise ScenarioError(
                f"baseline_days: baseline window ends {baseline_end}, "
                f"not before event day {self.event_day}"
            )
        if not (0.0 <= self.noise < 1.0):
            raise ScenarioError(f"noise: must lie in [0, 1), got {self.noise}")
        if self.regions_per_zip < 1:
            raise ScenarioError(f"regions_per_zip: must be >= 1, got {self.regions_per_zip}")
        if self.clusters < 1:
            raise ScenarioError(f"clusters: must be >= 1, got {self.clusters}")
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
        if self.ramp_shape not in (RAMP_LINEAR, RAMP_EXPONENTIAL):
            raise ScenarioError(f"ramp_shape: must be linear or exponential, got {self.ramp_shape!r}")

    @property
    def window(self) -> DateWindow:
        return DateWindow(self.window_start, self.event_day + timedelta(days=self.horizon_days))

    @property
    def baseline_window(self) -> DateWindow:
        return DateWindow(self.window_start, self.window_start + timedelta(days=self.baseline_days - 1))


# --------------------------------------------------------------------------
# planted curves


def level_at(t: int, level: float, drop: float, ramp: int, shape: str = RAMP_LINEAR) -> float:
    """Planted activity level t days after the event (t < 0 is pre-event)."""
    if t < 0 or drop == 0.0:
        return level
    if shape == RAMP_LINEAR:
        fraction = min(1.0, t / ramp)
        return level * (1.0 - drop * (1.0 - fraction))
    return level * (1.0 - drop * math.exp(-3.0 * t / ramp))


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
    mix: dict  # category -> {code: proportion}
    kind: str = "ramped"  # ramped | flat | censored


@dataclass
class _Emitted:
    """Per-category noisy and noiseless per-type integer/cent values."""

    noisy: dict = field(default_factory=dict)  # category -> {code: list}
    clean: dict = field(default_factory=dict)


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


def _ground_truth_for(values, baseline_days: int, d0_index: int, horizon: int):
    baseline = math.fsum(values[:baseline_days]) / baseline_days
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
    mix = {}
    for category in CATEGORIES:
        codes = codes_by_category[category]
        shares = rng.uniform(0.5, 1.5, size=len(codes))
        shares = shares / shares.sum()
        mix[category] = dict(zip(codes, (float(s) for s in shares)))
    return _EntityProfile(level=level, drop=drop, ramp=ramp, mix=mix, kind=kind)


def _pick_kinds(rng, n: int, flat_fraction: float, censored_fraction: float) -> list[str]:
    kinds = ["ramped"] * n
    n_flat = int(round(flat_fraction * n))
    n_censored = int(round(censored_fraction * n))
    chosen = rng.choice(n, size=min(n, n_flat + n_censored), replace=False)
    for pos, index in enumerate(chosen):
        kinds[int(index)] = "flat" if pos < n_flat else "censored"
    return kinds


def _emit_entity(rng, spec: ScenarioSpec, profile: _EntityProfile, quantize) -> _Emitted:
    """Daily per-type values for one entity, noisy (emitted) and noiseless (truth)."""
    window = spec.window
    d0_index = window.index_of(spec.event_day)
    emitted = _Emitted()
    for category in CATEGORIES:
        ramp = max(1, round(profile.ramp * CATEGORY_RAMP_SCALE[category]))
        clean_curve = [
            level_at(i - d0_index, profile.level, profile.drop, ramp, spec.ramp_shape)
            for i in range(window.n_days)
        ]
        if spec.noise > 0.0:
            jitter = rng.uniform(-spec.noise, spec.noise, size=window.n_days)
            noisy_curve = [v * (1.0 + float(j)) for v, j in zip(clean_curve, jitter)]
        else:
            noisy_curve = clean_curve
        emitted.noisy[category] = {
            code: [quantize(share * v) for v in noisy_curve]
            for code, share in sorted(profile.mix[category].items())
        }
        emitted.clean[category] = {
            code: [quantize(share * v) for v in clean_curve]
            for code, share in sorted(profile.mix[category].items())
        }
    return emitted


def _quantize_count(value: float) -> int:
    return max(0, int(round(value)))


def _quantize_money(value: float) -> float:
    # round-trip through the written representation so truth == parsed value
    return float(f"{max(0.0, value):.2f}")


def _weighted_series(per_code: dict, weights: dict, n_days: int) -> list[float]:
    codes = sorted(per_code)
    return [
        math.fsum(weights[code] * per_code[code][day] for code in codes)
        for day in range(n_days)
    ]


def generate(spec: ScenarioSpec, out_dir) -> dict:
    """Write the five ingest CSVs, ground_truth.csv, and a ready pipeline config.

    Deterministic for a fixed spec: every entity draws from its own seeded
    stream, and files are emitted in sorted order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    window = spec.window
    d0_index = window.index_of(spec.event_day)
    taxonomy = load_taxonomy()
    weights = {code: entry.weight for code, entry in taxonomy.entries.items()}
    codes_by_category = {category: taxonomy.codes(category) for category in CATEGORIES}

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

    region_profiles = {}
    region_emitted = {}
    for i, region in enumerate(regions):
        profile = _sample_profile(
            np.random.default_rng([spec.seed, 1, i]), spec, cluster_bases,
            cluster_of(i), spec.baseline_level_range, region_kinds[i], codes_by_category,
        )
        region_profiles[region] = profile
        region_emitted[region] = _emit_entity(
            np.random.default_rng([spec.seed, 3, i]), spec, profile, _quantize_count
        )

    zip_emitted = {}
    for k, zip_code in enumerate(zips):
        first_region_index = k * spec.regions_per_zip
        profile = _sample_profile(
            np.random.default_rng([spec.seed, 2, k]), spec, cluster_bases,
            cluster_of(min(first_region_index, spec.n_regions - 1)),
            spec.tx_level_range, zip_kinds[k], codes_by_category,
        )
        zip_emitted[zip_code] = _emit_entity(
            np.random.default_rng([spec.seed, 4, k]), spec, profile, _quantize_money
        )

    paths = {}

    def _write_csv(name, header, rows):
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(row) + "\n")
        paths[name] = path

    # trips.csv: per day x region x service type
    def trip_rows():
        for day_index, day in enumerate(window.days()):
            day_text = day.isoformat()
            for region in regions:
                emitted = region_emitted[region]
                for category in CATEGORIES:
                    for code in sorted(emitted.noisy[category]):
                        count = emitted.noisy[category][code][day_index]
                        yield (day_text, region, code, str(count))

    _write_csv("trips.csv", ["date", "origin_region", "service_type", "trip_count"], trip_rows())

    # transactions.csv: per day x zip x merchant type
    def tx_rows():
        for day_index, day in enumerate(window.days()):
            day_text = day.isoformat()
            for zip_code in zips:
                emitted = zip_emitted[zip_code]
                for category in CATEGORIES:
                    for code in sorted(emitted.noisy[category]):
                        amount = emitted.noisy[category][code][day_index]
                        yield (day_text, zip_code, code, f"{amount:.2f}")

    _write_csv("transactions.csv", ["date", "zip", "merchant_type", "amount"], tx_rows())

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

    _write_csv("overlaps.csv", ["region", "zip", "overlap_area"], overlap_rows())

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

    _write_csv("adjacency.csv", ["region_a", "region_b"], adjacency_rows())

    # attributes.csv: income anti-correlated and minority correlated with severity
    def attribute_rows():
        drop_lo, drop_hi = spec.drop_range
        span = max(drop_hi - drop_lo, 1e-9)
        for i, region in enumerate(regions):
            rng = np.random.default_rng([spec.seed, 8, i])
            profile = region_profiles[region]
            severity = (profile.drop - drop_lo) / span if profile.drop > 0 else 0.0
            severity = min(1.0, max(0.0, severity))
            flood = rng.uniform()
            minority = float(np.clip(0.15 + 0.6 * severity + rng.uniform(-0.2, 0.2), 0.0, 1.0))
            income = max(0.0, 20000.0 + 45000.0 * (1.0 - severity) + rng.uniform(-8000.0, 8000.0))
            yield (region, f"{flood:.6f}", f"{minority:.6f}", f"{income:.2f}")

    _write_csv(
        "attributes.csv",
        ["region", "flood_fraction", "minority_fraction", "per_capita_income"],
        attribute_rows(),
    )

    # ground_truth.csv from the noiseless emitted values
    def truth_rows():
        zip_truth = {}
        for zip_code in zips:
            emitted = zip_emitted[zip_code]
            zip_truth[zip_code] = {}
            for category in CATEGORIES:
                series = _weighted_series(emitted.clean[category], weights, window.n_days)
                zip_truth[zip_code][category] = _ground_truth_for(
                    series, spec.baseline_days, d0_index, spec.horizon_days
                )
        for i, region in enumerate(regions):
            emitted = region_emitted[region]
            own_zip = zips[i // spec.regions_per_zip]
            for category in CATEGORIES:
                series = _weighted_series(emitted.clean[category], weights, window.n_days)
                duration, censored = _ground_truth_for(
                    series, spec.baseline_days, d0_index, spec.horizon_days
                )
                yield (region, "trip", category, str(duration), "true" if censored else "false")
            for category in CATEGORIES:
                duration, censored = zip_truth[own_zip][category]
                yield (region, "transaction", category, str(duration), "true" if censored else "false")

    _write_csv(
        "ground_truth.csv",
        ["region", "source", "category", "duration_days", "censored"],
        truth_rows(),
    )

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
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2)
        handle.write("\n")
    paths["config.json"] = config_path
    return paths
