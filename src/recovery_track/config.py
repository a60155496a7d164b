"""Pipeline configuration: one JSON document holding every tunable constant.

Relative input paths resolve against the config file's directory so a config
can travel with its data. Defaults reproduce the standard setup: 21-day
baseline, 7-day centered smoothing, 90% threshold held for 3 days, 120-day
horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

from .aggregate import POLICY_ERROR, POLICY_SKIP
from .errors import ConfigError
from .series import BOUNDARY_SKIP, BOUNDARY_TRUNCATE, DEFAULT_MIN_BASELINE
from .windows import DateWindow, parse_iso_date

INPUT_NAMES = ("trips", "transactions", "overlaps", "adjacency", "attributes")


@dataclass(frozen=True)
class PipelineConfig:
    inputs: dict  # name -> Path, the five raw CSVs
    taxonomy: Path | None
    event_day: date
    window: DateWindow
    baseline_window: DateWindow
    min_baseline: float = DEFAULT_MIN_BASELINE
    smoothing_half_width: int = 3
    smoothing_boundary: str = BOUNDARY_TRUNCATE
    recovered_fraction: float = 0.90
    run_length: int = 3
    horizon_days: int = 120
    renormalize_weights: bool = False
    unknown_service_policy: str = POLICY_ERROR
    permutations: int = 0
    yates: bool = False
    seed: int = 0
    output_dir: Path = field(default_factory=lambda: Path("out"))

    def validate(self):
        if not (0.0 < self.recovered_fraction <= 1.0):
            raise ConfigError(
                f"recovery.threshold must lie in (0, 1], got {self.recovered_fraction}"
            )
        if self.run_length < 1:
            raise ConfigError(f"recovery.run_length must be >= 1, got {self.run_length}")
        if self.horizon_days < 1:
            raise ConfigError(f"recovery.horizon_days must be >= 1, got {self.horizon_days}")
        if self.smoothing_half_width < 0:
            raise ConfigError(
                f"smoothing.half_width must be >= 0, got {self.smoothing_half_width}"
            )
        if self.smoothing_boundary not in (BOUNDARY_TRUNCATE, BOUNDARY_SKIP):
            raise ConfigError("smoothing.boundary must be truncate or skip")
        if self.unknown_service_policy not in (POLICY_ERROR, POLICY_SKIP):
            raise ConfigError(
                f"unknown_service_policy must be {POLICY_ERROR!r} or {POLICY_SKIP!r}"
            )
        if self.min_baseline < 0:
            raise ConfigError(f"baseline.min_baseline must be >= 0, got {self.min_baseline}")
        if self.permutations < 0:
            raise ConfigError(f"stats.permutations must be >= 0, got {self.permutations}")
        if self.baseline_window.end >= self.event_day:
            raise ConfigError(
                f"baseline window must end before the event day "
                f"({self.baseline_window.end} vs {self.event_day})"
            )
        if self.window.start > self.baseline_window.start:
            raise ConfigError("analysis window must start at or before the baseline window")
        needed_end = self.event_day + timedelta(days=self.horizon_days)
        if self.window.end < needed_end:
            raise ConfigError(
                f"analysis window must reach event day + horizon ({needed_end}), "
                f"ends {self.window.end}"
            )
        missing = [name for name in INPUT_NAMES if name not in self.inputs]
        if missing:
            raise ConfigError(f"inputs missing: {missing}")

    def with_overrides(self, permutations=None, yates=None, seed=None, output_dir=None):
        updates = {}
        if permutations is not None:
            updates["permutations"] = permutations
        if yates is not None:
            updates["yates"] = yates
        if seed is not None:
            updates["seed"] = seed
        if output_dir is not None:
            updates["output_dir"] = Path(output_dir)
        config = replace(self, **updates) if updates else self
        config.validate()
        return config


def _get_section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return section


def integer_field(value, label: str, error=ConfigError) -> int:
    """A JSON integer, or a float with no fraction; strings and booleans raise `error`."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{label} must be an integer, got {value!r}")
    return int(value)


def number_field(value, label: str, error=ConfigError) -> float:
    """A JSON number as a float; strings and booleans raise `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{label} must be a number, got {value!r}")
    return float(value)


def _integer(section: dict, name: str, key: str, default: int) -> int:
    return integer_field(section.get(key, default), f"{name}.{key}")


def _number(section: dict, name: str, key: str, default: float) -> float:
    return number_field(section.get(key, default), f"{name}.{key}")


def _boolean(section: dict, name: str, key: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{name}.{key} must be true or false, got {value!r}")
    return value


def load_config(path) -> PipelineConfig:
    """Parse and validate a pipeline config JSON file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    base_dir = path.parent

    def _resolve(value):
        p = Path(value)
        return p if p.is_absolute() else base_dir / p

    raw_inputs = _get_section(raw, "inputs")
    inputs = {name: _resolve(raw_inputs[name]) for name in INPUT_NAMES if name in raw_inputs}
    taxonomy = _resolve(raw_inputs["taxonomy"]) if "taxonomy" in raw_inputs else None

    try:
        event_day = parse_iso_date(str(raw["event_day"]))
    except KeyError:
        raise ConfigError("event_day is required") from None
    except ValueError as exc:
        raise ConfigError(f"event_day: {exc}") from None

    baseline = _get_section(raw, "baseline")
    recovery = _get_section(raw, "recovery")
    smoothing = _get_section(raw, "smoothing")
    taxonomy_options = _get_section(raw, "taxonomy_options")
    stats = _get_section(raw, "stats")

    horizon_days = _integer(recovery, "recovery", "horizon_days", 120)
    try:
        if "start" in baseline or "end" in baseline:
            baseline_window = DateWindow.from_strings(baseline["start"], baseline["end"])
        else:
            # default: the 21 days ending 6 days before the event
            end = event_day - timedelta(days=6)
            baseline_window = DateWindow(end - timedelta(days=20), end)
    except KeyError as exc:
        raise ConfigError(f"baseline window needs both start and end ({exc})") from None
    except ValueError as exc:
        raise ConfigError(f"baseline window: {exc}") from None

    window_section = _get_section(raw, "window")
    try:
        if window_section:
            window = DateWindow.from_strings(window_section["start"], window_section["end"])
        else:
            window = DateWindow(
                baseline_window.start, event_day + timedelta(days=horizon_days)
            )
    except KeyError as exc:
        raise ConfigError(f"window needs both start and end ({exc})") from None
    except ValueError as exc:
        raise ConfigError(f"window: {exc}") from None

    config = PipelineConfig(
        inputs=inputs,
        taxonomy=taxonomy,
        event_day=event_day,
        window=window,
        baseline_window=baseline_window,
        min_baseline=_number(baseline, "baseline", "min_baseline", DEFAULT_MIN_BASELINE),
        smoothing_half_width=_integer(smoothing, "smoothing", "half_width", 3),
        smoothing_boundary=str(smoothing.get("boundary", BOUNDARY_TRUNCATE)),
        recovered_fraction=_number(recovery, "recovery", "threshold", 0.90),
        run_length=_integer(recovery, "recovery", "run_length", 3),
        horizon_days=horizon_days,
        renormalize_weights=_boolean(
            taxonomy_options, "taxonomy_options", "renormalize_weights", False
        ),
        unknown_service_policy=str(taxonomy_options.get("unknown_service_policy", POLICY_ERROR)),
        permutations=_integer(stats, "stats", "permutations", 0),
        yates=_boolean(stats, "stats", "yates", False),
        seed=_integer(stats, "stats", "seed", 0),
        output_dir=_resolve(raw.get("output_dir", "out")),
    )
    config.validate()
    return config
