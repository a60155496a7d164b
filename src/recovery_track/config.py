"""Pipeline configuration: one JSON document holding every tunable constant.

Relative input paths resolve against the config file's directory so a config
can travel with its data. Defaults reproduce the standard setup: 21-day
baseline, 7-day centered smoothing, 90% threshold held for 3 days, 120-day
horizon. Each setting, here and in `synth.ScenarioSpec`, is declared once with
`setting`: its JSON key, its default and its bounds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import date, timedelta
from pathlib import Path

from .aggregate import POLICY_ERROR, POLICY_SKIP
from .errors import ConfigError
from .series import BOUNDARIES, BOUNDARY_TRUNCATE, DEFAULT_MIN_BASELINE
from .windows import DateWindow, parse_iso_date

INPUT_NAMES = ("trips", "transactions", "overlaps", "adjacency", "attributes")
# the config keys load_config reads besides the settings
STRUCTURAL_KEYS = {
    *(f"inputs.{name}" for name in (*INPUT_NAMES, "taxonomy")),
    "window.start", "window.end", "baseline.start", "baseline.end", "event_day", "output_dir",
}


def integer_field(value, label: str, error=ConfigError) -> int:
    """A JSON integer, or a float with no fraction; strings and booleans raise `error`."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{label} must be an integer, got {value!r}")
    return int(value)


def number_field(value, label: str, error=ConfigError) -> float:
    """A finite JSON number as a float; strings, booleans, NaN and infinities raise `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{label} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, and integers too large for a float
        raise error(f"{label} must be a finite number, got {value!r}")
    return float(value)


def boolean_field(value, label: str, error=ConfigError) -> bool:
    """A JSON boolean; anything else, "false" and 0 included, raises `error`."""
    if not isinstance(value, bool):
        raise error(f"{label} must be true or false, got {value!r}")
    return value


def string_field(value, label: str, error=ConfigError) -> str:
    """A JSON string; anything else raises `error`."""
    if not isinstance(value, str):
        raise error(f"{label} must be a string, got {value!r}")
    return value


def date_field(value, label: str, error=ConfigError) -> date:
    """A JSON string holding an ISO date; other types and bad dates raise `error`."""
    if not isinstance(value, str):
        raise error(f"{label} must be a date string, got {value!r}")
    try:
        return parse_iso_date(value)
    except ValueError as exc:
        raise error(f"{label}: {exc}") from None


def _pair(kind):
    """A reader for a [low, high] field whose items `kind` reads."""

    def read(value, label: str, error=ConfigError):
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise error(f"{label}: expected a [low, high] pair")
        lo, hi = (kind(item, label, error) for item in value)
        if lo > hi:
            raise error(f"{label}: low {lo} exceeds high {hi}")
        return (lo, hi)

    return read


# read_settings' reader for each field annotation (a string, under `from __future__ import annotations`)
FIELD_READERS = {
    "int": integer_field,
    "float": number_field,
    "bool": boolean_field,
    "str": string_field,
    "date": date_field,
    "tuple[float, float]": _pair(number_field),
    "tuple[int, int]": _pair(integer_field),
}


def setting(default=MISSING, key=None, minimum=None, maximum=None, choices=None):
    """A dataclass field read from JSON `key` (default: its name); a `MISSING` default makes it required."""
    return field(
        default=default, metadata={"key": key, "minimum": minimum, "maximum": maximum, "choices": choices}
    )


def _settings(cls):
    """(field, JSON key) for every field of `cls` declared with `setting`."""
    return [(f, f.metadata["key"] or f.name) for f in fields(cls) if "key" in f.metadata]


def read_settings(cls, lookup, error) -> dict:
    """{field name: value} for each setting of `cls` that `lookup(key)` finds, read by its annotation.

    `lookup` returns `MISSING` for an absent key; a required setting must be present and not null.
    """
    values = {}
    for f, key in _settings(cls):
        value = lookup(key)
        if f.default is MISSING and (value is MISSING or value is None):
            raise error(f"{key}: field is required")
        if value is not MISSING:
            values[f.name] = FIELD_READERS[f.type](value, key, error)
    return values


def check_settings(obj, error):
    """Raise `error` for a setting of `obj` outside its declared bounds or
    choices; the bounds hold for both items of a [low, high] pair."""
    for f, key in _settings(obj):
        value, minimum, maximum = getattr(obj, f.name), f.metadata["minimum"], f.metadata["maximum"]
        choices, items = f.metadata["choices"], value if isinstance(value, tuple) else (value,)
        if minimum is not None and min(items) < minimum:
            raise error(f"{key} must be >= {minimum}, got {value}")
        if maximum is not None and max(items) > maximum:
            raise error(f"{key} must be <= {maximum}, got {value}")
        if choices is not None and value not in choices:
            raise error(f"{key} must be one of {list(choices)}, got {value!r}")


def read_json_object(path, what: str, error) -> dict:
    """The JSON object in file `path`; an unreadable file, bad JSON or a non-object raises `error`."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return raw


def days_after(day: date, days: int, label: str, error=ConfigError) -> date:
    """`day` plus `days` days; a result past the calendar raises `error` naming `label`."""
    try:
        return day + timedelta(days=days)
    except OverflowError:
        raise error(f"{label}: {day} plus {days} days is past the calendar") from None


@dataclass(frozen=True)
class PipelineConfig:
    inputs: dict  # name -> Path, the five raw CSVs
    taxonomy: Path | None
    event_day: date
    window: DateWindow
    baseline_window: DateWindow
    min_baseline: float = setting(DEFAULT_MIN_BASELINE, "baseline.min_baseline", minimum=0)
    smoothing_half_width: int = setting(3, "smoothing.half_width", minimum=0)
    smoothing_boundary: str = setting(BOUNDARY_TRUNCATE, "smoothing.boundary", choices=BOUNDARIES)
    recovered_fraction: float = setting(0.90, "recovery.threshold")
    run_length: int = setting(3, "recovery.run_length", minimum=1)
    horizon_days: int = setting(120, "recovery.horizon_days", minimum=1)
    renormalize_weights: bool = setting(False, "taxonomy_options.renormalize_weights")
    unknown_service_policy: str = setting(
        POLICY_ERROR, "taxonomy_options.unknown_service_policy", choices=(POLICY_ERROR, POLICY_SKIP)
    )
    permutations: int = setting(0, "stats.permutations", minimum=0, maximum=1_000_000)
    yates: bool = setting(False, "stats.yates")
    seed: int = setting(0, "stats.seed", minimum=0)
    output_dir: Path = Path("out")

    def validate(self):
        check_settings(self, ConfigError)
        if not (0.0 < self.recovered_fraction <= 1.0):
            raise ConfigError(
                f"recovery.threshold must lie in (0, 1], got {self.recovered_fraction}"
            )
        if self.baseline_window.end >= self.event_day:
            raise ConfigError(
                f"baseline window must end before the event day "
                f"({self.baseline_window.end} vs {self.event_day})"
            )
        if self.window.start > self.baseline_window.start:
            raise ConfigError("analysis window must start at or before the baseline window")
        needed_end = days_after(self.event_day, self.horizon_days, "recovery.horizon_days")
        if self.window.end < needed_end:
            raise ConfigError(
                f"analysis window must reach event day + horizon ({needed_end}), "
                f"ends {self.window.end}"
            )
        missing = [name for name in INPUT_NAMES if name not in self.inputs]
        if missing:
            raise ConfigError(f"inputs missing: {missing}")

    def with_overrides(self, **overrides):
        """A validated copy with every override that is not None applied."""
        config = replace(self, **{name: value for name, value in overrides.items() if value is not None})
        config.validate()
        return config


def _get_section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return section


def _window(section: dict, name: str) -> DateWindow:
    days = []
    for key in ("start", "end"):
        if key not in section:
            raise ConfigError(f"{name}.{key} is required: a window needs both start and end")
        days.append(date_field(section[key], f"{name}.{key}"))
    if days[1] < days[0]:
        raise ConfigError(f"{name}.end {days[1]} precedes {name}.start {days[0]}")
    return DateWindow(*days)


def load_config(path) -> PipelineConfig:
    """Parse and validate a pipeline config JSON file."""
    path = Path(path)
    raw = read_json_object(path, "config", ConfigError)
    base_dir = path.parent

    def _resolve(value, label):
        if not isinstance(value, str):
            raise ConfigError(f"{label} must be a path string, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else base_dir / p

    raw_inputs = _get_section(raw, "inputs")
    inputs = {
        name: _resolve(raw_inputs[name], f"inputs.{name}")
        for name in INPUT_NAMES
        if name in raw_inputs
    }
    taxonomy = (
        _resolve(raw_inputs["taxonomy"], "inputs.taxonomy") if "taxonomy" in raw_inputs else None
    )

    if "event_day" not in raw:
        raise ConfigError("event_day is required")
    event_day = date_field(raw["event_day"], "event_day")
    # a misspelled key would otherwise leave its setting at the default
    known = STRUCTURAL_KEYS.union(key for _, key in _settings(PipelineConfig))
    sections = {key.split(".")[0] for key in known if "." in key}
    given = {name for name in raw if name not in sections}
    given.update(f"{name}.{key}" for name in sections & raw.keys() for key in _get_section(raw, name))
    if given - known:
        raise ConfigError(f"unknown config key(s): {sorted(given - known)}")

    def lookup(key):
        section, name = key.split(".")
        return _get_section(raw, section).get(name, MISSING)

    settings = read_settings(PipelineConfig, lookup, ConfigError)
    # a dataclass field's default is also its class attribute
    horizon_days = settings.get("horizon_days", PipelineConfig.horizon_days)
    baseline = _get_section(raw, "baseline")
    if "start" in baseline or "end" in baseline:
        baseline_window = _window(baseline, "baseline")
    else:
        # default: the 21 days ending 6 days before the event
        end = days_after(event_day, -6, "event_day")
        baseline_window = DateWindow(days_after(end, -20, "event_day"), end)

    window_section = _get_section(raw, "window")
    if window_section:
        window = _window(window_section, "window")
    else:
        end = days_after(event_day, horizon_days, "recovery.horizon_days")
        window = DateWindow(baseline_window.start, end)

    config = PipelineConfig(
        inputs=inputs,
        taxonomy=taxonomy,
        event_day=event_day,
        window=window,
        baseline_window=baseline_window,
        output_dir=_resolve(raw.get("output_dir", str(PipelineConfig.output_dir)), "output_dir"),
        **settings,
    )
    config.validate()
    return config
