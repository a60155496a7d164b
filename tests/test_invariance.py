"""Metamorphic tests of the input contract: rewrites of the raw CSVs that must not change the results.

Each case copies a small synthetic city, rewrites some of its input files,
runs the pipeline and compares the seven artifacts with the unchanged city's.
Reordering rows, swapping or repeating adjacency edges, adding regions the
city does not have to the adjacency and attributes and re-encoding the
activity files leave every byte alone; splitting or padding trip rows moves
only the row counts in `coverage_report.json`, by exactly the rows added.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from conftest import GOLDEN_ARTIFACTS
from recovery_track.config import INPUT_NAMES, load_config
from recovery_track.pipeline import run
from recovery_track.synth import ScenarioSpec, generate

ARTIFACTS = (*GOLDEN_ARTIFACTS, "work/baselines.csv", "work/changes.csv")

CITIES = {
    "noisy": {"name": "noisy", "seed": 11, "n_regions": 24, "horizon_days": 60, "noise": 0.3},
    "exponential-censored": {
        "name": "exponential-censored", "seed": 2, "n_regions": 16, "horizon_days": 60,
        "noise": 0.05, "ramp_shape": "exponential", "censored_fraction": 0.3,
    },
}


def _edit_rows(path, edit):
    """Replace the data lines of CSV `path` with `edit(lines)`; return how many rows that added."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    edited = edit(lines)
    path.write_text("\n".join([header, *edited]) + "\n", encoding="utf-8")
    return len(edited) - len(lines)


def shuffle_all_inputs(city, rng):
    for name in INPUT_NAMES:
        _edit_rows(city / f"{name}.csv", lambda lines: rng.sample(lines, len(lines)))
    return 0


def swap_edge_ends(city, rng):
    _edit_rows(city / "adjacency.csv", lambda lines: [",".join(line.split(",")[::-1]) for line in lines])
    return 0


def list_every_edge_twice(city, rng):
    _edit_rows(city / "adjacency.csv", lambda lines: lines + lines)
    return 0


def add_regions_outside_the_city(city, rng):
    # one edge from a city region to an unknown one, one between two unknown ones
    _edit_rows(city / "adjacency.csv", lambda lines: lines + [lines[0].split(",")[0] + ",OUT1", "OUT1,OUT2"])
    _edit_rows(city / "attributes.csv", lambda lines: lines + ["OUT1,0.9,0.1,1000", "OUT2,0.1,0.9,90000"])
    return 0


def crlf_quoted_activity(city, rng):
    for name in ("trips.csv", "transactions.csv"):
        lines = (city / name).read_text(encoding="utf-8").splitlines()
        quoted = ['"' + line.replace(",", '","') + '"' for line in lines]
        (city / name).write_bytes("".join(line + "\r\n" for line in quoted).encode("utf-8"))
    return 0


def split_trip_rows(city, rng):
    def split(lines):
        out = []
        for line in lines:
            key, count = line.rsplit(",", 1)
            k = rng.randint(0, int(count))
            out += [f"{key},{k}", f"{key},{int(count) - k}"]
        return out

    return _edit_rows(city / "trips.csv", split)


def add_zero_trip_rows(city, rng):
    def pad(lines):
        return lines + [line.rsplit(",", 1)[0] + ",0" for line in rng.sample(lines, 500)]

    return _edit_rows(city / "trips.csv", pad)


TRANSFORMS = (
    shuffle_all_inputs, swap_edge_ends, list_every_edge_twice, add_regions_outside_the_city, crlf_quoted_activity,
    split_trip_rows, add_zero_trip_rows,
)


@pytest.fixture(scope="module")
def cities(tmp_path_factory):
    """{label: (city directory, {artifact: bytes})} for each city, run once unchanged."""
    out = {}
    for label, raw in CITIES.items():
        root = tmp_path_factory.mktemp(label)
        paths = generate(ScenarioSpec.from_mapping(raw), root / "city")
        config = load_config(paths["config.json"])
        run(config)
        out[label] = (root / "city", {name: (config.output_dir / name).read_bytes() for name in ARTIFACTS})
    return out


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda transform: transform.__name__)
@pytest.mark.parametrize("label", CITIES)
def test_input_rewrites_keep_the_bundle(cities, tmp_path, label, transform):
    source, expected = cities[label]
    city = tmp_path / "city"
    shutil.copytree(source, city, ignore=shutil.ignore_patterns("out"))
    added_trip_rows = transform(city, random.Random(7))
    config = load_config(city / "config.json")
    run(config)
    got = {name: (config.output_dir / name).read_bytes() for name in ARTIFACTS}
    coverage = json.loads(expected["coverage_report.json"])
    coverage["trips"]["data_rows"] += added_trip_rows
    coverage["trips"]["accepted"] += added_trip_rows
    assert json.loads(got["coverage_report.json"]) == coverage
    for name in ARTIFACTS:
        if name != "coverage_report.json" or not added_trip_rows:
            assert got[name] == expected[name], name
