"""Metamorphic tests of the input contract: rewrites of the raw CSVs that must not change the results.

Each case copies a small synthetic city, rewrites some of its input files,
runs the pipeline and compares the seven artifacts with the unchanged city's.
Reordering rows, swapping or repeating adjacency edges, adding regions the
city does not have to the adjacency and attributes, re-encoding the activity
files, padding the names in their rows with spaces and putting a byte
order mark before every header leave every byte alone; splitting or padding
trip rows moves only the row counts in `coverage_report.json`, by exactly the
rows added. Renaming the regions
leaves every artifact the same once the names are mapped back.
"""

from __future__ import annotations

import codecs
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
# cities whose transaction_essential durations take two values (10 and 11 days
# at seed 3, 32 and 33 at seed 5) with a Moran I of 0 in exact arithmetic, so
# that only rounding could decide its sign
ZERO_I_CITIES = {
    "zero-i-seed-3": {"name": "zero-i-seed-3", "seed": 3, "n_regions": 12},
    "zero-i-seed-5": {"name": "zero-i-seed-5", "seed": 5, "n_regions": 12},
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


def pad_activity_names(city, rng):
    # one (entity, code) pair under several raw texts, whose stripped names are one pair
    def pad(lines):
        out = []
        for line in lines:
            day, entity, code, value = line.split(",")
            if rng.random() < 0.5:
                entity, code = (" " * rng.randint(0, 2) + name + " " * rng.randint(1, 2) for name in (entity, code))
            out.append(",".join((day, entity, code, value)))
        return out

    for name in ("trips.csv", "transactions.csv"):
        _edit_rows(city / name, pad)
    return 0


def pad_quoted_activity_names(city, rng):
    # the padded texts inside quotes, which send every block to the csv module
    pad_activity_names(city, rng)
    return crlf_quoted_activity(city, rng)


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


def bom_on_every_input(city, rng):
    for name in INPUT_NAMES:
        (city / f"{name}.csv").write_bytes(codecs.BOM_UTF8 + (city / f"{name}.csv").read_bytes())
    return 0


def bom_on_quoted_trips(city, rng):
    # a quote sends trips.csv to the csv module, which must not see the mark as part of "date"
    crlf_quoted_activity(city, rng)
    (city / "trips.csv").write_bytes(codecs.BOM_UTF8 + (city / "trips.csv").read_bytes())
    return 0


TRANSFORMS = (
    shuffle_all_inputs, swap_edge_ends, list_every_edge_twice, add_regions_outside_the_city, crlf_quoted_activity,
    pad_activity_names, pad_quoted_activity_names, split_trip_rows, add_zero_trip_rows, bom_on_every_input,
    bom_on_quoted_trips,
)


@pytest.fixture(scope="module")
def cities(tmp_path_factory):
    """{label: (city directory, {artifact: bytes})} for each city, run once unchanged."""
    out = {}
    for label, raw in {**CITIES, **ZERO_I_CITIES}.items():
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


# the input columns that name a region: trips.csv's origin, overlaps.csv's and
# attributes.csv's region, and both ends of an adjacency edge
REGION_COLUMNS = {"trips": (1,), "overlaps": (0,), "adjacency": (0, 1), "attributes": (0,)}


def _names_back(value, back):
    """A `value` parsed from JSON with each region name in it renamed by
    `back`, and each list of region names sorted."""
    if isinstance(value, dict):
        return {back.get(key, key): _names_back(item, back) for key, item in value.items()}
    if isinstance(value, list):
        items = [_names_back(item, back) for item in value]
        return sorted(items) if value and all(isinstance(item, str) and item in back for item in value) else items
    return back.get(value, value) if isinstance(value, str) else value


def name_regions_in_the_reports(city):
    """Cut the edges of one region, so moran_isolated lists it, and add trip
    rows of a region overlaps.csv lacks, which coverage_report.json names."""
    isolated = (city / "attributes.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    _edit_rows(city / "adjacency.csv", lambda lines: [line for line in lines if isolated not in line.split(",")])
    _edit_rows(city / "trips.csv", lambda lines: lines + [line[:10] + ",NOWHERE,grocery,5" for line in lines[:3]])


@pytest.mark.parametrize(
    ("label", "edit"), [*((label, None) for label in (*CITIES, *ZERO_I_CITIES)), ("noisy", name_regions_in_the_reports)]
)
def test_renamed_regions_keep_the_bundle(cities, tmp_path, label, edit):
    """Rename every region by a seeded permutation of the names, run, and map
    the names back: the artifacts must be the original ones. Rows keyed by
    region are compared after a stable sort by the mapped name, so their
    order within a region counts; the JSON reports compare every number by
    its text, after their lists of region names are sorted. An `edit` of the
    city first puts region names into the JSON reports."""
    source, expected = cities[label]
    city = tmp_path / "city"
    shutil.copytree(source, city, ignore=shutil.ignore_patterns("out"))
    if edit:
        edit(city)
        config = load_config(city / "config.json")
        run(config)
        expected = {name: (config.output_dir / name).read_bytes() for name in ARTIFACTS}
    tables = {name: (city / f"{name}.csv").read_text(encoding="utf-8").splitlines() for name in REGION_COLUMNS}
    rows = {name: [line.split(",") for line in lines[1:]] for name, lines in tables.items()}
    names = sorted({row[i] for name, columns in REGION_COLUMNS.items() for row in rows[name] for i in columns})
    rename = dict(zip(names, random.Random(label).sample(names, len(names))))
    back = {new: old for old, new in rename.items()}
    for name, columns in REGION_COLUMNS.items():
        for row in rows[name]:
            for i in columns:
                row[i] = rename[row[i]]
        text = "".join(",".join(row) + "\n" for row in [tables[name][0].split(","), *rows[name]])
        (city / f"{name}.csv").write_text(text, encoding="utf-8")
    config = load_config(city / "config.json")
    # a seeded permutation_p shuffles the values held in sorted region order,
    # so it depends on the names by design: these cities run without shuffles
    assert config.permutations == 0
    run(config)
    for name in ARTIFACTS:
        got, want = (config.output_dir / name).read_text(encoding="utf-8"), expected[name].decode("utf-8")
        if name.endswith(".json"):
            got = _names_back(json.loads(got, parse_float=str), back)
            want = _names_back(json.loads(want, parse_float=str), {region: region for region in names})
        elif name != "lorenz.csv":
            header, *lines = got.splitlines(keepends=True)
            mapped = [(back[region], rest) for region, rest in (line.split(",", 1) for line in lines)]
            got = header + "".join(f"{region},{rest}" for region, rest in sorted(mapped, key=lambda row: row[0]))
        assert got == want, name
