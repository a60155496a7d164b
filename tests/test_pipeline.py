from __future__ import annotations

import csv
import filecmp
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest

import recovery_track.stats
from conftest import GOLDEN_ARTIFACTS, write_csv
from recovery_track import aggregate, cli, ingest, pipeline, processes
from recovery_track.config import PipelineConfig, load_config
from recovery_track.errors import ConfigError, ParseError, PipelineError, TaxonomyError
from recovery_track.pipeline import STAGES, run, validate
from recovery_track.series import BOUNDARY_SKIP
from recovery_track.stats import chi_square_from_table
from recovery_track.synth import ScenarioSpec, generate
from recovery_track.windows import DateWindow

GOLDEN_DIR = Path(__file__).parent / "golden"

MINI_CONFIG = {
    "inputs": {
        "trips": "trips.csv",
        "transactions": "transactions.csv",
        "overlaps": "overlaps.csv",
        "adjacency": "adjacency.csv",
        "attributes": "attributes.csv",
    },
    "event_day": "2017-08-05",
    "baseline": {"start": "2017-08-01", "end": "2017-08-03"},
    "recovery": {"horizon_days": 10},
    "output_dir": "out",
}


def _write_mini_bundle(directory, tx_extra="", trip_extra=""):
    days = [f"2017-08-{d:02d}" for d in range(1, 16)]
    trips = ["date,origin_region,service_type,trip_count"]
    transactions = ["date,zip,merchant_type,amount"]
    for day in days:
        for region in ("R001", "R002", "R003", "R004"):
            trips.append(f"{day},{region},grocery,20")
            trips.append(f"{day},{region},restaurant,10")
        for zip_code in ("77001", "77002"):
            transactions.append(f"{day},{zip_code},grocery,500.00")
            transactions.append(f"{day},{zip_code},restaurant,250.00")
    write_csv(directory, "trips.csv", "\n".join(trips) + "\n" + trip_extra)
    write_csv(directory, "transactions.csv", "\n".join(transactions) + "\n" + tx_extra)
    write_csv(
        directory, "overlaps.csv",
        "region,zip,overlap_area\n"
        "R001,77001,0.9\nR002,77001,0.8\nR003,77002,0.9\nR004,77002,0.8\n",
    )
    write_csv(
        directory, "adjacency.csv",
        "region_a,region_b\nR001,R002\nR002,R003\nR003,R004\n",
    )
    write_csv(
        directory, "attributes.csv",
        "region,flood_fraction,minority_fraction,per_capita_income\n"
        "R001,0.1,0.2,50000\nR002,0.4,0.5,30000\nR003,0.2,0.3,45000\nR004,0.8,0.7,20000\n",
    )
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(MINI_CONFIG, indent=2), encoding="utf-8")
    return config_path


@pytest.fixture()
def mini_bundle(tmp_path):
    return _write_mini_bundle(tmp_path)


@pytest.fixture(scope="module")
def small_city(tmp_path_factory):
    root = tmp_path_factory.mktemp("small-city")
    spec = ScenarioSpec.from_mapping(
        {"name": "small", "seed": 5, "n_regions": 12, "horizon_days": 60, "regions_per_zip": 3}
    )
    paths = generate(spec, root)
    return root, load_config(paths["config.json"])


def test_run_writes_expected_bundle(mini_bundle):
    config = load_config(mini_bundle)
    written = run(config)
    assert written == sorted((*GOLDEN_ARTIFACTS, "work/baselines.csv", "work/changes.csv"))
    for name in GOLDEN_ARTIFACTS:
        assert (config.output_dir / name).exists(), name
    assert (config.output_dir / "work" / "changes.csv").exists()
    # flat mini city: everything recovers on day 2, stats degenerate but recorded
    stats = json.loads((config.output_dir / "stats.json").read_text())
    assert "error" in stats["morans_i"]["trip_essential"]
    assert "error" in stats["gini"]
    coverage = json.loads((config.output_dir / "coverage_report.json").read_text())
    assert coverage["regions"]["total"] == 4
    assert coverage["regions"]["included"] == 4


def test_staged_runs_match_full_run(small_city, tmp_path):
    _, config = small_city
    # one Zip per region: no two transaction rows are the same
    own_zip = generate(
        ScenarioSpec.from_mapping(
            {"name": "own-zip", "seed": 6, "n_regions": 9, "horizon_days": 60, "regions_per_zip": 1}
        ),
        tmp_path / "own-zip-city",
    )
    configs = {
        "small": config,
        "skip-boundary": replace(config, smoothing_boundary=BOUNDARY_SKIP),
        "own-zip": load_config(own_zip["config.json"]),
    }
    for label, base in configs.items():
        full = tmp_path / label / "full"
        run(base.with_overrides(output_dir=full))
        staged = base.with_overrides(output_dir=tmp_path / label / "staged")
        for stage in STAGES:
            run(staged, only=stage)
        comparison = filecmp.dircmp(full, staged.output_dir)
        assert sorted(comparison.same_files) == sorted(GOLDEN_ARTIFACTS), label
        work = filecmp.dircmp(full / "work", staged.output_dir / "work")
        assert sorted(work.same_files) == ["baselines.csv", "changes.csv"], label


def test_report_stages_ignore_row_order(small_city, tmp_path):
    _, config = small_city
    config = config.with_overrides(output_dir=tmp_path / "out")
    run(config)
    out = config.output_dir
    expected = {name: (out / name).read_bytes() for name in GOLDEN_ARTIFACTS}

    def reverse_rows(name):
        header, *rows = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text(header + "".join(reversed(rows)))

    reverse_rows("milestones.csv")
    run(config, only="metric")
    assert (out / "metric.csv").read_bytes() == expected["metric.csv"]
    reverse_rows("metric.csv")
    run(config, only="stats")
    for name in ("stats.json", "lorenz.csv"):
        assert (out / name).read_bytes() == expected[name], name


@pytest.mark.parametrize(
    "keep, edit, expected",
    [
        pytest.param(
            3, None,
            {variable: "chi-square needs >= 4 regions with attributes, got 3" for variable in (
                "per_capita_income", "minority_fraction", "flood_fraction",
            )},
            id="three-regions",
        ),
        pytest.param(
            None, ("flood_fraction", "0.5"),
            {"flood_fraction": "degenerate median split: all regions on one side"},
            id="constant-flood-fraction",
        ),
    ],
)
def test_stats_records_chi_square_errors(small_city, tmp_path, keep, edit, expected):
    _, config = small_city
    header, *rows = Path(config.inputs["attributes"]).read_text().splitlines()
    rows = rows[:keep]
    if edit is not None:
        column = header.split(",").index(edit[0])
        rows = [",".join(edit[1] if k == column else cell for k, cell in enumerate(row.split(",")))
                for row in rows]
    write_csv(tmp_path, "attributes.csv", "\n".join([header, *rows]) + "\n")
    config = replace(
        config, inputs={**config.inputs, "attributes": tmp_path / "attributes.csv"},
        output_dir=tmp_path / "out",
    )
    run(config)
    chi_square = json.loads((tmp_path / "out" / "stats.json").read_text())["chi_square"]
    for variable, entry in chi_square.items():
        if variable in expected:
            assert entry == {"error": expected[variable]}, variable
        else:
            assert entry["n"] == len(rows), variable


def test_milestones_rerun_memory_per_read(tmp_path, monkeypatch):
    # 60 regions: work/changes.csv is 1.8 MB, 28 reads of 64 KiB
    block_bytes = 64 << 10
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    run(config)
    out = config.output_dir
    assert (out / "work" / "changes.csv").stat().st_size > 25 * block_bytes
    sufficient = (out / "work" / "baselines.csv").read_text().count(",true\n")
    matrix_bytes = sufficient * config.window.n_days * 8
    tracemalloc.start()
    try:
        run(config, only="milestones")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the matrix, plus a read or two of text and the lines split from one, never the whole file
    assert peak < matrix_bytes + 8 * block_bytes


def test_milestones_rerun_memory_per_read_in_two_processes(tmp_path, monkeypatch, forks):
    # test_milestones_rerun_memory_per_read's city, its changes read in two
    # processes: this process holds the child's rows only until they are copied in
    block_bytes = 64 << 10
    monkeypatch.setattr(processes, "BLOCK_BYTES", block_bytes)
    config = load_config(generate(ScenarioSpec.from_mapping({"n_regions": 60}), tmp_path)["config.json"])
    run(config)
    out = config.output_dir
    sufficient = (out / "work" / "baselines.csv").read_text().count(",true\n")
    matrix_bytes = sufficient * config.window.n_days * 8
    changes = out / "work" / "changes.csv"
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1)
    mid = processes.split_point(changes)
    with open(changes, "rb") as handle:
        handle.seek(mid)
        child_rows_bytes = sum(1 for _ in handle) * 8
    assert 0 < child_rows_bytes < matrix_bytes * 0.6
    milestones = (out / "milestones.csv").read_bytes()
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    forks.clear()
    tracemalloc.start()
    try:
        run(config, only="milestones")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks) == 1 and [os.WEXITSTATUS(status) for status in forks.values()] == [0]
    assert (out / "milestones.csv").read_bytes() == milestones
    assert peak < matrix_bytes + child_rows_bytes + 8 * block_bytes


# ---------------------------------------------------------------------------
# Moran's I in the stats stage, the last three fields beside it


MORAN_FIELDS = (*pipeline.MILESTONE_FIELDS, "integrated")


def _stats_bytes(out):
    return [(out / name).read_bytes() for name in (pipeline.STATS_ARTIFACT, pipeline.LORENZ_ARTIFACT)]


def _golden_bundle_copy(golden_city, directory):
    """argv for `run` of the golden city into a copy of its bundle, and the copy."""
    out = directory / "out"
    shutil.copytree(golden_city["out"], out)
    return ["run", "--config", str(golden_city["root"] / "config.json"), "--out", str(out)], out


def _permutation_p(out):
    moran = json.loads((out / pipeline.STATS_ARTIFACT).read_text(encoding="utf-8"))["morans_i"]
    return [moran[field]["permutation_p"] for field in MORAN_FIELDS]


# Each field's seeded permutation_p on the golden city with 99 shuffles, by
# seed, written down from runs of the kernel that gathered several shuffles per
# call (blocks of about 160 on the 30-region city below), so that any kernel
# must keep them.
GOLDEN_PERMUTATION_P = {0: [0.11, 0.02, 0.01, 0.01, 0.01], 7: [0.09, 0.02, 0.01, 0.01, 0.01]}


@pytest.mark.parametrize("seed", [0, 7])
def test_stats_write_the_same_bytes_in_one_process_and_in_two(golden_city, tmp_path, monkeypatch, forks, seed):
    config = str(golden_city["root"] / "config.json")
    options = ["--permutations", "99", "--seed", str(seed)]
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1 << 62)  # the trip reader reads whole
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 << 62)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "one"), *options]) == 0
    expected = _stats_bytes(tmp_path / "one")
    assert not forks
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "two"), *options]) == 0
    assert _stats_bytes(tmp_path / "two") == expected
    assert len(forks) == 2  # the changes writer and the stats stage
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "one"), "--only", "stats", *options]) == 0
    assert _stats_bytes(tmp_path / "one") == expected
    assert len(forks) == 3 and forks.exit_codes() == [0, 0, 0]
    assert _permutation_p(tmp_path / "one") == GOLDEN_PERMUTATION_P[seed]


def test_a_constant_field_is_refused_in_its_own_entry(golden_city, tmp_path, monkeypatch, forks):
    argv, out = _golden_bundle_copy(golden_city, tmp_path)
    argv += ["--only", "stats", "--permutations", "99", "--seed", "7"]
    milestones = out / pipeline.MILESTONES_ARTIFACT
    lines = milestones.read_text().splitlines(keepends=True)
    # the fourth milestone, the child's first field: 5 days, not censored, for every region
    milestones.write_text(lines[0] + "".join(line.rsplit(",", 2)[0] + ",5,false\n" for line in lines[1:]))
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 << 62)
    assert cli.main(argv) == 0
    expected = _stats_bytes(out)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    assert cli.main(argv) == 0
    assert _stats_bytes(out) == expected and forks.exit_codes() == [0]
    moran = json.loads(expected[0])["morans_i"]
    assert moran[MORAN_FIELDS[3]] == {"error": "constant field: Moran's I is undefined for zero variance"}
    assert all("error" not in moran[field] for field in MORAN_FIELDS if field != MORAN_FIELDS[3])


@pytest.mark.parametrize("failure", ["raise", "exit_after_sending", "short", "no_fork"])
def test_a_failed_stats_child_leaves_its_fields_to_this_process(golden_city, tmp_path, monkeypatch, forks, failure):
    argv, out = _golden_bundle_copy(golden_city, tmp_path)
    argv += ["--only", "stats", "--permutations", "99"]
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 << 62)
    assert cli.main(argv) == 0
    expected = _stats_bytes(out)
    forks.fail(failure, wrong=lambda entries: [{"error": "wrong"}] * len(entries))
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    assert cli.main(argv) == 0
    assert _stats_bytes(out) == expected
    assert forks.exit_codes() == {"raise": [1], "exit_after_sending": [3], "short": [0]}.get(failure, [])


def test_a_failure_in_the_stats_stage_kills_and_reaps_the_child(golden_city, tmp_path, monkeypatch, forks):
    _, out = _golden_bundle_copy(golden_city, tmp_path)
    config = golden_city["config"].with_overrides(output_dir=out, permutations=99)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    forks.fail("hang")
    morans_i = recovery_track.stats.morans_i

    def fail_this_process(values, weights, permutations, seed):
        if seed[1] == 1:  # the last field this process computes
            raise RuntimeError("this process fails")
        return morans_i(values, weights, permutations=permutations, seed=seed)

    monkeypatch.setattr(recovery_track.stats, "morans_i", fail_this_process)
    with pytest.raises(RuntimeError, match="this process fails"):
        run(config, only="stats")
    assert forks.exit_codes() == [-signal.SIGKILL]
    assert _stats_bytes(out) == _stats_bytes(golden_city["out"])  # the bundle is as it was


def test_a_failure_in_the_stats_stage_leaves_the_bundle_as_it_was(golden_city, tmp_path, monkeypatch, forks):
    _, out = _golden_bundle_copy(golden_city, tmp_path)
    config = golden_city["config"].with_overrides(output_dir=out, permutations=99)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    morans_i = recovery_track.stats.morans_i
    fields = []

    def fail_the_last_field(values, weights, permutations, seed):
        fields.append(seed[1])
        if seed[1] == len(MORAN_FIELDS) - 1:
            raise RuntimeError("the stats stage fails")
        return morans_i(values, weights, permutations=permutations, seed=seed)

    monkeypatch.setattr(recovery_track.stats, "morans_i", fail_the_last_field)
    with pytest.raises(RuntimeError, match="the stats stage fails"):
        run(config, only="stats")
    # the child fails on the last field and exits 1; this process computes the child's three fields again
    assert fields == list(range(len(MORAN_FIELDS))) and forks.exit_codes() == [1]
    assert _stats_bytes(out) == _stats_bytes(golden_city["out"])


def test_moran_reads_each_region_by_name_around_one_left_without_neighbors(golden_city, tmp_path):
    # R0002 loses its edges, so the weighted regions skip it and every later region moves up one place
    city = tmp_path / "city"
    shutil.copytree(golden_city["root"], city, ignore=shutil.ignore_patterns("out"))
    adjacency_csv = city / "adjacency.csv"
    header, *edges = adjacency_csv.read_text(encoding="utf-8").splitlines()
    adjacency_csv.write_text("\n".join([header, *(e for e in edges if "R0002" not in e.split(","))]) + "\n")
    shutil.copytree(golden_city["out"], city / "out")
    config = load_config(city / "config.json")
    run(config, only="stats")

    def rows_by_region(name):
        with open(city / "out" / name, encoding="utf-8", newline="") as handle:
            return {row["region"]: row for row in csv.DictReader(handle)}

    milestones, metric = rows_by_region(pipeline.MILESTONES_ARTIFACT), rows_by_region(pipeline.METRIC_ARTIFACT)
    weights = recovery_track.stats.SpatialWeights.from_adjacency(
        ingest.parse_adjacency(adjacency_csv).records, include=sorted(milestones)
    )
    assert weights.isolated == ("R0002",)
    stats = json.loads((city / "out" / pipeline.STATS_ARTIFACT).read_text(encoding="utf-8"))
    assert stats["regions"]["moran_isolated"] == ["R0002"]
    for i, field in enumerate((*pipeline.MILESTONE_FIELDS, "integrated")):
        rows, column = (metric, field) if field == "integrated" else (milestones, f"{field}_days")
        values = [float(rows[region][column]) for region in weights.regions]
        expected = pipeline._moran_entry(values, weights, config.permutations, [config.seed, i])
        assert stats["morans_i"][field] == expected, field


def test_moran_reads_each_edge_from_both_ends(golden_city, tmp_path):
    # the weights take the adjacency as undirected: an edge listed once, from
    # both ends, or twice over gives the same stats.json
    header, *edges = (golden_city["root"] / "adjacency.csv").read_text(encoding="utf-8").splitlines()
    once = sorted({",".join(sorted(edge.split(","))) for edge in edges})
    both_ends = [*once, *(",".join(edge.split(",")[::-1]) for edge in once), once[0]]
    stats_json = []
    for name, lines in (("once", once), ("both-ends", both_ends)):
        city = tmp_path / name
        shutil.copytree(golden_city["root"], city, ignore=shutil.ignore_patterns("out"))
        (city / "adjacency.csv").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        shutil.copytree(golden_city["out"], city / "out")
        (city / "out" / pipeline.STATS_ARTIFACT).unlink()
        assert cli.main(["run", "--config", str(city / "config.json"), "--only", "stats"]) == 0
        stats_json.append((city / "out" / pipeline.STATS_ARTIFACT).read_bytes())
    assert stats_json == [(golden_city["out"] / pipeline.STATS_ARTIFACT).read_bytes()] * 2


def test_stats_without_permutations_run_in_one_process(golden_city, tmp_path, monkeypatch, forks):
    argv, out = _golden_bundle_copy(golden_city, tmp_path)
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    assert cli.main([*argv, "--only", "stats"]) == 0
    assert _stats_bytes(out) == _stats_bytes(golden_city["out"])
    assert not forks


def test_a_criterion_03_city_runs_its_permutations_in_one_process(tmp_path, forks):
    spec = {
        "seed": 0, "n_regions": 30, "horizon_days": 60, "noise": 0.02, "regions_per_zip": 3,
        "drop_range": [0.25, 0.85], "ramp_range": [8, 30], "flat_fraction": 0.0, "censored_fraction": 0.0,
    }
    config = load_config(generate(ScenarioSpec.from_mapping(spec), tmp_path)["config.json"])
    run(config)
    assert not forks
    run(config.with_overrides(permutations=999), only="stats")
    assert not forks
    # 999 shuffles of its region pairs stay below the split
    regions = [line.split(",", 1)[0] for line in (config.output_dir / "metric.csv").read_text().splitlines()[1:]]
    adjacency = ingest.parse_adjacency(config.inputs["adjacency"]).records
    pairs = len(recovery_track.stats.SpatialWeights.from_adjacency(adjacency, include=regions).first)
    assert 0 < 999 * pairs < processes.SPLIT_CELLS


def test_seeded_permutation_p_values_on_a_criterion_03_sized_city(tmp_path):
    # one severity cluster, so the p-values spread rather than all sit at 1/1000
    spec = {
        "seed": 0, "n_regions": 30, "horizon_days": 60, "noise": 0.02, "regions_per_zip": 3, "clusters": 1,
        "drop_range": [0.25, 0.85], "ramp_range": [8, 30], "flat_fraction": 0.0, "censored_fraction": 0.0,
    }
    config = load_config(generate(ScenarioSpec.from_mapping(spec), tmp_path)["config.json"])
    run(config)
    assert cli.main(["run", "--config", str(tmp_path / "config.json"), "--only", "stats", "--permutations", "999",
                     "--seed", "3"]) == 0
    assert _permutation_p(config.output_dir) == [0.895, 0.803, 0.004, 0.001, 0.002]


# taxonomy rows, taxonomy_options and the sha256 of each artifact the small city's run writes with them
CUSTOM_TAXONOMIES = {
    # the bundled rows in reverse order, with recreation's weight 0
    "renormalized": (
        "restaurant,non-essential,63.1\nretail,non-essential,28.8\nrecreation,non-essential,0\n"
        "self_care,non-essential,0.5\nutilities,essential,0.2\ngrocery,essential,94.7\n"
        "healthcare,essential,0.01\ndrug_store,essential,5.0\n",
        {"renormalize_weights": True},
        {
            "milestones.csv": "65dfca98245fdfb61a272901972843196144aae9455093cc40ed4a7d8652a662",
            "metric.csv": "d27ad6107f05a325cdcb3085dca72cb654eb23a33851f42cf30b04a1fc4d7640",
            "stats.json": "315fce5176d4f29d2dc0aec2a1e5ee01653aaecf0ae05621aa7a0d5449d8e1ad",
            "lorenz.csv": "816f85b64bd489a4213efaa2039d5928000146be191c67f9741ae31df20e4ea2",
            "coverage_report.json": "ef356981f6d60ae8d0a4ac660bf02b2700a642d2e5b4c6e83dab422e4605277d",
            "work/baselines.csv": "d1452677538b6cbebe5e5cfb4ebf8798c63ac1ef90051fd24df3012f06a2cb05",
            "work/changes.csv": "24f695687aac3d414cbe0f88ca74f06640737b3fb1c9958ae25c28d2771b0513",
        },
    ),
    # five of the eight codes the city's rows hold are not in it
    "skipped": (
        "drug_store,essential,5.0\ngrocery,essential,94.7\nrestaurant,non-essential,63.1\n",
        {"unknown_service_policy": "skip-with-warning"},
        {
            "milestones.csv": "7b2b9f1669a58447b11ddd611b203f9431cc0b5b7aca5eb2d179f2e739f45954",
            "metric.csv": "424d2e6b330110ce583c8fc6a42e1f4db4d06d666955dc51a63f362808da3b34",
            "stats.json": "cc2aeca903624227d6bd8eabace719ffffc27f0339aca81ab9a500d2f61d49c9",
            "lorenz.csv": "c26bfdb70d8b6dff53d8bc0421ab0a2ce4a58465cba733b476385ba4adbe53c4",
            "coverage_report.json": "9e00dbe9587ee3b78763c825a95d8c677f61a076e920c3dcbc3b364033fa5dca",
            "work/baselines.csv": "109e962144d9dc7e35fd226886d223da4ac6dcb08e70a8fb00d3d910c53a1c2e",
            "work/changes.csv": "959592d795dc455f225d5bb287cd303b9a4a0214a8a52865e22cc6be74899ecf",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_TAXONOMIES))
def test_a_custom_taxonomy_end_to_end(small_city, tmp_path, name):
    rows, options, digests = CUSTOM_TAXONOMIES[name]
    root, _ = small_city
    raw = json.loads((root / "config.json").read_text())
    raw["inputs"] = {key: str(root / path) for key, path in raw["inputs"].items()}
    taxonomy = write_csv(tmp_path, "taxonomy.csv", "service_type,category,weight_percent\n" + rows)
    raw["inputs"]["taxonomy"] = str(taxonomy)
    raw["taxonomy_options"] = options
    raw["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    run(config)
    out = config.output_dir
    names = (*GOLDEN_ARTIFACTS, "work/baselines.csv", "work/changes.csv")
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert got == digests


def test_only_stage_requires_upstream_artifacts(small_city, tmp_path):
    _, config = small_city
    config = config.with_overrides(output_dir=tmp_path / "fresh")
    with pytest.raises(PipelineError, match="artifact"):
        run(config, only="milestones")


def test_unknown_stage_rejected(small_city):
    _, config = small_city
    with pytest.raises(PipelineError):
        run(config, only="bogus")


def test_downstream_stages_do_not_touch_raw_inputs(tmp_path):
    config_path = _write_mini_bundle(tmp_path)
    config = load_config(config_path)
    run(config, only="series")
    # raw activity inputs gone: milestone/metric stages must still work
    (tmp_path / "trips.csv").unlink()
    (tmp_path / "transactions.csv").unlink()
    (tmp_path / "overlaps.csv").unlink()
    run(config, only="milestones")
    run(config, only="metric")
    assert (config.output_dir / "milestones.csv").exists()
    assert (config.output_dir / "metric.csv").exists()


def test_failed_run_leaves_no_partial_outputs(tmp_path):
    config_path = _write_mini_bundle(tmp_path)
    # stats-stage input is malformed; the whole run must commit nothing
    write_csv(
        tmp_path, "attributes.csv",
        "region,flood_fraction,minority_fraction,per_capita_income\nR001,2.0,0.2,1\n",
    )
    config = load_config(config_path)
    with pytest.raises(ParseError):
        run(config)
    if config.output_dir.exists():
        assert list(config.output_dir.iterdir()) == []


def test_unknown_service_type_fails_run_under_default_policy(tmp_path):
    config_path = _write_mini_bundle(tmp_path, trip_extra="2017-08-02,R001,florist,5\n")
    with pytest.raises(TaxonomyError, match="florist"):
        run(load_config(config_path))


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_synthetic_bundle(small_city):
    _, config = small_city
    assert validate(config) == []


def test_validate_reports_unmatched_region(tmp_path):
    config_path = _write_mini_bundle(tmp_path, trip_extra="2017-08-02,R999,grocery,5\n")
    diagnostics = validate(load_config(config_path))
    kinds = {d["kind"] for d in diagnostics}
    assert kinds == {"unmatched-region"}
    assert diagnostics[0]["region"] == "R999"


def test_validate_reports_unknown_service_type(tmp_path):
    config_path = _write_mini_bundle(tmp_path, tx_extra="2017-08-02,77001,florist,9.99\n")
    diagnostics = validate(load_config(config_path))
    assert {d["kind"] for d in diagnostics} == {"unknown-service-type"}
    assert diagnostics[0]["code"] == "florist"
    # one input row, although both R001 and R002 inherit zip 77001
    assert diagnostics[0]["rows"] == 1


def test_coverage_counts_unknown_codes_once_per_input_row(tmp_path):
    config_path = _write_mini_bundle(
        tmp_path,
        tx_extra="2017-08-02,77001,florist,9.99\n2017-08-03,77002,florist,1.00\n",
        trip_extra="2017-08-02,R003,florist,5\n",
    )
    raw = json.loads(config_path.read_text())
    raw["taxonomy_options"] = {"unknown_service_policy": "skip-with-warning"}
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    run(config)
    coverage = json.loads((config.output_dir / "coverage_report.json").read_text())
    assert coverage["unknown_service_types"] == {"florist": 3}


def test_validate_reports_schema_errors_not_exceptions(tmp_path):
    config_path = _write_mini_bundle(tmp_path, trip_extra="bad-date,R001,grocery,5\n")
    diagnostics = validate(load_config(config_path))
    assert any(d["kind"] == "schema-error" and d["input"] == "trips" for d in diagnostics)


def test_validate_reports_missing_file(tmp_path):
    config_path = _write_mini_bundle(tmp_path)
    (tmp_path / "adjacency.csv").unlink()
    diagnostics = validate(load_config(config_path))
    assert any(d["kind"] == "missing-file" and d["input"] == "adjacency" for d in diagnostics)


def _write_city_with_every_finding(directory):
    """The mini city plus one of each coverage finding.

    R999 has trips but no overlap (unmatched region), Zip 77999 has
    transactions but no region (unmatched Zip), florist is no known service
    type, R005 takes Zip 77002 but has no trips (insufficient trip
    baselines), and each activity file has one row after the window.
    """
    config_path = _write_mini_bundle(
        directory,
        trip_extra="2017-08-02,R999,grocery,5\n2017-08-03,R001,florist,4\n2017-09-01,R002,grocery,7\n",
        tx_extra="2017-08-02,77999,grocery,12.50\n2017-09-01,77001,grocery,3.00\n",
    )
    with open(directory / "overlaps.csv", "a", encoding="utf-8") as handle:
        handle.write("R005,77002,0.7\n")
    raw = json.loads(config_path.read_text())
    raw["taxonomy_options"] = {"unknown_service_policy": "skip-with-warning"}
    config_path.write_text(json.dumps(raw))
    return config_path


def test_validate_findings_restate_the_coverage_report(tmp_path):
    config = load_config(_write_city_with_every_finding(tmp_path))
    diagnostics = validate(config)
    run(config)
    coverage = json.loads((config.output_dir / "coverage_report.json").read_text())

    def found(kind, name, field):
        return {d[name]: d[field] for d in diagnostics if d["kind"] == kind}

    assert found("out-of-window-rows", "input", "rows") == {
        "trips": coverage["trips"]["dropped_out_of_window"],
        "transactions": coverage["transactions"]["dropped_out_of_window"],
    } == {"trips": 1, "transactions": 1}
    assert found("unmatched-region", "region", "rows") == coverage["trips"]["unmatched_regions"] == {"R999": 1}
    assert found("unmatched-zip", "zip", "rows") == coverage["transactions"]["unmatched_zips"] == {"77999": 1}
    assert found("unknown-service-type", "code", "rows") == coverage["unknown_service_types"] == {"florist": 1}
    assert found("insufficient-baseline", "region", "fields") == coverage["insufficient_baselines"] == {
        "R005": ["trip_essential", "trip_nonessential"]
    }
    assert coverage["regions"] == {"total": 5, "included": 4, "excluded": ["R005"]}
    assert [d["kind"] for d in diagnostics] == [
        "out-of-window-rows", "out-of-window-rows", "unmatched-region", "unmatched-zip",
        "unknown-service-type", "insufficient-baseline",
    ]


def test_validate_reports_out_of_window_rows_without_overlaps(tmp_path):
    config_path = _write_city_with_every_finding(tmp_path)
    write_csv(tmp_path, "overlaps.csv", "region,zip\n")
    diagnostics = validate(load_config(config_path))
    assert [d["kind"] for d in diagnostics] == [
        "schema-error", "out-of-window-rows", "out-of-window-rows",
    ]
    assert diagnostics[0]["input"] == "overlaps"


def test_validate_reports_taxonomy_errors(tmp_path):
    config_path = _write_mini_bundle(tmp_path)
    write_csv(tmp_path, "taxonomy.csv", "service_type,category,weight_percent\ngrocery,staple,50\n")
    raw = json.loads(config_path.read_text())
    raw["inputs"]["taxonomy"] = "taxonomy.csv"
    config_path.write_text(json.dumps(raw))
    diagnostics = validate(load_config(config_path))
    assert [d["kind"] for d in diagnostics] == ["taxonomy-error"]
    assert "staple" in diagnostics[0]["detail"]


def test_validate_lets_a_taxonomy_bug_propagate(tmp_path, monkeypatch):
    config = load_config(_write_mini_bundle(tmp_path))

    def broken_loader(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(aggregate, "load_taxonomy", broken_loader)
    with pytest.raises(KeyError, match="bug"):
        validate(config)


def _with_config(config_path, **sections):
    """Set the config sections at `config_path` given as keyword arguments; the path."""
    raw = json.loads(config_path.read_text())
    raw.update(sections)
    config_path.write_text(json.dumps(raw))
    return config_path


def test_cli_run_without_smoothing_writes_the_unsmoothed_changes(tmp_path):
    # R001's grocery trips triple on 2017-08-07 alone (day_index 6); every other day is flat
    config_path = _with_config(
        _write_mini_bundle(tmp_path, trip_extra="2017-08-07,R001,grocery,40\n"), smoothing={"half_width": 0}
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    header, *lines = (tmp_path / "out" / pipeline.CHANGES_ARTIFACT).read_text().splitlines()
    assert header == pipeline.CHANGES_HEADER
    spike = [line for line in lines if line.startswith("R001,trip,essential,")]
    assert [line.split(",")[3] for line in spike] == [str(day) for day in range(15)]
    for line in lines:
        expected = 2.0 if line.startswith("R001,trip,essential,6,") else 0.0
        assert float(line.rsplit(",", 1)[1]) == pytest.approx(expected, abs=1e-12), line


def test_cli_run_only_stats_with_yates_applies_the_continuity_correction(golden_city, tmp_path):
    argv, out = _golden_bundle_copy(golden_city, tmp_path)
    assert cli.main([*argv, "--only", "stats", "--yates"]) == 0
    stats_json = json.loads((out / pipeline.STATS_ARTIFACT).read_text(encoding="utf-8"))
    plain = json.loads((golden_city["out"] / pipeline.STATS_ARTIFACT).read_text(encoding="utf-8"))["chi_square"]
    assert stats_json["options"]["yates"] is True
    assert sorted(stats_json["chi_square"]) == sorted(pipeline.CHI_SQUARE_VARIABLES)
    for variable, entry in stats_json["chi_square"].items():
        expected = chi_square_from_table(entry["table"], yates=True)
        assert entry["table"] == plain[variable]["table"], variable
        assert entry["statistic"] == pipeline.round_sig(expected.statistic), variable
        assert entry["p_value"] == pipeline.round_sig(expected.p_value), variable
        assert entry["statistic"] <= plain[variable]["statistic"], variable
    assert any(stats_json["chi_square"][v]["statistic"] < plain[v]["statistic"] for v in plain)


def test_cli_run_writes_null_moran_variance_for_three_weighted_regions(tmp_path):
    # a 2 x 2 grid city with R0001's edges gone: Moran's I weighs 3 regions, too few for the variance
    config_path = _synth_city(tmp_path, 4)
    adjacency = tmp_path / "city" / "adjacency.csv"
    adjacency.write_text("".join(line for line in adjacency.read_text().splitlines(True) if "R0001" not in line))
    assert cli.main(["run", "--config", str(config_path)]) == 0
    stats_json = json.loads((tmp_path / "city" / "out" / pipeline.STATS_ARTIFACT).read_text(encoding="utf-8"))
    assert stats_json["regions"]["moran_isolated"] == ["R0001"]
    entries = [entry for entry in stats_json["morans_i"].values() if "error" not in entry]
    assert entries
    for entry in entries:
        assert entry["n"] == 3 and entry["expected_i"] == -0.5
        assert (entry["variance"], entry["z_score"], entry["p_value"]) == (None, None, None)


def test_cli_renormalizing_a_category_of_zero_weight_is_refused(tmp_path, capsys):
    config_path = _write_mini_bundle(tmp_path)
    write_csv(
        tmp_path, "taxonomy.csv",
        "service_type,category,weight_percent\ngrocery,essential,0\nrestaurant,non-essential,100\n",
    )
    _with_config(
        config_path,
        inputs={**MINI_CONFIG["inputs"], "taxonomy": "taxonomy.csv"},
        taxonomy_options={"renormalize_weights": True},
    )
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: category essential has zero total weight\n"
    assert not (tmp_path / "out").exists()
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"kind": "taxonomy-error", "detail": "category essential has zero total weight"}
    ]


# ---------------------------------------------------------------------------
# config


def test_config_rejects_baseline_overlapping_event(tmp_path):
    bad = dict(MINI_CONFIG, baseline={"start": "2017-08-01", "end": "2017-08-05"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ConfigError, match="baseline window"):
        load_config(path)


def test_config_rejects_bad_threshold(tmp_path):
    bad = dict(MINI_CONFIG, recovery={"threshold": 1.5, "horizon_days": 10})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ConfigError, match="threshold"):
        load_config(path)


def test_config_defaults_follow_standard_setup(tmp_path):
    minimal = {"inputs": dict(MINI_CONFIG["inputs"]), "event_day": "2017-08-27"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal), encoding="utf-8")
    config = load_config(path)
    assert config.baseline_window.start.isoformat() == "2017-08-01"
    assert config.baseline_window.end.isoformat() == "2017-08-21"
    assert config.window.end.isoformat() == "2017-12-25"
    assert config.recovered_fraction == 0.90
    assert config.run_length == 3
    assert config.horizon_days == 120
    assert config.smoothing_half_width == 3
    # every other field takes its PipelineConfig default, output_dir beside the file
    derived = {"inputs", "taxonomy", "event_day", "window", "baseline_window"}
    defaulted = [f for f in fields(PipelineConfig) if f.name not in derived]
    assert len(defaulted) == 12
    for f in defaulted:
        want = tmp_path / f.default if f.name == "output_dir" else f.default
        assert getattr(config, f.name) == want, f.name
        assert type(getattr(config, f.name)) is type(want), f.name


def test_config_resolves_paths_relative_to_file(tmp_path):
    nested = tmp_path / "nested"
    nested.mkdir()
    config_path = _write_mini_bundle(nested)
    config = load_config(config_path)
    assert config.inputs["trips"] == nested / "trips.csv"
    assert config.output_dir == nested / "out"


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_validate(tmp_path, capsys):
    config_path = _write_mini_bundle(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "milestones.csv" in out
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def _synth_city(directory, n_regions):
    """A synth city of `n_regions` regions, seed 1, in `directory`/city; its config path."""
    (directory / "spec.json").write_text(json.dumps({"n_regions": n_regions, "seed": 1}), encoding="utf-8")
    assert cli.main(["synth", "--spec", str(directory / "spec.json"), "--out", str(directory / "city")]) == 0
    return directory / "city" / "config.json"


def _drop_region_trips(directory, region):
    trips = directory / "trips.csv"
    trips.write_text("".join(line for line in trips.read_text().splitlines(True) if f",{region}," not in line))


def _three_region_city(directory):
    return _synth_city(directory, 3)


def _mini_city_with_three_sufficient_regions(directory):
    # R004 keeps its transactions but has no trips
    config_path = _write_mini_bundle(directory)
    _drop_region_trips(directory, "R004")
    return config_path


@pytest.mark.parametrize(
    "write_city, kinds",
    [
        pytest.param(_three_region_city, ["stage-error"], id="three-region-synth-city"),
        pytest.param(
            _mini_city_with_three_sufficient_regions, ["insufficient-baseline", "stage-error"],
            id="mini-city-three-sufficient",
        ),
    ],
)
def test_cli_validate_lists_the_refusal_of_the_metric_computation(tmp_path, capsys, write_city, kinds):
    config_path = write_city(tmp_path)
    listing = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: metric table needs at least 4 regions, got 3\n"
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["kind"] for d in diagnostics] == kinds
    assert diagnostics[-1] == {"kind": "stage-error", "stage": "metric", "detail": err[len("error: ") : -1]}
    assert sorted(tmp_path.rglob("*")) == listing


def test_cli_a_zero_baseline_is_never_sufficient(tmp_path, capsys):
    # R0001 has no trips, so its trip baselines are 0, which min_baseline 0 would let through
    config_path = _synth_city(tmp_path, 12)
    _drop_region_trips(tmp_path / "city", "R0001")
    raw = json.loads(config_path.read_text())
    raw["baseline"]["min_baseline"] = 0
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"kind": "insufficient-baseline", "region": "R0001", "fields": ["trip_essential", "trip_nonessential"]}
    ]
    assert cli.main(["run", "--config", str(config_path)]) == 0
    coverage = json.loads((tmp_path / "city" / "out" / "coverage_report.json").read_text())
    assert coverage["regions"] == {"total": 12, "included": 11, "excluded": ["R0001"]}
    assert coverage["insufficient_baselines"] == {"R0001": ["trip_essential", "trip_nonessential"]}


@pytest.mark.parametrize("output_dir", ["taken", "taken/out"])
def test_cli_validate_refuses_an_output_dir_that_run_cannot_create(tmp_path, capsys, output_dir):
    # an existing file as the output directory, and a directory under it
    config_path = _write_mini_bundle(tmp_path)
    config_path.write_text(json.dumps({**MINI_CONFIG, "output_dir": output_dir}), encoding="utf-8")
    (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
    listing = sorted(tmp_path.rglob("*"))
    reason = {"taken": "File exists", "taken/out": "Not a directory"}[output_dir]
    detail = f"cannot create output directory {tmp_path / output_dir}: {reason}"
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out) == [{"kind": "output-dir", "detail": detail}]
    assert sorted(tmp_path.rglob("*")) == listing
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert sorted(tmp_path.rglob("*")) == listing


@pytest.mark.parametrize("region", ["R,0001", "R\n0001"])
def test_cli_refuses_a_region_no_artifact_can_carry(tmp_path, capsys, region):
    # quoted in every input that names regions, R004 reads back whole everywhere but in the artifacts
    config_path = _write_mini_bundle(tmp_path)
    for name in ("trips.csv", "overlaps.csv", "adjacency.csv", "attributes.csv"):
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"R004", f'"{region}"'.encode()))
    overlaps = tmp_path / "overlaps.csv"
    detail = (
        f"{overlaps}: 1 invalid row(s); first at line 5: "
        f"region {region!r} holds a comma or line break, which no artifact can carry"
    )
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out) == [{"kind": "schema-error", "input": "overlaps", "detail": detail}]
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("income", ["inf", "nan", "-1"])
def test_cli_run_refuses_an_income_that_is_not_a_finite_number_at_least_0(tmp_path, capsys, income):
    config_path = _write_mini_bundle(tmp_path)
    attributes = tmp_path / "attributes.csv"
    attributes.write_text(attributes.read_text().replace("R003,0.2,0.3,45000", f"R003,0.2,0.3,{income}"))
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {attributes}: 1 invalid row(s); first at line 4: "
        f"per_capita_income {income} must be a finite number >= 0\n"
    )
    assert not (tmp_path / "out").exists()


def test_cli_import_does_not_import_scipy():
    # scipy is a test dependency only
    probe = "import sys, recovery_track.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert done.stdout == "[]\n"


def test_the_package_root_imports_nothing():
    # the root holds only __version__; each module is imported by its own path
    probe = (
        "import sys, recovery_track; print(recovery_track.__version__, sorted("
        "m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'recovery_track.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert done.stdout == "0.1.0 []\n"


# the package modules that every command loads; each command adds only the modules it runs
_COMMON_MODULES = (
    "aggregate", "cli", "config", "errors", "metric", "milestones", "pipeline", "processes", "series", "windows",
)


def _modules_loaded(*argv):
    """(exit code, the recovery_track modules loaded) of a fresh process that imports
    recovery_track.cli and, given `argv`, runs cli.main(argv)."""
    probe = (
        "import json, sys\n"
        "from recovery_track import cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('recovery_track.'))]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_cli_import_loads_no_generator_parser_or_statistics():
    assert _modules_loaded() == (None, sorted(_COMMON_MODULES))


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_regions": 8, "seed": 1}), encoding="utf-8")
    config = tmp_path / "city" / "config.json"
    commands = {
        "synth": (["synth", "--spec", spec, "--out", tmp_path / "city"], ["ingest", "synth"]),
        "run": (["run", "--config", config], ["ingest", "stats"]),
        "--only milestones": (["run", "--config", config, "--only", "milestones"], []),
        "--only metric": (["run", "--config", config, "--only", "metric"], []),
        "--only stats": (["run", "--config", config, "--only", "stats"], ["ingest", "stats"]),
        "validate": (["validate", "--config", config], ["ingest"]),
    }
    loaded = {name: _modules_loaded(*argv) for name, (argv, _) in commands.items()}
    assert loaded == {name: (0, sorted([*_COMMON_MODULES, *more])) for name, (_, more) in commands.items()}


# A cap on a command's address space, set in its child only: far above what a
# small city needs, and far below what the commands below ask for. Never run
# them without it, for they would take that memory from the machine.
_ADDRESS_SPACE_CAP = 512 << 20


@pytest.mark.parametrize("command", ["run", "validate", "synth"])
def test_cli_out_of_memory_is_one_error_line_and_writes_no_file(tmp_path, command):
    resource = pytest.importorskip("resource")
    # a 12-region city with a 9,000-year window, whose daily series ask for
    # 2.35 GiB, and a 100-year spec, whose trip counts alone would take 2.3 GB
    paths = generate(ScenarioSpec.from_mapping({"seed": 1, "n_regions": 12}), tmp_path / "city")
    wide = json.loads(paths["config.json"].read_text())
    wide["window"] = {"start": "1000-01-01", "end": "9999-12-31"}
    config = tmp_path / "city" / "wide.json"
    config.write_text(json.dumps(wide))
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"seed": 1, "n_regions": 1000, "horizon_days": 36500}))
    argv = {
        "run": ["--config", config, "--out", tmp_path / "out"],
        "validate": ["--config", config],
        "synth": ["--spec", spec, "--out", tmp_path / "out"],
    }[command]

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    done = subprocess.run(
        [sys.executable, "-m", "recovery_track.cli", command, *map(str, argv)],
        capture_output=True, text=True, timeout=300, preexec_fn=capped,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    # run and validate name the dense series arrays they could not allocate
    error = "out of memory in synth" if command == "synth" else (
        "trip data: the daily totals of 12 regions x 8 service types x 3,287,182 days "
        "(315,569,472 cells, 2.35 GiB) do not fit in memory"
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {error}\n")
    assert files() == before
    assert not (tmp_path / "out").exists()


def test_cli_synth(tmp_path, capsys):
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps({"n_regions": 6, "seed": 1, "horizon_days": 30}))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "city")]) == 0
    assert (tmp_path / "city" / "ground_truth.csv").exists()


def test_cli_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # as `recovery-track ... | true` gives it: stdout's read end closed before anything is written
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def into_closed_pipe(*args):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "recovery_track.cli", *map(str, args)],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, ""), done.stderr

    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps({"n_regions": 6, "seed": 1, "horizon_days": 30}))
    into_closed_pipe("synth", "--spec", spec_path, "--out", tmp_path / "city")
    config = tmp_path / "city" / "config.json"
    into_closed_pipe("validate", "--config", config)
    into_closed_pipe("run", "--config", config, "--out", tmp_path / "closed")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "open")]) == 0

    def files(directory):
        return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*") if path.is_file()}

    assert files(tmp_path / "closed") == files(tmp_path / "open")
    assert len(files(tmp_path / "open")) == 7


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["run", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("stats", "yates", "false"),
        ("stats", "yates", 0),
        ("taxonomy_options", "renormalize_weights", "true"),
        ("recovery", "horizon_days", "abc"),
        ("recovery", "horizon_days", 60.9),
        ("recovery", "horizon_days", True),
        ("recovery", "run_length", "3"),
        ("smoothing", "half_width", 2.5),
        ("stats", "permutations", "99"),
        ("stats", "seed", 1.5),
        ("recovery", "threshold", "0.9"),
        ("stats", "seed", -1),
        ("window", "start", 1),
        ("baseline", "end", 20170821),
        ("inputs", "trips", 5),
        # past the calendar: the analysis window ends event_day + horizon_days
        ("recovery", "horizon_days", 1_000_000_000),
        # json reads NaN and Infinity as floats, and big integers exactly
        ("baseline", "min_baseline", float("nan")),
        ("recovery", "threshold", float("inf")),
        ("recovery", "threshold", -float("inf")),
        pytest.param("baseline", "min_baseline", 10**400, id="baseline-min_baseline-10**400"),
        ("smoothing", "boundary", "edge"),
        ("taxonomy_options", "unknown_service_policy", "ignore"),
    ],
)
def test_cli_rejects_mistyped_config_fields(tmp_path, capsys, section, key, value):
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    raw.setdefault(section, {})[key] = value
    config_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path, value, unknown",
    [
        (("recovery", "treshold"), 0.5, "recovery.treshold"),
        (("smoothng", "half_width"), 0, "smoothng"),
        (("smoothing", "halfwidth"), 0, "smoothing.halfwidth"),
        (("stats", "permutation"), 99, "stats.permutation"),
        (("horizon_days",), 30, "horizon_days"),
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, path, value, unknown):
    # each of these would leave the run at its default setting
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    *sections, key = path
    target = raw
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    config_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert f"unknown config key(s): [{unknown!r}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _config(**changes):
    """An edit of the mini bundle that sets each top-level config key, or deletes it for None."""

    def edit(directory):
        path = directory / "config.json"
        raw = json.loads(path.read_text())
        for key, value in changes.items():
            if value is None:
                del raw[key]
            else:
                raw[key] = value
        path.write_text(json.dumps(raw))

    return edit


def _replace(name, text):
    return lambda directory: write_csv(directory, name, text)


def _append(name, text):
    def edit(directory):
        with open(directory / name, "a", encoding="utf-8") as handle:
            handle.write(text)

    return edit


def _taxonomy(rows):
    """An edit that makes the mini bundle read a taxonomy.csv with these data rows."""

    def edit(directory):
        write_csv(directory, "taxonomy.csv", "service_type,category,weight_percent\n" + rows)
        _config(inputs={**MINI_CONFIG["inputs"], "taxonomy": "taxonomy.csv"})(directory)

    return edit


def _spec(**fields):
    return _replace("spec.json", json.dumps({"n_regions": 4, **fields}))


def _duplicate_metric_row(directory):
    run(load_config(directory / "config.json"))
    path = directory / "out" / "metric.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:3], lines[2], *lines[3:]]))


REFUSAL_COMMANDS = {
    "run": ["run", "--config", "{dir}/config.json"],
    "stats": ["run", "--config", "{dir}/config.json", "--only", "stats"],
    "synth": ["synth", "--spec", "{dir}/spec.json", "--out", "{dir}/city"],
}


@pytest.mark.parametrize(
    "edit, command, code, message",
    [
        # taxonomy
        (_taxonomy(",essential,50\n"), "run", 1,
         "error: {dir}/taxonomy.csv: 1 invalid row(s); first at line 2: empty service_type"),
        (_taxonomy("grocery,essential,-5\n"), "run", 1,
         "error: {dir}/taxonomy.csv: 1 invalid row(s); first at line 2: weight_percent must be nonnegative, got -5"),
        (_taxonomy("grocery,essential,50\nrestaurant,non-essential,50\ngrocery,essential,20\n"), "run", 1,
         "error: {dir}/taxonomy.csv: 1 invalid row(s); first at line 4: duplicate service_type 'grocery'"),
        (_taxonomy(""), "run", 1, "error: {dir}/taxonomy.csv: taxonomy has no entries"),
        # config, and a scenario spec's [low, high] pairs
        (_spec(drop_range=[0.5]), "synth", 2, "config error: drop_range: expected a [low, high] pair"),
        (_spec(ramp_range=[30, 10]), "synth", 2, "config error: ramp_range: low 30 exceeds high 10"),
        (_replace("config.json", "[]\n"), "run", 2, "config error: {dir}/config.json: config must be a JSON object"),
        (_config(recovery=10), "run", 2, "config error: recovery must be a JSON object"),
        (_config(window={"start": "2017-08-02", "end": "2017-08-15"}), "run", 2,
         "config error: analysis window must start at or before the baseline window"),
        (_config(window={"start": "2017-08-01", "end": "2017-08-14"}), "run", 2,
         "config error: analysis window must reach event day + horizon (2017-08-15), ends 2017-08-14"),
        (_config(inputs={name: path for name, path in MINI_CONFIG["inputs"].items() if name != "adjacency"}),
         "run", 2, "config error: inputs missing: ['adjacency']"),
        (_config(event_day=None), "run", 2, "config error: event_day is required"),
        (_config(window={"start": "2017-08-01"}), "run", 2,
         "config error: window.end is required: a window needs both start and end"),
        (_config(window={"start": "2017-08-15", "end": "2017-08-01"}), "run", 2,
         "config error: window.end 2017-08-01 precedes window.start 2017-08-15"),
        (_config(baseline={"start": "2017-08-03", "end": "2017-08-01"}), "run", 2,
         "config error: baseline.end 2017-08-01 precedes baseline.start 2017-08-03"),
        # overlaps, adjacency and attributes
        (_append("overlaps.csv", ",77001,0.5\n"), "run", 1,
         "error: {dir}/overlaps.csv: 1 invalid row(s); first at line 6: empty region"),
        (_append("overlaps.csv", "R005,,0.5\n"), "run", 1,
         "error: {dir}/overlaps.csv: 1 invalid row(s); first at line 6: empty zip"),
        (_append("adjacency.csv", "R004,\n"), "run", 1,
         "error: {dir}/adjacency.csv: 1 invalid row(s); first at line 5: empty region identifier"),
        (_append("attributes.csv", ",0.1,0.2,50000\n"), "run", 1,
         "error: {dir}/attributes.csv: 1 invalid row(s); first at line 6: empty region"),
        (_append("attributes.csv", "R005,0.1,1.5,50000\n"), "run", 1,
         "error: {dir}/attributes.csv: 1 invalid row(s); first at line 6: minority_fraction 1.5 outside [0, 1]"),
        # metric.csv
        (_duplicate_metric_row, "stats", 1, "error: metric.csv line 4: region 'R002' is duplicated"),
        # scenario spec
        (_spec(baseline_level_range=[0, 100]), "synth", 2,
         "config error: baseline_level_range: levels must be positive"),
        (_spec(tx_level_range=[-1, 100]), "synth", 2, "config error: tx_level_range: levels must be positive"),
        (_spec(flat_fraction=0.6, censored_fraction=0.5), "synth", 2,
         "config error: flat_fraction + censored_fraction exceed 1"),
    ],
)
def test_cli_refusals_name_their_cause(tmp_path, capsys, edit, command, code, message):
    _write_mini_bundle(tmp_path)
    edit(tmp_path)
    assert cli.main([arg.format(dir=tmp_path) for arg in REFUSAL_COMMANDS[command]]) == code
    assert capsys.readouterr().err == message.format(dir=tmp_path) + "\n"


def test_a_date_window_refuses_an_end_before_its_start():
    # config._window names the section first; this is the check of every other window
    with pytest.raises(ConfigError, match=r"^window end 2017-08-01 precedes start 2017-08-03$"):
        DateWindow(date(2017, 8, 3), date(2017, 8, 1))


@pytest.mark.parametrize("boundary", ["truncate", "skip"])
def test_half_width_past_the_window_equals_the_window_length(tmp_path, boundary):
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    n_days = load_config(config_path).window.n_days
    bundles = []
    for half_width in (n_days, 2**63 - 1, 10**30):
        raw["smoothing"] = {"half_width": half_width, "boundary": boundary}
        raw["output_dir"] = f"out-{half_width}"
        config_path.write_text(json.dumps(raw))
        config = load_config(config_path)
        run(config)
        out = config.output_dir
        names = (*GOLDEN_ARTIFACTS, "work/baselines.csv", "work/changes.csv")
        bundles.append({name: (out / name).read_bytes() for name in names})
    assert bundles[1] == bundles[0]
    assert bundles[2] == bundles[0]


@pytest.mark.parametrize("key,value", [("event_day", 20170805), ("output_dir", 5)])
def test_cli_rejects_non_string_dates_and_paths(tmp_path, capsys, key, value):
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    raw[key] = value
    config_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert f"{key} must be a" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_input_dates_in_any_form_but_yyyy_mm_dd(tmp_path, capsys):
    # date.fromisoformat takes both forms from Python 3.11 on, and neither before
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_regions": 4, "horizon_days": 30}))
    city = tmp_path / "city"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(city)]) == 0
    trips = city / "trips.csv"
    lines = trips.read_text().splitlines(keepends=True)
    for line_no, day in ((2, "20170801"), (3, "2017-W31-2")):
        lines[line_no - 1] = day + lines[line_no - 1][len("2017-08-01"):]
    trips.write_text("".join(lines))
    capsys.readouterr()
    config = str(city / "config.json")
    detail = f"{trips}: 2 invalid row(s); first at line 2: bad date '20170801'"
    assert cli.main(["validate", "--config", config]) == 0
    assert json.loads(capsys.readouterr().out) == [{"kind": "schema-error", "input": "trips", "detail": detail}]
    assert cli.main(["run", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {detail}\n"
    assert not (city / "out").exists()


@pytest.mark.parametrize("day", ["20170827", "2017-W34-7", "2017-08-27T00:00", "\uff12017-08-27"])
def test_cli_refuses_config_and_scenario_dates_in_any_form_but_yyyy_mm_dd(tmp_path, capsys, day):
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    raw["event_day"] = day
    config_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"config error: event_day: Invalid isoformat string: {day!r}\n"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_regions": 4, "event_day": day}))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "city")]) == 2
    assert f"event_day: Invalid isoformat string: {day!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "city").exists()


def test_cli_rejects_negative_seed_option(tmp_path, capsys):
    config_path = _write_mini_bundle(tmp_path)
    argv = ["run", "--config", str(config_path), "--seed", "-1", "--permutations", "9"]
    assert cli.main(argv) == 2
    assert "stats.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_accepts_integral_float_for_integer_field(tmp_path):
    config_path = _write_mini_bundle(tmp_path)
    raw = json.loads(config_path.read_text())
    raw["recovery"]["horizon_days"] = 10.0
    raw["stats"] = {"yates": True}
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    assert config.horizon_days == 10 and isinstance(config.horizon_days, int)
    assert config.yates is True


@pytest.mark.parametrize("spec_text", [None, "{not json", "\udcff"])
def test_cli_synth_unreadable_spec_exit_code(tmp_path, capsys, spec_text):
    spec_path = tmp_path / "spec.json"
    if spec_text is not None:
        spec_path.write_bytes(spec_text.encode("utf-8", "surrogateescape"))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "city")]) == 2
    assert "spec.json" in capsys.readouterr().err


SYNTH_FILES = (
    "adjacency.csv", "attributes.csv", "config.json", "ground_truth.csv",
    "overlaps.csv", "transactions.csv", "trips.csv",
)

ZERO_BASELINES = pytest.mark.parametrize(
    "field, entity",
    [("baseline_level_range", "region R0001"), ("tx_level_range", "Zip 77001")],
)


def _check_zero_baseline_leaves_nothing(tmp_path, capsys, field, entity):
    """A spec whose truth fails exits 2 and leaves its output directory as it
    found it: not made where it is new, an existing city's files unchanged."""
    # levels this low quantise to 0 trips or 0.00 a day before the event
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_regions": 4, field: [0.001, 0.02]}))
    fine_path = tmp_path / "fine.json"
    fine_path.write_text(json.dumps({"n_regions": 4, "seed": 1}))
    new, existing = tmp_path / "city", tmp_path / "existing"
    assert cli.main(["synth", "--spec", str(fine_path), "--out", str(existing)]) == 0
    before = _files(existing)
    assert sorted(before) == list(SYNTH_FILES)
    capsys.readouterr()
    for out in (new, existing):
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: the essential baseline of {entity} quantises to zero" in err
    assert not new.exists()  # refused before the output directory is made
    assert _files(existing) == before
    assert sorted(path.name for path in existing.iterdir()) == list(SYNTH_FILES)


@ZERO_BASELINES
def test_cli_synth_zero_baseline_exit_code(tmp_path, capsys, field, entity):
    _check_zero_baseline_leaves_nothing(tmp_path, capsys, field, entity)


@ZERO_BASELINES
def test_cli_synth_zero_baseline_in_two_processes(tmp_path, capsys, monkeypatch, forks, field, entity):
    # only the fine city forks: a spec with a zero baseline is refused before its truth is computed
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1)
    _check_zero_baseline_leaves_nothing(tmp_path, capsys, field, entity)
    assert len(forks) == 1 and all(os.WIFEXITED(status) for status in forks.values())
    assert [os.WEXITSTATUS(status) for status in forks.values()] == [0]


def _out_is_a_file(out):
    out.touch()
    return out, f"cannot create output directory {out}: File exists"


def _out_under_a_file(out):
    out.touch()
    return out / "city", f"cannot create output directory {out / 'city'}: Not a directory"


def _truth_is_a_directory(out):
    # written after the input files, which must not be moved in either
    (out / "ground_truth.csv" / "kept").mkdir(parents=True)
    return out, f"cannot write {out / 'ground_truth.csv'}: Is a directory"


@pytest.mark.parametrize("split", [False, True], ids=["one-process", "two-processes"])
@pytest.mark.parametrize("damage", [_out_is_a_file, _out_under_a_file, _truth_is_a_directory])
def test_cli_synth_reports_an_unwritable_out(tmp_path, capsys, monkeypatch, forks, damage, split):
    monkeypatch.setattr(processes, "SPLIT_CELLS", 1 if split else 1 << 62)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_regions": 4}))
    out, expected = damage(tmp_path / "out")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {expected}\n"
    assert sorted(tmp_path.rglob("*")) == before  # no file written, no staging directory left
    assert len(forks) == (split and damage is _truth_is_a_directory)


def _mangle_truncate(lines):
    return lines[:-20]


def _mangle_duplicate(lines):
    return lines + lines[1:16]


def _mangle_swap_keys(lines):
    return [lines[0], *lines[16:31], *lines[1:16], *lines[31:]]


def _mangle_swap_days(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


def _mangle_drop_inner_day(lines):
    return lines[:5] + lines[6:]


def _mangle_cut_mid_line(lines):
    return lines[:-1] + [lines[-1][:-4]]


def _mangle_extra_field(lines):
    return lines[:5] + [lines[5].replace(",", ",x,", 1)] + lines[6:]


def _mangle_short_first_row(lines):
    return [lines[0], lines[1].split(",", 1)[1]] + lines[2:]


def _mangle_not_a_number(lines):
    return lines[:5] + [lines[5].rsplit(",", 1)[0] + ",zz\n"] + lines[6:]


def _mangle_rename_last_key(lines):
    # as many keys as work/baselines.csv marks sufficient, in order, but one of another region
    return lines[:-15] + [line.replace("R004,", "R005,", 1) for line in lines[-15:]]


def _mangle_drop_last_region(lines):
    return lines[: -4 * 15]  # its four keys, 15 days each: every check of the parse passes


# bytes read at a time in the damaged-artifact tests: every committed artifact there takes many reads
_SMALL_READ = 64


def _mangle_cut_at_read_boundary(lines):
    text = "".join(lines)
    end = len(text) // _SMALL_READ * _SMALL_READ
    while text[end - 1] == "\n":
        end -= _SMALL_READ
    return [text[:end]]


def _split_line(lines):
    """The index of the line at which `--only milestones` splits the
    artifact of `lines` in two: the first that starts at or after the middle
    character (byte, for this ASCII text)."""
    middle, start = len("".join(lines)) // 2, 0
    for index, line in enumerate(lines):
        if start >= middle:
            return index
        start += len(line)
    raise AssertionError("no line starts after the middle")


def _padded_to_split(lines, build):
    """build(at, spaces) for the first padding that puts the split of the
    lines it builds at line `at`, the first of the key that holds the split
    of `lines`. build pads a change before line `at` with `spaces`, which
    float() skips."""
    split = _split_line(lines)
    at = split - (split - 1) % 15  # the first line of the key that holds the split
    for pad in range(len("".join(lines))):  # a line before `at` moves it by the padding, the middle by half of it
        mangled = build(at, " " * pad)
        if _split_line(mangled) == at:
            return mangled
    raise AssertionError("no padding puts the split at the key's first line")


def _pad(line, spaces):
    head, _, change = line.rpartition(",")
    return f"{head},{spaces}{change}"


def _mangle_swap_keys_at_split(lines):
    # the key that holds the split moved before the key ahead of it, the split at their seam
    return _padded_to_split(lines, lambda at, spaces: [
        *lines[: at - 15], _pad(lines[at], spaces), *lines[at + 1 : at + 15], *lines[at - 15 : at], *lines[at + 15 :],
    ])


def _mangle_drop_split_line(lines):
    at = _split_line(lines)
    return lines[:at] + lines[at + 1 :]


def _mangle_duplicate_last_key_before_split(lines):
    # a copy of the key ahead of the key that holds the split, the split at the copy
    return _padded_to_split(lines, lambda at, spaces: [
        *lines[: at - 15], _pad(lines[at - 15], spaces), *lines[at - 14 : at], *lines[at - 15 : at], *lines[at:],
    ])


def _not_utf8_change(line):
    """`line` with the first character of its change a byte that is not UTF-8
    (written through surrogateescape), so its length in bytes stays."""
    head, _, change = line.rpartition(",")
    return f"{head},\udcff{change[1:]}"


def _mangle_not_utf8_in_child_half(lines):
    at = len(lines) * 3 // 4
    return [*lines[:at], _not_utf8_change(lines[at]), *lines[at + 1 :]]


def _mangle_not_utf8_header(lines):
    return [lines[0].replace("e", "\udcff", 1), *lines[1:]]


def _mangle_day_before_split_not_utf8_after(lines):
    # a wrong day_index on the line before the split and a bad byte on the split
    # line, both in one read block of the one-process read
    at = _split_line(lines)
    head, day, change = lines[at - 1].rsplit(",", 2)
    mangled = [*lines[: at - 1], f"{head},{int(day) + 1},{change}", _not_utf8_change(lines[at]), *lines[at + 1 :]]
    blocks = processes.line_blocks(io.BytesIO("".join(mangled).encode("utf-8", "surrogateescape")), 0, None)
    assert _split_line(mangled) == at
    assert len("".join(lines[:at])) not in itertools.accumulate(map(len, blocks))  # no block ends at the split
    return mangled


# each damage, and the refusal of the first bad line it makes
CHANGES_MANGLES = pytest.mark.parametrize(
    "mangle, refusal",
    [pytest.param(mangle, refusal, id=mangle.__name__) for mangle, refusal in [
        (_mangle_truncate, "line 222: expected key ('R004', 'trip', 'essential') day_index 10, got the end of the file"),
        (_mangle_duplicate, "line 242: expected the end of the file after the 16 sufficient keys of work/baselines.csv"),
        (
            _mangle_swap_keys,
            "line 2: expected key ('R001', 'transaction', 'essential') of work/baselines.csv, "
            "got ('R001', 'transaction', 'non-essential')",
        ),
        (_mangle_swap_days, "line 2: expected day_index 0, got '1'"),
        (_mangle_drop_inner_day, "line 6: expected day_index 4, got '5'"),
        (_mangle_cut_mid_line, "line 241: the file ends mid-line"),
        (_mangle_extra_field, "line 6: expected 5 fields, got 6"),
        (_mangle_short_first_row, "line 2: expected 5 fields, got 4"),
        (_mangle_not_a_number, "line 6: change 'zz' is not a number"),
        (
            _mangle_drop_last_region,
            "line 182: expected key ('R004', 'transaction', 'essential') day_index 0, got the end of the file",
        ),
        (
            _mangle_rename_last_key,
            "line 227: expected key ('R004', 'trip', 'non-essential') of work/baselines.csv, "
            "got ('R005', 'trip', 'non-essential')",
        ),
        (_mangle_cut_at_read_boundary, "line 241: the file ends mid-line"),
        (
            _mangle_swap_keys_at_split,
            "line 107: expected key ('R002', 'trip', 'non-essential') of work/baselines.csv, "
            "got ('R003', 'transaction', 'essential')",
        ),
        (_mangle_drop_split_line, "line 122: expected day_index 0, got '1'"),
        (
            _mangle_duplicate_last_key_before_split,
            "line 122: expected key ('R003', 'transaction', 'essential') of work/baselines.csv, "
            "got ('R002', 'trip', 'non-essential')",
        ),
        (_mangle_not_utf8_in_child_half, "line 181: not UTF-8 text"),
        (_mangle_not_utf8_header, "line 1: not UTF-8 text"),
        (_mangle_day_before_split_not_utf8_after, "line 121: expected day_index 14, got '15'"),
    ]],
)


def _mangle_changes(tmp_path, monkeypatch, mangle):
    """The mini bundle, run, then its work/changes.csv mangled; its config path."""
    monkeypatch.setattr(processes, "BLOCK_BYTES", _SMALL_READ)
    config_path = _write_mini_bundle(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    changes = tmp_path / "out" / "work" / "changes.csv"
    lines = changes.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 16 * 15  # 16 keys x 15 days
    changes.write_bytes("".join(mangle(lines)).encode("utf-8", "surrogateescape"))
    return config_path


@CHANGES_MANGLES
def test_cli_milestones_rejects_damaged_changes_artifact(tmp_path, capsys, monkeypatch, mangle, refusal):
    config_path = _mangle_changes(tmp_path, monkeypatch, mangle)
    before = (tmp_path / "out" / "milestones.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path), "--only", "milestones"]) == 1
    assert capsys.readouterr().err == f"error: {pipeline.CHANGES_ARTIFACT} {refusal}\n"
    assert (tmp_path / "out" / "milestones.csv").read_bytes() == before


@CHANGES_MANGLES
def test_cli_milestones_rejects_damaged_changes_the_same_in_two_processes(
    tmp_path, capsys, monkeypatch, forks, mangle, refusal
):
    config_path = _mangle_changes(tmp_path, monkeypatch, mangle)
    before = (tmp_path / "out" / "milestones.csv").read_bytes()
    capsys.readouterr()
    refusals = []
    for split in (1 << 62, 1):
        monkeypatch.setattr(processes, "SPLIT_CELLS", split)
        monkeypatch.setattr(processes, "SPLIT_BYTES", split)
        code = cli.main(["run", "--config", str(config_path), "--only", "milestones"])
        refusals.append((code, capsys.readouterr().err))
    assert refusals == [(1, f"error: {pipeline.CHANGES_ARTIFACT} {refusal}\n")] * 2
    assert (tmp_path / "out" / "milestones.csv").read_bytes() == before
    assert len(forks) == 1  # by the two-process read; none by the one-process read
    changes = tmp_path / "out" / "work" / "changes.csv"
    child_line = changes.read_bytes()[: processes.split_point(changes)].count(b"\n") + 1
    # a line of the child's half is refused: the child exits 1, and this process
    # reads that half again; the end of the file is checked here, after the child
    if int(re.match(r"line (\d+):", refusal)[1]) >= child_line and "got the end of the file" not in refusal:
        [status] = forks.values()
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 1


@pytest.mark.parametrize("split", [False, True], ids=["above-both-files", "at-the-smaller-file"])
def test_one_size_decides_the_split_of_both_file_readers(tmp_path, monkeypatch, forks, split):
    config = load_config(_write_mini_bundle(tmp_path))
    run(config)
    milestones = (config.output_dir / "milestones.csv").read_bytes()
    trips, changes = config.inputs["trips"], config.output_dir / "work" / "changes.csv"
    sizes = trips.stat().st_size, changes.stat().st_size
    assert not forks and max(sizes) < processes.SPLIT_BYTES
    monkeypatch.setattr(processes, "SPLIT_BYTES", min(sizes) if split else max(sizes) + 1)
    ingest.parse_trips(trips, config.window)
    assert len(forks) == split  # the trip reader
    run(config, only="milestones")
    assert len(forks) == 2 * split  # and the changes reader
    assert [os.WEXITSTATUS(status) for status in forks.values()] == [0] * len(forks)
    assert (config.output_dir / "milestones.csv").read_bytes() == milestones


def _edit_text(change):
    def edit(path):
        path.write_text(change(path.read_text()))

    return edit


def _set_cell(line_no, cell, value):
    def change(text):
        lines = text.split("\n")
        cells = lines[line_no - 1].split(",")
        cells[cell] = value
        lines[line_no - 1] = ",".join(cells)
        return "\n".join(lines)

    return _edit_text(change)


def _duplicate_line(line_no):
    def change(text):
        lines = text.split("\n")
        lines.insert(line_no, lines[line_no - 1])
        return "\n".join(lines)

    return _edit_text(change)


def _swap_lines(line_no):
    """Lines `line_no` and `line_no` + 1 swapped."""

    def change(text):
        lines = text.split("\n")
        lines[line_no - 1], lines[line_no] = lines[line_no], lines[line_no - 1]
        return "\n".join(lines)

    return _edit_text(change)


def _not_utf8(path):
    data = path.read_bytes()
    at = data.rindex(b"\n", 0, -1) + 1  # the start of the last line
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def _not_utf8_past_first_block(path):
    data = path.read_bytes()
    path.write_bytes(data[: _SMALL_READ + 10] + b"\xff" + data[_SMALL_READ + 10 :])


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "name, stage, edit, expected",
    [
        pytest.param("milestones.csv", "metric", _set_cell(1, 1, "trip_ess_days"), "line 1", id="header"),
        pytest.param("milestones.csv", "metric", _set_cell(2, 1, "abc"), "line 2", id="days"),
        pytest.param("milestones.csv", "metric", _set_cell(3, 3, "-4"), "line 3", id="negative-days"),
        pytest.param("milestones.csv", "metric", _set_cell(2, 2, "yes"), "line 2", id="censored"),
        pytest.param("milestones.csv", "metric", _set_cell(3, 0, "R001"), "line 3", id="duplicate"),
        pytest.param("milestones.csv", "metric", _edit_text(lambda text: text[:-1]), "ends mid-line", id="cut"),
        pytest.param(
            "milestones.csv", "metric", _set_cell(2, 1, "9" * 400),
            "line 2: trip_essential_days exceeds recovery.horizon_days (10)", id="days-400-digits",
        ),
        pytest.param(
            "milestones.csv", "metric", _set_cell(2, 3, "9" * 5000),
            "line 2: trip_nonessential_days exceeds recovery.horizon_days (10)", id="days-5000-digits",
        ),
        pytest.param(
            "milestones.csv", "stats", _set_cell(4, 5, "9" * 5000),
            "line 4: transaction_essential_days exceeds recovery.horizon_days (10)",
            id="days-5000-digits-stats",
        ),
        pytest.param(
            "milestones.csv", "metric", _set_cell(3, 7, "11"),
            "line 3: transaction_nonessential_days exceeds recovery.horizon_days (10)",
            id="days-above-horizon",
        ),
        pytest.param("metric.csv", "stats", _set_cell(2, 1, "zz"), "line 2", id="metric-cell"),
        pytest.param("metric.csv", "stats", _set_cell(4, 5, "nan"), "line 4", id="metric-nan"),
        pytest.param(
            "metric.csv", "stats", _set_cell(2, 5, "-7"), "line 2: integrated '-7'", id="metric-negative",
        ),
        pytest.param(
            "metric.csv", "stats", _set_cell(3, 3, "1.5"), "line 3: norm_tx_e '1.5'", id="metric-above-one",
        ),
        pytest.param("metric.csv", "stats", _set_cell(2, 6, "soon"), "line 2", id="metric-category"),
        pytest.param("metric.csv", "stats", _set_cell(2, 6, "early,0"), "line 2", id="metric-extra-cell"),
        pytest.param(
            "metric.csv", "stats", _edit_text(lambda text: text.rsplit("R004", 1)[0]),
            "different regions", id="metric-missing-region",
        ),
        pytest.param("work/baselines.csv", "milestones", _set_cell(1, 4, "ok"), "line 1", id="baselines-header"),
        pytest.param("work/baselines.csv", "milestones", _set_cell(2, 4, "yes"), "line 2", id="baselines-flag"),
        pytest.param(
            "work/baselines.csv", "milestones", _set_cell(2, 4, "false"),
            "changes.csv line 2: expected key ('R001', 'transaction', 'non-essential') of work/baselines.csv",
            id="baselines-key-set",
        ),
        pytest.param("work/baselines.csv", "milestones", _set_cell(2, 4, "true,x"), "line 2", id="baselines-extra-cell"),
        pytest.param(
            "work/baselines.csv", "milestones", _duplicate_line(2), "line 3: key ('R001', 'transaction', 'essential')",
            id="baselines-duplicated-line",
        ),
        pytest.param(
            "work/baselines.csv", "milestones", _swap_lines(2), "line 3: key ('R001', 'transaction', 'essential')",
            id="baselines-swapped-lines",
        ),
        pytest.param("work/changes.csv", "milestones", _not_utf8, "line 241: not UTF-8 text", id="changes-not-utf8"),
        pytest.param("milestones.csv", "metric", _not_utf8, "line 5: not UTF-8 text", id="milestones-not-utf8"),
        pytest.param(
            "work/baselines.csv", "milestones", _not_utf8, "line 17: not UTF-8 text", id="baselines-not-utf8",
        ),
        pytest.param("milestones.csv", "metric", _directory, "cannot read", id="milestones-directory"),
        pytest.param("milestones.csv", "stats", _edit_text(lambda text: text[:-1]), "ends mid-line", id="cut-stats"),
        pytest.param("work/changes.csv", "milestones", _directory, "cannot read", id="changes-directory"),
        pytest.param("work/changes.csv", "milestones", Path.unlink, "not found", id="changes-missing"),
        pytest.param(
            "work/changes.csv", "milestones", _not_utf8_past_first_block, "line 3: not UTF-8 text",
            id="changes-not-utf8-past-first-block",
        ),
    ],
)
def test_cli_rejects_damaged_report_artifacts(tmp_path, capsys, monkeypatch, name, stage, edit, expected):
    monkeypatch.setattr(processes, "BLOCK_BYTES", _SMALL_READ)
    config_path = _write_mini_bundle(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    path = tmp_path / "out" / name
    edit(path)
    before = _files(tmp_path / "out")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path), "--only", stage]) == 1
    err = capsys.readouterr().err
    assert name in err and expected in err
    assert _files(tmp_path / "out") == before


@pytest.mark.parametrize("stage", ["metric", "stats"])
def test_cli_refuses_an_empty_region_in_milestones(tmp_path, capsys, stage):
    config_path = _write_mini_bundle(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    _set_cell(2, 0, "")(tmp_path / "out" / "milestones.csv")
    before = _files(tmp_path / "out")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path), "--only", stage]) == 1
    assert capsys.readouterr().err == "error: milestones.csv line 2: region is empty\n"
    assert _files(tmp_path / "out") == before


def _set_taxonomy(config_path):
    raw = json.loads(config_path.read_text())
    raw["inputs"]["taxonomy"] = "no-taxonomy.csv"
    config_path.write_text(json.dumps(raw))


@pytest.mark.parametrize(
    "target, damage, code, expected",
    [
        pytest.param(
            "trips.csv", _not_utf8, 1, "trips.csv: 1 invalid row(s); first at line 121: not UTF-8 text",
            id="trips-not-utf8",
        ),
        pytest.param(
            "overlaps.csv", _not_utf8, 1, "overlaps.csv: 1 invalid row(s); first at line 5: not UTF-8 text",
            id="overlaps-not-utf8",
        ),
        pytest.param("trips.csv", Path.unlink, 1, "trips.csv: cannot read", id="trips-missing"),
        pytest.param("overlaps.csv", Path.unlink, 1, "overlaps.csv: cannot read", id="overlaps-missing"),
        pytest.param("config.json", _set_taxonomy, 1, "no-taxonomy.csv: cannot read", id="taxonomy-missing"),
        pytest.param("trips.csv", _directory, 1, "trips.csv: cannot read", id="trips-directory"),
        pytest.param("config.json", _directory, 2, "cannot read config file", id="config-directory"),
        pytest.param("config.json", _not_utf8, 2, "invalid JSON", id="config-not-utf8"),
        pytest.param("out", Path.touch, 1, "cannot create output directory", id="output-dir-is-a-file"),
    ],
)
def test_cli_reports_unreadable_files(tmp_path, capsys, target, damage, code, expected):
    config_path = _write_mini_bundle(tmp_path)
    damage(tmp_path / target)
    assert cli.main(["run", "--config", str(config_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "error: ")
    assert expected in err and err.count("\n") == 1


@pytest.mark.parametrize("split", [False, True], ids=["one-process", "two-processes"])
@pytest.mark.parametrize("name, line", [("trips.csv", 7502), ("trips.csv", 22502), ("overlaps.csv", 3)])
def test_an_unclosed_quote_is_a_row_error_that_ends_the_file(
    tmp_path, capsys, monkeypatch, forks, split, name, line
):
    # more than csv.field_size_limit() characters follow each quote: the trip
    # file's two stand at a quarter and three quarters of its 30,121 lines,
    # one in each half of a two-process read, and 10,000 more rows follow the
    # one in overlaps.csv
    config_path = _write_mini_bundle(tmp_path, trip_extra="2017-08-02,R001,grocery,1\n" * 30_000)
    extra = "".join(f"R{region},77002,0.5\n" for region in range(1000, 11_000))
    write_csv(tmp_path, "overlaps.csv", (tmp_path / "overlaps.csv").read_text() + extra)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = '"' + lines[line - 1]
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setattr(processes, "SPLIT_BYTES", 1 if split else 1 << 62)
    expected = (
        f"{path}: 1 invalid row(s); first at line {line}: "
        "quoted field not closed, or a field over 131072 characters"
    )
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert cli.main(["validate", "--config", str(config_path)]) == 0
    diagnostics = json.loads(capsys.readouterr().out)
    assert {"kind": "schema-error", "input": name[: -len(".csv")], "detail": expected} in diagnostics
    assert bool(forks) == split


def _work_as_file(out):
    shutil.rmtree(out / "work")
    (out / "work").write_text("not a directory\n", encoding="utf-8")


def _stats_as_directory(out):
    (out / "stats.json").unlink()
    (out / "stats.json" / "kept").mkdir(parents=True)


def _files(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize(
    "damage, expected",
    [
        pytest.param(_work_as_file, "out/work: File exists", id="work-is-a-file"),
        pytest.param(_stats_as_directory, "out/stats.json: Is a directory", id="stats-is-a-directory"),
    ],
)
def test_cli_commit_failure_leaves_the_bundle_as_it_was(tmp_path, capsys, damage, expected):
    config_path = _write_mini_bundle(tmp_path, trip_extra="2017-08-02,R001,grocery,7\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path)]) == 0
    damage(out)
    before = _files(out)
    # a run with other trips would replace every artifact it reaches
    _write_mini_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and expected in err and err.count("\n") == 1
    assert _files(out) == before
    assert sorted(path.name for path in out.iterdir()) == sorted(
        {*GOLDEN_ARTIFACTS, "work"}
    )  # no staging directory is left behind


@pytest.mark.parametrize("where", ["config", "option"])
def test_cli_rejects_permutations_above_the_maximum(tmp_path, capsys, where):
    config_path = _write_mini_bundle(tmp_path)
    argv = ["run", "--config", str(config_path)]
    if where == "config":
        raw = json.loads(config_path.read_text())
        raw["stats"] = {"permutations": 10**18}
        config_path.write_text(json.dumps(raw))
    else:
        argv += ["--only", "stats", "--permutations", str(10**18)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: stats.permutations must be <= 1000000, got {10**18}\n"
    assert not (tmp_path / "out").exists()
    raw = json.loads(config_path.read_text())
    raw["stats"] = {"permutations": 1_000_000}
    config_path.write_text(json.dumps(raw))
    assert load_config(config_path).permutations == 1_000_000


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "rows, grocery_weight, total",
    [
        # each count is finite, but the day's total of R001 grocery trips is not
        pytest.param(2, 94.7, "service type 'grocery'", id="type-total"),
        # the total is finite, but not once weighted
        pytest.param(1, 200.0, "essential services", id="weighted-total"),
    ],
)
def test_cli_rejects_a_daily_total_past_the_float_range(tmp_path, capsys, command, rows, grocery_weight, total):
    config_path = _write_mini_bundle(tmp_path, trip_extra=f"2017-08-02,R001,grocery,{'9' * 308}\n" * rows)
    write_csv(
        tmp_path, "taxonomy.csv",
        f"service_type,category,weight_percent\ngrocery,essential,{grocery_weight}\nrestaurant,non-essential,100\n",
    )
    raw = json.loads(config_path.read_text())
    raw["inputs"]["taxonomy"] = "taxonomy.csv"
    config_path.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: trip data: the total of {total} for region R001 on 2017-08-02 passes the float range\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "count, total",
    [
        # 1e307 trips a day: 21 baseline days pass the float range
        pytest.param("1" + "0" * 307, "baseline total", id="baseline"),
        # 5e306 a day: the baseline holds, the running sum over 57 days does not
        pytest.param("5" + "0" * 306, "smoothing's running total", id="running-sum"),
    ],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_refuses_a_sum_past_the_float_range(tmp_path, capsys, command, count, total):
    (tmp_path / "spec.json").write_text(json.dumps({"n_regions": 6, "seed": 1, "horizon_days": 30}))
    assert cli.main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "city")]) == 0
    trips = tmp_path / "city" / "trips.csv"
    header, *lines = trips.read_text().splitlines()
    trips.write_text("".join(f"{line}\n" for line in [header, *(line.rsplit(",", 1)[0] + f",{count}" for line in lines)]))
    listing = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main([command, "--config", str(tmp_path / "city" / "config.json")]) == 1
    assert capsys.readouterr() == (
        "", f"error: trip data: the {total} of essential services for region R0001 passes the float range\n"
    )
    assert sorted(tmp_path.rglob("*")) == listing


def test_cli_pipeline_error_exit_code(tmp_path, capsys):
    config_path = _write_mini_bundle(tmp_path, trip_extra="2017-08-02,R001,grocery,-5\n")
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# golden bundle


def test_golden_bundle_matches_frozen_outputs(golden_city):
    for name in GOLDEN_ARTIFACTS:
        produced = (golden_city["out"] / name).read_bytes()
        frozen = (GOLDEN_DIR / name).read_bytes()
        assert produced == frozen, f"{name} drifted from the frozen golden copy"
