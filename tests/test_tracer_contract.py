"""The benchmark's tracer reads names and return values of the package.

perfbench/tracer.py wraps entry points of `src/` by name and reads counts off
their return values; perfbench/run.py turns those into per-layer metrics.
This test replays a small city through the tracer and checks that every span
the benchmark reports is recorded, and that each count equals what the
bundle itself shows.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from recovery_track.pipeline import STAGES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module; dataclasses need it in sys.modules while it runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _data_lines(path):
    return path.read_bytes().count(b"\n") - 1


def test_tracer_spans_and_counts_match_the_bundle(tmp_path):
    tracer, bench = _load("tracer"), _load("run")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_regions": 20, "seed": 3, "censored_fraction": 0.2}))
    city, out = tmp_path / "city", tmp_path / "city" / "out"
    config = str(city / "config.json")
    record = tracer.replay(
        [
            ["synth", "--spec", str(spec_path), "--out", str(city)],
            ["run", "--config", config],
            ["run", "--config", config, "--only", "milestones"],
            ["run", "--config", config, "--only", "stats", "--permutations", "9"],
        ],
        tracer.Tracer(),
    )
    assert [command["exit"] for command in record["commands"]] == [0, 0, 0, 0]

    spans = {name for name, *_ in record["spans"]}
    assert set(bench.FUNCTION_SPANS) <= spans
    assert {f"pipeline.{stage}" for stage in STAGES} <= spans

    counts = {}
    for key, value in record["counts"]:
        counts.setdefault(key, []).append(value)
    coverage = json.loads((out / "coverage_report.json").read_text())
    censored = (out / "milestones.csv").read_text().count(",true")
    assert censored > 0
    assert counts["ingest.parse_trips.rows"] == [_data_lines(city / "trips.csv")]
    assert counts["ingest.parse_transactions.rows"] == [_data_lines(city / "transactions.csv")]
    assert counts["ingest.broadcast_zip_to_regions.records"] == [coverage["regions"]["total"]]
    assert counts["aggregate.build_daily_series.keys"] == [_data_lines(out / "work" / "baselines.csv")]
    # the full run and --only milestones each build the table once
    assert counts["milestones.censored_keys"] == [censored, censored]
    assert counts["pipeline.changes_csv.bytes"] == [(out / "work" / "changes.csv").stat().st_size]
    # five Moran fields in the full run and five in --only stats, every one in this process
    assert counts["stats.morans_i.calls"] == [1] * 10
