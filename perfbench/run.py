"""Benchmark for recovery-track, a single-machine batch tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run it from the repository root. Each workload generates its city with
`recovery-track synth` from a spec plus `--seed` (noiseless, so the planted
ground truth is exact), runs the upstream stages the timed command needs, and
then times the command as fresh `python -m recovery_track.cli` children with
`src` on PYTHONPATH, one at a time, for at least `--seconds` seconds and at
least the workload's sample floor. The program sees only the generated
CSVs. Every command's outputs are checked; a nonzero exit or a failed check
counts as a failed operation and never triggers a re-seed or resize.

Workloads, and why each exists:

- city-full: spec {"n_regions": 1000} (147-day window, 4 regions per Zip);
  the timed command is a full `run`. Ingest and aggregate do about 90% of the
  work, and it writes the ~30 MB work/changes.csv. It is the 1000-region
  reference point of the roadmap.
- milestones-rerun: spec {"n_regions": 200, "horizon_days": 365,
  "censored_fraction": 0.2}; `run --only milestones` after a setup full run.
  It is the read side of the ~16 MB changes artifact on a long day axis,
  where city-full has many keys; the stage is dominated by the CSV re-parse.
  200 regions rather than 400 keeps every run of all three workloads within
  the benchmark's time budget on a 2-CPU machine.
- stats-perm: spec {"n_regions": 2500, "window_start": "2017-08-17",
  "baseline_days": 7, "horizon_days": 21, "ramp_range": [3, 15]};
  `run --only stats --permutations 999` after a setup full run. It measures
  dense Moran's I at large n (the dense weight matrix alone is 2500^2 x 8 B
  = 50 MB, computed) without paying for series. 2500 regions rather than
  4000 keeps every run within the time budget; memory still grows as n^2.

End-to-end metrics (`--trace 0`), on every workload:

- wall_s: median over the run's samples of the timed command's wall time.
  A sample is one command, or on milestones-rerun the mean of a batch of 4
  back-to-back commands: its ~1 s command is short next to the slow spells
  of several seconds seen on a shared 2-CPU machine, which otherwise move
  the median of single commands by up to 30% between runs.
- peak_rss_mb: median of each timed child's peak RSS, from its own
  os.wait4 rusage (10^6 bytes).
- out_mb: median bytes the timed command committed (the files it reports
  writing), in 10^6 bytes.
- input_rows_per_s: data rows of the CSVs the timed command reads, over
  wall_s. On city-full those are trips.csv and transactions.csv.
- setup_s: median wall time of two synth runs, plus the upstream stages
  (run once).

Each run also prints `failed_frac`, failed over attempted commands; the
result object carries the same counts as `failed` and `attempted`.

Outputs checked after every timed command: each milestones.csv cell (days and
censored flag) equals ground_truth.csv; on stats-perm all five Moran fields
have a finite `i` and a non-null `permutation_p`; the sha256 of the five report
artifacts stays the same across the run's commands.

Per-layer metrics (`--trace 1`) come from a separate run that replays the
workload's commands in-process through perfbench/tracer.py, once untraced and
once traced. Layer times are totals over every command the workload runs
(synth, the upstream run and the timed command), so ingest spans show on the
rerun workloads too, where they move setup_s. `pipeline.<stage>.self_s` is
the stage span minus its child spans. `trace.overhead_s` is the traced total
of the pipeline commands minus the untraced one. `cli.validate_s` is the wall
time of a `recovery-track validate` child on the same city, whose diagnostics
must be empty, and `cli.import_s` the median wall time of a child that only
imports `recovery_track.cli`. Validate is timed here rather than end to end
because every end-to-end metric must exist on every workload, and validating
each workload's city in every run would not fit the time budget.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (with `--workload all`, one such object per
workload, keyed by name). Without `src/recovery_track` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".bench_work"

RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 2
IMPORT_REPEATS = 3

STAGES = ("series", "milestones", "metric", "stats")
MILESTONE_FIELDS = (
    "trip_essential",
    "trip_nonessential",
    "transaction_essential",
    "transaction_nonessential",
)
MORAN_FIELDS = MILESTONE_FIELDS + ("integrated",)
REPORT_ARTIFACTS = (
    "coverage_report.json",
    "lorenz.csv",
    "metric.csv",
    "milestones.csv",
    "stats.json",
)

# spans the tracer records, one `<name>.s` metric each
FUNCTION_SPANS = (
    "ingest.parse_trips",
    "ingest.parse_transactions",
    "ingest.parse_overlaps",
    "ingest.parse_adjacency",
    "ingest.parse_attributes",
    "ingest.resolve_crosswalk",
    "ingest.broadcast_zip_to_regions",
    "aggregate.load_taxonomy",
    "aggregate.build_daily_series",
    "series.compute_baselines",
    "series.build_change_series",
    "milestones.build_milestone_table",
    "metric.build_metric_table",
    "stats.SpatialWeights.from_adjacency",
    "stats.morans_i",
    "stats.gini",
    "stats.chi_square_2x2",
    "synth.generate",
    "pipeline.commit",
)
# counts summed over calls; stats.morans_i.dense_bytes is the largest single matrix instead
SUMMED_COUNTS = (
    "ingest.parse_trips.rows",
    "ingest.parse_transactions.rows",
    "ingest.broadcast_zip_to_regions.records",
    "aggregate.build_daily_series.keys",
    "milestones.censored_keys",
    "stats.morans_i.calls",
    "pipeline.changes_csv.bytes",
)


@dataclass(frozen=True)
class Workload:
    spec: dict
    timed: list  # CLI arguments before --config
    reads: tuple  # CSVs the timed command reads, relative to the city
    upstream: list = field(default_factory=list)  # commands setup runs after synth
    min_samples: int = 1
    batch: int = 1  # back-to-back commands per sample


WORKLOADS = {
    "city-full": Workload(
        spec={"n_regions": 1000},
        timed=["run"],
        reads=("trips.csv", "transactions.csv"),
    ),
    "milestones-rerun": Workload(
        spec={"n_regions": 200, "horizon_days": 365, "censored_fraction": 0.2},
        timed=["run", "--only", "milestones"],
        reads=("out/work/changes.csv",),
        upstream=[["run"]],
        min_samples=3,
        batch=4,
    ),
    "stats-perm": Workload(
        spec={
            "n_regions": 2500,
            "window_start": "2017-08-17",
            "baseline_days": 7,
            "horizon_days": 21,
            "ramp_range": [3, 15],
        },
        timed=["run", "--only", "stats", "--permutations", "999"],
        reads=("out/milestones.csv", "out/metric.csv", "adjacency.csv", "attributes.csv"),
        upstream=[["run"]],
        min_samples=3,
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (setup or harness failure)."""


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    output: str


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left


def run_child(args, log: Path, deadline: Deadline) -> Child:
    """Run `python <args>` to completion; time it and read its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline.left()
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, args)], stdout=sink, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, log.read_text("utf-8", "replace"))


def cli_args(*args):
    return ["-m", "recovery_track.cli", *args]


def write_spec(workload: Workload, seed: int, base: Path) -> Path:
    path = base / "spec.json"
    path.write_text(json.dumps({**workload.spec, "seed": seed}) + "\n", encoding="utf-8")
    return path


def require_ok(child: Child, what: str):
    if child.code != 0:
        raise BenchError(f"{what} exited {child.code}:\n{child.output[-2000:]}")


def set_up(workload: Workload, spec: Path, city: Path, deadline: Deadline) -> float:
    """Generate the city SETUP_REPEATS times and run the upstream stages once."""
    synth_walls = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(city, ignore_errors=True)
        child = run_child(cli_args("synth", "--spec", spec, "--out", city), city.parent / "synth.log", deadline)
        require_ok(child, "synth")
        synth_walls.append(child.wall_s)
    upstream_s = 0.0
    for command in workload.upstream:
        child = run_child(cli_args(*command, "--config", city / "config.json"), city.parent / "upstream.log", deadline)
        require_ok(child, " ".join(command))
        upstream_s += child.wall_s
    return statistics.median(synth_walls) + upstream_s


# --------------------------------------------------------------------------
# output checks


def milestone_problems(city: Path) -> list:
    truth = {}
    with open(city / "ground_truth.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            field_name = f"{row['source']}_{row['category'].replace('-', '')}"
            truth[(row["region"], field_name)] = (row["duration_days"], row["censored"])
    seen = {}
    with open(city / "out" / "milestones.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            for name in MILESTONE_FIELDS:
                seen[(row["region"], name)] = (row[f"{name}_days"], row[f"{name}_censored"])
    wrong = sorted(key for key in truth.keys() | seen.keys() if truth.get(key) != seen.get(key))
    if wrong:
        return [f"milestones.csv differs from ground truth in {len(wrong)} cells, first {wrong[0]}"]
    return []


def moran_problems(city: Path) -> list:
    payload = json.loads((city / "out" / "stats.json").read_text(encoding="utf-8"))
    problems = []
    for name in MORAN_FIELDS:
        entry = payload["morans_i"][name]
        i_value = entry.get("i")
        if not (isinstance(i_value, (int, float)) and math.isfinite(i_value)):
            problems.append(f"Moran {name}: i is {i_value!r}")
        if entry.get("permutation_p") is None:
            problems.append(f"Moran {name}: permutation_p is null")
    return problems


def report_digests(out: Path) -> dict:
    digests = {}
    for name in REPORT_ARTIFACTS:
        path = out / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return digests


def output_problems(workload: Workload, city: Path) -> list:
    try:
        problems = milestone_problems(city)
        if "--permutations" in workload.timed:
            problems += moran_problems(city)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


# --------------------------------------------------------------------------
# end-to-end run


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    out_bytes: list = field(default_factory=list)
    commands: int = 0
    failed: int = 0


def measure(workload: Workload, city: Path, seconds: float, deadline: Deadline) -> Measurement:
    """Time samples of the workload's command until both the time and sample floors are met.

    A sample is the mean wall time per command over a batch of back-to-back
    commands; outputs are checked between commands, outside the timing.
    """
    result = Measurement()
    first_digests = None
    start = time.perf_counter()
    while len(result.walls) < workload.min_samples or time.perf_counter() - start < seconds:
        batch_s = 0.0
        for _ in range(workload.batch):
            child = run_child(
                cli_args(*workload.timed, "--config", city / "config.json"), city.parent / "timed.log", deadline
            )
            result.commands += 1
            batch_s += child.wall_s
            written = [line[len("wrote "):] for line in child.output.splitlines() if line.startswith("wrote ")]
            problems = [] if child.code == 0 else [f"exit code {child.code}: {child.output[-500:]}"]
            problems += output_problems(workload, city)
            digests = report_digests(city / "out")
            first_digests = first_digests or digests
            if digests != first_digests:
                problems.append("report artifact digests changed between commands")
            if problems:
                result.failed += 1
                print(f"command {result.commands} failed: {'; '.join(problems)}", file=sys.stderr)
            result.rss.append(child.peak_rss_mb)
            result.out_bytes.append(sum(os.path.getsize(p) for p in written if os.path.exists(p)))
        result.walls.append(batch_s / workload.batch)
    return result


def data_rows(paths) -> int:
    rows = 0
    for path in paths:
        with open(path, "rb") as handle:
            rows += sum(1 for _ in handle) - 1
    return rows


def end_to_end(workload: Workload, seed: int, seconds: float, base: Path, deadline: Deadline):
    city = base / "city"
    spec = write_spec(workload, seed, base)
    setup_s = set_up(workload, spec, city, deadline)
    m = measure(workload, city, seconds, deadline)
    wall_s = statistics.median(m.walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (statistics.median(m.rss), "MB"),
        "out_mb": (statistics.median(m.out_bytes) / 1e6, "MB"),
        "input_rows_per_s": (data_rows(city / name for name in workload.reads) / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{len(m.walls)} samples, wall_s {[round(w, 3) for w in m.walls]}; failed_frac {m.failed}/{m.commands}")
    return m.commands, m.failed, metrics


# --------------------------------------------------------------------------
# traced run


def run_tracer(mode: str, commands, city: Path, deadline: Deadline) -> dict:
    out = city.parent / f"{mode}.json"
    child = run_child(
        [TRACER, "--mode", mode, "--commands", json.dumps(commands), "--out", out],
        city.parent / f"{mode}.log", deadline,
    )
    require_ok(child, f"tracer --mode {mode}")
    record = json.loads(out.read_text(encoding="utf-8"))
    for command in record["commands"]:
        if command["exit"] != 0:
            raise BenchError(f"in-process {command['argv'][0]} exited {command['exit']}:\n{child.output[-2000:]}")
    return record


def pipeline_s(record: dict) -> float:
    return sum(c["s"] for c in record["commands"] if c["argv"][0] == "run")


def layer_metrics(traced: dict, plain: dict) -> dict:
    spans = traced["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, self_total = {}, {}
    for index, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + (end - start - covered[index])

    metrics = {f"{name}.s": (total.get(name, 0.0), "s") for name in FUNCTION_SPANS}
    for stage in STAGES:
        metrics[f"pipeline.{stage}.s"] = (total.get(f"pipeline.{stage}", 0.0), "s")
        metrics[f"pipeline.{stage}.self_s"] = (self_total.get(f"pipeline.{stage}", 0.0), "s")

    counts = {key: 0 for key in SUMMED_COUNTS}
    accepted_tx, dense_bytes = 0, 0
    for key, value in traced["counts"]:
        if key == "stats.morans_i.dense_bytes":
            dense_bytes = max(dense_bytes, value)
        elif key == "ingest.parse_transactions.accepted":
            accepted_tx += value
        else:
            counts[key] += value
    for key in SUMMED_COUNTS:
        metrics[key] = (counts[key], "B" if key.endswith(".bytes") else "count")
    metrics["stats.morans_i.dense_bytes"] = (dense_bytes, "B")
    records = counts["ingest.broadcast_zip_to_regions.records"]
    metrics["ingest.broadcast.copy_ratio"] = (records / accepted_tx if accepted_tx else 0.0, "ratio")
    metrics["trace.overhead_s"] = (pipeline_s(traced) - pipeline_s(plain), "s")
    return metrics


def traced_run(workload: Workload, seed: int, base: Path, deadline: Deadline):
    city = base / "city"
    spec = write_spec(workload, seed, base)
    config = str(city / "config.json")
    commands = [["synth", "--spec", str(spec), "--out", str(city)]]
    commands += [[*cmd, "--config", config] for cmd in workload.upstream]
    commands.append([*workload.timed, "--config", config])

    failed = 0
    shutil.rmtree(city, ignore_errors=True)
    traced = run_tracer("trace", commands, city, deadline)
    failed += bool(output_problems(workload, city))
    # the untraced replay reuses the city the traced one generated
    plain = run_tracer("plain", commands[1:], city, deadline)
    failed += bool(output_problems(workload, city))
    metrics = layer_metrics(traced, plain)

    validate = run_child(cli_args("validate", "--config", config), base / "validate.log", deadline)
    failed += validate.code != 0 or validate.output.strip() != "[]"  # a clean city has no diagnostics
    metrics["cli.validate_s"] = (validate.wall_s, "s")
    imports = []
    for _ in range(IMPORT_REPEATS):
        child = run_child(["-c", "import recovery_track.cli"], base / "import.log", deadline)
        require_ok(child, "import recovery_track.cli")
        imports.append(child.wall_s)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    return 3, failed, metrics


# --------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool, workloads=WORKLOADS) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    deadline = Deadline(RUN_DEADLINE_S)
    try:
        if trace:
            attempted, failed, metrics = traced_run(workloads[name], seed, base, deadline)
        else:
            attempted, failed, metrics = end_to_end(workloads[name], seed, seconds, base, deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"{name}  {metric}  {value!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recovery-track benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recovery_track" / "cli.py").is_file():
        print(f"error: {SRC / 'recovery_track'} not found; run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
