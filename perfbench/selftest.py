"""Self-test of the benchmark on tiny cities, covering all three command paths.

    python3 perfbench/selftest.py     # from the repository root; about a minute

Checks that every run emits exactly the metrics BENCHMARK.json names, each
with its unit, in both trace modes, and that a corrupted milestones.csv
counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

TINY = {"n_regions": 20, "horizon_days": 30}
SEED = 3


def tiny_workloads() -> dict:
    return {
        name: dataclasses.replace(workload, spec={**workload.spec, **TINY})
        for name, workload in bench.WORKLOADS.items()
    }


def check_metrics(declared: dict):
    workloads = tiny_workloads()
    for name in workloads:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run_workload(name, SEED, 0.0, trace, workloads)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1, (name, trace, result)
            units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            expected = {entry["name"]: entry["unit"] for entry in declared[key]}
            assert units == expected, (name, key, set(units) ^ set(expected))
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric, value)
                # every layer runs in every workload, so only the overhead difference may be <= 0
                if metric != "trace.overhead_s":
                    assert value > 0, (name, metric, value)


def check_corruption_is_a_failure():
    workload = tiny_workloads()["stats-perm"]  # its timed command leaves milestones.csv alone
    base = bench.WORK / "selftest-corrupt"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        deadline = bench.Deadline(bench.RUN_DEADLINE_S)
        city = base / "city"
        bench.set_up(workload, bench.write_spec(workload, SEED, base), city, deadline)
        path = city / "out" / "milestones.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = str(int(cells[1]) + 1)
        lines[1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        measured = bench.measure(workload, city, 0.0, deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert measured.commands and measured.failed == measured.commands, measured


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(declared)
    check_corruption_is_a_failure()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
