"""Replay recovery-track CLI commands in one process, optionally traced.

    python perfbench/tracer.py --mode plain|trace --commands JSON --out RESULT.json

`--commands` is a JSON list of argument lists, each passed to
`recovery_track.cli.main` in order. The result file holds each command's
in-process wall time and exit code. In `trace` mode the layer entry points
that `pipeline.py` and `cli.py` call are wrapped from here, outside the
package, and the result also holds every span as [name, start, end, parent
index] plus per-call counts read off return values. Per-key helpers
(weighted_measurement, compute_baseline, moving_average,
detect_recovery_day) are never wrapped: they run 10^5 to 10^6 times per run
and wrapping them would distort what it measures. The originals are restored
after the last command, also when one raises.

Run it with `src` on PYTHONPATH; perfbench/run.py does.
"""

from __future__ import annotations

import argparse
import functools
import json
import time


class Tracer:
    """Spans kept in memory, each with the index of the span open when it began."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = []  # [key, value] per call
        self._stack = []

    def wrap(self, name, func, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.counts.extend(count(result).items())
            return result

        return traced


def _targets():
    """(owner, attribute, span name, count) for every wrapped entry point."""
    from recovery_track import aggregate, cli, ingest, metric, milestones, pipeline, series, stats

    def censored(result):
        table = result[0]
        return sum(m.censored for row in table.values() for m in row.values())

    counts = {
        "ingest.parse_trips": lambda r: {"ingest.parse_trips.rows": r.total_rows},
        "ingest.parse_transactions": lambda r: {
            "ingest.parse_transactions.rows": r.total_rows,
            "ingest.parse_transactions.accepted": r.accepted,
        },
        "ingest.broadcast_zip_to_regions": lambda r: {
            "ingest.broadcast_zip_to_regions.records": len(r.records)
        },
        "aggregate.build_daily_series": lambda r: {
            "aggregate.build_daily_series.keys": len(r[0].keys())
        },
        "milestones.build_milestone_table": lambda r: {"milestones.censored_keys": censored(r)},
        "stats.morans_i": lambda r: {
            "stats.morans_i.calls": 1,
            "stats.morans_i.dense_bytes": 8 * r.n * r.n,
        },
        "pipeline.series": lambda r: {
            "pipeline.changes_csv.bytes": len(r[pipeline.CHANGES_ARTIFACT].encode("utf-8"))
        },
    }

    targets = [
        (ingest, attr, f"ingest.{attr}")
        for attr in (
            "parse_trips", "parse_transactions", "parse_overlaps", "parse_adjacency",
            "parse_attributes", "resolve_crosswalk", "broadcast_zip_to_regions",
        )
    ]
    targets += [
        (aggregate, "load_taxonomy", "aggregate.load_taxonomy"),
        (aggregate, "build_daily_series", "aggregate.build_daily_series"),
        (series, "compute_baselines", "series.compute_baselines"),
        (series, "build_change_series", "series.build_change_series"),
        (milestones, "build_milestone_table", "milestones.build_milestone_table"),
        (metric, "build_metric_table", "metric.build_metric_table"),
        (stats.SpatialWeights, "from_adjacency", "stats.SpatialWeights.from_adjacency"),
        (stats, "morans_i", "stats.morans_i"),
        (stats, "gini", "stats.gini"),
        (stats, "chi_square_2x2", "stats.chi_square_2x2"),
        # cli.py binds generate at import, so the span goes on its name there
        (cli, "generate", "synth.generate"),
        (pipeline, "_commit", "pipeline.commit"),
    ]
    # run() looks stages up in this table on every call
    targets += [
        (pipeline._STAGE_FUNCS, stage, f"pipeline.{stage}") for stage in pipeline.STAGES
    ]
    return [(owner, attr, name, counts.get(name)) for owner, attr, name in targets]


def _install(tracer):
    """Wrap every target; return a function that restores the originals."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            if isinstance(owner, dict):
                saved.append((owner, attr, owner[attr]))
                owner[attr] = tracer.wrap(name, owner[attr], count)
            else:
                # vars() keeps the raw descriptor, so a classmethod restores as one
                saved.append((owner, attr, vars(owner)[attr]))
                wrapped = tracer.wrap(name, getattr(owner, attr), count)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    for owner, attr, original in reversed(saved):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def replay(commands, tracer=None) -> dict:
    from recovery_track import cli

    restore = _install(tracer) if tracer is not None else None
    results = []
    try:
        for argv in commands:
            start = time.perf_counter()
            code = cli.main(argv)
            results.append({"argv": argv, "s": time.perf_counter() - start, "exit": code})
    finally:
        if restore is not None:
            restore()
    record = {"commands": results}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--commands", required=True, help="JSON list of CLI argument lists")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    record = replay(json.loads(args.commands), Tracer() if args.mode == "trace" else None)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
