"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not deferred.
"""

from __future__ import annotations

import csv
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.special
import scipy.stats

import corpus as corpus_module
from conftest import GOLDEN_ARTIFACTS, write_csv
from oracles import activity_from_rows, brute_force_recovery_day, gini_pairwise, moran_double_sum
from recovery_track.aggregate import ESSENTIAL, NON_ESSENTIAL, build_daily_series, load_taxonomy
from recovery_track.config import load_config
from recovery_track.errors import ParseError
from recovery_track.ingest import (
    OverlapEntry,
    broadcast_zip_to_regions,
    parse_adjacency,
    parse_attributes,
    parse_overlaps,
    parse_transactions,
    parse_trips,
    resolve_crosswalk,
)
from recovery_track.metric import categorize, integrated_metric, min_max_normalize
from recovery_track.milestones import detect_recovery_days
from recovery_track.pipeline import run
from recovery_track.stats import SpatialWeights, chi_square_from_table, gini, morans_i
from recovery_track.synth import ScenarioSpec, generate
from recovery_track.windows import DateWindow


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL: {summary}")
        raise
    print(f"[acceptance] criterion {number:02d} PASS: {summary}")


MILESTONE_FIELD_BY_KEY = {
    ("trip", "essential"): "trip_essential",
    ("trip", "non-essential"): "trip_nonessential",
    ("transaction", "essential"): "transaction_essential",
    ("transaction", "non-essential"): "transaction_nonessential",
}


def _load_truth(path):
    truth = {}
    with open(path) as handle:
        for row in csv.DictReader(handle):
            key = (row["region"], row["source"], row["category"])
            truth[key] = (int(row["duration_days"]), row["censored"] == "true")
    return truth


def _load_milestones(path):
    cells = {}
    with open(path) as handle:
        for row in csv.DictReader(handle):
            for key, field in MILESTONE_FIELD_BY_KEY.items():
                cells[(row["region"], *key)] = (
                    int(row[f"{field}_days"]),
                    row[f"{field}_censored"] == "true",
                )
    return cells


def test_criterion_01_milestone_oracle_equivalence():
    with criterion(1, "detector matches brute-force scanner on 10,000 random series"):
        rng = np.random.default_rng(20170827)
        elapsed = 0.0
        for _ in range(10_000):
            n = int(rng.integers(10, 160))
            changes = rng.uniform(-0.6, 0.4, size=n)
            d0 = int(rng.integers(0, n - 5))
            horizon = int(rng.integers(4, n - d0 - 1)) if n - d0 > 5 else n - d0 - 1
            threshold = float(rng.uniform(-0.3, 0.0))
            run_length = int(rng.integers(1, 5))
            start = time.perf_counter()
            found = detect_recovery_days(changes[np.newaxis], d0, horizon, threshold, run_length)
            elapsed += time.perf_counter() - start
            want = brute_force_recovery_day(changes, d0, horizon, threshold, run_length)
            assert found[0] == (-1 if want is None else want)
        assert elapsed < 10.0, f"detection took {elapsed:.2f}s over 10,000 series"


def test_criterion_02_end_to_end_planted_recovery(golden_city):
    with criterion(2, "noiseless 200-region city: all 800 cells equal ground truth exactly"):
        truth = _load_truth(golden_city["root"] / "ground_truth.csv")
        cells = _load_milestones(golden_city["out"] / "milestones.csv")
        assert len(truth) == 800
        assert len(cells) == 800
        assert cells == truth


def test_criterion_03_noise_robustness(tmp_path):
    with criterion(3, ">= 99% of cells within +/-2 days of truth at 2% noise over 100 seeds"):
        total = 0
        within = 0
        for seed in range(100):
            spec = ScenarioSpec.from_mapping(
                {
                    "name": f"noise-{seed}",
                    "seed": seed,
                    "n_regions": 30,
                    "horizon_days": 60,
                    "noise": 0.02,
                    "regions_per_zip": 3,
                    "drop_range": [0.25, 0.85],
                    "ramp_range": [8, 30],
                    "flat_fraction": 0.0,
                    "censored_fraction": 0.0,
                }
            )
            scenario_dir = tmp_path / f"noise-{seed}"
            paths = generate(spec, scenario_dir)
            config = load_config(paths["config.json"])
            result = run(config)
            truth = _load_truth(paths["ground_truth.csv"])
            cells = _load_milestones(result.output_dir / "milestones.csv")
            assert len(cells) == len(truth)
            for key, (duration, _) in cells.items():
                total += 1
                if abs(duration - truth[key][0]) <= 2:
                    within += 1
        assert total == 100 * 30 * 4
        assert within / total >= 0.99, f"only {within}/{total} cells within 2 days"


def test_criterion_04_weighted_measurement_fidelity():
    with criterion(4, "unit-input weighted measurements equal 0.9991 and 1.0000 to 1e-12"):
        taxonomy = load_taxonomy()
        window = DateWindow.from_strings("2017-08-01", "2017-08-01")
        # one trip of 1.0 per service type, in one region on one day
        units = activity_from_rows((0, "R001", code, 1.0) for code in taxonomy.entries)
        no_transactions = activity_from_rows([])
        broadcast = broadcast_zip_to_regions(no_transactions, {"R001": "77001"})
        series_set, _ = build_daily_series(units, no_transactions, broadcast, taxonomy, window)
        assert abs(series_set[("R001", "trip", ESSENTIAL)][0] - 0.9991) <= 1e-12
        assert abs(series_set[("R001", "trip", NON_ESSENTIAL)][0] - 1.0) <= 1e-12


def test_criterion_05_gini_analytics():
    with criterion(5, "gini fixed points, scale invariance, Lorenz convexity on 1,000 fixtures"):
        assert gini([7.0] * 5).gini == 0.0
        assert gini([0.0, 1.0]).gini == 0.5
        assert gini([1.0, 2.0, 3.0, 4.0]).gini == 0.25

        rng = random.Random(4242)
        base_values = [rng.uniform(0, 10) for _ in range(40)]
        base = gini(base_values).gini
        for scale in (1e-9, 0.001, 2.5, 1e7):
            assert abs(gini([scale * v for v in base_values]).gini - base) <= 1e-12

        for _ in range(1000):
            values = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 60))]
            if sum(values) <= 0:
                continue
            curve = gini(values)
            shares = [s for _, s in curve.points]
            assert curve.points[0] == (0.0, 0.0)
            assert curve.points[-1] == (1.0, 1.0)
            diffs = [b - a for a, b in zip(shares, shares[1:])]
            for d0, d1 in zip(diffs, diffs[1:]):
                assert d1 >= d0 - 1e-12
            assert abs(curve.gini - gini_pairwise(values)) <= 1e-9


def _rook_grid(rows, cols):
    adjacency = {}
    for r in range(rows):
        for c in range(cols):
            region = f"G{r}_{c}"
            neighbors = set()
            if r > 0:
                neighbors.add(f"G{r - 1}_{c}")
            if r < rows - 1:
                neighbors.add(f"G{r + 1}_{c}")
            if c > 0:
                neighbors.add(f"G{r}_{c - 1}")
            if c < cols - 1:
                neighbors.add(f"G{r}_{c + 1}")
            adjacency[region] = neighbors
    return adjacency


def test_criterion_06_moran_analytics():
    with criterion(6, "Moran checkerboard/gradient/oracle agreement and uniform permutation p"):
        checker = SpatialWeights.from_adjacency(_rook_grid(2, 2))
        values = {"G0_0": 1.0, "G0_1": 0.0, "G1_0": 0.0, "G1_1": 1.0}
        assert abs(morans_i(values, checker).i - (-1.0)) <= 1e-12

        grid = SpatialWeights.from_adjacency(_rook_grid(5, 5))
        gradient = {f"G{r}_{c}": float(2 * r + 3 * c) for r in range(5) for c in range(5)}
        assert morans_i(gradient, grid).i > 0.0

        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(5, 201))
            adjacency = {f"R{i}": set() for i in range(n)}
            for i in range(1, n):
                j = int(rng.integers(0, i))
                adjacency[f"R{i}"].add(f"R{j}")
                adjacency[f"R{j}"].add(f"R{i}")
            for _ in range(n // 2):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    adjacency[f"R{i}"].add(f"R{j}")
                    adjacency[f"R{j}"].add(f"R{i}")
            weights = SpatialWeights.from_adjacency(adjacency)
            field = {r: float(v) for r, v in zip(weights.regions, rng.normal(size=n))}
            mine = morans_i(field, weights).i
            ordered = list(weights.regions)
            index = {r: k for k, r in enumerate(ordered)}
            neighbor_indices = [[index[o] for o in weights.neighbors[r]] for r in ordered]
            oracle = moran_double_sum([field[r] for r in ordered], neighbor_indices)
            assert abs(mine - oracle) <= 1e-12 * max(1.0, abs(oracle))

        # permutation p under the null is uniform
        grid6 = SpatialWeights.from_adjacency(_rook_grid(6, 6))
        p_values = []
        for trial in range(500):
            field = {
                r: float(v)
                for r, v in zip(grid6.regions, np.random.default_rng([9000, trial]).normal(size=36))
            }
            result = morans_i(field, grid6, permutations=99, seed=[9001, trial])
            p_values.append(result.permutation_p)
        assert all(0.0 < p <= 1.0 for p in p_values)
        ks = scipy.stats.kstest(p_values, "uniform")
        assert ks.pvalue > 0.01, f"KS p-value {ks.pvalue} rejects uniformity"


def test_criterion_07_chi_square_analytics():
    with criterion(7, "chi-square fixed tables against the incomplete-gamma oracle"):
        balanced = chi_square_from_table([[10, 10], [10, 10]])
        assert balanced.statistic == 0.0
        assert balanced.p_value == 1.0

        skewed = chi_square_from_table([[20, 10], [10, 20]])
        assert abs(skewed.statistic - 6.6667) <= 1e-3
        assert abs(skewed.p_value - 0.0098) <= 2e-4
        oracle_p = float(scipy.special.gammaincc(0.5, skewed.statistic / 2.0))
        assert abs(skewed.p_value - oracle_p) <= 1e-12


def test_criterion_08_metric_contract():
    with criterion(8, "normalization endpoints, integration to 1e-15, quartile partition"):
        rng = random.Random(808)
        for _ in range(200):
            durations = [rng.uniform(0, 120) for _ in range(rng.randrange(2, 50))]
            normalized = min_max_normalize(durations)
            assert normalized.min() == 0.0
            assert normalized.max() == 1.0
            assert ((0.0 <= normalized) & (normalized <= 1.0)).all()

        fours = [[rng.uniform(0, 1) for _ in range(4)] for _ in range(500)]
        for four, value in zip(fours, integrated_metric(fours).tolist()):
            assert abs(value - math.fsum(four) / 4.0) <= 1e-15

        fixture = [0.1 * i for i in range(1, 9)]
        counts = {}
        for label in categorize(fixture):
            counts[label] = counts.get(label, 0) + 1
        assert counts == {"early": 2, "mild": 2, "late": 2, "delayed": 2}

        transforms = [math.exp, lambda x: x**3 + x, lambda x: 5 * x - 2, math.atan]
        for _ in range(1000):
            metrics = [rng.uniform(-3, 3) for _ in range(rng.randrange(4, 30))]
            base = categorize(metrics)
            transform = rng.choice(transforms)
            assert categorize([transform(v) for v in metrics]) == base


def test_criterion_09_determinism(golden_city, tmp_path):
    with criterion(9, "byte-identical reruns and permutation-invariant crosswalk"):
        config = golden_city["config"].with_overrides(output_dir=tmp_path / "rerun")
        rerun = run(config)
        for name in GOLDEN_ARTIFACTS + ("work/baselines.csv", "work/changes.csv"):
            first = (golden_city["out"] / name).read_bytes()
            second = (rerun.output_dir / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"

        rng = random.Random(909)
        for _ in range(50):
            overlaps = []
            for r in range(30):
                for z in rng.sample(range(77001, 77040), k=rng.randrange(1, 4)):
                    overlaps.append(
                        OverlapEntry(f"R{r:03d}", str(z), rng.choice([0.2, 0.5, 0.5, 0.8]))
                    )
            reference = resolve_crosswalk(overlaps)
            for _ in range(5):
                rng.shuffle(overlaps)
                assert resolve_crosswalk(overlaps) == reference


def test_criterion_10_ingest_robustness(tmp_path):
    with criterion(10, "malformed corpus: expected error/warning and reconciled counts"):
        window = DateWindow.from_strings("2017-08-01", "2017-12-25")
        parsers = {
            "trips": lambda p: parse_trips(p, window),
            "transactions": lambda p: parse_transactions(p, window),
            "overlaps": parse_overlaps,
            "adjacency": parse_adjacency,
            "attributes": parse_attributes,
        }
        assert len(corpus_module.CASES) >= 20
        for name, parser_key, text, (kind, detail) in corpus_module.CASES:
            path = write_csv(tmp_path, f"{name}.csv", text)
            data_rows = max(0, len([l for l in text.splitlines() if l]) - 1)
            if kind in ("error", "header-error"):
                with pytest.raises(ParseError) as err:
                    parsers[parser_key](path)
                exc = err.value
                assert detail in str(exc), name
                if kind == "error":
                    assert exc.total_rows == data_rows, name
                    assert exc.accepted + exc.dropped + exc.errored == exc.total_rows, name
                else:
                    assert exc.accepted == 0 and exc.dropped == 0, name
            else:
                result = parsers[parser_key](path)
                assert result.dropped == detail, name
                assert result.accepted + result.dropped == result.total_rows, name
