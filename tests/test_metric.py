from __future__ import annotations

import math
import random

import numpy as np
import pytest

from oracles import integrated_mean, quantile_linear
from recovery_track.errors import MetricError
from recovery_track.metric import (
    build_metric_table,
    categorize,
    integrated_metric,
    min_max_normalize,
    quartiles,
)


def test_normalize_examples():
    assert min_max_normalize([10, 30, 20]).tolist() == [0.0, 1.0, 0.5]
    assert min_max_normalize([7, 7, 7]).tolist() == [0.0, 0.0, 0.0]
    assert min_max_normalize([5, 7]).tolist() == [0.0, 1.0]


def test_normalize_scales_each_column_alone():
    durations = [[10, 7, 0], [30, 7, 4], [20, 7, 1]]
    assert min_max_normalize(durations).tolist() == [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.5, 0.0, 0.25],
    ]


def test_normalize_rejects_tiny_inputs():
    with pytest.raises(MetricError):
        min_max_normalize([])
    with pytest.raises(MetricError):
        min_max_normalize([1])
    with pytest.raises(MetricError):
        min_max_normalize([[1, 2, 3, 4]])


def test_normalize_endpoints_exact():
    rng = random.Random(3)
    for _ in range(100):
        values = [rng.uniform(0, 120) for _ in range(rng.randrange(2, 30))]
        normalized = min_max_normalize(values)
        assert normalized.min() == 0.0
        assert normalized.max() == 1.0
        assert ((0.0 <= normalized) & (normalized <= 1.0)).all()


def test_integrated_metric_examples():
    values = integrated_metric([[0, 0, 0, 0], [0.2, 0.4, 0.6, 0.8], [1, 1, 1, 1]])
    assert values[0] == 0.0
    assert values[1] == pytest.approx(0.5, abs=1e-15)
    assert values[2] == 1.0


def test_integrated_metric_equals_the_fsum_reference_bit_for_bit():
    rng = np.random.default_rng(4)
    normalized = np.ldexp(rng.uniform(0.5, 1.0, (240, 4)), rng.integers(-60, 1, (240, 4)))
    normalized[0::6] = rng.integers(1, 1 << 20, normalized[0::6].shape) * 5e-324  # subnormals
    normalized[1::6] = [1.0, 2.0**-53, 2.0**-53, 0.0]  # a plain sum rounds 1 + 2**-53 to 1 twice
    normalized[2::6] = 0.0
    normalized[3::6] = -0.0
    normalized[3::12, 1] = 0.0  # -0.0 with 0.0
    normalized[5::6, rng.integers(0, 4)] = 1.0
    got = integrated_metric(normalized)
    assert [value.hex() for value in got.tolist()] == [integrated_mean(row).hex() for row in normalized.tolist()]


def test_integrated_metric_validates_input():
    with pytest.raises(MetricError):
        integrated_metric([[0.1, 0.2, 0.3]])
    with pytest.raises(MetricError):
        integrated_metric([0.1, 0.2, 0.3, 0.4])  # one row needs its own brackets
    with pytest.raises(MetricError):
        integrated_metric([[0.1, 0.2, 0.3, 1.5]])
    with pytest.raises(MetricError):
        integrated_metric([[0.1, 0.2, 0.3, 0.4], [0.1, math.nan, 0.3, 0.4]])


def test_quartiles_match_independent_interpolation():
    rng = random.Random(17)
    for _ in range(100):
        values = [rng.uniform(0, 1) for _ in range(rng.randrange(4, 50))]
        q1, q2, q3 = quartiles(values)
        assert q1 == pytest.approx(quantile_linear(values, 0.25), rel=1e-12)
        assert q2 == pytest.approx(quantile_linear(values, 0.50), rel=1e-12)
        assert q3 == pytest.approx(quantile_linear(values, 0.75), rel=1e-12)


def test_categorize_eight_point_fixture_splits_evenly():
    labels = categorize([0.1 * i for i in range(1, 9)])
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    assert counts == {"early": 2, "mild": 2, "late": 2, "delayed": 2}
    assert labels[0] == "early" and labels[7] == "delayed"


def test_categorize_all_identical_goes_early():
    labels = categorize([0.42] * 6)
    assert labels == ["early"] * 6


def test_categorize_needs_four_regions():
    with pytest.raises(MetricError):
        categorize([0.1, 0.2, 0.3])


def test_categorize_invariant_under_monotone_transform():
    rng = random.Random(23)
    transforms = [math.exp, lambda x: x**3 + x, lambda x: 10 * x + 3, math.atan]
    for _ in range(200):
        metrics = [rng.uniform(-2, 2) for _ in range(rng.randrange(4, 40))]
        base = categorize(metrics)
        transform = rng.choice(transforms)
        mapped = categorize([transform(v) for v in metrics])
        assert mapped == base


# ---------------------------------------------------------------------------
# full metric table


def _random_durations(rng, n_regions, horizon=120):
    """Whole-day durations, one row per region and one column per milestone."""
    return np.array(
        [[float(rng.randrange(0, horizon + 1)) for _ in range(4)] for _ in range(n_regions)]
    )


def test_metric_table_integrated_is_mean_of_normalized():
    rng = random.Random(29)
    durations = _random_durations(rng, 25)
    normalized, integrated, categories = build_metric_table(durations)
    assert normalized.shape == durations.shape
    assert len(integrated) == len(categories) == len(durations)
    for row, value in zip(normalized.tolist(), integrated.tolist()):
        mean = math.fsum(row) / 4.0
        assert abs(value - mean) <= 1e-15
        assert 0.0 <= value <= 1.0


def test_metric_table_order_preservation():
    rng = random.Random(31)
    for _ in range(50):
        durations = _random_durations(rng, 12)
        a, b = rng.sample(range(12), 2)
        if (durations[a] <= durations[b]).all():
            _, integrated, _ = build_metric_table(durations)
            assert integrated[a] <= integrated[b]


def test_metric_table_censored_participate_at_horizon():
    # the third region is censored in every milestone, at the 120-day horizon
    durations = [[0.0] * 4, [60.0] * 4, [120.0] * 4, [30.0] * 4]
    _, integrated, _ = build_metric_table(durations)
    assert integrated[2] == 1.0
    assert integrated[0] == 0.0


def test_metric_table_category_consistent_with_quartiles():
    rng = random.Random(37)
    _, integrated, categories = build_metric_table(_random_durations(rng, 40))
    assert categories == categorize(integrated)


def test_metric_table_needs_four_regions():
    with pytest.raises(MetricError, match="at least 4 regions"):
        build_metric_table(_random_durations(random.Random(41), 3))
