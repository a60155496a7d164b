from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from oracles import (
    dense_moran,
    dense_weights,
    exact_moran_permutation_p,
    gini_pairwise,
    moran_double_sum,
    neighbor_indices,
)
from recovery_track.errors import StatsError
from recovery_track.stats import (
    SpatialWeights,
    chi_square_2x2,
    chi_square_from_table,
    dichotomize_by_median,
    gini,
    morans_i,
)


# ---------------------------------------------------------------------------
# chi-square


def test_chi_square_p_value_matches_scipy_over_grid():
    # every 2x2 table with cells up to 8, plus tables whose statistic reaches 80
    tables = [((a, b), (c, d)) for a in range(9) for b in range(9) for c in range(9) for d in range(9)]
    tables += [((n, 0), (0, n)) for n in (10, 20, 30, 40)]
    results = []
    for table in tables:
        (a, b), (c, d) = table
        if min(a + b, c + d, a + c, b + d) > 0:
            results += [chi_square_from_table(table), chi_square_from_table(table, yates=True)]
    statistics = np.array([result.statistic for result in results])
    assert statistics.min() == 0.0 and statistics.max() == 80.0
    p_values = np.array([result.p_value for result in results])
    np.testing.assert_allclose(p_values, scipy.stats.chi2.sf(statistics, 1), rtol=1e-12, atol=1e-300)


def test_chi_square_balanced_table_is_null():
    result = chi_square_from_table([[10, 10], [10, 10]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.dof == 1


def test_chi_square_documented_example():
    result = chi_square_from_table([[20, 10], [10, 20]])
    assert result.statistic == pytest.approx(6.6667, abs=1e-3)
    assert result.p_value == pytest.approx(0.0098, abs=2e-4)
    # independent oracle: survival via scipy's regularized incomplete gamma
    assert result.p_value == pytest.approx(scipy.stats.chi2.sf(result.statistic, 1), rel=1e-12)


def test_chi_square_degenerate_margins_error():
    with pytest.raises(StatsError):
        chi_square_from_table([[0, 0], [10, 20]])
    with pytest.raises(StatsError):
        chi_square_from_table([[0, 10], [0, 20]])
    with pytest.raises(StatsError, match="^negative cell count -1$"):
        chi_square_from_table(((-1, 2), (3, 4)))


def test_chi_square_symmetries():
    rng = random.Random(41)
    for _ in range(100):
        a, b, c, d = (rng.randrange(1, 50) for _ in range(4))
        base = chi_square_from_table([[a, b], [c, d]]).statistic
        assert chi_square_from_table([[c, d], [a, b]]).statistic == pytest.approx(base, rel=1e-12)
        assert chi_square_from_table([[b, a], [d, c]]).statistic == pytest.approx(base, rel=1e-12)
        assert chi_square_from_table([[a, c], [b, d]]).statistic == pytest.approx(base, rel=1e-12)


def test_chi_square_matches_scipy_statistic():
    rng = random.Random(43)
    for _ in range(50):
        table = [[rng.randrange(1, 60) for _ in range(2)] for _ in range(2)]
        mine = chi_square_from_table(table)
        ref_stat, ref_p, ref_dof, _ = scipy.stats.chi2_contingency(table, correction=False)
        assert mine.statistic == pytest.approx(ref_stat, rel=1e-10)
        assert mine.p_value == pytest.approx(ref_p, rel=1e-10)
        with_yates = chi_square_from_table(table, yates=True)
        y_stat, y_p, _, _ = scipy.stats.chi2_contingency(table, correction=True)
        assert with_yates.statistic == pytest.approx(y_stat, rel=1e-10)
        assert with_yates.p_value == pytest.approx(y_p, rel=1e-10)


def test_chi_square_from_labelings():
    group_a = [True, True, False, False, True]
    group_b = [True, False, False, True, True]
    result = chi_square_2x2(group_a, group_b)
    assert result.table == ((1, 1), (1, 2))
    assert all(type(cell) is int for row in result.table for cell in row)
    assert chi_square_2x2([1, 1, 0, 0, 1], [1, 0, 0, 1, 1]).table == result.table
    with pytest.raises(StatsError, match="differ in length"):
        chi_square_2x2(group_a, [True])
    with pytest.raises(StatsError, match="empty"):
        chi_square_2x2([], [])


# ---------------------------------------------------------------------------
# dichotomization


def test_dichotomize_examples():
    assert dichotomize_by_median([1, 2, 3, 4]).tolist() == [False, False, True, True]


def test_dichotomize_median_tie_goes_low():
    high = dichotomize_by_median([1, 2, 3])
    assert not high[1]  # exactly at the median


def test_dichotomize_degenerate_split():
    with pytest.raises(StatsError, match="degenerate median split: all regions on one side"):
        dichotomize_by_median([5, 5, 5])
    with pytest.raises(StatsError, match="at least 2 regions"):
        dichotomize_by_median([5])


# ---------------------------------------------------------------------------
# Moran's I


def _grid_adjacency(rows, cols):
    adjacency = {}
    for r in range(rows):
        for c in range(cols):
            region = f"R{r}_{c}"
            neighbors = set()
            if r > 0:
                neighbors.add(f"R{r - 1}_{c}")
            if r < rows - 1:
                neighbors.add(f"R{r + 1}_{c}")
            if c > 0:
                neighbors.add(f"R{r}_{c - 1}")
            if c < cols - 1:
                neighbors.add(f"R{r}_{c + 1}")
            adjacency[region] = neighbors
    return adjacency


def _grid_weights(rows, cols):
    return SpatialWeights.from_adjacency(_grid_adjacency(rows, cols))


def test_moran_constant_field_errors():
    weights = _grid_weights(2, 2)
    with pytest.raises(StatsError):
        morans_i(np.ones(len(weights.regions)), weights)


@pytest.mark.parametrize(("value", "n"), [(0.1, 3), (1 / 3, 7), (0.1, 7)])
def test_moran_constant_field_errors_where_its_mean_rounds(value, n):
    # the mean of three or seven 0.1s is not 0.1: centred, they are a constant z != 0, whose I would be 1
    chain = {f"R{i}": {f"R{j}" for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}
    with pytest.raises(StatsError, match="constant field"):
        morans_i(np.full(n, value), SpatialWeights.from_adjacency(chain))


def _chain_and_random_edges(rng):
    """A random connected-ish graph of 5 to 59 regions: a chain plus random extra edges."""
    n = int(rng.integers(5, 60))
    adjacency = {f"R{i}": set() for i in range(n)}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        adjacency[f"R{i}"].add(f"R{j}")
        adjacency[f"R{j}"].add(f"R{i}")
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            adjacency[f"R{i}"].add(f"R{j}")
            adjacency[f"R{j}"].add(f"R{i}")
    return adjacency


def _relabelled(values, weights, adjacency, rng):
    """(values, weights) with the regions renamed by a seeded permutation of
    their names, the values gathered in the renamed weights' region order."""
    names = sorted(adjacency)
    rename = dict(zip(names, rng.sample(names, len(names))))
    renamed = SpatialWeights.from_adjacency(
        {rename[region]: {rename[other] for other in others} for region, others in adjacency.items()}
    )
    value_of = {rename[region]: value for region, value in zip(weights.regions, values)}
    return [value_of[region] for region in renamed.regions], renamed


def test_moran_relabelling_leaves_every_reported_float_bit_identical():
    # each sum of the observed statistic is exactly rounded, so region order moves no bit
    rng = np.random.default_rng(47)
    names = random.Random(89)
    for _ in range(40):
        adjacency = _chain_and_random_edges(rng)
        weights = SpatialWeights.from_adjacency(adjacency)
        values = rng.integers(0, 30, size=len(adjacency)).astype(float).tolist()
        result = morans_i(values, weights)
        renamed = morans_i(*_relabelled(values, weights, adjacency, names))
        for name in ("i", "expected_i", "variance", "z_score", "p_value"):
            assert getattr(renamed, name) == getattr(result, name), name


@pytest.mark.parametrize(("low", "high"), [(10.0, 11.0), (4.1, 4.2)])
def test_moran_exact_zero_is_zero_under_every_relabelling(low, high):
    # sum_ij w_ij z_i z_j is exactly 0 here, but its rounded products are not:
    # 1/3 rounds, and the mean of 4.1s and 4.2s rounds, which moves every z by
    # the same amount; the zero rule's bound must count that at first order
    adjacency = {
        "R0": {"R1", "R2", "R4", "R5"}, "R1": {"R0", "R3", "R7"}, "R2": {"R0", "R3", "R5", "R6"},
        "R3": {"R1", "R2", "R4"}, "R4": {"R0", "R3"}, "R5": {"R0", "R2"}, "R6": {"R2"}, "R7": {"R1"},
    }
    weights = SpatialWeights.from_adjacency(adjacency)
    values = [high, low, low, low, high, high, low, high]
    x = [Fraction(v) for v in values]
    z = [v - sum(x) / len(x) for v in x]
    neighbors = neighbor_indices(adjacency, weights.regions)
    assert sum(Fraction(1, len(others)) * z[i] * z[j] for i, others in enumerate(neighbors) for j in others) == 0
    names = random.Random(3)
    for _ in range(10):
        result = morans_i(*_relabelled(values, weights, adjacency, names))
        assert math.copysign(1.0, result.i) == 1.0 and result.i == 0.0


def test_moran_checkerboard_is_minus_one():
    weights = _grid_weights(2, 2)
    assert weights.regions == ("R0_0", "R0_1", "R1_0", "R1_1")
    result = morans_i([1.0, 0.0, 0.0, 1.0], weights)
    assert result.i == pytest.approx(-1.0, abs=1e-12)
    assert result.expected_i == pytest.approx(-1.0 / 3.0)


def test_moran_gradient_is_positive():
    weights = _grid_weights(5, 5)
    values = [float(int(region[1]) + int(region[3])) for region in weights.regions]  # "R{r}_{c}"
    result = morans_i(values, weights)
    assert result.i > 0.0
    assert result.z_score > 0.0


def test_moran_matches_double_sum_oracle_on_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(40):
        adjacency = _chain_and_random_edges(rng)
        weights = SpatialWeights.from_adjacency(adjacency)
        values = rng.normal(size=len(adjacency))
        result = morans_i(values, weights)
        oracle = moran_double_sum(values.tolist(), neighbor_indices(adjacency, weights.regions))
        assert result.i == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_moran_isolated_regions_flagged_and_excluded():
    adjacency = {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}, "D": set()}
    weights = SpatialWeights.from_adjacency(adjacency)
    assert weights.isolated == ("D",)
    assert "D" not in weights.regions
    assert weights.regions == ("A", "B", "C")
    result = morans_i([1.0, 2.0, 4.0], weights)
    assert result.n == 3


def test_moran_analytic_moments_match_permutation_distribution():
    # the randomization variance IS the permutation variance; simulate it
    rng = np.random.default_rng(53)
    adjacency = _grid_adjacency(5, 5)
    weights = SpatialWeights.from_adjacency(adjacency)
    values = rng.gamma(2.0, 2.0, size=25)
    result = morans_i(values, weights)

    w = dense_weights(adjacency, weights)
    n = len(weights.regions)
    s0 = w.sum()
    z = values - values.mean()
    denom = float(z @ z)
    sims = np.empty(20000)
    for k in range(sims.size):
        perm = rng.permutation(z)
        sims[k] = (n / s0) * float(perm @ (w @ perm)) / denom
    assert sims.mean() == pytest.approx(result.expected_i, abs=5e-3)
    assert sims.var() == pytest.approx(result.variance, rel=0.05)


def _random_adjacency(rng, n):
    """A chain plus n random edges, each listed from both ends; none a self-loop."""
    adjacency = {f"R{i:02d}": set() for i in range(n)}
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    edges += [tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(n)]
    for i, j in edges:
        if i != j:
            adjacency[f"R{i:02d}"].add(f"R{j:02d}")
            adjacency[f"R{j:02d}"].add(f"R{i:02d}")
    return adjacency


def test_moran_matches_dense_reference_on_random_graphs():
    rng = np.random.default_rng(83)
    with_isolated = 0
    for trial in range(60):
        n = int(rng.integers(6, 50))
        adjacency = _random_adjacency(rng, n)
        include = None
        if trial % 2 == 1:
            include = sorted(r for r in adjacency if rng.random() < 0.6)
        weights = SpatialWeights.from_adjacency(adjacency, include=include)
        with_isolated += bool(weights.isolated)
        if len(weights.regions) < 4:
            continue
        # each pair once, sorted, weighing w_ij + w_ji
        w, n = dense_weights(adjacency, weights), len(weights.regions)
        assert (weights.first < weights.second).all()
        assert (np.diff(weights.first * n + weights.second) > 0).all()
        pairs = np.zeros((n, n))
        pairs[weights.first, weights.second] = weights.pair_weights
        assert pairs.tolist() == np.triu(w + w.T, 1).tolist()
        x = rng.normal(size=n)
        result = morans_i(x, weights, permutations=99, seed=[5, trial])
        oracle = dense_moran(x, w)
        for name in ("i", "variance", "z_score"):
            assert getattr(result, name) == pytest.approx(oracle[name], rel=1e-12, abs=1e-12)
        assert weights.sums == pytest.approx((oracle["s0"], oracle["s1"], oracle["s2"]), rel=1e-12)
        # a shuffle that maps the field onto a symmetry of the graph ties the
        # observed I exactly, which the dense oracle's rounded I may not
        exact_p, _ = exact_moran_permutation_p(x.tolist(), neighbor_indices(adjacency, weights.regions), 99, [5, trial])
        assert result.permutation_p == float(exact_p)
    assert with_isolated > 0


def test_moran_weights_exclude_a_region_left_without_neighbors():
    # A's only neighbor, B, is not included; C, D and E form a chain
    adjacency = {"A": {"B"}, "B": {"A", "C"}, "C": {"B", "D"}, "D": {"C", "E"}, "E": {"D"}}
    weights = SpatialWeights.from_adjacency(adjacency, include=["A", "C", "D", "E"])
    assert weights.isolated == ("A",)
    assert weights.regions == ("C", "D", "E")
    regions = np.array(weights.regions)
    pairs = list(zip(regions[weights.first].tolist(), regions[weights.second].tolist()))
    assert pairs == [("C", "D"), ("D", "E")]
    assert weights.pair_weights.tolist() == [1.5, 1.5]
    assert weights.sums == (3.0, 4.5, 13.5)
    assert dense_weights(adjacency, weights).tolist() == [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
    assert morans_i([1.0, 2.0, 4.0], weights).n == 3


def test_moran_permutation_p_counts_exact_ties():
    # whole-day fields tie often: 61 of these 999 shuffles tie the observed I exactly
    n = 40
    ring = {f"R{i:02d}": {f"R{(i - 1) % n:02d}", f"R{(i + 1) % n:02d}"} for i in range(n)}
    weights = SpatialWeights.from_adjacency(ring)
    days = [int(d) for d in np.random.default_rng(0).integers(0, 3, size=n)]
    neighbor_indices = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    exact_p, ties = exact_moran_permutation_p(days, neighbor_indices, permutations=999, seed=1)
    assert (exact_p, ties) == (Fraction(409, 1000), 61)
    assert weights.regions == tuple(f"R{i:02d}" for i in range(n))
    result = morans_i([float(d) for d in days], weights, permutations=999, seed=1)
    assert result.permutation_p == float(exact_p)


def test_moran_permutation_p_above_ten_thousand_pairs():
    # 28,560 pairs, where a BLAS dot product of one shuffle's products would run threaded;
    # written down from runs of the kernel that summed them with `@`
    weights = SpatialWeights.from_adjacency(_grid_adjacency(120, 120))
    assert len(weights.first) == 2 * 120 * 119
    days = np.random.default_rng(2).integers(0, 60, size=len(weights.regions)).astype(float)
    assert len(np.unique(days)) == 60
    p_values = [morans_i(days, weights, permutations=99, seed=seed).permutation_p for seed in (0, 1)]
    assert p_values == [0.11, 0.06]


def test_moran_memory_is_linear_in_edges():
    # 20,164 regions: the dense matrix alone would take 8 n^2 B = 3.2 GB
    weights = _grid_weights(142, 142)
    x = np.random.default_rng(79).normal(size=len(weights.regions))
    tracemalloc.start()
    try:
        result = morans_i(x, weights, permutations=99, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n == 142 * 142
    assert 0.0 < result.permutation_p <= 1.0
    assert peak < 64 * 2**20


def test_moran_permutation_p_range_and_determinism():
    rng = np.random.default_rng(59)
    weights = _grid_weights(4, 4)
    values = rng.normal(size=16)
    a = morans_i(values, weights, permutations=199, seed=11)
    b = morans_i(values, weights, permutations=199, seed=11)
    assert a.permutation_p == b.permutation_p
    assert 0.0 < a.permutation_p <= 1.0


def test_moran_needs_three_regions():
    weights = SpatialWeights.from_adjacency({"A": {"B"}, "B": {"A"}})
    with pytest.raises(StatsError):
        morans_i([1.0, 2.0], weights)


@pytest.mark.parametrize("length", [0, 2, 4])
def test_moran_refuses_values_not_one_per_weighted_region(length):
    weights = SpatialWeights.from_adjacency({"A": {"B"}, "B": {"A", "C"}, "C": {"B"}})
    with pytest.raises(StatsError, match=f"one value per weighted region: 3, got {length}"):
        morans_i(np.arange(length, dtype=float), weights)


# ---------------------------------------------------------------------------
# Gini / Lorenz


def test_gini_documented_values():
    assert gini([3.0, 3.0, 3.0, 3.0]).gini == 0.0
    assert gini([0.0, 1.0]).gini == 0.5
    assert gini([1.0, 2.0, 3.0, 4.0]).gini == 0.25


def test_gini_matches_pairwise_oracle():
    rng = random.Random(61)
    for _ in range(100):
        values = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 40))]
        assert gini(values).gini == pytest.approx(gini_pairwise(values), rel=1e-12)


def test_gini_scale_invariance():
    rng = random.Random(67)
    values = [rng.uniform(0, 10) for _ in range(30)]
    base = gini(values).gini
    for scale in (1e-6, 0.5, 3.0, 1e6):
        assert gini([scale * v for v in values]).gini == pytest.approx(base, abs=1e-12)


def test_gini_bounds():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randrange(2, 30)
        values = [rng.uniform(0, 50) for _ in range(n)]
        if sum(values) == 0:
            continue
        g = gini(values).gini
        assert 0.0 <= g <= 1.0 - 1.0 / n + 1e-12


def test_gini_rejects_bad_input():
    with pytest.raises(StatsError):
        gini([])
    with pytest.raises(StatsError):
        gini([-1.0, 2.0])
    with pytest.raises(StatsError):
        gini([0.0, 0.0])


def test_lorenz_curve_shape():
    rng = random.Random(73)
    for _ in range(50):
        values = [rng.uniform(0, 20) for _ in range(rng.randrange(2, 30))]
        curve = gini(values)
        points = curve.points
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        for (p0, s0), (p1, s1) in zip(points, points[1:]):
            assert p1 >= p0
            assert s1 >= s0 - 1e-15
            assert s1 <= p1 + 1e-12  # on or below the diagonal
        # convexity: second differences of the share coordinate
        shares = [s for _, s in points]
        diffs = [b - a for a, b in zip(shares, shares[1:])]
        for d0, d1 in zip(diffs, diffs[1:]):
            assert d1 >= d0 - 1e-12
