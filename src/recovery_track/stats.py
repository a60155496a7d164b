"""Exploratory statistics: global Moran's I, median splits, 2x2 chi-square,
and the Gini index with its Lorenz curve.

Moran's I uses row-standardized binary contiguity weights built from the
adjacency edge list. Inference is analytical under the randomization
assumption, with an optional seeded permutation p-value as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StatsError


# --------------------------------------------------------------------------
# spatial weights


@dataclass(frozen=True)
class SpatialWeights:
    """Row-standardized contiguity weights over a fixed region ordering.

    Regions left without neighbors (after any subsetting) are excluded from
    the statistic and surfaced in `isolated`, and so are the edges that point
    at them; with an asymmetric adjacency that can leave further regions
    without neighbors, which are excluded in turn.

    The weights are held as an edge list in `regions` index order, sorted by
    row and then column: edge e runs from region `rows[e]` to its neighbor
    `columns[e]` with weight `edge_weights[e]` (1/k for a region with k
    neighbors). Memory is linear in the number of edges.
    """

    regions: tuple[str, ...]
    neighbors: dict
    isolated: tuple[str, ...]
    rows: np.ndarray = field(repr=False, compare=False)
    columns: np.ndarray = field(repr=False, compare=False)
    edge_weights: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_adjacency(cls, adjacency: dict, include=None) -> "SpatialWeights":
        if include is None:
            universe = set(adjacency)
            for others in adjacency.values():
                universe.update(others)
        else:
            universe = set(include)
        within = {region: set(adjacency.get(region, ())) & universe for region in universe}
        isolated = set()
        while empty := {region for region, others in within.items() if not others}:
            isolated |= empty
            for region in empty:
                del within[region]
            for others in within.values():
                if not others.isdisjoint(empty):
                    others -= empty

        regions = tuple(sorted(within))
        neighbors = {region: tuple(sorted(within[region])) for region in regions}
        index = {region: i for i, region in enumerate(regions)}
        degrees = np.array([len(neighbors[region]) for region in regions], dtype=np.int64)
        columns = np.fromiter(
            (index[other] for region in regions for other in neighbors[region]),
            dtype=np.int64,
            count=int(degrees.sum()),
        )
        return cls(
            regions=regions,
            neighbors=neighbors,
            isolated=tuple(sorted(isolated)),
            rows=np.repeat(np.arange(len(regions), dtype=np.int64), degrees),
            columns=columns,
            edge_weights=np.repeat(1.0 / degrees, degrees),
        )

    def sums(self) -> tuple[float, float, float]:
        """The Cliff-Ord weight sums (S0, S1, S2), from the edge list.

        S0 = sum_ij w_ij; S1 = 1/2 sum_ij (w_ij + w_ji)^2, which is
        sum_e w_e^2 + sum_e w_e w_reverse(e) over edges e = (i, j) with
        w_reverse(e) = w_ji (0 when j does not list i); S2 = sum_i (w_i. + w_.i)^2.
        """
        n = len(self.regions)
        rows, columns, w = self.rows, self.columns, self.edge_weights
        # edges are sorted by row and then column, so the codes i * n + j ascend
        codes = rows * n + columns
        reverse = columns * n + rows
        at = np.searchsorted(codes, reverse)
        found = np.append(codes, -1)[at] == reverse
        w_reverse = np.where(found, np.append(w, 0.0)[at], 0.0)
        row_plus_col = np.bincount(rows, w, minlength=n) + np.bincount(columns, w, minlength=n)
        return float(w.sum()), float(w @ w + w @ w_reverse), float((row_plus_col**2).sum())


# --------------------------------------------------------------------------
# Moran's I


def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class MoranResult:
    i: float
    expected_i: float
    variance: float
    z_score: float
    p_value: float
    n: int
    permutation_p: float | None = None


# Permuted fields per block: at most this many gathered neighbor values (8 B
# each), and at least one field. Temporaries above glibc's default 128 kB mmap
# threshold are mapped afresh for every block, and their page faults made
# larger blocks about 1.6x slower on 2500 regions.
_BLOCK_CELLS = 1 << 14


def _spatial_numerators(z: np.ndarray, weights: SpatialWeights) -> np.ndarray:
    """sum_ij w_ij z_i z_j for each row of the (fields, n) array `z`.

    Each region's spatial lag is the weighted sum of its gathered neighbor
    values. Every row goes through the same operations in the same order
    whatever the number of rows, so equal fields give equal numerators.
    """
    n_fields, n = z.shape
    gathered = np.take(z, weights.columns, axis=1)
    gathered *= weights.edge_weights
    bins = (np.arange(0, n_fields * n, n)[:, None] + weights.rows).ravel()
    lag = np.bincount(bins, gathered.ravel(), minlength=n_fields * n).reshape(n_fields, n)
    return (z * lag).sum(axis=1)


def morans_i(
    values: dict,
    weights: SpatialWeights,
    permutations: int = 0,
    seed: int = 0,
) -> MoranResult:
    """Global Moran's I with analytical randomization-assumption inference.

    I = (n / S0) * (sum_ij w_ij z_i z_j) / (sum_i z_i^2), z_i = x_i - mean(x).
    The z-score uses E[I] = -1/(n-1) and the randomization variance; the
    two-sided p comes from the normal approximation. `permutations > 0` adds
    a seeded permutation p-value: the fraction of shuffles at least as far
    from E[I] as the observed I, where a shuffle that ties it exactly counts.
    Everything is computed from the sparse weights, in memory linear in the
    number of edges.
    """
    regions = weights.regions
    n = len(regions)
    if n < 3:
        raise StatsError(f"Moran's I needs at least 3 non-isolated regions, got {n}")
    missing = [r for r in regions if r not in values]
    if missing:
        raise StatsError(f"values missing for regions: {missing[:5]}")

    x = np.array([float(values[r]) for r in regions])
    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise StatsError("constant field: Moran's I is undefined for zero variance")

    s0, s1, s2 = weights.sums()
    num = float(_spatial_numerators(z[np.newaxis], weights)[0])
    i_value = (n / s0) * num / denom

    expected = -1.0 / (n - 1)
    b2 = n * float((z**4).sum()) / denom**2
    if n > 3:
        var = (
            n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0)
            - b2 * ((n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0)
        ) / ((n - 1) * (n - 2) * (n - 3) * s0 * s0) - expected * expected
    else:
        var = float("nan")  # the randomization variance needs n >= 4
    if math.isfinite(var) and var > 0:
        z_score = (i_value - expected) / math.sqrt(var)
        p_value = normal_two_sided_p(z_score)
    else:
        z_score = float("nan")
        p_value = float("nan")

    permutation_p = None
    if permutations > 0:
        rng = np.random.default_rng(seed)
        block = max(1, _BLOCK_CELLS // len(weights.columns))
        nums = np.empty(permutations)
        for start in range(0, permutations, block):
            shuffled = np.array([rng.permutation(z) for _ in range(min(block, permutations - start))])
            nums[start : start + len(shuffled)] = _spatial_numerators(shuffled, weights)
        i_perm = (n / s0) * nums / denom
        # A shuffle that ties the observed I in exact arithmetic (common with
        # whole-day durations) may round to either side of it, so a deviation
        # within tol of the observed one counts as extreme. Each I is a ratio
        # of sums of n products, whose rounding error is of order n ulp: far
        # below tol, which is about 4500 n ulp when |I| <= 1.
        tol = 1e-12 * n * max(1.0, abs(i_value))
        observed_dev = abs(i_value - expected)
        extreme = int(np.count_nonzero(np.abs(i_perm - expected) >= observed_dev - tol))
        permutation_p = (extreme + 1) / (permutations + 1)

    return MoranResult(
        i=i_value,
        expected_i=expected,
        variance=var,
        z_score=z_score,
        p_value=p_value,
        n=n,
        permutation_p=permutation_p,
    )


# --------------------------------------------------------------------------
# median dichotomization and chi-square


def dichotomize_by_median(values) -> np.ndarray:
    """True where the value exceeds the median (ties go low); a one-sided split raises."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise StatsError(f"median split needs at least 2 regions, got {len(values)}")
    high = values > np.quantile(values, 0.5)
    if high.all() or not high.any():
        raise StatsError("degenerate median split: all regions on one side")
    return high


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    table: tuple  # ((n00, n01), (n10, n11)) with rows = first labeling


def chi_square_from_table(table, yates: bool = False) -> ChiSquareResult:
    """Pearson chi-square for a 2x2 count table, dof = 1.

    With one degree of freedom X^2 is the square of a standard normal, so
    P(X^2 >= x) = erfc(sqrt(x / 2)) exactly.
    """
    (a, b), (c, d) = table
    for cell in (a, b, c, d):
        if cell < 0:
            raise StatsError(f"negative cell count {cell}")
    n = a + b + c + d
    margins = (a + b, c + d, a + c, b + d)
    if any(m == 0 for m in margins):
        raise StatsError("degenerate table: a row or column margin is zero")
    det = a * d - b * c
    if yates:
        adj = max(0.0, abs(det) - n / 2.0)
        statistic = n * adj * adj / math.prod(margins)
    else:
        statistic = n * det * det / math.prod(margins)
    statistic = float(statistic)
    return ChiSquareResult(
        statistic=statistic,
        dof=1,
        p_value=math.erfc(math.sqrt(statistic / 2.0)),
        table=((a, b), (c, d)),
    )


def chi_square_2x2(group_a, group_b, yates: bool = False) -> ChiSquareResult:
    """Association between two boolean labelings of the same regions, in one order."""
    group_a = np.asarray(group_a, dtype=bool)
    group_b = np.asarray(group_b, dtype=bool)
    if group_a.shape != group_b.shape:
        raise StatsError(f"labelings differ in length: {group_a.size} and {group_b.size}")
    if not group_a.size:
        raise StatsError("empty labelings")
    n00, n01, n10, n11 = np.bincount(2 * group_a + group_b, minlength=4).tolist()
    return chi_square_from_table(((n00, n01), (n10, n11)), yates=yates)


# --------------------------------------------------------------------------
# Gini index and Lorenz curve


@dataclass(frozen=True)
class LorenzCurve:
    points: tuple  # (population share, metric share) pairs, (0,0) .. (1,1)
    gini: float
    n: int


def gini(values) -> LorenzCurve:
    """Gini index sum_ij |x_i - x_j| / (2 n^2 mean) plus the Lorenz points.

    Computed from the sorted values as sum_i (2i - n - 1) x_(i) / (n^2 mean),
    which is the same quantity without the quadratic pairwise loop.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 0:
        raise StatsError("gini of an empty collection")
    if any(v < 0 for v in data):
        raise StatsError("gini requires nonnegative values")
    total = math.fsum(data)
    if total <= 0:
        raise StatsError("gini requires a positive mean")
    gini_value = math.fsum((2 * i - n - 1) * v for i, v in enumerate(data, start=1)) / (n * total)

    shares = np.minimum(np.cumsum(data) / total, 1.0)
    shares[-1] = 1.0  # cumulative rounding must not move the endpoint
    points = [(0.0, 0.0)]
    points.extend((i / n, float(shares[i - 1])) for i in range(1, n + 1))
    return LorenzCurve(points=tuple(points), gini=gini_value, n=n)
