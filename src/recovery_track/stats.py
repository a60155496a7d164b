"""Exploratory statistics: global Moran's I, median splits, 2x2 chi-square,
and the Gini index with its Lorenz curve.

Moran's I uses row-standardized binary contiguity weights built from the
undirected adjacency, with their sums computed once, and reads its values as
one float array in the weights' region order. Inference is analytical under
the randomization assumption, with an optional seeded permutation p-value as
a cross-check. Every sum of the observed statistic is exactly rounded
(math.fsum), so region names move no bit of it, and a numerator within its
rounding bound of 0 is 0. The shuffles' cross-products are plain sums, and
by design a seeded permutation p depends on region order: it shuffles values
held in that order.
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

    Built from an undirected adjacency without self-loops, as
    ingest.parse_adjacency reads it: every edge listed from both ends. A
    region none of whose neighbors is in `include` is excluded from the
    statistic and surfaced in `isolated`; no edge of a region left with
    neighbors points at one.

    The weights are held only as region pairs (`first` < `second`, indices
    into `regions`), sorted: pair k of neighbors i < j weighs `pair_weights[k]`
    = w_ij + w_ji = 1/k_i + 1/k_j, for regions of k_i and k_j neighbors. So
    sum_ij w_ij z_i z_j = sum_k pair_weights[k] z[first[k]] z[second[k]].

    `sums` holds the Cliff-Ord weight sums (S0, S1, S2): S0 = sum_ij w_ij =
    sum_k c_k over the pair weights c; S1 = 1/2 sum_ij (w_ij + w_ji)^2 = c . c;
    and S2 = sum_i (w_i. + w_.i)^2, w_i. + w_.i summing c over i's pairs in
    ascending order. Each is exactly rounded, so no sum depends on the region
    order.
    """

    regions: tuple[str, ...]
    isolated: tuple[str, ...]
    first: np.ndarray = field(repr=False, compare=False)
    second: np.ndarray = field(repr=False, compare=False)
    pair_weights: np.ndarray = field(repr=False, compare=False)
    sums: tuple[float, float, float] = field(repr=False, compare=False)

    @classmethod
    def from_adjacency(cls, adjacency: dict, include=None) -> "SpatialWeights":
        universe = set(adjacency if include is None else include)
        within = {region: universe.intersection(adjacency.get(region, ())) for region in universe}
        regions = tuple(sorted(region for region, others in within.items() if others))
        isolated = tuple(sorted(region for region, others in within.items() if not others))
        index = {region: i for i, region in enumerate(regions)}
        degrees = np.array([len(within[region]) for region in regions], dtype=np.int64)
        columns = np.fromiter(
            (index[other] for region in regions for other in within[region]), dtype=np.int64, count=int(degrees.sum())
        )
        del within, index  # the sets go before the arrays are built
        rows = np.repeat(np.arange(len(regions), dtype=np.int64), degrees)
        inverse = 1.0 / degrees
        edge_weights = inverse[rows] + inverse[columns]  # w_ij + w_ji, from either end
        # each pair i < j once, from its first region's edges
        keep = rows < columns
        first, second, c = rows[keep], columns[keep], edge_weights[keep]
        order = np.lexsort((second, first))
        first, second, c = first[order], second[order], c[order]
        # w_i. + w_.i: the weights of region i's pairs, in ascending order
        at_region = np.add.reduceat(edge_weights[np.lexsort((edge_weights, rows))], np.cumsum(degrees) - degrees)
        return cls(regions, isolated, first, second, c, (math.fsum(c), math.fsum(c * c), math.fsum(at_region**2)))


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


def _spatial_numerator(z: np.ndarray, weights: SpatialWeights) -> float:
    """sum_ij w_ij z_i z_j, as one product per region pair, reduced by numpy
    itself in the calling thread. Not by `@`: above about 10,000 elements
    OpenBLAS threads its ddot, and those threads spin beside a forked child
    that computes other fields (pipeline._stage_stats)."""
    return float(np.einsum("i,i,i->", z[weights.first], z[weights.second], weights.pair_weights))


def morans_i(
    values,
    weights: SpatialWeights,
    permutations: int = 0,
    seed: int = 0,
) -> MoranResult:
    """Global Moran's I of `values`, one float per region of `weights.regions`,
    in that order, with analytical randomization-assumption inference.

    I = (n / S0) * (sum_ij w_ij z_i z_j) / (sum_i z_i^2), z_i = x_i - mean(x),
    with the mean, both sums and sum_i z_i^4 exactly rounded (fsum), so the
    region order moves no bit. A constant field is refused.

    The zero rule: the numerator num is 0 where |num| <= 16u sum_k c_k a_a a_b
    (u = 2**-53, a_i = |z_i| + |mean|, k over the pairs of regions a and b, of
    weight c_k), since an exact numerator N of 0 rounds to no larger |num|.
    Three roundings part num from N (exact values written Z and C):
    - z_i once, and the mean it subtracts twice (fsum, then / n), so |z_i -
      Z_i| <= u|z_i| + 3u|mean| <= 3u a_i and |z_a z_b - Z_a Z_b| <= 6u a_a a_b;
    - each pair weight twice (1/k, then w_ij + w_ji): |c_k - C_k| <= 3u c_k;
    - each product c_k z_a z_b twice, 2u, and their fsum once, which is of
      second order where N = 0. So |num| <= 11u sum_k c_k a_a a_b to first
      order; 16u leaves room for higher orders and the bound's own rounding.

    The z-score uses E[I] = -1/(n-1) and the randomization variance; the
    two-sided p comes from the normal approximation. `permutations > 0` adds
    a seeded permutation p-value: the fraction of shuffles at least as far
    from E[I] as the observed I, where a shuffle that ties it exactly counts.
    Each shuffle is one `rng.permutation(z)` call, and its cross-product one
    _spatial_numerator call, which numpy reduces in this thread with no BLAS
    call: the stats stage computes two fields in a forked child beside this
    process, and OpenBLAS threads its ddot above about 10,000 elements,
    threads that would spin beside the child. Everything is computed from
    the sparse weights, in memory linear in the number of region pairs.
    """
    n = len(weights.regions)
    if n < 3:
        raise StatsError(f"Moran's I needs at least 3 non-isolated regions, got {n}")
    x = np.asarray(values, dtype=float)
    if x.shape != (n,):
        raise StatsError(f"Moran's I needs one value per weighted region: {n}, got {x.size}")
    mean = math.fsum(x) / n
    z = x - mean
    denom = math.fsum(z * z)
    # a constant x whose mean rounds leaves a constant z, not 0; a sum z^2 can underflow
    if x.min() == x.max() or denom == 0.0:
        raise StatsError("constant field: Moran's I is undefined for zero variance")

    s0, s1, s2 = weights.sums
    first, second, c = weights.first, weights.second, weights.pair_weights
    num = math.fsum(z[first] * z[second] * c)
    a = np.abs(z) + abs(mean)
    if abs(num) <= 16 * 2.0**-53 * math.fsum(a[first] * a[second] * c):  # the zero rule
        num = 0.0
    i_value = (n / s0) * num / denom

    expected = -1.0 / (n - 1)
    b2 = n * math.fsum(z**4) / denom**2
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
        nums = np.fromiter(
            (_spatial_numerator(rng.permutation(z), weights) for _ in range(permutations)),
            float,
            count=permutations,
        )
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
