"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit loops,
no shared code with src/) so a bug in the package cannot hide in its oracle.

Three of them, moving_average, percent_change and weighted_measurement, work
one series or one day at a time but mirror the kernels' arithmetic on purpose
(the same cumulative sums, divisions and math.fsum totals), so the change
matrix and the daily series can be checked against them bit for bit.

parse_activity_rows is the row-by-row reader of trips.csv and transactions.csv
through the csv module; the package's reader must give the same columns,
counts and per-line messages for every file. It shares only the result and
error types with the package.

baseline_mean and integrated_mean total one row at a time with math.fsum;
the package's vectorised exact sums must equal them bit for bit.

analytic_recovery_day is the exact-rational recovery day of synth's linear
ramp, which the generator's scanned truth must match. smooth_truncated is
synth's truth smoothing one window at a time, which its sliding windows must
match bit for bit.
"""

from __future__ import annotations

import csv
import math
import re
from datetime import date
from fractions import Fraction

import numpy as np

from recovery_track.aggregate import CATEGORIES
from recovery_track.errors import ParseError, ScenarioError
from recovery_track.ingest import Activity, ParseResult
from recovery_track.milestones import DEFAULT_RUN_LENGTH


def activity_from_rows(rows):
    """Activity columns of (day index, entity name, code name, value) rows."""
    rows = list(rows)
    entities = tuple(sorted({row[1] for row in rows}))
    codes = tuple(sorted({row[2] for row in rows}))
    pairs = sorted({(row[1], row[2]) for row in rows})
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    return Activity(
        entities=entities,
        codes=codes,
        pair_entity=np.array([entities.index(entity) for entity, _ in pairs], dtype=np.int32),
        pair_code=np.array([codes.index(code) for _, code in pairs], dtype=np.int32),
        day=np.array([row[0] for row in rows], dtype=np.int32),
        pair=np.array([pair_index[row[1], row[2]] for row in rows], dtype=np.int32),
        value=np.array([row[3] for row in rows], dtype=np.float64),
    )


def series_by_key(series_set):
    """{key: its row of values} of a SeriesSet."""
    return dict(zip(series_set.key_list, series_set.values))


def trip_count(text):
    """A trip count as int() reads it, as a float; ValueError with the row's message."""
    try:
        count = int(text)
    except ValueError:
        raise ValueError(f"trip_count {text!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"negative trip_count {count}")
    try:
        return float(count)
    except OverflowError:
        raise ValueError(f"trip_count {text!r} is too large") from None


def amount(text):
    """A finite, nonnegative amount; ValueError with the row's message."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"amount {text!r} is not a number")
    if value < 0:
        raise ValueError(f"negative amount {value}")
    return value


def parse_activity_rows(path, window, header, parse_value):
    """trips.csv or transactions.csv read one csv-module row at a time.

    Returns a ParseResult of activity_from_rows columns, or raises the
    ParseError the package raises: every bad row's (line, message) in line
    order, a row numbered by the line it starts on, with the accepted,
    dropped and total row counts.
    """
    errors, rows = [], []
    accepted = dropped = total = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise ParseError(path, [(1, "empty file, missing header row")])
        if [h.strip() for h in first] != header:
            raise ParseError(path, [(1, f"header {first!r} does not match expected {header!r}")])
        read = reader.line_num
        for row in reader:
            line_no, read = read + 1, reader.line_num  # the line the row starts on
            if not row:
                continue
            total += 1
            if len(row) != len(header):
                errors.append((line_no, f"expected {len(header)} fields, got {len(row)}"))
                continue
            raw_date, entity, code, raw_value = (f.strip() for f in row)
            try:
                if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", raw_date):
                    raise ValueError(raw_date)  # no other ISO form, whatever the Python
                day = date.fromisoformat(raw_date)
            except ValueError:
                errors.append((line_no, f"bad date {raw_date!r}"))
                continue
            if not entity:
                errors.append((line_no, f"empty {header[1]}"))
                continue
            if not code:
                errors.append((line_no, f"empty {header[2]}"))
                continue
            try:
                value = parse_value(raw_value)
            except ValueError as exc:
                errors.append((line_no, str(exc)))
                continue
            if not window.start <= day <= window.end:
                dropped += 1
                continue
            accepted += 1
            rows.append(((day - window.start).days, entity, code, value))
    if errors:
        raise ParseError(path, errors, accepted=accepted, dropped=dropped, total_rows=total)
    return ParseResult(
        records=activity_from_rows(rows), accepted=accepted, dropped=dropped, total_rows=total,
    )


def brute_force_recovery_day(changes, d0, horizon, threshold=-0.1, run_length=3):
    """O(n * run_length) scan: first index ending a fully qualifying run."""
    for end in range(d0 + run_length - 1, d0 + horizon + 1):
        ok = True
        for back in range(run_length):
            value = changes[end - back]
            if math.isnan(value) or value < threshold or end - back < d0:
                ok = False
                break
        if ok:
            return end
    return None


def analytic_recovery_day(drop, ramp, recovered_fraction=0.9, run_length=DEFAULT_RUN_LENGTH):
    """Recovery-day offset for synth's raw linear ramp, in exact rational arithmetic.

    First day the curve reaches the recovered fraction, plus run_length - 1
    qualifying days (the ramp never dips again). Arguments are read as decimal
    literals (0.9 means 9/10, not the nearest binary float) so boundary hits
    land exactly.
    """
    drop_frac = Fraction(str(drop))
    gap = 1 - Fraction(str(recovered_fraction))
    if drop_frac <= gap:
        return run_length - 1
    if drop_frac > 1:
        raise ScenarioError(f"drop must lie in [0, 1], got {drop}")
    first = math.ceil(ramp * (drop_frac - gap) / drop_frac)
    return first + run_length - 1


def moran_double_sum(values, neighbor_indices):
    """Row-standardized global Moran's I via the explicit double sum.

    `values` is a list of floats; `neighbor_indices[i]` lists the neighbors of
    observation i (every observation must have at least one).
    """
    n = len(values)
    mean = sum(values) / n
    z = [v - mean for v in values]
    denom = sum(zi * zi for zi in z)
    num = 0.0
    s0 = 0.0
    for i in range(n):
        k = len(neighbor_indices[i])
        for j in neighbor_indices[i]:
            w = 1.0 / k
            num += w * z[i] * z[j]
            s0 += w
    return (n / s0) * num / denom


def gini_pairwise(values):
    """Mean absolute difference over twice the mean: the O(n^2) definition."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    total = 0.0
    for a in values:
        for b in values:
            total += abs(a - b)
    return total / (2.0 * n * n * mean)


def quantile_linear(values, p):
    """Linear interpolation between order statistics, independent of numpy."""
    data = sorted(values)
    n = len(data)
    if n == 1:
        return data[0]
    h = (n - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return data[lo] + (h - lo) * (data[hi] - data[lo])


def seven_term_mean(values, index, half_width=3):
    """Direct truncated-window mean for one position."""
    lo = max(0, index - half_width)
    hi = min(len(values) - 1, index + half_width)
    window = values[lo : hi + 1]
    return sum(window) / len(window)


def smooth_truncated(values, half_width=3):
    """Centered truncated-window mean of one series: each window's math.fsum
    over its length, one window at a time."""
    n = len(values)
    out = []
    for i in range(n):
        window = values[max(0, i - half_width) : min(n, i + half_width + 1)]
        out.append(math.fsum(window) / len(window))
    return out


def moving_average(values, half_width=3, boundary="truncate"):
    """Centered moving average of one series, one day at a time.

    `truncate` averages whatever days exist near the edges; `skip` leaves the
    edge days NaN.
    """
    n = len(values)
    if half_width == 0 or n == 0:
        return np.array(values, dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=float)))
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half_width)
        hi = min(n - 1, i + half_width)
        out[i] = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    if boundary == "skip":
        out[:half_width] = np.nan
        out[n - half_width :] = np.nan
    return out


def percent_change(smoothed, baseline):
    """(smoothed - baseline) / baseline."""
    return (smoothed - baseline) / baseline


def baseline_mean(days, n_days):
    """One series' baseline: the math.fsum of its baseline days over their count."""
    return math.fsum(days) / n_days


def integrated_mean(normalized):
    """One region's integrated metric: the math.fsum of its four normalized values over 4."""
    return math.fsum(normalized) / 4.0


def weighted_measurement(values, taxonomy):
    """One day's weighted sum of per-type totals: math.fsum of weight * value."""
    weights = taxonomy_entries(taxonomy)
    return math.fsum(weights[code][1] * values[code] for code in sorted(values))


def taxonomy_entries(taxonomy):
    """{code: (category, weight fraction)} of a ServiceTaxonomy, read off its three fields."""
    return {
        code: (category, weight)
        for category, rows in zip(CATEGORIES, taxonomy.rows)
        for code, weight in zip(taxonomy.codes[rows], taxonomy.weights[rows].tolist())
    }


def neighbor_indices(adjacency, regions):
    """For each of `regions`, the ascending indices in `regions` of its neighbors
    in the raw `adjacency` ({region: neighbor names}) that are among `regions`."""
    index = {region: i for i, region in enumerate(regions)}
    return [sorted(index[other] for other in adjacency.get(region, ()) if other in index) for region in regions]


def dense_weights(adjacency, weights):
    """Dense row-standardized n x n matrix of a SpatialWeights, in `regions` order.

    Built from the raw `adjacency` the weights were made from, restricted to
    `weights.regions`, not from the sparse arrays the package computes with.
    """
    n = len(weights.regions)
    w = np.zeros((n, n))
    for i, others in enumerate(neighbor_indices(adjacency, weights.regions)):
        w[i, others] = 1.0 / len(others)
    return w


def dense_moran(values, w):
    """Moran's I with randomization moments from a dense weight matrix.

    Returns a dict with i, variance, z_score, s0, s1, s2. Permutation
    p-values are checked against exact_moran_permutation_p, which counts
    shuffles that tie the observed I exactly.
    """
    n = len(values)
    x = np.asarray(values, dtype=float)
    z = x - x.mean()
    denom = float(z @ z)
    s0 = float(w.sum())
    i_value = (n / s0) * float(z @ (w @ z)) / denom
    expected = -1.0 / (n - 1)
    s1 = 0.5 * float(((w + w.T) ** 2).sum())
    s2 = float(((w.sum(axis=1) + w.sum(axis=0)) ** 2).sum())
    b2 = n * float((z**4).sum()) / denom**2
    variance = (
        n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0)
        - b2 * ((n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0)
    ) / ((n - 1) * (n - 2) * (n - 3) * s0 * s0) - expected * expected
    return {
        "i": i_value,
        "variance": variance,
        "z_score": (i_value - expected) / math.sqrt(variance),
        "s0": s0,
        "s1": s1,
        "s2": s2,
    }


def exact_moran_permutation_p(values, neighbor_indices, permutations, seed):
    """Permutation p-value of row-standardized Moran's I in rational arithmetic.

    `values` are integers (or Fractions); `neighbor_indices[i]` lists the
    neighbors of observation i. Shuffles follow numpy's
    `default_rng(seed).permutation`, one call per shuffle, applied to the
    positions. Returns (p, number of shuffles whose |I - E[I]| exactly ties
    the observed one).
    """
    n = len(values)
    x = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in x))
    whole = [int(v * scale) for v in x]
    total = sum(whole)
    # z scaled by n * scale, to whole numbers: I is the same for any positive scale
    z = [n * v - total for v in whole]
    denom = sum(v * v for v in z)
    s0 = sum(Fraction(1, len(others)) * len(others) for others in neighbor_indices)
    expected = Fraction(-1, n - 1)

    def deviation(field):
        num = sum(
            Fraction(field[i] * sum(field[j] for j in others), len(others))
            for i, others in enumerate(neighbor_indices)
        )
        return abs(n / s0 * num / denom - expected)

    observed = deviation(z)
    rng = np.random.default_rng(seed)
    extreme = ties = 0
    for _ in range(permutations):
        shuffled = deviation([z[k] for k in rng.permutation(n)])
        extreme += shuffled >= observed
        ties += shuffled == observed
    return Fraction(extreme + 1, permutations + 1), ties
