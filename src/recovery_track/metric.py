"""Min-max normalization, the integrated recovery metric, and quartile labels.

Each milestone's durations are scaled to [0, 1] across regions, the four
scaled values are averaged (equal weights), and regions are binned by the
empirical quartiles of the averaged metric. Smaller means faster recovery.
Every function takes and returns arrays whose rows follow one region order.
"""

from __future__ import annotations

import numpy as np

from .aggregate import exact_sums
from .errors import MetricError

CATEGORY_LABELS = ("early", "mild", "late", "delayed")


def min_max_normalize(values) -> np.ndarray:
    """(t - t_min) / (t_max - t_min) down each column, one row per region.

    A degenerate range (all durations equal) maps the column to 0: equally
    fast everywhere means no penalty for anyone.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise MetricError(f"normalization needs at least 2 regions, got {len(values)}")
    t_min = values.min(axis=0)
    span = values.max(axis=0) - t_min
    return np.divide(values - t_min, span, out=np.zeros_like(values), where=span != 0)


def integrated_metric(normalized) -> np.ndarray:
    """Arithmetic mean of each row's four normalized milestone values, summed exactly."""
    normalized = np.asarray(normalized, dtype=float)
    if normalized.ndim != 2 or normalized.shape[1] != 4:
        raise MetricError(f"integrated metric needs rows of exactly 4 values, got shape {normalized.shape}")
    outside = ~((normalized >= 0.0) & (normalized <= 1.0))
    if outside.any():
        raise MetricError(f"normalized value {normalized[outside][0]} outside [0, 1]")
    return exact_sums(normalized[:, :, None])[:, 0] / 4.0


def quartiles(values) -> tuple[float, float, float]:
    """Q1, Q2, Q3 by linear interpolation between order statistics."""
    q1, q2, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def categorize(metrics) -> list[str]:
    """Label each region early/mild/late/delayed by integrated-metric quartile.

    Values equal to a breakpoint fall in the lower (faster) category, so a
    fully tied field is labeled early across the board.
    """
    if len(metrics) < 4:
        raise MetricError(f"categorization needs at least 4 regions, got {len(metrics)}")
    q1, q2, q3 = quartiles(metrics)
    return [
        "early" if value <= q1 else "mild" if value <= q2 else "late" if value <= q3 else "delayed"
        for value in np.asarray(metrics, dtype=float).tolist()
    ]


def build_metric_table(durations):
    """Normalize each milestone across regions, integrate, and categorize.

    `durations` holds one row per region and one column per milestone, in
    MILESTONE_FIELDS order. Censored durations participate at their horizon
    value; excluding them would understate how unequal recovery was.
    Returns (normalized, integrated, categories), row-aligned with it.
    """
    if len(durations) < 4:
        raise MetricError(f"metric table needs at least 4 regions, got {len(durations)}")
    normalized = min_max_normalize(durations)
    integrated = integrated_metric(normalized)
    return normalized, integrated, categorize(integrated)
