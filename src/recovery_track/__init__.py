"""Post-disaster population-activity recovery analytics.

Trip and transaction records go in; recovery milestones per region, an
integrated recovery metric with quartile categories, and spatial and
socioeconomic inequality statistics come out.
"""

from .aggregate import ServiceTaxonomy, load_taxonomy
from .config import PipelineConfig, load_config
from .metric import build_metric_table, categorize, integrated_metric, min_max_normalize
from .milestones import build_milestone_table
from .pipeline import run, validate
from .stats import SpatialWeights, chi_square_2x2, dichotomize_by_median, gini, morans_i
from .synth import ScenarioSpec, generate

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "ScenarioSpec",
    "ServiceTaxonomy",
    "SpatialWeights",
    "build_metric_table",
    "build_milestone_table",
    "categorize",
    "chi_square_2x2",
    "dichotomize_by_median",
    "generate",
    "gini",
    "integrated_metric",
    "load_config",
    "load_taxonomy",
    "min_max_normalize",
    "morans_i",
    "run",
    "validate",
    "__version__",
]
