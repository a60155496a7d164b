"""Post-disaster population-activity recovery analytics.

Trip and transaction records go in; recovery milestones per region, an
integrated recovery metric with quartile categories, and spatial and
socioeconomic inequality statistics come out.
"""

__version__ = "0.1.0"
