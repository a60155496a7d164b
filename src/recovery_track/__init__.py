"""Post-disaster population-activity recovery analytics.

Trip and transaction records go in; recovery milestones per region, an
integrated recovery metric with quartile categories, and spatial and
socioeconomic inequality statistics come out.
"""

import os

# Before any module imports numpy: OpenBLAS then starts no worker thread, so every fork copies one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
