"""Deployment analysis for intrusion-detecting wireless sensor networks.

Computes the probability that a straight-line intruder is detected by at
least one sensor when sensor positions follow a half-normal distribution
concentrated at the protected boundary, cross-validates the analytic
integrals against an independent Monte Carlo simulator, and compares
against the uniform-deployment baseline.
"""

from .analytic import DetectionReport, capsule_probability, detection_probability, full_report
from .config import ExperimentConfig, config_from_dict, load_config
from .distributions import (
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    correlated_half_normal_pdf,
    half_normal_cdf,
    half_normal_mean,
    half_normal_pdf,
    halfplane_pdf,
    sample_positions,
    stein_residual,
)
from .geometry import (
    HalfPlane,
    IntruderScenario,
    Rectangle,
    capsule_area,
    detects,
    point_segment_distance,
)
from .montecarlo import DetectionEstimate, SweepRow, estimate_detection, sweep
from .numerics import QuadratureError, QuadratureSpec, integrate_1d, integrate_2d
from .rng import RandomSeed, derive_stream_seed, mix64

__version__ = "0.1.0"
