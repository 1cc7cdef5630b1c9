"""Analytic detection probability for every deployment kind.

Each deployment kind places a sensor by a product density f_x(x) f_y(y)
truncated to its rectangle region and renormalized, which is exactly what
the sampler draws by rejection. Both read the same DeploymentModel.marginals:
the sampler their draws, this module their supports, masses and x density.

The single-sensor hit probability is that density integrated over the
intrusion capsule, split into its three parts:

  * rectangle  x in [S-d, S], y in [-r, r]
  * left half-disk centered at the path end (S-d, 0)
  * right half-disk centered at the entry point (S, 0)

The density separates, so the rectangle is a product of interval masses
and each half-disk is a single 1D quadrature over the polar angle. A
capsule reaching past the region is clipped to it; for the uniform kind
that makes the probability the area of capsule and region in common over
the region's area.

With N independently placed sensors, at-least-one detection is
P_d = 1 - (1 - p_total)^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .distributions import DeploymentKind, DeploymentModel
from .geometry import HalfPlane, IntruderScenario, Rectangle
from .numerics import QuadratureSpec, integrate_1d
from .rng import check_integer


@dataclass(frozen=True)
class DetectionReport:
    p_rect: float
    p_left: float
    p_right: float
    p_total: float
    p_d: float
    p_not_detected: float
    n_sensors: int
    p_single_uniform: Optional[float] = None


def detection_probability(p_single: float, n: int) -> float:
    """At-least-one-of-N detection: 1 - (1 - p)^n.

    Computed via exp(n * log1p(-p)) so tiny p with large n does not lose
    precision to cancellation.
    """
    if not (0.0 <= p_single <= 1.0):
        raise ValueError(f"p_single must lie in [0, 1], got {p_single}")
    n = check_integer("n", n)
    if n == 0:
        return 0.0
    if p_single == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p_single))


def _not_detected(p_single: float, n: int) -> float:
    if n == 0:
        return 1.0
    if p_single == 1.0:
        return 0.0
    return math.exp(n * math.log1p(-p_single))


def _capsule_parts(model: DeploymentModel, scenario: IntruderScenario, r: float,
                   spec: QuadratureSpec) -> Tuple[float, float, float]:
    """(rectangle, left half-disk, right half-disk) probabilities under `model`.

    The rectangle is the product of the x and y interval masses; each
    half-disk is one integral over the polar angle theta in [0, pi/2], with
    the disk's chord at x = c +/- r cos(theta) contributing the x density
    times its y-mass times dx = r sin(theta) dtheta. Everything is clipped
    to the region and divided by the region's own mass, which is exactly 1
    on the half-plane and for uniform marginals.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"sensing range must be positive and finite, got {r}")
    x, y = model.marginals()
    region_mass = x.mass(x.lo, x.hi) * y.mass(y.lo, y.hi)
    if region_mass == 0.0:
        raise ValueError(f"region {model.region} carries no {model.kind.value} deployment mass "
                         f"at sigma={model.sigma}")
    end, start = scenario.start_s - scenario.distance_d, scenario.start_s
    rect = x.mass(max(x.lo, end), min(x.hi, start)) * y.mass(max(y.lo, -r), min(y.hi, r))

    def half_disk(center: float, side: float) -> float:
        # cos(theta) range that keeps x = center + side r cos(theta) in [x.lo, x.hi]
        lo, hi = sorted(((x.lo - center) * side / r, (x.hi - center) * side / r))
        if hi < 0.0 or lo > 1.0:
            return 0.0

        def chord(theta: float) -> float:
            h = r * math.sin(theta)
            return x.pdf(center + side * r * math.cos(theta)) * y.mass(max(y.lo, -h), min(y.hi, h)) * h

        return integrate_1d(chord, math.acos(min(1.0, hi)), math.acos(max(0.0, lo)), spec)

    return (rect / region_mass, half_disk(end, -1.0) / region_mass,
            half_disk(start, 1.0) / region_mass)


def capsule_probability(model: DeploymentModel, scenario: IntruderScenario, r: float,
                        spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Single-sensor hit probability p_total under `model` (see the module docstring)."""
    return min(1.0, max(0.0, sum(_capsule_parts(model, scenario, r, spec))))


def full_report(scenario: IntruderScenario, r: float, sigma: float, n: int,
                region: Rectangle = HalfPlane(),
                spec: QuadratureSpec = QuadratureSpec()) -> DetectionReport:
    """All analytic detection quantities for one half-normal scenario.

    The half-normal values are for the density truncated to the region (by
    default the half-plane, where nothing is cut off). For a bounded region
    the uniform baseline's single-sensor probability is filled in too.
    """
    n = check_integer("n", n)
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, region, sigma)
    rect, left, right = _capsule_parts(model, scenario, r, spec)
    total = min(1.0, max(0.0, rect + left + right))
    baseline = None
    if region.bounded:
        baseline = capsule_probability(DeploymentModel(DeploymentKind.UNIFORM, region),
                                       scenario, r, spec)
    return DetectionReport(
        p_rect=rect,
        p_left=left,
        p_right=right,
        p_total=total,
        p_d=detection_probability(total, n),
        p_not_detected=_not_detected(total, n),
        n_sensors=n,
        p_single_uniform=baseline,
    )
