"""Analytic detection probability under half-normal deployment.

The single-sensor hit probability is the half-plane deployment density
(x half-normal, y normal, same sigma) integrated over the intrusion
capsule, split into its three parts:

  * rectangle  x in [S-d, S], y in [-r, r]
  * left half-disk centered at the path end (S-d, 0)
  * right half-disk centered at the entry point (S, 0)

The density separates, so the rectangle is closed form in math.erf and
each half-disk is a single 1D quadrature over the polar angle. Given a
bounded region, the density is truncated to it and renormalized, which is
the distribution a bounded deployment actually samples by rejection.

With N independently placed sensors, at-least-one detection is
P_d = 1 - (1 - p_total)^N. The uniform baseline uses capsule area over
region area for the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .distributions import HalfNormalParams
from .geometry import HalfPlane, IntruderScenario, Rectangle, capsule_area
from .numerics import QuadratureSpec, integrate_1d


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
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def _capsule_parts(scenario: IntruderScenario, r: float, sigma: float, region: Rectangle,
                   spec: QuadratureSpec) -> Tuple[float, float, float]:
    """(rectangle, left half-disk, right half-disk) probabilities.

    The half-plane density separates into a half-normal x and a normal y,
    so the rectangle is a product of erf differences and each half-disk is
    one integral over the polar angle theta in [0, pi/2], with the disk's
    chord at x = c +/- r cos(theta) contributing its y-mass times
    dx = r sin(theta) dtheta. Everything is clipped to the region (x >= 0
    always) and divided by the region's own mass, which is exactly 1 on
    the half-plane.
    """
    if not r > 0.0:
        raise ValueError(f"sensing range must be positive, got {r}")
    k = 1.0 / (HalfNormalParams(sigma).sigma * math.sqrt(2.0))
    x_lo, x_hi = max(0.0, region.x_min), region.x_max
    y_lo, y_hi = region.y_min, region.y_max

    def mass(lo: float, hi: float) -> float:
        # P(lo <= Y <= hi) for Y ~ Normal(0, sigma^2); twice it for x >= 0
        return 0.5 * (math.erf(hi * k) - math.erf(lo * k)) if lo < hi else 0.0

    region_mass = 2.0 * mass(x_lo, x_hi) * mass(y_lo, y_hi)
    if region_mass == 0.0:
        raise ValueError(f"region {region} carries no deployment mass at sigma={sigma}")
    end, start = scenario.start_s - scenario.distance_d, scenario.start_s
    rect = 2.0 * mass(max(x_lo, end), min(x_hi, start)) * mass(max(y_lo, -r), min(y_hi, r))
    pdf_scale = 2.0 * k / math.sqrt(math.pi)

    def half_disk(center: float, side: float) -> float:
        # cos(theta) range that keeps x = center + side r cos(theta) in [x_lo, x_hi]
        lo, hi = sorted(((x_lo - center) * side / r, (x_hi - center) * side / r))
        if hi < 0.0 or lo > 1.0:
            return 0.0

        def chord(theta: float) -> float:
            x = center + side * r * math.cos(theta)
            h = r * math.sin(theta)
            return pdf_scale * math.exp(-(x * k) ** 2) * mass(max(y_lo, -h), min(y_hi, h)) * h

        return integrate_1d(chord, math.acos(min(1.0, hi)), math.acos(max(0.0, lo)), spec)

    return (rect / region_mass, half_disk(end, -1.0) / region_mass,
            half_disk(start, 1.0) / region_mass)


def uniform_p_single(scenario: IntruderScenario, r: float, region: Rectangle) -> float:
    """Single-sensor hit probability under uniform deployment: capsule/region area.

    The capsule must lie fully inside the region; there is no principled
    clipping rule for a capsule sticking out, so that case is an error.
    """
    if not region.bounded:
        raise TypeError("uniform baseline requires a bounded rectangle region")
    x_lo = scenario.start_s - scenario.distance_d - r
    x_hi = scenario.start_s + r
    if x_lo < region.x_min or x_hi > region.x_max or -r < region.y_min or r > region.y_max:
        raise ValueError(
            f"capsule [{x_lo}, {x_hi}] x [-{r}, {r}] is not contained in the region"
        )
    return capsule_area(scenario.distance_d, r) / region.area


def full_report(scenario: IntruderScenario, r: float, sigma: float, n: int,
                region: Rectangle = HalfPlane(),
                spec: QuadratureSpec = QuadratureSpec()) -> DetectionReport:
    """All analytic detection quantities for one scenario.

    The half-normal values are for the density truncated to the region (by
    default the half-plane, where nothing is cut off). For a bounded region
    the uniform baseline is filled in when the capsule lies inside.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rect, left, right = _capsule_parts(scenario, r, sigma, region, spec)
    total = min(1.0, max(0.0, rect + left + right))
    p_not = _not_detected(total, n)
    baseline = None
    if region.bounded:
        try:
            baseline = uniform_p_single(scenario, r, region)
        except ValueError:
            pass  # the capsule leaves the region; the truncated values still hold
    return DetectionReport(
        p_rect=rect,
        p_left=left,
        p_right=right,
        p_total=total,
        p_d=1.0 - p_not,
        p_not_detected=p_not,
        n_sensors=n,
        p_single_uniform=baseline,
    )
