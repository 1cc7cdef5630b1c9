"""Regions, intruder paths and Boolean-sensing detection.

Coordinate convention: the protected target occupies x <= 0; the intruder
enters at (start_s, 0) and walks straight toward the target along -x, so
its path lies on y = 0. A sensor with sensing range r detects the intruder
iff it lies within distance r of the path (closed disk, boundary counts as
detected) -- the set of such points is a capsule: a rectangle plus two
half-disks.

Every deployment region is a closed Rectangle; the half-plane x >= 0 is the
rectangle with infinite bounds x_max, y_min and y_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .rng import check_real

Point = Tuple[float, float]


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        # a bound is a finite real or, on an unbounded side, +-inf
        for name in ("x_min", "x_max", "y_min", "y_max"):
            value = getattr(self, name)
            object.__setattr__(self, name, float(value) if value in (math.inf, -math.inf)
                               else check_real(name, value))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.area)

    def contains(self, x, y):
        """Closed-rectangle membership, elementwise for arrays."""
        return (x >= self.x_min) & (x <= self.x_max) & (y >= self.y_min) & (y <= self.y_max)


def HalfPlane() -> Rectangle:
    """The unbounded region x >= 0 (the deployment side of the target boundary)."""
    return Rectangle(0.0, math.inf, -math.inf, math.inf)


@dataclass(frozen=True)
class IntruderScenario:
    """Straight-line intrusion from (start_s, 0) toward the target at x = 0.

    The detection geometry depends on the traveled distance distance_d only.
    """

    start_s: float
    distance_d: float

    def __post_init__(self):
        object.__setattr__(self, "start_s", check_real("start_s", self.start_s, 0.0))
        object.__setattr__(self, "distance_d", check_real("distance_d", self.distance_d, 0.0))
        if self.distance_d > self.start_s:
            raise ValueError("distance_d must satisfy 0 <= d <= start_s")

    @property
    def path_start(self) -> Point:
        return (self.start_s, 0.0)

    @property
    def path_end(self) -> Point:
        return (self.start_s - self.distance_d, 0.0)


def capsule_area(length: float, r: float) -> float:
    """Area of a capsule: rectangle 2*length*r plus two half-disks."""
    length = check_real("length", length, 0.0)
    r = check_real("sensing range", r, math.ulp(0.0))
    return 2.0 * length * r + math.pi * r * r


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Euclidean distance from p to the closest point of segment ab."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def detects(sensor: Point, scenario: IntruderScenario, r: float) -> bool:
    """Boolean sensing: true iff the sensor lies in the intrusion capsule."""
    r = check_real("sensing range", r, math.ulp(0.0))
    return point_segment_distance(sensor, scenario.path_start, scenario.path_end) <= r


def segment_dist2(xs: np.ndarray, ys: np.ndarray, scenario: IntruderScenario) -> np.ndarray:
    """Squared distance from each position to the intrusion path, elementwise.

    Exploits the path lying on y = 0: the squared distance to the segment
    is clip-in-x squared plus y squared.
    """
    # in place: a fresh array per step costs more than the arithmetic
    dist2 = np.clip(xs, scenario.start_s - scenario.distance_d, scenario.start_s)
    dist2 -= xs
    dist2 *= dist2
    dist2 += ys * ys
    return dist2


def detects_any(xs: np.ndarray, ys: np.ndarray, scenario: IntruderScenario, r: float) -> np.ndarray:
    """Row-wise any-sensor detection for position arrays of shape (trials, n)."""
    return np.any(segment_dist2(xs, ys, scenario) <= r * r, axis=-1)
