"""Half-normal distribution family and deployment-model sampling.

A half-normal variable is |X| for X ~ Normal(0, sigma^2). Deployments draw
sensor x-coordinates from it so density peaks at the protected boundary
x = 0. MARGINALS names the shapes of each kind's independent (x, y) marginals,
and marginal() defines each shape once for the sampler and the analytic
engine. An axis with a uniform marginal needs a bounded region:

  * uniform        -- x and y uniform over a bounded rectangle (the baseline)
  * half_normal    -- x ~ HalfNormal(sigma), y ~ Normal(0, sigma); this is
                      the half-plane density 1/(pi sigma^2) exp(-(x^2+y^2)/(2 sigma^2))
  * strip          -- x ~ HalfNormal(sigma), y uniform along the strip
  * quadrant       -- x and y both half-normal (the literal positive-quadrant
                      product density)

Sampling is counter-based: sensor j of a deployment keyed by seed s uses
the counter block [j * 256, (j + 1) * 256) of stream s, four counters per
rejection attempt starting at base = j * 256 + 4 * attempt. x reads from
counter base; y reads from the next free counter, base + x.counters: base + 1
after a uniform x (one counter) and base + 2 after a (half-)normal x (two
counters, one Box-Muller normal). Draws falling outside a bounded region are
rejected and redrawn from the next attempt slot, up to MAX_ATTEMPTS per
sensor. The addressing makes batched, sequential and column-chunked sampling
(sample_positions with first > 0) bit-identical.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rectangle
from .rng import check_integer, normal_draws, uniform_draws

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

MAX_ATTEMPTS = 64
_DRAWS_PER_ATTEMPT = 4
_BLOCK = MAX_ATTEMPTS * _DRAWS_PER_ATTEMPT


@dataclass(frozen=True)
class HalfNormalParams:
    """sigma of the underlying zero-mean normal (length units)."""

    sigma: float

    def __post_init__(self):
        # a subnormal sigma overflows 1 / (sigma sqrt 2) and makes the density NaN
        if not (math.isfinite(self.sigma) and self.sigma >= sys.float_info.min):
            raise ValueError(f"sigma must be a finite real of at least {sys.float_info.min}, "
                             f"got {self.sigma}")


@dataclass(frozen=True)
class Correlated2DParams:
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        HalfNormalParams(self.sigma1)
        HalfNormalParams(self.sigma2)
        if not abs(self.rho) < 1:
            raise ValueError("rho must lie in (-1, 1)")


class DeploymentKind(str, enum.Enum):
    UNIFORM = "uniform"
    HALF_NORMAL = "half_normal"
    STRIP = "strip"
    QUADRANT = "quadrant"


# (x, y) marginals of each deployment kind
MARGINALS = {
    DeploymentKind.HALF_NORMAL: ("half_normal", "normal"),
    DeploymentKind.QUADRANT: ("half_normal", "half_normal"),
    DeploymentKind.STRIP: ("half_normal", "uniform"),
    DeploymentKind.UNIFORM: ("uniform", "uniform"),
}


@dataclass(frozen=True)
class Marginal:
    """One coordinate's law on a region's bounds, as built by marginal."""

    lo: float
    hi: float
    mass: Callable[[float, float], float]
    pdf: Callable[[float], float]
    draw: Callable[[np.ndarray, np.ndarray], np.ndarray]
    counters: int


def marginal(shape: str, sigma: Optional[float], lo: float, hi: float) -> Marginal:
    """The "uniform", "half_normal" or "normal" marginal on the bounds [lo, hi].

    lo and hi are the law's support clipped to the bounds (a uniform law is
    [lo, hi] itself); mass(a, b) is 0 when a >= b; pdf is the density on the
    support; draw(seeds, base) reads `counters` counters from base.
    """
    if shape == "uniform":
        width = hi - lo
        inverse = 1.0 / width
        return Marginal(lo, hi, lambda a, b: (b - a) / width if a < b else 0.0, lambda x: inverse,
                        lambda seeds, base: lo + width * uniform_draws(seeds, base), 1)
    folded = shape == "half_normal"
    k = 1.0 / (sigma * math.sqrt(2.0))
    # folding Normal(0, sigma^2) onto x >= 0 doubles its mass there
    scale = 1.0 if folded else 0.5
    peak = 2.0 * scale * k / math.sqrt(math.pi)

    def mass(a: float, b: float) -> float:
        return scale * (math.erf(b * k) - math.erf(a * k)) if a < b else 0.0

    def pdf(x: float) -> float:
        t = x * k
        return peak * math.exp(-t * t)

    def draw(seeds, base) -> np.ndarray:
        z = normal_draws(seeds, base) * sigma
        return np.abs(z) if folded else z

    return Marginal(max(0.0, lo) if folded else lo, hi, mass, pdf, draw, 2)


@dataclass(frozen=True)
class DeploymentModel:
    kind: DeploymentKind
    region: Rectangle
    sigma: Optional[float] = None

    def __post_init__(self):
        shapes = MARGINALS[self.kind]
        if shapes != ("uniform", "uniform"):
            if self.sigma is None:
                raise ValueError(f"{self.kind.value} deployment requires sigma > 0")
            HalfNormalParams(self.sigma)
        if "uniform" in shapes and not self.region.bounded:
            raise ValueError(f"{self.kind.value} deployment requires a bounded rectangle region")

    def marginals(self) -> Tuple[Marginal, Marginal]:
        """The (x, y) marginals on the region's bounds."""
        (x_shape, y_shape), region = MARGINALS[self.kind], self.region
        return (marginal(x_shape, self.sigma, region.x_min, region.x_max),
                marginal(y_shape, self.sigma, region.y_min, region.y_max))


class SamplingError(Exception):
    """Rejection sampling exceeded the retry bound (sigma mismatched to region)."""


def half_normal_pdf(y: float, params: HalfNormalParams) -> float:
    """Density sqrt(2)/(sigma sqrt(pi)) exp(-y^2/(2 sigma^2)) on y >= 0."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    return marginal("half_normal", params.sigma, 0.0, math.inf).pdf(y) if y >= 0.0 else 0.0


def half_normal_cdf(y: float, params: HalfNormalParams) -> float:
    """erf(y / (sigma sqrt(2))) for y >= 0, else 0."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    return marginal("half_normal", params.sigma, 0.0, math.inf).mass(0.0, y)


def half_normal_mean(params: HalfNormalParams) -> float:
    """E|X| = sigma * sqrt(2/pi)."""
    return params.sigma * SQRT_2_OVER_PI


def correlated_half_normal_pdf(x: float, y: float, params: Correlated2DParams) -> float:
    """Bivariate half-normal density on the open positive quadrant.

    This is the fourfold folding of the correlated bivariate normal onto
    the positive quadrant; the cross terms combine into a cosh factor.
    The quadrant is taken closed (boundary included) so the density has a
    well-defined value at the mode (0, 0).
    """
    if x < 0.0 or y < 0.0:
        return 0.0
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    one_minus = 1.0 - rho * rho
    norm = 2.0 / (math.pi * s1 * s2 * math.sqrt(one_minus))
    quad = (x * x / (s1 * s1) + y * y / (s2 * s2)) / (2.0 * one_minus)
    cross = rho * x * y / (one_minus * s1 * s2)
    return norm * math.exp(-quad) * math.cosh(cross)


def halfplane_pdf(x: float, y: float, params: HalfNormalParams) -> float:
    """Deployment density on the half-plane x >= 0, y unrestricted.

    x half-normal and y zero-mean normal with the same sigma, independent:
    1/(pi sigma^2) exp(-(x^2 + y^2)/(2 sigma^2)). This is the density the
    detection-probability integrals are taken against.
    """
    if x < 0.0:
        return 0.0
    s2 = params.sigma * params.sigma
    return math.exp(-(x * x + y * y) / (2.0 * s2)) / (math.pi * s2)


def sample_positions(model: DeploymentModel, n: int, seeds: np.ndarray,
                     first: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Sensors first .. n - 1 of each seed's deployment; x and y of shape (len(seeds), n - first).

    Each seed keys one independent deployment, and sensor j reads counter
    block j whatever the call, so first = 0 gives the whole field and any
    other first gives its last n - first columns, bit-identical. The first
    attempt draws every sensor at once; only the draws a bounded region
    rejects are redrawn, from further attempt slots of the same counter block.
    """
    n = check_integer("n", n)
    first = check_integer("first", first, 0, n)
    seeds = np.asarray(seeds, dtype=np.uint64)
    region, (mx, my) = model.region, model.marginals()

    def draw(stream_seeds, j, attempt):
        base = ((j.astype(np.uint64) + np.uint64(first)) * np.uint64(_BLOCK)
                + np.uint64(attempt * _DRAWS_PER_ATTEMPT))
        return mx.draw(stream_seeds, base), my.draw(stream_seeds, base + np.uint64(mx.counters))

    xs, ys = draw(seeds[:, None], np.arange(n - first), 0)
    t, j = np.nonzero(~region.contains(xs, ys))
    for attempt in range(1, MAX_ATTEMPTS):
        if t.size == 0:
            break
        x, y = draw(seeds[t], j, attempt)
        accepted = region.contains(x, y)
        xs[t[accepted], j[accepted]] = x[accepted]
        ys[t[accepted], j[accepted]] = y[accepted]
        t, j = t[~accepted], j[~accepted]
    if t.size:
        raise SamplingError(
            f"{t.size} draw(s) still rejected after {MAX_ATTEMPTS} attempts; "
            "sigma is grossly mismatched to the bounded region"
        )
    return xs, ys


# Stein characterization test-function family: name -> (f, f', f(0))
STEIN_TEST_FUNCTIONS = {
    "one": (lambda x: np.ones_like(x), lambda x: np.zeros_like(x), 1.0),
    "x": (lambda x: x, lambda x: np.ones_like(x), 0.0),
    "x2": (lambda x: x * x, lambda x: 2.0 * x, 0.0),
}


def stein_residual(test_function: str, samples: Sequence[float], params: HalfNormalParams) -> float:
    """Empirical Stein residual E[f'(Z)] - E[Z f(Z)] + f(0) sqrt(2/pi).

    Z are the samples rescaled by 1/sigma. The residual converges to 0 in
    probability exactly when the samples are half-normal(sigma), which makes
    it a distribution-correctness check with built-in power against
    lookalikes (e.g. uniform samples give 2/3 for f(x) = x).
    """
    if test_function not in STEIN_TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {test_function!r}; choose from {sorted(STEIN_TEST_FUNCTIONS)}")
    z = np.asarray(samples, dtype=np.float64)
    if z.size == 0:
        raise ValueError("samples must be nonempty")
    if np.any(z < 0):
        raise ValueError("samples must be nonnegative")
    z = z / params.sigma
    f, fprime, f0 = STEIN_TEST_FUNCTIONS[test_function]
    return float(np.mean(fprime(z)) - np.mean(z * f(z)) + f0 * SQRT_2_OVER_PI)
