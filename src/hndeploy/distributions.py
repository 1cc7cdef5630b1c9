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

Each marginal is truncated to the region's bounds, and each coordinate is
drawn by inverting its truncated CDF, x = F^-1(F(lo) + u (F(hi) - F(lo))),
from one raw draw (Devroye, Non-Uniform Random Variate Generation, 1986), so
every sensor is placed on its first draw. Sampling is counter-based: sensor
j of a deployment keyed by seed s reads its x at counter 256 j of stream s
and its y at 256 j + 1. A uniform axis takes u = (m + 1) 2^-53 of the raw
draw's top 53 bits m, a (half-)normal one u = (m + 1/2) 2^-52 of its top 52.
A field whose axes are both uniform (Field) splits its sensors by |y| into
an inner band, which holds a fixed share of them and depends on the model
alone, and the rest: which indices are inner comes from Geometric gaps read
past every sensor's counter block (exact up to the rounding of log, not
bit-identical to a per-sensor Bernoulli draw), and the y of an inner
sensor is uniform on the band, that of any other on the rest. The
addressing makes batched, sequential, column-chunked (sample_positions with
first > 0), screened (Field.sample) and window-by-window (InnerPicks)
sampling bit-identical.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rectangle
from .rng import (GOLDEN, check_integer, check_real, normal_quantile, normal_quantiles,
                  raw_draws, uniforms)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# sensor j reads the counters from 256 j on: x at the first, y at the next
_BLOCK = 256
# the screen mixes _SCREEN_BLOCK raw draws at a time, a tile that stays in
# cache with its scratch, in two buffers that it allocates once per call
_SCREEN_BLOCK = 1 << 15
# a (half-)normal draw's p stays below 1, where the inverse CDF is infinite
_P_MAX = 1.0 - 2.0 ** -53
# a uniform field's inner band holds this share of its y mass; the gaps
# between inner sensors read counters from _GAP_COUNTER on, past the counter
# block of any sensor j < 2^55
_INNER_SHARE = 2.0 ** -5
_GAP_COUNTER = 1 << 63


@dataclass(frozen=True)
class HalfNormalParams:
    """sigma of the underlying zero-mean normal (length units)."""

    sigma: float

    def __post_init__(self):
        # a subnormal sigma overflows 1 / (sigma sqrt 2) and makes the density NaN
        object.__setattr__(self, "sigma", check_real("sigma", self.sigma, sys.float_info.min))


@dataclass(frozen=True)
class Correlated2DParams:
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        HalfNormalParams(self.sigma1)
        HalfNormalParams(self.sigma2)
        rho = check_real("rho", self.rho, -1.0, 1.0)
        if abs(rho) == 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        object.__setattr__(self, "rho", rho)


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
    # the coordinate at the uniform u of a raw draw, nondecreasing in u (up
    # to the rounding of the inverse CDF), with u from the draw's top `bits`
    # bits (rng.uniforms)
    at: Callable
    bits: int


def marginal(shape: str, sigma: Optional[float], lo: float, hi: float) -> Marginal:
    """The "uniform", "half_normal" or "normal" marginal on the bounds [lo, hi].

    lo and hi are the law's support clipped to the bounds (a uniform law is
    [lo, hi] itself); mass(a, b) is 0 when a >= b; pdf is the density on the
    support. at(u) inverts the CDF of the law truncated to [lo, hi] at u, for
    u an array (which it overwrites) or a float: the float form is the scalar
    twin, by rng.normal_quantile, that the screen bisects. A (half-)normal
    draw is F^-1(F(lo) + u (F(hi) - F(lo))) with F the normal CDF, built
    from math.erfc; where lo > 0 it is
    -F^-1(F(-lo) + u (F(-hi) - F(-lo))), so that a region far in the upper
    tail keeps F's values small, where they are exact. Every draw is clamped
    into [lo, hi].
    """
    if shape == "uniform":
        width = hi - lo
        inverse = 1.0 / width
        return Marginal(lo, hi, lambda a, b: (b - a) / width if a < b else 0.0, lambda x: inverse,
                        lambda u: _linear(lo, hi, u), 53)
    folded = shape == "half_normal"
    k = 1.0 / (sigma * math.sqrt(2.0))
    # folding Normal(0, sigma^2) onto x >= 0 doubles its mass there
    scale = 1.0 if folded else 0.5
    peak = 2.0 * scale * k / math.sqrt(math.pi)

    def mass(a: float, b: float) -> float:
        # off 0, a difference of erfc on one side, which keeps a tail's mass
        # to its relative precision where erf rounds to 1; from 0 or across
        # it, erf, which is odd, so the folded law on [0, b] and the normal
        # one on [-b, b] agree to the bit
        if a >= b:
            return 0.0
        if a > 0.0:
            return scale * (math.erfc(a * k) - math.erfc(b * k))
        if b < 0.0:
            return scale * (math.erfc(-b * k) - math.erfc(-a * k))
        return scale * (math.erf(b * k) - math.erf(a * k))

    def pdf(x: float) -> float:
        t = x * k
        return peak * math.exp(-t * t)

    # on x >= 0 the folded law is the normal one, so both invert the normal CDF
    lo = max(0.0, lo) if folded else lo
    sign = -1.0 if lo > 0.0 else 1.0
    p_lo, p_hi = (0.5 * math.erfc(-sign * k * v) for v in (lo, hi))
    span, z_scale = p_hi - p_lo, sign * sigma

    def at(u):
        if isinstance(u, float):
            return min(max(normal_quantile(min(u * span + p_lo, _P_MAX)) * z_scale, lo), hi)
        u *= span
        u += p_lo
        z = normal_quantiles(np.minimum(u, _P_MAX, out=u))
        z *= z_scale
        return np.clip(z, lo, hi, out=z)

    return Marginal(lo, hi, mass, pdf, at, 52)


@dataclass(frozen=True)
class DeploymentModel:
    kind: DeploymentKind
    region: Rectangle
    sigma: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", DeploymentKind(self.kind))
        shapes = MARGINALS[self.kind]
        if self.sigma is not None or shapes != ("uniform", "uniform"):
            object.__setattr__(self, "sigma", HalfNormalParams(self.sigma).sigma)
        if "uniform" in shapes and not self.region.bounded:
            raise ValueError(f"{self.kind.value} deployment requires a bounded rectangle region")

    def marginals(self) -> Tuple[Marginal, Marginal]:
        """The (x, y) marginals on the region's bounds."""
        (x_shape, y_shape), region = MARGINALS[self.kind], self.region
        return (marginal(x_shape, self.sigma, region.x_min, region.x_max),
                marginal(y_shape, self.sigma, region.y_min, region.y_max))

    def region_mass(self) -> float:
        """The mass the untruncated law puts on the region (1 on the
        half-plane and for uniform marginals): the analytic engine divides
        by it and the sampler truncates to it. A region where it is 0 can be
        neither, and raises ValueError."""
        x, y = self.marginals()
        mass = x.mass(x.lo, x.hi) * y.mass(y.lo, y.hi)
        if mass == 0.0:
            raise ValueError(f"region {self.region} carries no {self.kind.value} deployment mass "
                             f"at sigma={self.sigma}")
        return mass


def half_normal_pdf(y: float, params: HalfNormalParams) -> float:
    """Density sqrt(2)/(sigma sqrt(pi)) exp(-y^2/(2 sigma^2)) on y >= 0."""
    y = check_real("y", y)
    return marginal("half_normal", params.sigma, 0.0, math.inf).pdf(y) if y >= 0.0 else 0.0


def half_normal_cdf(y: float, params: HalfNormalParams) -> float:
    """erf(y / (sigma sqrt(2))) for y >= 0, else 0."""
    return marginal("half_normal", params.sigma, 0.0, math.inf).mass(0.0, check_real("y", y))


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
    other first gives its last n - first columns, bit-identical. The field
    is placed through its Field.
    """
    n = check_integer("n", n)
    first = check_integer("first", first, 0, n)
    seeds = np.asarray(seeds, dtype=np.uint64)
    columns = np.arange(first, n, dtype=np.uint64)
    field = Field(model)
    inner = None
    if field.banded:
        t, j = InnerPicks(field, seeds).advance(seeds, first, n, slice(0, seeds.size))
        inner = np.ravel_multi_index((t, j - first), (seeds.size, n - first))
    return field.place(seeds[:, None], columns, inner)


def _linear(lo: float, hi: float, u):
    """lo + (hi - lo) u, at most hi, for the uniform u (an array, which it
    overwrites, or a float, rounded alike); nondecreasing in u."""
    if isinstance(u, float):
        return min(lo + (hi - lo) * u, hi)
    u *= hi - lo
    u += lo
    return np.minimum(u, hi, out=u)


class Field:
    """A deployment's sensor field: sensor j's x from the raw draw at counter
    256 j and its y from 256 j + 1, each placed by its marginal's inverse
    CDF, so the field never rejects a draw.

    A field whose x and y are both uniform is banded: it is split by |y|
    into an inner band and the rest, so that the inner sensors can be
    enumerated without reading the others. The inner band is the region's y
    within |y| <= bound, which holds _INNER_SHARE of the y mass (share, after
    rounding); bound depends on the model alone. Each sensor index is inner
    with probability share, by a Bernoulli process enumerated through
    Geometric(share) gaps, floor(ln u / ln(1 - share)): gap m reads u at
    counter _GAP_COUNTER + m of the deployment's own stream, past every
    sensor's counter block, and the first inner index is gap 0, each next
    one the last plus 1 plus the next gap. That is exact up to the rounding
    of log, not bit-identical to a per-sensor Bernoulli draw. An inner
    sensor's y is uniform on the band, any other's on the rest of the
    region's y (up to two intervals, with |y| >= bound up to rounding:
    >= outer_min), so y is uniform on the region.

    axes holds what the screen reads of each axis: (map, bits, share). map
    places the coordinate at the uniform of a raw draw's top `bits` bits
    (for y, that of a sensor that is not inner), and share is the fraction
    of sensors that the map does not place (the inner ones, for y).
    """

    def __init__(self, model: DeploymentModel):
        model.region_mass()
        (x, y), region = model.marginals(), model.region
        self.banded = MARGINALS[model.kind] == ("uniform", "uniform")
        self.share = 0.0
        self.axes = ((x.at, x.bits, 0.0), (y.at, y.bits, 0.0))
        if not self.banded:
            return
        self._y = (y.lo, y.hi)
        # the region's y within |y| <= w starts at the least |y| it holds,
        # `near`, and grows on both sides of 0 until w reaches `both`, then
        # on one side
        near = max(y.lo, -y.hi, 0.0)
        both = max(0.0, min(-y.lo, y.hi))
        length = _INNER_SHARE * region.height
        self.bound = near + (0.5 * length if length <= 2.0 * both else length - both)
        lo, hi = max(y.lo, -self.bound), min(y.hi, self.bound)
        self._inner = (lo, hi)
        self.share = (hi - lo) / region.height
        # a gap is floor(ln u * _gap_scale); no gap is drawn where share is 0
        self._gap_scale = 1.0 / math.log1p(-self.share) if self.share > 0.0 else 0.0
        # a sensor that is not inner takes t = u * _rest along the region's y
        # with the band cut out, and steps over the band's length past the
        # piece below it: every step rounds by at most 2^-53 of the region's
        # extent, so its |y| is at least outer_min
        self._below = lo - y.lo
        self._rest = self._below + (y.hi - hi)
        self._length = hi - lo
        self.outer_min = self.bound - 2.0 ** -48 * (abs(y.lo) + abs(y.hi) + region.height)
        self.axes = (self.axes[0], (self.outer_y, 53, self.share))

    def outer_y(self, u):
        """The y of a sensor that is not inner at the uniform u (an array,
        which it overwrites, or a float, rounded alike); nondecreasing in u,
        with |y| >= outer_min."""
        if isinstance(u, float):
            t = u * self._rest
            return min(t + self._y[0] + (self._length if t > self._below else 0.0), self._y[1])
        u *= self._rest
        above = u > self._below
        u += self._y[0]
        u += self._length * above
        return np.minimum(u, self._y[1], out=u)

    def place(self, seeds, columns, inner=None) -> Tuple[np.ndarray, np.ndarray]:
        """x and y of sensors `columns` of the deployments keyed by `seeds`,
        which broadcast together. For a banded field inner is True where
        every sensor is inner, else the flat indices of the inner ones among
        the result; for any other it is None."""
        base = np.asarray(columns, dtype=np.uint64) * np.uint64(_BLOCK)
        (x_at, x_bits, _), (y_at, y_bits, _) = self.axes
        xs = x_at(uniforms(raw_draws(seeds, base), x_bits))
        base += np.uint64(1)
        u = uniforms(raw_draws(seeds, base), y_bits)
        if inner is None:
            return xs, y_at(u)
        if inner is True:
            return xs, _linear(*self._inner, u)
        inner_u = u.flat[inner]
        ys = y_at(u)
        ys.flat[inner] = _linear(*self._inner, inner_u)
        return xs, ys

    def sample(self, seeds: np.ndarray, start: int, stop: int, inner: Optional[np.ndarray],
               screen: Optional[Sequence[Tuple[int, int, int]]]
               ) -> Tuple[np.ndarray, np.ndarray, Tuple]:
        """The candidates among sensors start .. stop - 1 of each seed's
        deployment: their x, their y and their (seed, column) indices, in
        row-major order. inner is the (seeds x columns) mask of the inner
        sensors among them, or None for a field that is not banded.

        screen is a sequence of stages (offset, a, width): a sensor passes a
        stage when the raw draw at counter 256 j + offset lies in
        [a, a + width], taken mod 2^64, or, where offset is 1 (y), when it is
        inner; a candidate passes every stage. The first stage's draw is read
        for every sensor, each later one's only for the sensors that passed
        the stages before it. The first stage's mask is dropped once its
        cells are taken, each later stage's counters and draws once its
        survivors are kept. With screen None every sensor is one, x and y
        are (seeds x columns) grids and the indices None.
        """
        columns = np.arange(start, stop, dtype=np.uint64)
        if screen is None:
            flat = None if inner is None else np.flatnonzero(inner)
            return (*self.place(seeds[:, None], columns, flat), None)
        (offset, a, width), *later = screen
        candidate = _screened(seeds, columns * np.uint64(_BLOCK) + np.uint64(offset), a, width)
        if offset == 1 and inner is not None:
            candidate |= inner
        t, j = np.divmod(np.flatnonzero(candidate).astype(_index_type(candidate.size)),
                         stop - start)
        del candidate
        for offset, a, width in later:
            counters = columns[j]
            counters *= np.uint64(_BLOCK)
            counters += np.uint64(offset)
            raw = raw_draws(seeds[t], counters)
            del counters
            raw -= np.uint64(a)
            passed = raw <= np.uint64(width)
            del raw
            if offset == 1 and inner is not None:
                passed |= inner[t, j]
            t, j = t[passed], j[passed]
            del passed
        flat = None if inner is None else np.flatnonzero(inner[t, j])
        xs, ys = self.place(seeds[t], columns[j], flat)
        return xs, ys, (t, j + start)


class InnerPicks:
    """The inner sensor indices of a Field's deployments, enumerated by
    index windows in order; each deployment's walk keeps two numbers."""

    def __init__(self, field: Field, seeds: np.ndarray):
        self.field = field
        # each deployment's next inner index, not yet returned, as a float
        # (exact below 2^53; larger ones are past any sensor), and the number
        # of gaps read: the first index is gap 0
        self.gaps = np.zeros(seeds.size, dtype=np.uint64)
        self.pos = self._gaps(seeds, self.gaps, np.empty((1, seeds.size)))[0]
        if field.share == 0.0:
            self.pos[:] = math.inf
        self.gaps += np.uint64(1)

    def _gaps(self, seeds: np.ndarray, first: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gaps first .. first + len(out) - 1 of each deployment, one column
        each, written over out, a C-contiguous float64 array."""
        shifted = seeds + first * np.uint64(GOLDEN)  # raw(s, f + c) = raw(s + f GOLDEN, c)
        counters = np.arange(_GAP_COUNTER, _GAP_COUNTER + len(out), dtype=np.uint64)[:, None]
        gaps = np.log(uniforms(raw_draws(shifted, counters, out.view(np.uint64))), out=out)
        gaps *= self.field._gap_scale
        return np.floor(gaps, out=gaps)

    def advance(self, seeds: np.ndarray, start: int, stop: int,
                rows: slice) -> Tuple[np.ndarray, np.ndarray]:
        """(deployment, index) of the inner indices in start .. stop - 1 of the
        deployments `rows`, keyed by `seeds`, in no set order, deployments
        counted from rows.start; their walks move on to their first index at
        or past stop."""
        pos, gaps = self.pos[rows], self.gaps[rows]
        live = np.flatnonzero(pos < stop).astype(_index_type(pos.size))
        t, j = [live[:0]], [pos[:0]]
        # about the gaps that the walks need to pass stop, then twice as many
        # at each step for those that have not
        count = int((stop - start) * self.field.share) + 1
        while live.size:
            # each walk's next index, then floor(gap) + 1 to each next one
            walk = np.empty((count + 1, live.size))
            walk[0] = pos[live]
            self._gaps(seeds[live], gaps[live], walk[1:])
            walk[1:] += 1.0
            np.cumsum(walk, axis=0, out=walk)
            # the walk's next index is its first at or past stop, or its
            # last; the ones before it in start .. stop - 1 are found
            kept = walk < stop
            taken = np.minimum(np.count_nonzero(kept, axis=0), count)
            kept &= walk >= start
            t.append(np.broadcast_to(live, (count, live.size))[kept[:-1]])
            j.append(walk[:-1][kept[:-1]])
            pos[live] = walk[taken, np.arange(live.size)]
            gaps[live] += taken.astype(np.uint64)
            live = live[pos[live] < stop]
            count *= 2
            del walk, kept  # before the next round's walk is made
        return np.concatenate(t), np.concatenate(j, dtype=_index_type(stop), casting="unsafe")

    def keep(self, rows: np.ndarray) -> None:
        """Drop the deployments not selected by the boolean mask `rows`."""
        self.pos, self.gaps = self.pos[rows], self.gaps[rows]


def _screened(seeds: np.ndarray, counters: np.ndarray, a: int, width: int) -> np.ndarray:
    """The (seeds x counters) mask of raw draws in [a, a + width], taken mod
    2^64, in tiles of up to _SCREEN_BLOCK draws: whole rows, or row pieces."""
    candidate = np.empty((seeds.size, counters.size), dtype=bool)
    columns = max(1, min(counters.size, _SCREEN_BLOCK))
    rows = _SCREEN_BLOCK // columns
    # the tile's draws and the mix's shifts
    buffers = [np.empty(min(rows, seeds.size) * columns, dtype=np.uint64) for _ in range(2)]
    for lo in range(0, seeds.size, rows):
        tile = seeds[lo:lo + rows, None]
        for left in range(0, counters.size, columns):
            piece = counters[left:left + columns]
            raw, scratch = (b[:tile.size * piece.size].reshape(tile.size, piece.size)
                            for b in buffers)
            raw_draws(tile, piece, raw, scratch)
            raw -= np.uint64(a)
            np.less_equal(raw, np.uint64(width), out=candidate[lo:lo + rows, left:left + columns])
    return candidate


def _index_type(size: int):
    """The narrowest index type that holds every index below size."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.intp


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
    if not np.all((z >= 0) & np.isfinite(z)):
        raise ValueError("samples must be finite and nonnegative")
    z = z / params.sigma
    f, fprime, f0 = STEIN_TEST_FUNCTIONS[test_function]
    return float(np.mean(fprime(z)) - np.mean(z * f(z)) + f0 * SQRT_2_OVER_PI)
