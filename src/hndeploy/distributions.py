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
rejection attempt starting at base = j * 256 + 4 * attempt. half_normal
and quadrant read one Box-Muller pair: u1 at base gives the radius
rho = sigma sqrt(-2 ln u1) and u2 at base + 1 the angle phi = 2 pi u2, and
the sensor is (|rho cos phi|, rho sin phi), or (|rho cos phi|, |rho sin phi|)
for quadrant. strip's x is the same |rho cos phi| and its uniform y reads
base + 2. Draws falling outside a bounded region are rejected and redrawn
from the next attempt slot, up to MAX_ATTEMPTS per sensor. A uniform field
(UniformField) splits its sensors by |y| into an inner band, which holds a
fixed share of them and depends on the model alone, and the rest: which
indices are inner comes from Geometric gaps read past every sensor's
counter block (exact up to the rounding of log, not bit-identical to a
per-sensor Bernoulli draw); a sensor's uniform x reads counter base and its
y, uniform on its part of the region, base + 1, both clamped into the
region. The addressing makes batched, sequential, column-chunked
(sample_positions with first > 0), screened (sample_screened) and
window-by-window (InnerPicks) sampling bit-identical.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rectangle
from .rng import check_integer, check_real, normal_draws, normal_pairs, raw_draws, uniform_draws

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

MAX_ATTEMPTS = 64
_DRAWS_PER_ATTEMPT = 4
_BLOCK = MAX_ATTEMPTS * _DRAWS_PER_ATTEMPT
# sample_screened screens about _SCREEN_BLOCK sensors and places _PLACE_BLOCK
# candidates at a time, so its temporaries stay small whatever the grid; the
# screen's steps are cheap per sensor, so its blocks are larger, which keeps
# two worker threads from queuing on the interpreter lock between them
_SCREEN_BLOCK = 1 << 17
_PLACE_BLOCK = 1 << 14
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
    draw: Callable[[np.ndarray, np.ndarray], np.ndarray]
    counters: int
    # every draw lies within the bounds marginal() was given
    within: bool


def marginal(shape: str, sigma: Optional[float], lo: float, hi: float) -> Marginal:
    """The "uniform", "half_normal" or "normal" marginal on the bounds [lo, hi].

    lo and hi are the law's support clipped to the bounds (a uniform law is
    [lo, hi] itself); mass(a, b) is 0 when a >= b; pdf is the density on the
    support; draw(seeds, base) reads `counters` counters from base (a
    (half-)normal draw is the cosine branch of a Box-Muller pair). within
    says exactly whether every draw lies within the bounds given: a uniform
    draw lo + width * u, with u in (0, 1], lies in [lo, lo + width], and
    lo + width may round above hi; a (half-)normal draw is finite but
    unbounded, so only bounds of -inf (or one <= 0 when folded) and +inf
    hold it.
    """
    if shape == "uniform":
        width = hi - lo
        inverse = 1.0 / width
        return Marginal(lo, hi, lambda a, b: (b - a) / width if a < b else 0.0, lambda x: inverse,
                        lambda seeds, base: lo + width * uniform_draws(seeds, base), 1,
                        lo + width <= hi)
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

    return Marginal(max(0.0, lo) if folded else lo, hi, mass, pdf, draw, 2,
                    (lo <= 0.0 if folded else lo == -math.inf) and hi == math.inf)


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

    @property
    def rejects(self) -> bool:
        """Whether a draw can fall outside the region, so sampling must test it
        (never for uniform, whose UniformField clamps its draws into the region)."""
        return self.kind != DeploymentKind.UNIFORM and not all(m.within for m in self.marginals())

    @property
    def polar(self) -> bool:
        """Whether x and y are the two branches of one Box-Muller pair (half_normal, quadrant)."""
        return "uniform" not in MARGINALS[self.kind]

    def draw(self, seeds, base) -> Tuple[np.ndarray, np.ndarray]:
        """x and y of the attempt whose first counter is base, before the region test."""
        if self.polar:
            x, y = normal_pairs(seeds, base)
            np.abs(x, out=x)
            x *= self.sigma
            y *= self.sigma
            if MARGINALS[self.kind][1] == "half_normal":
                np.abs(y, out=y)
            return x, y
        mx, my = self.marginals()
        return mx.draw(seeds, base), my.draw(seeds, base + np.uint64(mx.counters))


class SamplingError(Exception):
    """Rejection sampling exceeded the retry bound (sigma mismatched to region)."""


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


def _counter_base(j: np.ndarray, attempt: int) -> np.ndarray:
    """First counter of attempt `attempt` of sensors j (uint64)."""
    return j * np.uint64(_BLOCK) + np.uint64(attempt * _DRAWS_PER_ATTEMPT)


def _place(model: DeploymentModel, seeds: np.ndarray,
           columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and y of sensors `columns` (uint64) of the deployments keyed by
    `seeds`, which broadcast together.

    The first attempt draws every sensor at once; only the draws a bounded
    region rejects are redrawn, from further attempt slots of the same counter
    block. A model that never rejects (DeploymentModel.rejects) skips the
    test.
    """
    xs, ys = model.draw(seeds, _counter_base(columns, 0))
    if not model.rejects:
        return xs, ys
    seeds, columns = np.broadcast_arrays(seeds, columns)
    region = model.region
    pending = np.nonzero(~region.contains(xs, ys))
    for attempt in range(1, MAX_ATTEMPTS):
        if pending[0].size == 0:
            break
        x, y = model.draw(seeds[pending], _counter_base(columns[pending], attempt))
        accepted = region.contains(x, y)
        placed = tuple(index[accepted] for index in pending)
        xs[placed], ys[placed] = x[accepted], y[accepted]
        pending = tuple(index[~accepted] for index in pending)
    if pending[0].size:
        raise SamplingError(
            f"{pending[0].size} draw(s) still rejected after {MAX_ATTEMPTS} attempts; "
            "sigma is grossly mismatched to the bounded region"
        )
    return xs, ys


def sample_positions(model: DeploymentModel, n: int, seeds: np.ndarray,
                     first: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Sensors first .. n - 1 of each seed's deployment; x and y of shape (len(seeds), n - first).

    Each seed keys one independent deployment, and sensor j reads counter
    block j whatever the call, so first = 0 gives the whole field and any
    other first gives its last n - first columns, bit-identical. A uniform
    field is placed through its UniformField.
    """
    n = check_integer("n", n)
    first = check_integer("first", first, 0, n)
    seeds = np.asarray(seeds, dtype=np.uint64)
    columns = np.arange(first, n, dtype=np.uint64)
    if model.kind != DeploymentKind.UNIFORM:
        return _place(model, seeds[:, None], columns)
    field = UniformField(model)
    t, j = InnerPicks(field, seeds).advance(first, n, slice(0, seeds.size))
    return field.place(seeds[:, None], columns, t * (n - first) + (j - first))


def _linear(lo: float, hi: float, within: bool, u):
    """lo + (hi - lo) u for the uniform u (an array, which it overwrites, or
    a float, rounded alike), at most hi unless `within` says that it always
    is; nondecreasing in u."""
    if isinstance(u, float):
        v = lo + (hi - lo) * u
        return v if within else min(v, hi)
    u *= hi - lo
    u += lo
    return u if within else np.minimum(u, hi, out=u)


class UniformField:
    """A uniform deployment's field, split by |y| into an inner band and the
    rest so that the inner sensors can be enumerated without reading the
    others.

    The inner band is the region's y within |y| <= bound, which holds
    _INNER_SHARE of the y mass (share, after rounding); bound depends on the
    model alone. Each sensor index is inner with probability share, by a
    Bernoulli process enumerated through Geometric(share) gaps,
    floor(ln u / ln(1 - share)): gap m reads u at counter _GAP_COUNTER + m of
    the deployment's own stream, past every sensor's counter block, and the
    first inner index is gap 0, each next one the last plus 1 plus the next
    gap. That is exact up to the rounding of log, not bit-identical to a
    per-sensor Bernoulli draw. Sensor j's x is uniform on the region's x
    from u at counter 256 j, and its y, from u at 256 j + 1, uniform on the
    band if it is inner and on the rest of the region's y (up to two
    intervals, with |y| >= bound up to rounding: >= outer_min) if not, so y
    is uniform on the region. Every draw is clamped into the region, so the
    field never rejects.
    """

    def __init__(self, model: DeploymentModel):
        (x, y), region = model.marginals(), model.region
        self._x, self._y = (x.lo, x.hi, x.within), (y.lo, y.hi)
        # the region's y within |y| <= w starts at the least |y| it holds,
        # `near`, and grows on both sides of 0 until w reaches `both`, then
        # on one side
        near = max(y.lo, -y.hi, 0.0)
        both = max(0.0, min(-y.lo, y.hi))
        length = _INNER_SHARE * region.height
        self.bound = near + (0.5 * length if length <= 2.0 * both else length - both)
        lo, hi = max(y.lo, -self.bound), min(y.hi, self.bound)
        self._inner = (lo, hi, lo + (hi - lo) <= hi)
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

    def x(self, u):
        """x at the uniform u (an array or a float, rounded alike)."""
        return _linear(*self._x, u)

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

    def place(self, seeds, columns, inner) -> Tuple[np.ndarray, np.ndarray]:
        """x and y of sensors `columns` of the deployments keyed by `seeds`,
        which broadcast together; inner is True where every sensor is inner,
        else the flat indices of the inner ones among the result."""
        base = np.asarray(columns, dtype=np.uint64) * np.uint64(_BLOCK)
        xs = self.x(uniform_draws(seeds, base))
        u = uniform_draws(seeds, base + np.uint64(1))
        if inner is True:
            return xs, _linear(*self._inner, u)
        inner_u = u.flat[inner]
        ys = self.outer_y(u)
        ys.flat[inner] = _linear(*self._inner, inner_u)
        return xs, ys

    def sample(self, seeds: np.ndarray, start: int, stop: int, inner: np.ndarray,
               screen: Optional[Tuple[int, int, int]]) -> Tuple[np.ndarray, np.ndarray, Tuple]:
        """The candidates among sensors start .. stop - 1 of each seed's
        deployment: their x, their y and their (seed, column) indices, in
        row-major order. inner is the (seeds x columns) mask of the inner
        sensors among them.

        screen = (offset, a, width): a sensor is a candidate when the raw draw
        at counter 256 j + offset lies in [a, a + width], taken mod 2^64, and,
        where offset is 1 (y), when it is inner. Only that raw draw is read
        for every sensor. With screen None every sensor is one, x and y are
        (seeds x columns) grids and the indices None.
        """
        columns = np.arange(start, stop, dtype=np.uint64)
        if screen is None:
            return (*self.place(seeds[:, None], columns, np.flatnonzero(inner)), None)
        offset, a, span = screen
        candidate = _screened(seeds, columns * np.uint64(_BLOCK) + np.uint64(offset), a, span)
        if offset == 1:
            candidate |= inner
        cell = _cells(candidate)
        t, j = np.divmod(cell, stop - start)
        xs, ys = self.place(seeds[t], columns[j], np.flatnonzero(inner.ravel()[cell]))
        return xs, ys, (t, j + start)


class InnerPicks:
    """The inner sensor indices of a UniformField's deployments, enumerated
    by index windows in order."""

    def __init__(self, field: UniformField, seeds: np.ndarray):
        self.field, self.seeds = field, seeds
        # each deployment's next inner index, not yet returned, as a float
        # (exact below 2^53; larger ones are past any sensor), and the number
        # of gaps read: the first index is gap 0
        self.gaps = np.zeros(seeds.size, dtype=np.uint64)
        self.pos = self._gaps(seeds, self.gaps, 1)[0]
        if field.share == 0.0:
            self.pos[:] = math.inf
        self.gaps += np.uint64(1)

    def _gaps(self, seeds: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
        """Gaps first .. first + count - 1 of each deployment, one column each."""
        counters = np.arange(_GAP_COUNTER, _GAP_COUNTER + count, dtype=np.uint64)[:, None] + first
        gaps = np.log(uniform_draws(seeds, counters))
        gaps *= self.field._gap_scale
        return np.floor(gaps, out=gaps)

    def advance(self, start: int, stop: int, rows: slice) -> Tuple[np.ndarray, np.ndarray]:
        """(deployment, index) of the inner indices in start .. stop - 1 of the
        deployments `rows`, in no set order, with deployments counted from
        rows.start; their walks move on to their first index at or past stop."""
        found = []
        live = rows.start + np.flatnonzero(self.pos[rows] < stop)
        # about the gaps that the walks need to pass stop, then twice as many
        # at each step for those that have not
        count = int((stop - start) * self.field.share) + 1
        while live.size:
            pos = self.pos[live]
            returned = pos >= start
            found.append((live[returned] - rows.start, pos[returned]))
            # floor(gap) + 1 from each index to the next
            walk = self._gaps(self.seeds[live], self.gaps[live], count)
            walk += 1.0
            walk[0] += pos
            np.cumsum(walk, axis=0, out=walk)
            # the walk's next index is its first at or past stop, or its last
            taken = np.minimum(np.count_nonzero(walk < stop, axis=0), count - 1)
            c, t = np.nonzero((walk >= start) & (np.arange(count)[:, None] < taken))
            found.append((live[t] - rows.start, walk[c, t]))
            self.pos[live] = walk[taken, np.arange(live.size)]
            self.gaps[live] += (taken + 1).astype(np.uint64)
            live = live[self.pos[live] < stop]
            count *= 2
        if not found:
            return np.empty(0, np.intp), np.empty(0, np.int64)
        return (np.concatenate([t for t, _ in found]),
                np.concatenate([j for _, j in found]).astype(np.int64))

    def keep(self, rows: np.ndarray) -> None:
        """Drop the deployments not selected by the boolean mask `rows`."""
        self.seeds, self.pos, self.gaps = self.seeds[rows], self.pos[rows], self.gaps[rows]


def _screened(seeds: np.ndarray, counters: np.ndarray, a: int, width: int) -> np.ndarray:
    """The (seeds x counters) mask of raw draws in [a, a + width], taken mod
    2^64, computed about _SCREEN_BLOCK at a time."""
    candidate = np.empty((seeds.size, counters.size), dtype=bool)
    rows = max(1, _SCREEN_BLOCK // max(counters.size, 1))
    for lo in range(0, seeds.size, rows):
        raw = raw_draws(seeds[lo:lo + rows, None], counters)
        raw -= np.uint64(a)
        np.less_equal(raw, np.uint64(width), out=candidate[lo:lo + rows])
    return candidate


def _cells(mask: np.ndarray) -> np.ndarray:
    """The flat indices of mask's true cells, in the narrowest index type
    that holds the grid."""
    index = np.int32 if mask.size <= np.iinfo(np.int32).max else np.intp
    return np.flatnonzero(mask).astype(index)


def sample_screened(model: DeploymentModel, n: int, seeds: np.ndarray, first: int,
                    screen: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray, Tuple]:
    """The candidates among sensors first .. n - 1 of each seed's deployment:
    their x, their y and their (seed, column) indices, in row-major order.

    screen = (a, width): a sensor is a candidate when the raw draw at the
    first counter of its first attempt lies in [a, a + width], taken mod
    2^64 (raw - a <= width in uint64 arithmetic). Only that one raw
    draw is read for every sensor; the candidates are placed in full, with
    rejection, so their positions are bit-identical to sample_positions'.
    Both steps run in blocks. A uniform model is refused: its field is
    placed through UniformField, not attempt by attempt.
    """
    if model.kind == DeploymentKind.UNIFORM:
        raise ValueError("a uniform field is placed through UniformField, not screened")
    n = check_integer("n", n)
    first = check_integer("first", first, 0, n)
    seeds = np.asarray(seeds, dtype=np.uint64)
    columns = np.arange(first, n, dtype=np.uint64)
    t, j = np.divmod(_cells(_screened(seeds, _counter_base(columns, 0), *screen)),
                     max(n - first, 1))
    xs, ys = np.empty(t.size), np.empty(t.size)
    for lo in range(0, t.size, _PLACE_BLOCK):
        block = slice(lo, lo + _PLACE_BLOCK)
        xs[block], ys[block] = _place(model, seeds[t[block]], columns[j[block]])
    return xs, ys, (t, j)


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
