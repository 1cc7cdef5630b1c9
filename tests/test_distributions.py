import math
import statistics
import sys
import tracemalloc

import numpy as np
import pytest

from hndeploy import distributions
from hndeploy.distributions import (
    MARGINALS,
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    Field,
    InnerPicks,
    correlated_half_normal_pdf,
    half_normal_cdf,
    half_normal_mean,
    half_normal_pdf,
    halfplane_pdf,
    marginal,
    sample_positions,
    stein_residual,
)
from hndeploy.geometry import HalfPlane, Rectangle
from hndeploy.numerics import QuadratureSpec, integrate_1d, integrate_2d
from hndeploy.rng import (derive_stream_seeds, raw_draw, raw_draws, uniform_draw, uniform_draws,
                          uniforms)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _half_normal_x(params, n, seed):
    """The x column of one half-plane half_normal deployment: n iid half-normal draws."""
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), params.sigma)
    xs, _ = sample_positions(model, n, np.array([seed], dtype=np.uint64))
    return xs[0]


class TestHalfNormalPdf:
    def test_at_zero(self):
        assert half_normal_pdf(0.0, HalfNormalParams(1.0)) == pytest.approx(
            0.7978845608, abs=1e-9)

    def test_outside_support(self):
        assert half_normal_pdf(-1.0, HalfNormalParams(1.0)) == 0.0

    def test_at_one(self):
        # cross-checked by numerical differentiation of the CDF
        params = HalfNormalParams(1.0)
        assert half_normal_pdf(1.0, params) == pytest.approx(0.4839414490, abs=1e-9)
        h = 1e-6
        slope = (half_normal_cdf(1.0 + h, params) - half_normal_cdf(1.0 - h, params)) / (2 * h)
        assert half_normal_pdf(1.0, params) == pytest.approx(slope, abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            half_normal_pdf(math.nan, HalfNormalParams(1.0))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 5.0, 20.0])
    def test_normalization(self, sigma):
        params = HalfNormalParams(sigma)
        total = integrate_1d(lambda y: half_normal_pdf(y, params),
                             0.0, 12.0 * sigma, QuadratureSpec(1e-8))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_scale_equivariance(self):
        for sigma in (0.25, 2.0, 7.5):
            for y in (0.0, 0.3, 1.0, 4.0):
                lhs = half_normal_pdf(y, HalfNormalParams(sigma))
                rhs = half_normal_pdf(y / sigma, HalfNormalParams(1.0)) / sigma
                assert lhs == pytest.approx(rhs, rel=1e-14)


class TestHalfNormalCdf:
    def test_at_zero(self):
        assert half_normal_cdf(0.0, HalfNormalParams(1.0)) == 0.0

    def test_at_one(self):
        assert half_normal_cdf(1.0, HalfNormalParams(1.0)) == pytest.approx(
            0.6826894921, abs=1e-9)

    def test_tail_saturation(self):
        assert half_normal_cdf(20.0, HalfNormalParams(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_argument(self):
        assert half_normal_cdf(-0.5, HalfNormalParams(1.0)) == 0.0

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, y):
        with pytest.raises(ValueError):
            half_normal_cdf(y, HalfNormalParams(1.0))

    def test_matches_pdf_quadrature(self):
        params = HalfNormalParams(1.3)
        for y in np.linspace(0.1, 6.0, 12):
            quad = integrate_1d(lambda t: half_normal_pdf(t, params),
                                0.0, float(y), QuadratureSpec(1e-10))
            assert half_normal_cdf(float(y), params) == pytest.approx(quad, abs=1e-7)

    def test_monotone(self):
        params = HalfNormalParams(2.0)
        values = [half_normal_cdf(y, params) for y in np.linspace(0, 15, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestHalfNormalMean:
    def test_sigma_one(self):
        assert half_normal_mean(HalfNormalParams(1.0)) == pytest.approx(
            0.7978845608, abs=1e-9)

    def test_sigma_two(self):
        assert half_normal_mean(HalfNormalParams(2.0)) == pytest.approx(
            1.5957691216, abs=1e-9)

    def test_linearity_in_sigma(self):
        for k in (0.5, 3.0, 10.0):
            assert half_normal_mean(HalfNormalParams(k)) == pytest.approx(
                k * half_normal_mean(HalfNormalParams(1.0)), rel=1e-14)


class TestSampling:
    def test_draws_nonnegative(self):
        assert np.all(_half_normal_x(HalfNormalParams(1.0), 100, 3) >= 0.0)

    def test_sample_mean(self):
        n = 1_000_000
        z = _half_normal_x(HalfNormalParams(1.0), n, 101)
        assert abs(z.mean() - SQRT_2_OVER_PI) < 0.003  # 5 SE

    def test_vector_matches_stream(self):
        params = HalfNormalParams(2.5)
        # sensor i's x inverts the half-normal CDF at the raw draw of counter 256 i
        sequential = [_reference_axis("half_normal", params.sigma, 0.0, math.inf,
                                      raw_draw(88, 256 * i)) for i in range(200)]
        np.testing.assert_array_max_ulp(_half_normal_x(params, 200, 88),
                                        np.array(sequential), maxulp=_NORMAL_MAXULP)

    def test_kolmogorov_smirnov(self):
        params = HalfNormalParams(1.0)
        n = 10_000
        critical = 1.628 / math.sqrt(n)  # significance 0.01
        for seed in (5, 6):  # one retry to bound the flake rate
            z = np.sort(_half_normal_x(params, n, seed))
            cdf = np.array([half_normal_cdf(float(v), params) for v in z])
            stat = max(np.max(np.arange(1, n + 1) / n - cdf),
                       np.max(cdf - np.arange(0, n) / n))
            if stat <= critical:
                break
        assert stat <= critical


    @pytest.mark.parametrize("kind", [DeploymentKind.HALF_NORMAL, DeploymentKind.QUADRANT])
    def test_x_and_y_are_two_independent_marginals(self, kind):
        # x and y come from two raw draws of the sensor's counter block: each
        # follows its marginal (Kolmogorov-Smirnov at the 1% level) and the
        # pair is independent (chi-square on the table of the quartiles of x
        # and |y|, 9 degrees of freedom, at the 1% level)
        n = 40_000
        model = DeploymentModel(kind, HalfPlane(), 2.0)
        xs, ys = sample_positions(model, n, np.array([17], dtype=np.uint64))
        for z, m in zip((xs[0], ys[0]), model.marginals()):
            z = np.sort(z)
            cdf = np.array([m.mass(m.lo, v) for v in z.tolist()])
            stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
            assert stat <= 1.628 / math.sqrt(n)
        quartile = [np.searchsorted(np.quantile(z, [0.25, 0.5, 0.75]), z)
                    for z in (xs[0], np.abs(ys[0]))]
        table = np.zeros((4, 4))
        np.add.at(table, tuple(quartile), 1)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
        assert np.sum((table - expected) ** 2 / expected) <= 21.666


# (shape, sigma, bounds): each shape on bounded and, where it can be, unbounded bounds
MARGINAL_CASES = [
    ("uniform", None, (-2.0, 6.0)),
    ("uniform", None, (0.5, 0.75)),
    ("half_normal", 1.5, (0.0, math.inf)),
    ("half_normal", 1.5, (-1.0, 2.5)),
    ("half_normal", 4.0, (1.0, 3.0)),
    ("normal", 2.0, (-math.inf, math.inf)),
    ("normal", 2.0, (-1.0, 3.0)),
]


def _law_support(shape, bounds):
    """Support of the untruncated law; the marginal's support is this within the bounds."""
    return {"uniform": bounds, "half_normal": (0.0, math.inf),
            "normal": (-math.inf, math.inf)}[shape]


@pytest.mark.parametrize("shape,sigma,bounds", MARGINAL_CASES)
class TestMarginal:
    def test_support_and_unit_mass(self, shape, sigma, bounds):
        m = marginal(shape, sigma, *bounds)
        law_lo, law_hi = _law_support(shape, bounds)
        assert (m.lo, m.hi) == (max(law_lo, bounds[0]), min(law_hi, bounds[1]))
        assert m.mass(law_lo, law_hi) == pytest.approx(1.0, abs=1e-15)
        assert m.mass(m.hi, m.lo) == 0.0 and m.mass(m.lo, m.lo) == 0.0

    def test_density_integrates_to_mass(self, shape, sigma, bounds):
        m = marginal(shape, sigma, *bounds)
        lo = m.lo if math.isfinite(m.lo) else -8.0 * sigma
        hi = m.hi if math.isfinite(m.hi) else 8.0 * sigma
        w = hi - lo
        for a, b in ((lo, hi), (lo, lo + 0.3 * w), (lo + 0.25 * w, lo + 0.4 * w),
                     (lo + 0.5 * w, hi), (lo + 0.9 * w, lo + 0.9001 * w)):
            assert integrate_1d(m.pdf, a, b, QuadratureSpec(1e-12)) == pytest.approx(
                m.mass(a, b), abs=1e-9)

    def test_draws_follow_mass(self, shape, sigma, bounds):
        # the draw is the law truncated to the bounds
        m = marginal(shape, sigma, *bounds)
        n = 100_000
        z = np.sort(m.at(uniforms(raw_draws(np.uint64(2718), np.arange(n, dtype=np.uint64)),
                                  m.bits)))
        assert m.lo <= z[0] and z[-1] <= m.hi
        cdf = np.array([m.mass(m.lo, v) for v in z.tolist()]) / m.mass(m.lo, m.hi)
        stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert stat <= 1.628 / math.sqrt(n)  # asymptotic KS critical value at the 1% level

    def test_scalar_twin_rounds_as_the_array(self, shape, sigma, bounds):
        # the float map the screen bisects and the array map differ only by
        # the inverse normal CDF's log (test_rng), and are nondecreasing in u
        m = marginal(shape, sigma, *bounds)
        u = uniforms(raw_draws(np.uint64(31), np.arange(2000, dtype=np.uint64)), m.bits)
        u = np.sort(np.concatenate([u, [u.min() / 7, 1.0 - 2.0 ** -53]]))
        twin = np.array([m.at(float(v)) for v in u])
        np.testing.assert_array_max_ulp(m.at(u.copy()), twin, maxulp=_NORMAL_MAXULP)
        assert np.all(np.diff(twin) >= 0.0)


class TestCorrelatedPdf:
    def test_mode_value(self):
        params = Correlated2DParams(1.0, 1.0, 0.0)
        assert correlated_half_normal_pdf(0.0, 0.0, params) == pytest.approx(
            2.0 / math.pi, abs=1e-12)

    def test_outside_quadrant(self):
        params = Correlated2DParams(1.0, 2.0, 0.3)
        assert correlated_half_normal_pdf(-0.5, 1.0, params) == 0.0
        assert correlated_half_normal_pdf(1.0, -0.1, params) == 0.0

    def test_reduces_to_product_form_at_zero_rho(self):
        sigma = 1.7
        params = Correlated2DParams(sigma, sigma, 0.0)
        for x in np.linspace(0.0, 5.0, 10):
            for y in np.linspace(0.0, 5.0, 10):
                product = (2.0 / (math.pi * sigma * sigma)
                           * math.exp(-(x * x + y * y) / (2.0 * sigma * sigma)))
                assert correlated_half_normal_pdf(float(x), float(y), params) == \
                    pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize("s1,s2,rho", [(1.0, 1.0, 0.0), (1.0, 2.0, 0.5), (2.0, 1.0, -0.5)])
    def test_normalization(self, s1, s2, rho):
        params = Correlated2DParams(s1, s2, rho)
        hi = 10.0 * max(s1, s2)
        total = integrate_2d(lambda x, y: correlated_half_normal_pdf(x, y, params),
                             (0.0, hi), (0.0, hi), QuadratureSpec(1e-6))
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Correlated2DParams(0.0, 1.0, 0.0)
        for rho in (1.0, -1.0):
            with pytest.raises(ValueError, match=r"^rho must lie in \(-1, 1\)$"):
                Correlated2DParams(1.0, 1.0, rho)
        assert type(Correlated2DParams(1.0, 1.0, 0).rho) is float
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Correlated2DParams(bad, 1.0, 0.0)
            with pytest.raises(ValueError):
                Correlated2DParams(1.0, bad, 0.0)


class TestHalfplanePdf:
    def test_at_origin(self):
        assert halfplane_pdf(0.0, 0.0, HalfNormalParams(1.0)) == pytest.approx(
            1.0 / math.pi, abs=1e-12)

    def test_y_symmetry(self):
        params = HalfNormalParams(1.4)
        assert halfplane_pdf(1.0, 0.5, params) == halfplane_pdf(1.0, -0.5, params)

    def test_outside_halfplane(self):
        assert halfplane_pdf(-1.0, 0.0, HalfNormalParams(1.0)) == 0.0

    def test_normalization(self):
        params = HalfNormalParams(1.0)
        total = integrate_2d(lambda x, y: halfplane_pdf(x, y, params),
                             (0.0, 12.0), (-12.0, 12.0), QuadratureSpec(1e-6))
        assert total == pytest.approx(1.0, abs=1e-4)


class TestDeploymentSampling:
    def test_zero_sensors(self):
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=1.0)
        xs, ys = sample_positions(model, 0, np.array([1, 2, 3], dtype=np.uint64))
        assert xs.shape == ys.shape == (3, 0)

    def test_uniform_within_bounds(self):
        region = Rectangle(0.0, 100.0, 0.0, 100.0)
        model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
        xs, ys = sample_positions(model, 500, np.array([2], dtype=np.uint64))
        assert np.all(region.contains(xs, ys))

    def test_half_normal_x_mean(self):
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=5.0)
        seeds = np.arange(1, dtype=np.uint64) + np.uint64(400)
        xs, ys = sample_positions(model, 100_000, seeds)
        expected = 5.0 * SQRT_2_OVER_PI
        se = 5.0 * math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(xs.size)
        assert abs(xs.mean() - expected) < 5 * se
        # y is symmetric around the path
        assert abs(ys.mean()) < 5 * 5.0 / math.sqrt(ys.size)

    def test_half_normal_positions_nonnegative_x(self):
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=2.0)
        xs, _ = sample_positions(model, 1000, np.array([9], dtype=np.uint64))
        assert np.all(xs >= 0.0)

    def test_bounded_region_truncation(self):
        region = Rectangle(0.0, 4.0, -2.0, 2.0)
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=region, sigma=3.0)
        xs, ys = sample_positions(model, 2000, np.array([77], dtype=np.uint64))
        assert np.all(region.contains(xs, ys))

    def test_quadrant_positive_coordinates(self):
        model = DeploymentModel(kind=DeploymentKind.QUADRANT, region=HalfPlane(), sigma=1.0)
        xs, ys = sample_positions(model, 1000, np.array([3], dtype=np.uint64))
        assert np.all(xs >= 0.0)
        assert np.all(ys >= 0.0)

    def test_strip_uniform_y(self):
        region = Rectangle(0.0, 50.0, 0.0, 10.0)
        model = DeploymentModel(kind=DeploymentKind.STRIP, region=region, sigma=4.0)
        xs, ys = sample_positions(model, 50_000, np.array([15], dtype=np.uint64))
        assert np.all((ys >= 0.0) & (ys <= 10.0))
        assert abs(ys.mean() - 5.0) < 5 * 10.0 / math.sqrt(12 * ys.size)

    def test_tiny_region_is_sampled_within_it(self):
        # sigma vastly larger than the region: the truncated law is nearly flat
        region = Rectangle(0.0, 1e-4, -1e-4, 1e-4)
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=region, sigma=100.0)
        xs, ys = sample_positions(model, 5000, np.array([5], dtype=np.uint64))
        assert np.all(region.contains(xs, ys))
        assert abs(xs.mean() - 5e-5) < 5 * 1e-4 / math.sqrt(12 * xs.size)

    @pytest.mark.parametrize("kind,region", [
        (DeploymentKind.HALF_NORMAL, Rectangle(40.0, 50.0, -5.0, 5.0)),
        (DeploymentKind.QUADRANT, Rectangle(0.0, 5.0, -30.0, -20.0)),
        (DeploymentKind.STRIP, Rectangle(-30.0, -20.0, -5.0, 5.0)),
    ])
    def test_region_without_mass_is_refused(self, kind, region):
        # the one rule the analytic engine uses: the law puts no mass there
        model = DeploymentModel(kind, region, 1.0)
        message = f"^region .* carries no {kind.value} deployment mass at sigma=1.0$"
        for call in (model.region_mass, lambda: Field(model),
                     lambda: sample_positions(model, 3, np.array([1], dtype=np.uint64))):
            with pytest.raises(ValueError, match=message):
                call()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DeploymentModel(kind=DeploymentKind.UNIFORM, region=HalfPlane())
        with pytest.raises(ValueError):
            DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane())
        with pytest.raises(ValueError):
            sample_positions(
                DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=1.0),
                -1, np.array([0], dtype=np.uint64))

    # a subnormal sigma overflows 1 / (sigma sqrt 2), and the density would be inf * 0 = nan
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-320, 5e-324,
                                       sys.float_info.min * (1 - 2**-52)])
    def test_model_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=sigma)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, True, "abc"])
    def test_uniform_model_checks_a_given_sigma(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be"):
            DeploymentModel(DeploymentKind.UNIFORM, Rectangle(0.0, 1.0, 0.0, 1.0), sigma)

    def test_uniform_model_sigma_is_optional(self):
        region = Rectangle(0.0, 1.0, 0.0, 1.0)
        assert DeploymentModel(DeploymentKind.UNIFORM, region).sigma is None
        sigma = DeploymentModel(DeploymentKind.UNIFORM, region, 5).sigma
        assert sigma == 5.0 and type(sigma) is float

    @pytest.mark.parametrize("kind", [DeploymentKind.UNIFORM, DeploymentKind.STRIP])
    def test_bounded_kinds_reject_partly_unbounded_region(self, kind):
        with pytest.raises(ValueError, match=f"^{kind.value} deployment requires a bounded "
                                             "rectangle region$"):
            DeploymentModel(kind=kind, region=Rectangle(0.0, math.inf, -5.0, 5.0), sigma=1.0)

    def test_kind_name_becomes_kind(self):
        assert DeploymentModel("half_normal", HalfPlane(), 5.0).kind is DeploymentKind.HALF_NORMAL

    def test_kind_name_checked_against_region(self):
        with pytest.raises(ValueError, match="^uniform deployment requires a bounded rectangle "
                                             "region$"):
            DeploymentModel("uniform", HalfPlane())

    def test_unknown_kind_name_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            DeploymentModel("bogus", HalfPlane(), 5.0)

    def test_deterministic_replay(self):
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=1.0)
        seeds = np.array([42, 43], dtype=np.uint64)
        first, second = sample_positions(model, 20, seeds), sample_positions(model, 20, seeds)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()


def _reference_inner(field, n, seed):
    """The inner indices below n, by a scalar walk of the Geometric gaps: gap
    m reads u at counter 2^63 + m of the seed, and each inner index is the
    last plus 1 plus the next gap, from -1."""
    inner, j, m = [], -1, 0
    while True:
        j += 1 + math.floor(math.log(uniform_draw(seed, 2**63 + m)) * field._gap_scale)
        m += 1
        if j >= n:
            return inner
        inner.append(j)


def _reference_y(field, region, inner, u):
    """y from u: uniform on the band [max(y_min, -bound), min(y_max, bound)]
    for an inner sensor; for any other, t = u times the rest's length, from
    y_min, stepping over the band's length past the piece below it."""
    lo, hi = max(region.y_min, -field.bound), min(region.y_max, field.bound)
    if inner:
        return min(lo + (hi - lo) * u, hi)
    t = u * ((lo - region.y_min) + (region.y_max - hi))
    return min(t + region.y_min + ((hi - lo) if t > lo - region.y_min else 0.0), region.y_max)


def _reference_axis(shape, sigma, lo, hi, raw):
    """One coordinate from one raw draw, by the documented inversion: a
    uniform axis lo + (hi - lo) u, at most hi, with u = (m + 1) 2^-53 of
    m = raw >> 11; a (half-)normal one F^-1(F(lo) + u (F(hi) - F(lo))), with
    u = (m + 1/2) 2^-52 of m = raw >> 12, p at most 1 - 2^-53, the support
    clipped to x >= 0 when folded and reflected through 0 where lo > 0,
    clamped into [lo, hi]."""
    if shape == "uniform":
        return min(lo + (hi - lo) * (((raw >> 11) + 1) * 2.0 ** -53), hi)
    if shape == "half_normal":
        lo = max(0.0, lo)
    sign = -1.0 if lo > 0.0 else 1.0
    cdf = statistics.NormalDist(0.0, sigma).cdf
    p_lo, p_hi = (0.5 * math.erfc(-sign * v / (sigma * math.sqrt(2.0))) for v in (lo, hi))
    u = ((raw >> 12) + 0.5) * 2.0 ** -52
    assert abs(p_lo - cdf(sign * lo)) <= 1e-15 and abs(p_hi - cdf(sign * hi)) <= 1e-15
    z = statistics.NormalDist().inv_cdf(min(u * (p_hi - p_lo) + p_lo, 1.0 - 2.0 ** -53))
    return min(max(sign * sigma * z, lo), hi)


def _reference_positions(model, n, seed):
    """Per-sensor scalar loop over the documented counter layout.

    Sensor j reads x at counter 256 j and y at 256 j + 1, each from one raw
    draw by its marginal's inverse CDF (_reference_axis). A uniform y is on
    the inner band or the rest of the region's y.
    """
    region, kind, sigma = model.region, model.kind, model.sigma
    x_shape, y_shape = MARGINALS[kind]
    xs = [_reference_axis(x_shape, sigma, region.x_min, region.x_max, raw_draw(seed, 256 * j))
          for j in range(n)]
    if kind == DeploymentKind.UNIFORM:
        field = Field(model)
        inner = set(_reference_inner(field, n, seed))
        ys = [_reference_y(field, region, j in inner, uniform_draw(seed, 256 * j + 1))
              for j in range(n)]
    else:
        ys = [_reference_axis(y_shape, sigma, region.y_min, region.y_max,
                              raw_draw(seed, 256 * j + 1)) for j in range(n)]
    return np.array(xs), np.array(ys)


# a (half-)normal coordinate may differ from the standard library's inverse
# CDF by up to 8 ulps (test_rng), and scaling by sigma adds one rounding
_NORMAL_MAXULP = 9
_LAYOUT_SEEDS = [0, 7, 123456789, 2**63 + 5, 2**64 - 1]
_CHUNK_SEEDS = [3, 950, 12, 1958, 1743]
# regions where a coordinate is clipped, on one side or both, and (the first
# box) one where lo + width rounds above hi on both axes
_CLIPPING_REGIONS = [Rectangle(-1.1, 0.3, -0.3, 0.1), Rectangle(0.0, 6.0, -2.0, 2.0),
                     Rectangle(1.0, math.inf, -math.inf, math.inf),
                     Rectangle(0.0, math.inf, 1.0, math.inf),
                     Rectangle(30.0, 35.0, -1.0, 1.0), Rectangle(-50.0, 50.0, -50.0, 50.0)]


class TestSamplerCounterLayout:
    @pytest.mark.parametrize("kind,region", [
        (kind, Rectangle(0.0, 6.0, -2.0, 2.0)) for kind in DeploymentKind
    ] + [(kind, Rectangle(30.0, 35.0, -1.0, 1.0)) for kind in DeploymentKind
         ] + [(DeploymentKind.HALF_NORMAL, HalfPlane()), (DeploymentKind.QUADRANT, HalfPlane())])
    def test_matches_scalar_reference(self, kind, region):
        model = DeploymentModel(kind, region, None if kind == DeploymentKind.UNIFORM else 5.0)
        n = 30
        xs, ys = sample_positions(model, n, np.array(_LAYOUT_SEEDS, dtype=np.uint64))
        x_shape, y_shape = MARGINALS[kind]
        for row, seed in enumerate(_LAYOUT_SEEDS):
            x_ref, y_ref = _reference_positions(model, n, seed)
            for got, want, shape in ((xs[row], x_ref, x_shape), (ys[row], y_ref, y_shape)):
                if shape == "uniform":
                    assert got.tolist() == want.tolist()
                else:
                    np.testing.assert_array_max_ulp(got, want, maxulp=_NORMAL_MAXULP)

    @pytest.mark.parametrize("kind,region", [
        (kind, Rectangle(0.0, 1.0, -1.0, 1.0)) for kind in DeploymentKind
    ] + [(DeploymentKind.HALF_NORMAL, HalfPlane()), (DeploymentKind.QUADRANT, HalfPlane())])
    def test_chunk_equals_columns_of_full_draw(self, kind, region):
        model = DeploymentModel(kind, region, None if kind == DeploymentKind.UNIFORM else 5.0)
        seeds = np.array(_CHUNK_SEEDS, dtype=np.uint64)
        xs, ys = sample_positions(model, 12, seeds)
        for j0, j1 in [(0, 4), (4, 12), (1, 2), (7, 8), (3, 11), (11, 12)]:
            chunk_x, chunk_y = sample_positions(model, j1, seeds, j0)
            assert np.array_equal(chunk_x, xs[:, j0:j1])
            assert np.array_equal(chunk_y, ys[:, j0:j1])

    @pytest.mark.parametrize("n,first", [(5, -1), (5, 6), (0, 1), (5, 1.0), (5, 0.5),
                                         (5, True), (2.5, 0), (True, 0), (5.0, 0)])
    def test_rejects_bad_first_or_n(self, n, first):
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0)
        with pytest.raises(ValueError, match="^(n|first) must be"):
            sample_positions(model, n, np.array(_CHUNK_SEEDS, dtype=np.uint64), first)

    def test_first_equal_to_n_draws_nothing(self):
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0)
        xs, ys = sample_positions(model, 5, np.array(_CHUNK_SEEDS, dtype=np.uint64), 5)
        assert xs.shape == ys.shape == (len(_CHUNK_SEEDS), 0)

    def test_numpy_integer_counts(self):
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0)
        seeds = np.array(_CHUNK_SEEDS, dtype=np.uint64)
        xs, ys = sample_positions(model, np.int64(6), seeds, np.uint64(2))
        full_x, full_y = sample_positions(model, 6, seeds)
        assert np.array_equal(xs, full_x[:, 2:]) and np.array_equal(ys, full_y[:, 2:])


def _models(regions, sigmas):
    """Every model of each kind on the regions at the sigmas (one uniform
    model per region) that can be sampled: a uniform axis needs a bounded
    region, and the region must carry mass."""
    models = []
    for kind in DeploymentKind:
        for region in regions:
            for sigma in [None] if kind == DeploymentKind.UNIFORM else sigmas:
                if region.bounded or "uniform" not in MARGINALS[kind]:
                    model = DeploymentModel(kind, region, sigma)
                    if _has_mass(model):
                        models.append(model)
    return models


def _model_id(model):
    region = model.region
    return (f"{model.kind.value}-[{region.x_min:g},{region.x_max:g}]x"
            f"[{region.y_min:g},{region.y_max:g}]-{model.sigma}")


def _has_mass(model):
    try:
        return model.region_mass() > 0.0
    except ValueError:
        return False


class TestDrawsStayInTheRegion:
    def test_box_edges_round_above(self):
        assert -1.1 + (0.3 - -1.1) > 0.3 and -0.3 + (0.1 - -0.3) > 0.1

    @pytest.mark.parametrize("model", _models(_CLIPPING_REGIONS, [1.0, 30.0]), ids=_model_id)
    def test_every_draw_lies_in_the_region(self, model):
        # every sensor is placed on its first draw, clamped into the region
        xs, ys = sample_positions(model, 200, np.array(_CHUNK_SEEDS, dtype=np.uint64))
        assert np.all(model.region.contains(xs, ys))


# the half-plane, +-50 at sigma = 30 (a sixth of the untruncated mass lies
# outside), a box far in the x tail at sigma = 5 (about 1e-9 of the mass), and
# a thin strip
_TRUNCATION_REGIONS = [(HalfPlane(), 5.0), (Rectangle(-50.0, 50.0, -50.0, 50.0), 30.0),
                       (Rectangle(30.0, 35.0, -1.0, 1.0), 5.0),
                       (Rectangle(0.0, 40.0, -0.01, 0.01), 5.0)]


@pytest.mark.parametrize("model", [model for region, sigma in _TRUNCATION_REGIONS
                                   for model in _models([region], [sigma])], ids=_model_id)
def test_each_axis_follows_its_truncated_marginal(model):
    # Kolmogorov-Smirnov of x and of y against the marginal truncated to the
    # region, at the 1% level
    n = 20_000
    xs, ys = sample_positions(model, n, np.array([29], dtype=np.uint64))
    for z, m in zip((xs[0], ys[0]), model.marginals()):
        z = np.sort(z)
        assert m.lo <= z[0] and z[-1] <= m.hi
        cdf = np.array([m.mass(m.lo, v) for v in z.tolist()]) / m.mass(m.lo, m.hi)
        stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert stat <= 1.628 / math.sqrt(n)


# (a, width) screens: the lower half of the raw draws, a quarter of them
# from 2^63 + 5, a half that wraps past 2^64, every draw, and a single raw value
_SCREENS = [(0, 2**63 - 1), (2**63 + 5, 2**62), (2**64 - 2**62, 2**63), (0, 2**64 - 1),
            (12345, 0)]


def _inner_mask(field, seeds, start, stop):
    """The (seeds x columns) mask of the inner sensors start .. stop - 1, or
    None for a field that is not banded."""
    if not field.banded:
        return None
    t, j = InnerPicks(field, seeds).advance(seeds, 0, stop, slice(0, seeds.size))
    mask = np.zeros((seeds.size, stop), dtype=bool)
    mask[t, j] = True
    return mask[:, start:]


def _check_screened_draw(model, screens):
    """Field.sample under the stages `screens` places exactly the sensors
    that pass every stage, as the whole field places them."""
    field = Field(model)
    seeds = np.array(_LAYOUT_SEEDS + _CHUNK_SEEDS, dtype=np.uint64)
    full_x, full_y = sample_positions(model, 40, seeds)
    inner = _inner_mask(field, seeds, 3, 40)
    expected = np.ones((seeds.size, 37), dtype=bool)
    for offset, a, width in screens:
        # sensor j's x reads counter 256 j and its y 256 j + 1
        raw = raw_draws(seeds[:, None], np.arange(3, 40, dtype=np.uint64) * np.uint64(256)
                        + np.uint64(offset))
        passed = np.array([[(int(v) - a) % 2**64 <= width for v in row] for row in raw])
        if offset == 1 and inner is not None:
            passed |= inner
        expected &= passed
    xs, ys, at = field.sample(seeds, 3, 40, inner, screens)
    rows, columns = np.nonzero(expected)
    assert np.array_equal(at[0], rows) and np.array_equal(at[1], columns + 3)
    assert np.array_equal(xs, full_x[at]) and np.array_equal(ys, full_y[at])
    empty = field.sample(seeds, 3, 3, None if inner is None else inner[:, :0], screens)
    assert empty[0].size == empty[1].size == empty[2][0].size == empty[2][1].size == 0


class TestScreenedSampling:
    @pytest.mark.parametrize("model", _models(_CLIPPING_REGIONS, [1.0]), ids=_model_id)
    @pytest.mark.parametrize("screen", _SCREENS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_screened_draw_is_the_full_draw_at_the_candidates(self, model, screen, offset):
        _check_screened_draw(model, ((offset, *screen),))

    @pytest.mark.parametrize("model", _models(_CLIPPING_REGIONS, [1.0]), ids=_model_id)
    @pytest.mark.parametrize("screen", _SCREENS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_second_stage_keeps_the_candidates_within_it(self, model, screen, offset):
        # the other axis's draw in the lower half of the raw values
        _check_screened_draw(model, ((offset, *screen), (1 - offset, *_SCREENS[0])))

    @pytest.mark.parametrize("kind", [DeploymentKind.HALF_NORMAL, DeploymentKind.UNIFORM])
    @pytest.mark.parametrize("tile", [1, 3, 7, 10, 25, 40, None])
    def test_blocks_do_not_change_the_draw(self, monkeypatch, kind, tile):
        # rows of 10 raw draws in tiles of 1, 3 and 7 draws, which cut each
        # row into pieces, the last one shorter; of 10, one row; of 25 and
        # 40, whole rows. The default tile is filled more than twice by 8,000
        # deployments
        model = DeploymentModel(kind, Rectangle(0.0, 1.0, -1.0, 1.0), 5.0)
        field = Field(model)
        if tile is None:
            seeds = derive_stream_seeds(7, np.arange(8000, dtype=np.uint64))
            assert seeds.size * 10 > 2 * distributions._SCREEN_BLOCK
        else:
            seeds = np.array(_CHUNK_SEEDS, dtype=np.uint64)
            monkeypatch.setattr(distributions, "_SCREEN_BLOCK", tile)
        inner = _inner_mask(field, seeds, 2, 12)
        a, width = _SCREENS[2]
        # the screen's mask from the draws of every sensor at once
        raw = raw_draws(seeds[:, None], np.arange(2, 12, dtype=np.uint64) * np.uint64(256)
                        + np.uint64(1))
        raw -= np.uint64(a)
        expected = raw <= np.uint64(width)
        if inner is not None:
            expected |= inner
        xs, ys, at = field.sample(seeds, 2, 12, inner, ((1, a, width),))
        rows, columns = np.nonzero(expected)
        assert np.array_equal(at[0], rows) and np.array_equal(at[1], columns + 2)
        full_x, full_y = sample_positions(model, 12, seeds)
        assert np.array_equal(xs, full_x[at]) and np.array_equal(ys, full_y[at])


# the README box, a box whose y never comes near 0, and one that holds 0 off-centre
_UNIFORM_REGIONS = [Rectangle(-50.0, 50.0, -50.0, 50.0), Rectangle(-5.0, 5.0, 10.0, 20.0),
                    Rectangle(0.0, 20.0, -1.0, 9.0)]


def _chi_square_critical(dof, z=3.09):
    """The Wilson-Hilferty chi-square quantile at the normal quantile z (0.1% for 3.09)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


class TestUniformField:
    @pytest.mark.parametrize("region", _UNIFORM_REGIONS)
    def test_inner_band_is_model_only(self, region):
        field = Field(DeploymentModel(DeploymentKind.UNIFORM, region))
        # 2^-5 of the y mass: the region's y within |y| <= bound
        assert field.share == pytest.approx(2.0 ** -5, rel=1e-12)
        mass = (min(field.bound, region.y_max) - max(-field.bound, region.y_min)) / region.height
        assert field.share == pytest.approx(mass, rel=1e-12)
        assert 0.0 < field.bound - field.outer_min <= 2.0 ** -40 * field.bound

    @pytest.mark.parametrize("region", _UNIFORM_REGIONS)
    def test_inner_counts_are_binomial(self, region):
        # each of n indices is inner with probability share, so the inner
        # count per deployment is Binomial(n, share): chi-square over 2000
        # deployments, tail bins merged to an expected count of 5 or more
        field = Field(DeploymentModel(DeploymentKind.UNIFORM, region))
        trials, n, rate = 2000, 200, field.share
        seeds = derive_stream_seeds(5, np.arange(trials, dtype=np.uint64))
        t, _ = InnerPicks(field, seeds).advance(seeds, 0, n, slice(0, trials))
        counts = np.bincount(t, minlength=trials)
        pmf = np.array([math.comb(n, i) * rate ** i * (1.0 - rate) ** (n - i)
                        for i in range(n + 1)]) * trials
        observed = np.bincount(counts, minlength=n + 1)
        # merge bins from both tails inward until each holds an expected 5
        edges = [0]
        total = 0.0
        for i, e in enumerate(pmf):
            total += e
            if total >= 5.0 and pmf[i + 1:].sum() >= 5.0:
                edges.append(i + 1)
                total = 0.0
        expected = np.add.reduceat(pmf, edges)
        got = np.add.reduceat(observed, edges)
        stat = float(np.sum((got - expected) ** 2 / expected))
        assert stat <= _chi_square_critical(len(edges) - 1), stat

    @pytest.mark.parametrize("region", _UNIFORM_REGIONS)
    def test_field_is_uniform(self, region):
        # x and y of one field against the uniform law on the region:
        # Kolmogorov-Smirnov at the 1% level
        n = 20_000
        model = DeploymentModel(DeploymentKind.UNIFORM, region)
        xs, ys = sample_positions(model, n, np.array([17], dtype=np.uint64))
        for z, lo, hi in ((xs[0], region.x_min, region.x_max),
                          (ys[0], region.y_min, region.y_max)):
            assert np.all((z >= lo) & (z <= hi))
            cdf = (np.sort(z) - lo) / (hi - lo)
            stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
            assert stat <= 1.628 / math.sqrt(n)

    @pytest.mark.parametrize("region", _UNIFORM_REGIONS + [Rectangle(-1.1, 0.3, -0.3, 0.1)])
    def test_draws_stay_in_their_part(self, region, monkeypatch):
        # u at its ends and next to the step over the band: an inner y lies
        # in the band, any other has |y| >= outer_min, and both lie in the
        # region; the scalar map the screen bisects rounds as the array one
        field = Field(DeploymentModel(DeploymentKind.UNIFORM, region))
        lo = max(region.y_min, -field.bound)
        step = (lo - region.y_min) / ((lo - region.y_min) + (region.y_max - min(region.y_max,
                                                                               field.bound)))
        ms = [m for m in [0, 1, 2, 2**52 - 1, 2**52, 2**53 - 2, 2**53 - 1]
              + list(range(int(step * 2**53) - 3, int(step * 2**53) + 4)) if 0 <= m < 2**53]
        raws = np.array(sorted(set(ms)), dtype=np.uint64) << np.uint64(11)
        monkeypatch.setattr(distributions, "raw_draws",
                            lambda seeds, counters, *_: _raw_draws_at(raws, counters))
        columns = np.arange(raws.size)
        xs, inner_ys = field.place(np.uint64(0), columns, True)
        _, outer_ys = field.place(np.uint64(0), columns, np.empty(0, dtype=np.intp))
        assert np.all(np.abs(inner_ys) <= field.bound)
        assert np.all(np.abs(outer_ys) >= field.outer_min)
        assert np.all(region.contains(xs, inner_ys)) and np.all(region.contains(xs, outer_ys))
        u = ((raws >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        assert [field.outer_y(float(v)) for v in u] == outer_ys.tolist()
        assert [field.axes[0][0](float(v)) for v in u] == xs.tolist()

    @pytest.mark.parametrize("region", _UNIFORM_REGIONS)
    @pytest.mark.parametrize("windows", [
        [(0, 300)], [(0, 4), (4, 12), (12, 28), (28, 300)], [(0, 1), (1, 2), (2, 300)],
        [(0, 128), (128, 130), (130, 300)], [(40, 41), (41, 300)],
    ])
    def test_picks_are_the_scalar_walk(self, region, windows):
        # windows taken in order, by blocks of deployments and after some are
        # dropped, hold the indices the scalar walk makes inner; a first
        # window that starts past 0 skips those below it
        field = Field(DeploymentModel(DeploymentKind.UNIFORM, region))
        seeds = derive_stream_seeds(11, np.arange(7, dtype=np.uint64))
        reference = [_reference_inner(field, 300, int(seed)) for seed in seeds]
        picks = InnerPicks(field, seeds)
        live = np.arange(seeds.size)
        for w, (start, stop) in enumerate(windows):
            got = []
            for lo in range(0, live.size, 3):
                block = slice(lo, min(lo + 3, live.size))
                t, j = picks.advance(seeds[live[block]], start, stop, block)
                got += zip(live[block][t].tolist(), j.tolist())
            want = [(t, j) for t in live.tolist() for j in reference[t] if start <= j < stop]
            assert sorted(got) == want
            if w == 1:
                keep = np.arange(live.size) != 2
                picks.keep(keep)
                live = live[keep]


def _raw_draws_at(raws, counters):
    """Chosen raw values: raws[j] at sensor j's counters."""
    j = (np.asarray(counters, dtype=np.uint64) // np.uint64(256)).astype(np.intp)
    return raws[j]


@pytest.mark.parametrize("region", [HalfPlane(), Rectangle(-50.0, 50.0, -50.0, 50.0)])
def test_sampler_peak_memory(region):
    # the first attempt covers the whole (trials, n) grid; what it may hold at
    # once is bounded in grid-sized float64 arrays
    trials, n = 4096, 100
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, region, 10.0)
    seeds = np.arange(trials, dtype=np.uint64)
    tracemalloc.start()
    try:
        sample_positions(model, n, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * trials * n * 8


class TestSteinResidual:
    def test_constant_function_cancels(self):
        # population residual is identically -E[Z] + sqrt(2/pi) = 0
        n = 100_000
        z = _half_normal_x(HalfNormalParams(1.0), n, 1)
        residual = stein_residual("one", z, HalfNormalParams(1.0))
        se = float(np.std(z, ddof=1)) / math.sqrt(n)
        assert abs(residual) <= 5 * se

    def test_identity_function_null(self):
        n = 1_000_000
        params = HalfNormalParams(1.0)
        z = _half_normal_x(params, n, 2024)
        residual = stein_residual("x", z, params)
        se = float(np.std(1.0 - z * z, ddof=1)) / math.sqrt(n)
        assert abs(residual) <= 5 * se

    def test_sigma_rescaling(self):
        n = 200_000
        params = HalfNormalParams(3.0)
        z = _half_normal_x(params, n, 5)
        residual = stein_residual("x", z, params)
        se = float(np.std(1.0 - (z / 3.0) ** 2, ddof=1)) / math.sqrt(n)
        assert abs(residual) <= 5 * se

    def test_uniform_negative_control(self):
        n = 1_000_000
        u = uniform_draws(np.uint64(9), np.arange(n, dtype=np.uint64))
        residual = stein_residual("x", u, HalfNormalParams(1.0))
        se = float(np.std(1.0 - u * u, ddof=1)) / math.sqrt(n)
        # converges to 1 - 1/3 = 2/3, far beyond 5 SE from zero
        assert residual == pytest.approx(2.0 / 3.0, abs=0.01)
        assert abs(residual) > 5 * se

    def test_rejects_empty_and_negative(self):
        params = HalfNormalParams(1.0)
        with pytest.raises(ValueError):
            stein_residual("x", [], params)
        with pytest.raises(ValueError):
            stein_residual("x", [-1.0, 2.0], params)
        with pytest.raises(ValueError):
            stein_residual("cube", [1.0], params)

    @pytest.mark.parametrize("samples", [[math.nan], [1.0, math.inf], [2.0, -math.inf]])
    def test_rejects_non_finite(self, samples):
        with pytest.raises(ValueError, match="nonnegative"):
            stein_residual("x", samples, HalfNormalParams(1.0))


def test_half_normal_params_accepts_least_normal_sigma():
    params = HalfNormalParams(sys.float_info.min)
    assert half_normal_pdf(0.0, params) > 0.0
    assert half_normal_pdf(1.0, params) == 0.0


def test_half_normal_params_validation():
    with pytest.raises(ValueError):
        HalfNormalParams(0.0)
    with pytest.raises(ValueError):
        HalfNormalParams(-2.0)
    with pytest.raises(ValueError):
        HalfNormalParams(math.inf)
