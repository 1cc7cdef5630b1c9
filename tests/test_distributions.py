import math
import sys
import tracemalloc

import numpy as np
import pytest

from hndeploy import distributions
from hndeploy.distributions import (
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    SamplingError,
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
from hndeploy.rng import normal_draw, uniform_draw, uniform_draws

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
        # sensor i's x is |normal_draw| on counters (256i, 256i + 1), scaled by sigma
        sequential = [abs(normal_draw(88, 256 * i)) * params.sigma for i in range(200)]
        np.testing.assert_array_max_ulp(_half_normal_x(params, 200, 88),
                                        np.array(sequential), maxulp=2)

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
        # the draw is the untruncated law; a bounded region truncates by rejection
        m = marginal(shape, sigma, *bounds)
        n = 100_000
        z = np.sort(m.draw(np.uint64(2718), np.arange(n, dtype=np.uint64) * np.uint64(m.counters)))
        law_lo = _law_support(shape, bounds)[0]
        cdf = np.array([m.mass(law_lo, v) for v in z.tolist()])
        stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert stat <= 1.628 / math.sqrt(n)  # asymptotic KS critical value at the 1% level


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
        with pytest.raises(ValueError):
            Correlated2DParams(1.0, 1.0, 1.0)
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

    def test_rejection_bound_error(self):
        # sigma vastly larger than the region: almost every draw is rejected
        region = Rectangle(0.0, 1e-4, -1e-4, 1e-4)
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=region, sigma=100.0)
        with pytest.raises(SamplingError):
            sample_positions(model, 50, np.array([5], dtype=np.uint64))

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

    @pytest.mark.parametrize("kind", [DeploymentKind.UNIFORM, DeploymentKind.STRIP])
    def test_bounded_kinds_reject_partly_unbounded_region(self, kind):
        with pytest.raises(ValueError, match=f"^{kind.value} deployment requires a bounded "
                                             "rectangle region$"):
            DeploymentModel(kind=kind, region=Rectangle(0.0, math.inf, -5.0, 5.0), sigma=1.0)

    def test_deterministic_replay(self):
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=1.0)
        seeds = np.array([42, 43], dtype=np.uint64)
        first, second = sample_positions(model, 20, seeds), sample_positions(model, 20, seeds)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()


def _reference_positions(model, n, seed):
    """Per-sensor scalar loop over the documented counter layout.

    Sensor j, attempt a reads counters j*256 + 4a (x) and +1 (uniform y)
    or +2 (normal y). Returns x, y and the attempt index each sensor
    was accepted on.
    """
    region, kind, sigma = model.region, model.kind, model.sigma
    xs, ys, attempts = [], [], []
    for j in range(n):
        for a in range(64):
            c = j * 256 + 4 * a
            if kind == DeploymentKind.UNIFORM:
                x = region.x_min + region.width * uniform_draw(seed, c)
                y = region.y_min + region.height * uniform_draw(seed, c + 1)
            else:
                x = abs(normal_draw(seed, c)) * sigma
                if kind == DeploymentKind.STRIP:
                    y = region.y_min + region.height * uniform_draw(seed, c + 2)
                else:
                    y = normal_draw(seed, c + 2) * sigma
                    y = abs(y) if kind == DeploymentKind.QUADRANT else y
            if region.contains(x, y):
                break
        else:
            raise SamplingError(f"sensor {j} rejected on every attempt")
        xs.append(x)
        ys.append(y)
        attempts.append(a)
    return np.array(xs), np.array(ys), attempts


# normal-derived coordinates agree with the scalar path within 2 ulps of the
# normal draw; scaling by sigma may add one rounding on top
_NORMAL_MAXULP = 4
_LAYOUT_SEEDS = [0, 7, 123456789, 2**63 + 5, 2**64 - 1]
# with sigma = 5 on the box [0, 1] x [-1, 1], every sensor of these 12-sensor
# fields is placed, and seeds 4, 241 and 737 place sensors 1, 7 and 11 on the
# last of the 64 attempts when y is (half-)normal
_CHUNK_SEEDS = [1, 4, 5, 241, 737]


class TestSamplerCounterLayout:
    @pytest.mark.parametrize("kind,region", [
        (kind, Rectangle(0.0, 6.0, -2.0, 2.0)) for kind in DeploymentKind
    ] + [(DeploymentKind.HALF_NORMAL, HalfPlane()), (DeploymentKind.QUADRANT, HalfPlane())])
    def test_matches_scalar_reference(self, kind, region):
        model = DeploymentModel(kind, region, None if kind == DeploymentKind.UNIFORM else 5.0)
        n = 30
        xs, ys = sample_positions(model, n, np.array(_LAYOUT_SEEDS, dtype=np.uint64))
        retried = 0
        for row, seed in enumerate(_LAYOUT_SEEDS):
            x_ref, y_ref, attempts = _reference_positions(model, n, seed)
            retried += sum(a > 0 for a in attempts)
            if kind == DeploymentKind.UNIFORM:
                assert xs[row].tolist() == x_ref.tolist()
            else:
                np.testing.assert_array_max_ulp(xs[row], x_ref, maxulp=_NORMAL_MAXULP)
            if kind in (DeploymentKind.UNIFORM, DeploymentKind.STRIP):
                assert ys[row].tolist() == y_ref.tolist()
            else:
                np.testing.assert_array_max_ulp(ys[row], y_ref, maxulp=_NORMAL_MAXULP)
        # at sigma = 5 the box rejects about three normal-derived draws in four;
        # uniform draws and the half-plane never retry
        assert (retried > 0) == (region.bounded and kind != DeploymentKind.UNIFORM)

    def test_sensor_accepted_on_last_attempt(self):
        # seed 106 puts its only sensor inside this box on attempt 64 of 64
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(0.0, 1.0, -1.0, 1.0), 5.0)
        x_ref, y_ref, attempts = _reference_positions(model, 1, 106)
        assert attempts == [63]
        xs, ys = sample_positions(model, 1, np.array([106], dtype=np.uint64))
        np.testing.assert_array_max_ulp(xs[0], x_ref, maxulp=_NORMAL_MAXULP)
        np.testing.assert_array_max_ulp(ys[0], y_ref, maxulp=_NORMAL_MAXULP)

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

    @pytest.mark.parametrize("seed,j", [(4, 1), (241, 7), (737, 11)])
    def test_chunk_sensor_accepted_on_last_attempt(self, seed, j, monkeypatch):
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(0.0, 1.0, -1.0, 1.0), 5.0)
        seeds = np.array([seed], dtype=np.uint64)
        sample_positions(model, j + 1, seeds, j)
        monkeypatch.setattr(distributions, "MAX_ATTEMPTS", 63)
        with pytest.raises(SamplingError):
            sample_positions(model, j + 1, seeds, j)


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
