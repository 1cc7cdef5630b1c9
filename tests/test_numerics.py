import math

import pytest

from hndeploy import numerics
from hndeploy.numerics import (
    QuadratureError,
    QuadratureSpec,
    integrate_1d,
    integrate_2d,
)


class TestIntegrate1D:
    def test_polynomial_exact(self):
        assert integrate_1d(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0, abs=1e-10)

    def test_empty_interval(self):
        assert integrate_1d(lambda x: x, 1.0, 1.0) == 0.0

    def test_oscillatory(self):
        val = integrate_1d(math.sin, 0.0, math.pi, QuadratureSpec(1e-10))
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_SUBDIVISIONS", 20)
        with pytest.raises(QuadratureError) as err:
            integrate_1d(lambda x: math.sqrt(abs(x - 0.3127)), 0.0, 1.0, QuadratureSpec(1e-14))
        # the best estimate is still in the right neighborhood
        true = (0.3127 ** 1.5 + 0.6873 ** 1.5) * 2.0 / 3.0
        assert err.value.estimate == pytest.approx(true, abs=0.05)
        assert err.value.error_bound >= 0.0


class TestIntegrate2D:
    def test_unit_square_constant(self):
        assert integrate_2d(lambda x, y: 1.0, (0, 1), (0, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_unit_square_xy(self):
        assert integrate_2d(lambda x, y: x * y, (0, 1), (0, 1)) == pytest.approx(0.25, abs=1e-10)

    def test_x_dependent_bounds_triangle(self):
        # area of the triangle under y = x on [0, 1]
        val = integrate_2d(lambda x, y: 1.0, (0, 1), lambda x: (0.0, x))
        assert val == pytest.approx(0.5, abs=1e-8)

    def test_halfplane_density_normalization(self):
        from hndeploy.distributions import HalfNormalParams, halfplane_pdf

        params = HalfNormalParams(1.0)
        val = integrate_2d(lambda x, y: halfplane_pdf(x, y, params),
                           (0.0, 12.0), (-12.0, 12.0), QuadratureSpec(1e-6))
        assert val == pytest.approx(1.0, abs=1e-6)


class TestQuadratureSpec:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSpec(absolute_tolerance=0.0)
        for tol in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                QuadratureSpec(absolute_tolerance=tol)
