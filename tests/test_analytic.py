import math

import numpy as np
import pytest

from hndeploy.analytic import capsule_probability, detection_probability, full_report
from hndeploy.distributions import DeploymentKind, DeploymentModel
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle, capsule_area
from hndeploy.montecarlo import estimate_detection
from hndeploy.numerics import QuadratureSpec
from hndeploy.rng import RandomSeed
from hndeploy.validate import reference_capsule_parts


def _report(s, d, r, sigma, spec=QuadratureSpec(), region=HalfPlane()):
    return full_report(IntruderScenario(start_s=s, distance_d=d), r, sigma, 1,
                       region=region, spec=spec)


def _uniform(scenario, r, region, spec=QuadratureSpec()):
    return capsule_probability(DeploymentModel(DeploymentKind.UNIFORM, region), scenario, r, spec)


def _closed_form_rect(s, d, r, sigma):
    x_part = math.erf(s / (sigma * math.sqrt(2))) - math.erf((s - d) / (sigma * math.sqrt(2)))
    y_part = math.erf(r / (sigma * math.sqrt(2)))
    return x_part * y_part


class TestPRect:
    def test_zero_distance(self):
        assert _report(3.0, 0.0, 1.0, 1.0).p_rect == 0.0

    def test_unit_case(self):
        expected = math.erf(1.0 / math.sqrt(2.0)) ** 2
        assert _report(1.0, 1.0, 1.0, 1.0).p_rect == pytest.approx(expected, abs=1e-6)
        assert _report(1.0, 1.0, 1.0, 1.0).p_rect == pytest.approx(0.4660649, abs=1e-6)

    def test_wide_rectangle_saturates_y(self):
        sigma = 1.0
        value = _report(3.0 * sigma, 3.0 * sigma, 12.0 * sigma, sigma).p_rect
        expected = math.erf(3.0 / math.sqrt(2.0))  # F(3 sigma) - F(0)
        assert value == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.9973, abs=1e-4)

    def test_separable_closed_form_grid(self):
        spec = QuadratureSpec(1e-8)
        for s in np.linspace(1.0, 9.0, 5):
            for frac in np.linspace(0.1, 0.9, 5):
                for sigma in np.linspace(0.8, 6.0, 5):
                    for r in (0.5, 1.0, 2.0):
                        value = _report(float(s), float(s * frac), r, float(sigma), spec).p_rect
                        closed = _closed_form_rect(s, s * frac, r, sigma)
                        assert value == pytest.approx(closed, abs=1e-7)


class TestHalfDisks:
    def test_vanishing_radius(self):
        report = _report(5.0, 3.0, 1e-6, 5.0)
        assert report.p_left == pytest.approx(0.0, abs=1e-9)
        assert report.p_right == pytest.approx(0.0, abs=1e-9)

    def test_disks_tile_full_disk_when_stationary(self):
        # d = 0: left and right half-disks reassemble the disk at (S, 0)
        sigma, r = 5.0, 1.0
        report = _report(5.0, 0.0, r, sigma)
        # independent full-disk value by a sampling oracle on numpy's own
        # generator, independent of the product's sampler
        n = 2_000_000
        normal = np.random.default_rng(2718).normal
        x = np.abs(normal(0.0, sigma, n))
        y = normal(0.0, sigma, n)
        hit = (x - 5.0) ** 2 + y ** 2 <= r * r
        p = hit.mean()
        se = math.sqrt(p * (1 - p) / n)
        assert report.p_left + report.p_right == pytest.approx(p, abs=3 * se)

    def test_right_disk_negligible_far_from_target(self):
        assert _report(30.0, 1.0, 1.0, 2.0).p_right == pytest.approx(0.0, abs=1e-9)

    def test_left_disk_clips_at_target_boundary(self):
        # S - d - r < 0: the domain is clipped where the density vanishes
        value = _report(1.0, 0.8, 1.0, 1.0).p_left
        assert 0.0 < value < 1.0


class TestPTotal:
    def test_components_sum(self):
        report = _report(5.0, 3.0, 1.0, 5.0)
        parts = report.p_rect + report.p_left + report.p_right
        assert report.p_total == pytest.approx(parts, abs=1e-12)
        assert report.p_rect <= report.p_total <= 1.0

    def test_sampling_oracle_randomized_scenarios(self):
        # quadrature route vs direct half-plane sampling route
        rng = np.random.default_rng(97)
        n = 200_000
        for case in range(10):
            sigma = float(rng.uniform(2.0, 8.0))
            s = float(rng.uniform(0.5 * sigma, 2.0 * sigma))
            d = float(rng.uniform(0.2, 0.9) * s)
            r = float(rng.uniform(0.5, 2.0))
            analytic = _report(s, d, r, sigma).p_total
            normal = np.random.default_rng(1000 + case).normal
            x = np.abs(normal(0.0, sigma, n))
            y = normal(0.0, sigma, n)
            dx = np.clip(x, s - d, s) - x
            hits = dx * dx + y * y <= r * r
            p = hits.mean()
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert analytic == pytest.approx(p, abs=max(3 * se, 1e-4))

    def test_constant_density_reduces_to_capsule_area(self):
        # for sigma >> S + r the density is flat at 1/(pi sigma^2) over the
        # capsule, so p_total * pi sigma^2 tends to the capsule area
        s, d, r, sigma = 5.0, 3.0, 1.5, 1e4
        report = _report(s, d, r, sigma, QuadratureSpec(1e-16))
        assert report.p_total * math.pi * sigma ** 2 == pytest.approx(
            capsule_area(d, r), rel=1e-6)


@pytest.mark.parametrize("s, d, r, sigma", [
    (1.0, 0.8, 1.0, 1.0),    # left half-disk clipped at x = 0 (S - d < r)
    (5.0, 0.0, 1.0, 5.0),    # d = 0: no rectangle
    (5.0, 3.0, 1e-6, 5.0),   # vanishing radius
    (40.0, 2.0, 1.0, 5.0),   # far tail, 8 sigma out
    (5.0, 3.0, 1.0, 5.0),
])
def test_parts_match_2d_quadrature(s, d, r, sigma):
    spec = QuadratureSpec(1e-10)
    report = _report(s, d, r, sigma, spec)
    reference = reference_capsule_parts(IntruderScenario(start_s=s, distance_d=d), r, sigma, spec)
    assert (report.p_rect, report.p_left, report.p_right) == pytest.approx(reference, abs=1e-9)


class TestDetectionProbability:
    def test_zero_probability(self):
        assert detection_probability(0.0, 100) == 0.0

    def test_certain_single_sensor(self):
        assert detection_probability(1.0, 1) == 1.0
        assert detection_probability(1.0, 5) == 1.0

    def test_reference_value(self):
        assert detection_probability(0.1, 10) == pytest.approx(0.6513215599, abs=1e-9)

    def test_single_sensor_identity(self):
        for p in (0.0, 0.1, 0.5, 0.987, 1.0):
            assert detection_probability(p, 1) == pytest.approx(p, rel=1e-15)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.0, 1.0, 21)
        for n in (1, 2, 10, 100):
            values = [detection_probability(float(p), n) for p in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))
        for p in (0.01, 0.3):
            values = [detection_probability(p, n) for n in range(0, 50)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tiny_p_large_n_no_cancellation(self):
        p, n = 1e-12, 10**6
        assert detection_probability(p, n) == pytest.approx(1e-6, rel=1e-6)

    def test_zero_sensors(self):
        assert detection_probability(0.9, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            detection_probability(1.5, 1)
        with pytest.raises(ValueError):
            detection_probability(0.5, -1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(3.0), "3"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            detection_probability(0.1, n)

    def test_numpy_integer_n(self):
        assert detection_probability(0.1, np.int64(10)) == detection_probability(0.1, 10)


class TestUniformBaseline:
    def test_moving_intruder(self):
        scenario = IntruderScenario(start_s=20.0, distance_d=3.0)
        region = Rectangle(0, 100, -50, 50)
        assert _uniform(scenario, 1.0, region) == pytest.approx(
            (6.0 + math.pi) / 1e4, abs=1e-12)

    def test_stationary_intruder_matches_disk(self):
        scenario = IntruderScenario(start_s=20.0, distance_d=0.0)
        region = Rectangle(0, 100, -50, 50)
        assert _uniform(scenario, 1.0, region) == pytest.approx(
            math.pi / 1e4, abs=1e-12)

    def test_independent_of_entry_point(self):
        region = Rectangle(0, 100, -50, 50)
        a = _uniform(IntruderScenario(start_s=10.0, distance_d=3.0), 1.0, region)
        b = _uniform(IntruderScenario(start_s=50.0, distance_d=3.0), 1.0, region)
        assert a == b

    @pytest.mark.parametrize("s, d, r, region", [
        (5.0, 3.0, 1.0, Rectangle(0.0, 20.0, -5.0, 5.0)),
        (2.0, 0.5, 1.5, Rectangle(0.0, 6.0, -2.0, 2.0)),
        (5.0, 0.0, 2.0, Rectangle(-50.0, 50.0, -50.0, 50.0)),
    ])
    def test_contained_capsule_is_area_ratio(self, s, d, r, region):
        value = _uniform(IntruderScenario(start_s=s, distance_d=d), r, region)
        assert value == pytest.approx(capsule_area(d, r) / region.area, rel=1e-12)

    def test_capsule_not_contained(self):
        # the capsule is clipped to the region: capsule-in-region area / region area
        region = Rectangle(0, 100, -50, 50)
        # left half-disk at x = 0 lies wholly outside
        value = _uniform(IntruderScenario(start_s=2.0, distance_d=2.0), 1.0, region)
        assert value == pytest.approx((4.0 + math.pi / 2) / 1e4, rel=1e-12)
        # only the strip 0 <= x - 99.9 <= 0.1 of the right half-disk is inside
        sliver = 0.1 * math.sqrt(0.99) + math.asin(0.1)
        value = _uniform(IntruderScenario(start_s=99.9, distance_d=1.0), 1.0, region)
        assert value == pytest.approx((2.0 + math.pi / 2 + sliver) / 1e4, rel=1e-12)

    def test_capsule_clipped_below_matches_circular_segment(self):
        # y >= -0.5 cuts a circular segment off the bottom of each half-disk
        # and the rectangle's lower half down to 0.5
        s, d, r = 5.0, 3.0, 1.0
        region = Rectangle(0.0, 20.0, -0.5, 10.0)
        segment = r * r * math.acos(0.5 / r) - 0.5 * math.sqrt(r * r - 0.25)
        area = d * (r + 0.5) + math.pi * r * r - segment
        value = _uniform(IntruderScenario(start_s=s, distance_d=d), r, region,
                         QuadratureSpec(1e-12))
        assert value == pytest.approx(area / region.area, rel=1e-10)

    def test_requires_bounded_region(self):
        # an unbounded region has no uniform deployment to integrate
        with pytest.raises(ValueError):
            DeploymentModel(DeploymentKind.UNIFORM, HalfPlane())
        with pytest.raises(ValueError):
            DeploymentModel(DeploymentKind.UNIFORM, Rectangle(0.0, math.inf, -50.0, 50.0))


Y_SYMMETRIC = [HalfPlane(), Rectangle(-50.0, 50.0, -50.0, 50.0), Rectangle(0.0, 20.0, -5.0, 5.0),
               Rectangle(0.0, 6.0, -2.0, 2.0)]


class TestDeploymentKinds:
    @pytest.mark.parametrize("region", Y_SYMMETRIC)
    @pytest.mark.parametrize("s, d, r, sigma", [(5.0, 3.0, 1.0, 5.0), (1.0, 0.8, 1.0, 1.0),
                                                (4.0, 1.0, 2.5, 3.0), (5.5, 0.0, 0.5, 10.0)])
    def test_quadrant_equals_half_normal_on_symmetric_region(self, region, s, d, r, sigma):
        # detection depends on |y| only, and |Normal| on [0, h] has the
        # normal's mass on [-h, h]
        scenario = IntruderScenario(start_s=s, distance_d=d)
        values = [capsule_probability(DeploymentModel(kind, region, sigma), scenario, r)
                  for kind in (DeploymentKind.HALF_NORMAL, DeploymentKind.QUADRANT)]
        assert values[0] == values[1]

    def test_half_normal_matches_full_report(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        region = Rectangle(2.0, 7.0, -0.5, 9.5)
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, region, 3.0)
        assert capsule_probability(model, scenario, 1.0) == full_report(
            scenario, 1.0, 3.0, 1, region=region).p_total

    @pytest.mark.parametrize("kind, region", [
        ("half_normal", HalfPlane()),
        ("quadrant", HalfPlane()),
        ("half_normal", Rectangle(2.0, 7.0, -0.5, 9.5)),
        ("quadrant", Rectangle(2.0, 7.0, -0.5, 9.5)),
        ("strip", Rectangle(2.0, 7.0, -0.5, 9.5)),
        ("uniform", Rectangle(2.0, 7.0, -0.5, 9.5)),
        ("strip", Rectangle(0.0, 20.0, -5.0, 5.0)),
        ("uniform", Rectangle(0.0, 20.0, -5.0, 5.0)),
    ])
    def test_monte_carlo_agreement(self, kind, region):
        # the clipping box cuts the left half-disk, the bottom of the capsule
        # and the support of every kind; |z| uses the analytic variance
        kind = DeploymentKind(kind)
        model = DeploymentModel(kind, region, None if kind == DeploymentKind.UNIFORM else 3.0)
        scenario = IntruderScenario(start_s=5.5, distance_d=3.0)
        n, trials = 4, 200_000
        p = detection_probability(capsule_probability(model, scenario, 1.0), n)
        est = estimate_detection(model, n, scenario, 1.0, trials, RandomSeed(2025))
        assert abs(est.p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials)

    def test_region_without_mass_rejected(self):
        # a quadrant deployment has no mass below y = 0
        model = DeploymentModel(DeploymentKind.QUADRANT, Rectangle(0.0, 20.0, -5.0, -1.0), 3.0)
        with pytest.raises(ValueError):
            capsule_probability(model, IntruderScenario(start_s=5.0, distance_d=3.0), 1.0)


class TestFullReport:
    @pytest.mark.parametrize("n", [2.5, True, -1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            full_report(IntruderScenario(start_s=5.0, distance_d=3.0), 1.0, 5.0, n)

    def test_no_sensors(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        report = full_report(scenario, 1.0, 5.0, 0)
        assert report.p_d == 0.0
        assert report.p_not_detected == 1.0

    def test_monotone_in_sensor_count(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        small = full_report(scenario, 1.0, 5.0, 10)
        large = full_report(scenario, 1.0, 5.0, 100)
        assert large.p_d >= small.p_d

    def test_fields_consistent(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        region = Rectangle(0, 100, -50, 50)
        report = full_report(scenario, 1.0, 5.0, 10, region=region)
        assert report.p_total == pytest.approx(
            report.p_rect + report.p_left + report.p_right, abs=1e-12)
        assert abs(report.p_d + report.p_not_detected - 1.0) <= math.ulp(1.0)
        assert report.p_d == detection_probability(report.p_total, 10)
        assert report.p_uniform == _uniform(scenario, 1.0, region)
        for value in (report.p_rect, report.p_left, report.p_right,
                      report.p_total, report.p_d, report.p_not_detected):
            assert 0.0 <= value <= 1.0

    def test_region_renormalizes_density(self):
        # capsule well inside the region: every part scales by 1 / mass(region)
        region = Rectangle(-50.0, 50.0, -50.0, 50.0)
        free = _report(5.0, 3.0, 1.0, 10.0)
        bounded = _report(5.0, 3.0, 1.0, 10.0, region=region)
        mass = math.erf(50.0 / (10.0 * math.sqrt(2.0))) ** 2
        assert bounded.p_total == pytest.approx(free.p_total / mass, rel=1e-12)
        assert bounded.p_total > free.p_total

    def test_region_clipping_matches_sampling(self):
        # the region cuts both half-disks and the y-extent of the capsule
        s, d, r, sigma = 2.5, 1.5, 1.0, 3.0
        region = Rectangle(0.5, 3.0, -0.7, 3.0)
        analytic = _report(s, d, r, sigma, region=region).p_total
        n = 400_000
        normal = np.random.default_rng(4242).normal
        x = np.abs(normal(0.0, sigma, n))
        y = normal(0.0, sigma, n)
        inside = (x >= 0.5) & (x <= 3.0) & (y >= -0.7) & (y <= 3.0)
        x, y = x[inside], y[inside]
        dx = np.clip(x, s - d, s) - x
        p = float(np.mean(dx * dx + y * y <= r * r))
        se = math.sqrt(p * (1 - p) / x.size)
        assert analytic == pytest.approx(p, abs=4 * se)

    def test_tail_masses_keep_their_precision(self):
        # at sigma = 1 the box [8, 10] holds about 1e-15 of the x mass, where
        # a difference of erf, each within a few ulps of 1, lost 0.8% of p_rect
        report = _report(8.3, 0.3, 0.3, 1.0, region=Rectangle(8.0, 10.0, -1.0, 1.0))
        k = 1.0 / math.sqrt(2.0)
        x = (math.erfc(8.0 * k) - math.erfc(8.3 * k)) / (math.erfc(8.0 * k) - math.erfc(10.0 * k))
        assert report.p_rect == pytest.approx(x * math.erf(0.3 * k) / math.erf(k), rel=1e-12)
        assert report.p_rect == pytest.approx(0.31653, abs=1e-5)

    def test_region_in_the_far_tail_keeps_its_mass(self):
        # [9, 20] holds erfc(9 / sqrt 2), about 2.3e-19, of the x mass, which
        # a difference of erf rounds to 0
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(9.0, 20.0, -1.0, 1.0), 1.0)
        k = 1.0 / math.sqrt(2.0)
        assert model.region_mass() == pytest.approx(math.erfc(9.0 * k) * math.erf(k), rel=1e-12)
        assert 0.0 < _report(9.3, 0.3, 0.3, 1.0, region=model.region).p_total < 1.0

    def test_region_without_mass_rejected(self):
        with pytest.raises(ValueError):
            _report(45.0, 3.0, 1.0, 1.0, region=Rectangle(40.0, 50.0, -5.0, 5.0))

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_bad_range_rejected(self, r):
        with pytest.raises(ValueError, match="positive and finite"):
            _report(5.0, 3.0, r, 5.0)

    def test_baseline_clipped_when_capsule_leaves_region(self):
        report = _report(2.0, 2.0, 1.0, 5.0, region=Rectangle(0.0, 100.0, -50.0, 50.0))
        # the left half-disk at x = 0 lies outside the region
        assert report.p_uniform == pytest.approx((4.0 + math.pi / 2) / 1e4, rel=1e-12)
        assert report.p_total > 0.0

    def test_small_p_does_not_cancel(self):
        # 1 - (1 - p)^20 at p ~ 3e-42 rounds to 0 unless computed via expm1
        report = full_report(IntruderScenario(start_s=15.0, distance_d=1.0), 0.5, 1.0, 20,
                             region=Rectangle(-50.0, 50.0, -50.0, 50.0),
                             spec=QuadratureSpec(1e-10))
        assert report.p_d == pytest.approx(5.553e-41, rel=1e-3)
        assert report.p_d == pytest.approx(20.0 * report.p_total, rel=1e-12)

    def test_baseline_omitted_without_region(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        assert full_report(scenario, 1.0, 5.0, 10).p_uniform is None
        strip = Rectangle(0.0, math.inf, -50.0, 50.0)
        assert full_report(scenario, 1.0, 5.0, 10, region=strip).p_uniform is None
