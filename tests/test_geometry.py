import math
from dataclasses import astuple

import numpy as np
import pytest

from hndeploy.geometry import (
    HalfPlane,
    IntruderScenario,
    Rectangle,
    capsule_area,
    detects,
    detects_any,
    point_segment_distance,
)


class TestCapsuleArea:
    def test_degenerate_path_is_disk(self):
        assert capsule_area(0.0, 1.0) == pytest.approx(math.pi, abs=1e-12)

    def test_length_two(self):
        assert capsule_area(2.0, 1.0) == pytest.approx(4.0 + math.pi, abs=1e-12)

    def test_length_five_small_radius(self):
        assert capsule_area(5.0, 0.5) == pytest.approx(5.0 + 0.25 * math.pi, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            capsule_area(-1.0, 1.0)
        with pytest.raises(ValueError):
            capsule_area(1.0, 0.0)

    def test_against_monte_carlo_hit_rate(self):
        # area = hit rate x bounding-box area, 3 binomial SE, 20 random shapes
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = float(rng.uniform(0.0, 5.0))
            r = float(rng.uniform(0.2, 2.0))
            n = 1_000_000
            px = rng.uniform(-r, length + r, n)
            py = rng.uniform(-r, r, n)
            dx = np.clip(px, 0.0, length) - px
            hits = dx * dx + py * py <= r * r
            box = (length + 2 * r) * (2 * r)
            p = hits.mean()
            estimate = p * box
            se = box * math.sqrt(p * (1 - p) / n)
            assert abs(estimate - capsule_area(length, r)) <= 3 * se


class TestPointSegmentDistance:
    def test_on_segment(self):
        assert point_segment_distance((0.5, 0.0), (0.0, 0.0), (1.0, 0.0)) == 0.0

    def test_beyond_endpoint(self):
        assert point_segment_distance((2.0, 0.0), (0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)

    def test_perpendicular(self):
        d = point_segment_distance((0.3, 0.7), (0.0, 0.0), (1.0, 0.0))
        assert d == pytest.approx(0.7, abs=1e-12)
        # brute-force minimum over sampled segment points
        t = np.linspace(0.0, 1.0, 1_000_000)
        brute = np.min(np.hypot(0.3 - t, 0.7))
        assert d == pytest.approx(float(brute), abs=1e-4)

    def test_degenerate_segment(self):
        assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == pytest.approx(5.0)

    def test_symmetry_and_rigid_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, a, b = rng.uniform(-10, 10, (3, 2))
            d = point_segment_distance(tuple(p), tuple(a), tuple(b))
            assert d == pytest.approx(
                point_segment_distance(tuple(p), tuple(b), tuple(a)), abs=1e-12)
            # translation
            shift = rng.uniform(-5, 5, 2)
            assert point_segment_distance(tuple(p + shift), tuple(a + shift),
                                          tuple(b + shift)) == pytest.approx(d, abs=1e-9)
            # rotation
            theta = float(rng.uniform(0, 2 * math.pi))
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            assert point_segment_distance(tuple(rot @ p), tuple(rot @ a),
                                          tuple(rot @ b)) == pytest.approx(d, abs=1e-9)


class TestDetects:
    def test_sensor_on_path(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        assert detects((5.0, 0.0), scenario, 0.1)

    def test_boundary_inclusive(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        assert detects((4.0, 1.0), scenario, 1.0)

    def test_just_outside_corner(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        r, eps = 1.0, 1e-6
        assert not detects((5.0 + r + eps, r + eps), scenario, r)

    def test_matches_rasterized_capsule_membership(self):
        # independent formulation: in the rectangle, or in either end disk
        rng = np.random.default_rng(23)
        scenario = IntruderScenario(start_s=6.0, distance_d=4.0)
        r = 1.5
        for _ in range(2000):
            x, y = rng.uniform(-2, 10), rng.uniform(-4, 4)
            in_rect = (scenario.start_s - scenario.distance_d <= x <= scenario.start_s
                       and abs(y) <= r)
            in_left = math.hypot(x - (scenario.start_s - scenario.distance_d), y) <= r
            in_right = math.hypot(x - scenario.start_s, y) <= r
            assert detects((x, y), scenario, r) == (in_rect or in_left or in_right)

    def test_detects_any_matches_scalar(self):
        rng = np.random.default_rng(31)
        scenario = IntruderScenario(start_s=5.0, distance_d=2.0)
        xs = rng.uniform(0, 10, (50, 4))
        ys = rng.uniform(-3, 3, (50, 4))
        batch = detects_any(xs, ys, scenario, 1.0)
        for i in range(50):
            scalar = any(detects((xs[i, j], ys[i, j]), scenario, 1.0) for j in range(4))
            assert bool(batch[i]) == scalar

    def test_rejects_nonpositive_range(self):
        scenario = IntruderScenario(start_s=1.0, distance_d=0.0)
        with pytest.raises(ValueError):
            detects((0.0, 0.0), scenario, 0.0)


class TestScenario:
    def test_path_endpoints(self):
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        assert scenario.path_start == (5.0, 0.0)
        assert scenario.path_end == (2.0, 0.0)

    def test_rejects_travel_past_target(self):
        with pytest.raises(ValueError):
            IntruderScenario(start_s=2.0, distance_d=3.0)

    @pytest.mark.parametrize("s,d", [(math.inf, 1.0), (math.nan, 1.0), (5.0, math.nan),
                                     (math.inf, math.inf)])
    def test_rejects_non_finite(self, s, d):
        with pytest.raises(ValueError):
            IntruderScenario(start_s=s, distance_d=d)


class TestRegions:
    def test_rectangle_area(self):
        assert Rectangle(0, 10, -5, 5).area == 100.0

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Rectangle(1, 1, 0, 2)

    def test_rectangle_stores_floats(self):
        box = Rectangle(0, np.int8(5), -math.inf, np.float32(1.5))
        assert astuple(box) == (0.0, 5.0, -math.inf, 1.5)
        assert all(type(v) is float for v in astuple(box))
        assert astuple(HalfPlane()) == (0.0, math.inf, -math.inf, math.inf)

    def test_halfplane(self):
        hp = HalfPlane()
        assert hp.area == math.inf
        assert hp.bounded is False
        assert hp.contains(0.0, -100.0)
        assert not hp.contains(-1e-9, 0.0)
        xs = np.array([0.0, -1e-9, 1e300, 5.0])
        ys = np.array([-1e300, 0.0, 0.0, 7.0])
        assert hp.contains(xs, ys).tolist() == [True, False, True, True]

    def test_rectangle_contains_elementwise(self):
        box = Rectangle(0.0, 20.0, -5.0, 5.0)
        assert box.bounded is True
        xs = np.array([0.0, 20.0, 20.0 + 1e-9, 3.0, 3.0])
        ys = np.array([-5.0, 5.0, 0.0, 5.0 + 1e-9, -5.0 - 1e-9])
        assert box.contains(xs, ys).tolist() == [True, True, False, False, False]
        assert [box.contains(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == \
            [True, True, False, False, False]
