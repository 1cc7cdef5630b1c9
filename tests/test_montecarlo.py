import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hndeploy.analytic import capsule_probability, full_report
from hndeploy.cli import sweep_csv
from hndeploy.config import ExperimentConfig
from hndeploy.distributions import DeploymentKind, DeploymentModel, Field, sample_positions
from hndeploy import distributions, montecarlo, rng
from hndeploy.geometry import (HalfPlane, IntruderScenario, Rectangle, detects, detects_any,
                               segment_dist2)
from hndeploy.montecarlo import estimate_detection, sweep
from hndeploy.rng import RandomSeed, derive_stream_seed, derive_stream_seeds


HALF_NORMAL_MODEL = DeploymentModel(kind=DeploymentKind.HALF_NORMAL,
                                    region=HalfPlane(), sigma=5.0)
SCENARIO = IntruderScenario(start_s=5.0, distance_d=3.0)


def _reference_trial(model, n, scenario, r, trial_seed):
    """One trial by the scalar detects on each sampled sensor of the field keyed by trial_seed."""
    xs, ys = sample_positions(model, n, np.array([trial_seed], dtype=np.uint64))
    return any(detects((x, y), scenario, r) for x, y in zip(xs[0].tolist(), ys[0].tolist()))


def _reference_count(model, n, scenario, r, trials, master):
    return sum(_reference_trial(model, n, scenario, r, derive_stream_seed(master, i))
               for i in range(trials))


class TestRunTrial:
    def test_no_sensors_never_detects(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("N = 0 draws no sensor")

        assert _reference_trial(HALF_NORMAL_MODEL, 0, SCENARIO, 1.0, 123) is False
        monkeypatch.setattr(Field, "place", no_draw)
        est = estimate_detection(HALF_NORMAL_MODEL, 0, SCENARIO, 1.0, 1, RandomSeed(123))
        assert est.detected_count == 0

    def test_guaranteed_coverage(self):
        region = Rectangle(0.0, 2.0, -1.0, 1.0)
        model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
        scenario = IntruderScenario(start_s=1.0, distance_d=1.0)
        # r exceeds every possible sensor-to-path distance in the region
        est = estimate_detection(model, 1, scenario, 10.0, 1, RandomSeed(7))
        assert est.detected_count == 1
        assert _reference_trial(model, 1, scenario, 10.0, 7) is True

    def test_replay_determinism(self):
        for seed in (1, 2, 3, 99):
            first = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 1, RandomSeed(seed))
            second = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 1, RandomSeed(seed))
            assert first == second


class TestDeriveStreamSeed:
    def test_reproducible(self):
        assert derive_stream_seed(42, 17) == derive_stream_seed(42, 17)

    def test_distinct_indices(self):
        seeds = {derive_stream_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestEstimateDetection:
    def test_single_trial_is_binary(self):
        est = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 1, RandomSeed(5))
        assert est.p_hat in (0.0, 1.0)
        assert est.ci_half_width == 0.0

    def test_invariants(self):
        est = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 5000, RandomSeed(5))
        assert est.p_hat == est.detected_count / est.trials
        assert est.ci_half_width == pytest.approx(
            1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials), rel=1e-12)
        assert est.seed == 5

    def test_matches_per_trial_reference(self):
        trials = 500
        est = estimate_detection(HALF_NORMAL_MODEL, 5, SCENARIO, 1.0, trials, RandomSeed(21))
        assert est.detected_count == _reference_count(HALF_NORMAL_MODEL, 5, SCENARIO, 1.0,
                                                      trials, 21)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_batch_spans_keep_trial_indices(self, monkeypatch, workers):
        # 500 trials in spans of 64: every span must start at its own offset
        monkeypatch.setattr(montecarlo, "_BATCH", 64)
        est = estimate_detection(HALF_NORMAL_MODEL, 5, SCENARIO, 1.0, 500, RandomSeed(21),
                                 workers=workers)
        assert est.detected_count == _reference_count(HALF_NORMAL_MODEL, 5, SCENARIO, 1.0,
                                                      500, 21)

    def test_worker_count_is_bit_identical(self):
        base = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 100_000, RandomSeed(9))
        for workers in (2, 4, 7):
            other = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 100_000,
                                       RandomSeed(9), workers=workers)
            assert other.detected_count == base.detected_count
            assert other.p_hat == base.p_hat

    def test_uniform_single_sensor_matches_area_ratio(self):
        region = Rectangle(0.0, 100.0, -50.0, 50.0)
        model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
        scenario = IntruderScenario(start_s=20.0, distance_d=3.0)
        est = estimate_detection(model, 1, scenario, 1.0, 500_000, RandomSeed(17))
        expected = capsule_probability(model, scenario, 1.0)
        assert abs(est.p_hat - expected) <= max(3 * est.ci_half_width, 1e-4)

    def test_uniform_entry_point_invariance(self):
        region = Rectangle(0.0, 100.0, -50.0, 50.0)
        model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
        near = estimate_detection(model, 10, IntruderScenario(start_s=10.0, distance_d=3.0),
                                  1.0, 100_000, RandomSeed(31))
        far = estimate_detection(model, 10, IntruderScenario(start_s=50.0, distance_d=3.0),
                                 1.0, 100_000, RandomSeed(32))
        combined = math.hypot(near.ci_half_width, far.ci_half_width)
        assert abs(near.p_hat - far.p_hat) <= 3 * combined

    def test_analytic_agreement_reduced(self):
        report = full_report(SCENARIO, 1.0, 5.0, 10)
        est = estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 200_000, RandomSeed(61))
        assert abs(est.p_hat - report.p_d) <= max(0.01, 3 * est.ci_half_width)

    def test_detected_trial_draws_no_further_sensors(self, monkeypatch):
        # every point of this box lies within r = 10 of the path, so the
        # trial detects in its first chunk of 4 sensors and draws no other
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(0.0, 1.0, -1.0, 1.0), 5.0)
        scenario = IntruderScenario(start_s=1.0, distance_d=1.0)
        placed = []
        place = Field.place

        def counted(self, seeds, columns, inner=None):
            placed.append(np.size(columns))
            return place(self, seeds, columns, inner)

        monkeypatch.setattr(Field, "place", counted)
        est = estimate_detection(model, 20, scenario, 10.0, 1, RandomSeed(7))
        assert est.detected_count == 1 and placed == [4]

    @pytest.mark.parametrize("kind,sigma,n,cases", [
        (DeploymentKind.HALF_NORMAL, 10.0, 500, [(IntruderScenario(5.0, 5.0), 1.0)]),
        (DeploymentKind.UNIFORM, None, 500, [(IntruderScenario(5.0, 5.0), 1.0)]),
        # the 24 scenarios of one sigma of the benchmark's analytic grid
        (DeploymentKind.HALF_NORMAL, 10.0, 100,
         [(IntruderScenario(s, d), r) for s in (4.0, 8.0, 15.0, 25.0) for d in (1.0, 3.0)
          for r in (0.5, 1.0, 2.0)]),
    ])
    def test_peak_memory(self, kind, sigma, n, cases):
        # one span of 2^15 trials: the README rows at N = 500, and a scenario
        # grid whose trials mostly draw every sensor; the whole field would
        # hold 2^15 x n positions (over 600 MiB at peak for n = 500)
        model = DeploymentModel(kind, Rectangle(-50.0, 50.0, -50.0, 50.0), sigma)
        tracemalloc.start()
        try:
            montecarlo._detections(model, cases, [n], 1 << 15, 1000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 0, RandomSeed(1))
        with pytest.raises(ValueError):
            estimate_detection(HALF_NORMAL_MODEL, 10, SCENARIO, 1.0, 10, RandomSeed(1),
                               workers=0)
        with pytest.raises(ValueError):
            estimate_detection(HALF_NORMAL_MODEL, -1, SCENARIO, 1.0, 10, RandomSeed(1))

    @pytest.mark.parametrize("name,value", [
        ("n", 2.5), ("n", 3.0), ("n", True), ("trials", 2.5), ("trials", 10.0), ("trials", True),
        ("workers", 1.5), ("workers", 1.0), ("workers", True),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        args = {"n": 3, "trials": 10, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            estimate_detection(HALF_NORMAL_MODEL, args["n"], SCENARIO, 1.0, args["trials"],
                               RandomSeed(1), workers=args["workers"])

    def test_numpy_integer_counts(self):
        base = estimate_detection(HALF_NORMAL_MODEL, 3, SCENARIO, 1.0, 500, RandomSeed(4))
        numpy = estimate_detection(HALF_NORMAL_MODEL, np.int64(3), SCENARIO, 1.0, np.uint32(500),
                                   RandomSeed(np.uint64(4)), workers=np.int8(1))
        assert numpy == base


# (kind, region, sigma); sigma = 5 on the small box truncates the half-normal
# law to about a fifth of its mass. On [-1.1, 0.3] x [-0.3, 0.1] lo + width
# rounds above hi on both axes; the half-normal x is truncated nowhere on
# x >= -5 and from below on x >= 1. No case drawn here reaches x in
# [30, 40] or, having r <= 5, y in [10, 20]: there the x band, and then the
# y band, is empty. Last, two boxes that cut off about a sixth of the mass at
# sigma = 30
_PROPERTY_CASES = [
    (kind, region, None if kind == DeploymentKind.UNIFORM else sigma)
    for region in (Rectangle(0.0, 3.0, -3.0, 3.0), Rectangle(-50.0, 50.0, -50.0, 50.0))
    for kind in DeploymentKind
    for sigma in (1.0, 5.0)
] + [(kind, HalfPlane(), sigma) for kind in (DeploymentKind.HALF_NORMAL, DeploymentKind.QUADRANT)
     for sigma in (1.0, 5.0)] + [
    (DeploymentKind.UNIFORM, Rectangle(-1.1, 0.3, -0.3, 0.1), None),
    (DeploymentKind.HALF_NORMAL, Rectangle(-5.0, math.inf, -math.inf, math.inf), 5.0),
    (DeploymentKind.HALF_NORMAL, Rectangle(1.0, math.inf, -math.inf, math.inf), 5.0),
    (DeploymentKind.UNIFORM, Rectangle(30.0, 40.0, -3.0, 3.0), None),
    (DeploymentKind.UNIFORM, Rectangle(-5.0, 5.0, 10.0, 20.0), None),
    (DeploymentKind.HALF_NORMAL, Rectangle(-50.0, 50.0, -60.0, 50.0), 30.0),
    (DeploymentKind.QUADRANT, Rectangle(-1.0, 55.0, -2.0, 50.0), 30.0),
]


@settings(max_examples=66, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_PROPERTY_CASES), drawn=st.lists(st.integers(0, 60), min_size=1,
                                                             max_size=4),
       paths=st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 1.0),
                                st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3)),
                      min_size=1, max_size=3),
       trials=st.integers(1, 200), master=st.integers(0, 2**64 - 1),
       budget=st.sampled_from([7, 64, montecarlo._BUDGET]))
# an inner-only pass (every r within the inner band's 1.5625) in blocks of one
# trial, each walked and dropped before the next
@example(case=(DeploymentKind.UNIFORM, Rectangle(-50.0, 50.0, -50.0, 50.0), None),
         drawn=[60, 13], paths=[(5.0, 1.0, [1.0, 0.5]), (20.0, 0.5, [1.5])], trials=200,
         master=2**63 + 5, budget=7)
def test_chunked_count_equals_full_field_count(case, drawn, paths, trials, master, budget):
    kind, region, sigma = case
    model = DeploymentModel(kind, region, sigma)
    cases = [(IntruderScenario(start_s=s, distance_d=s * d_frac), r)
             for s, d_frac, rs in paths for r in rs]
    # 0, a duplicate, and 5 and 7, which share the chunk of sensors 4 to 11
    ns = sorted(drawn + [0, drawn[0], 5, 7])
    seeds = np.array([derive_stream_seed(master, i) for i in range(trials)], dtype=np.uint64)
    xs, ys = sample_positions(model, ns[-1], seeds)
    # the pass's screen, where it has one, on the drawn budget (a few cells
    # split the chunks into many row blocks and widen them once few trials
    # are live), and the full scan
    field = Field(model)
    screen = montecarlo._screen(field, montecarlo._bands(cases))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_BUDGET", budget)
        first_hits = [montecarlo._first_hits(field, cases, ns[-1], seeds, screen)]
    first_hits.append(montecarlo._first_hits(field, cases, ns[-1], seeds, None))
    counts = montecarlo._detections(model, cases, ns, trials, master, 1)
    for c, (scenario, r) in enumerate(cases):
        # one column per sensor: whether it alone detects
        hit = detects_any(xs[:, :, None], ys[:, :, None], scenario, r)
        expected_hits = np.where(hit.any(axis=1), hit.argmax(axis=1), ns[-1]).tolist()
        assert [k[:, c].tolist() for k in first_hits] == [expected_hits] * len(first_hits)
        expected = [np.count_nonzero(detects_any(xs[:, :n], ys[:, :n], scenario, r)) for n in ns]
        assert counts[c].tolist() == expected
        est = estimate_detection(model, drawn[0], scenario, r, trials, RandomSeed(master))
        assert est.detected_count == expected[ns.index(drawn[0])]


@pytest.mark.parametrize("s,d,r", [
    (5.0, 3.0, 1.0), (5.0, 5.0, 1.0), (0.0, 0.0, 0.1), (1e6, 0.5, 1e-6), (0.3, 0.1, 0.7),
    (1e300, 1e299, 1e299), (1e300, 1e299, 1e150), (1e-300, 0.0, 1e-300),
    (0.0, 0.0, math.ulp(0.0)), (1.0, 1.0, 1e-170),
])
def test_x_band_holds_every_detecting_x(s, d, r):
    scenario = IntruderScenario(s, d)
    (lo, hi), _ = montecarlo._bands([(scenario, r)])
    xs = []
    for edge in (s - d - r, s + r, s - d, s, lo, hi):
        # 300 ulps either side of the edge
        for direction in (-math.inf, math.inf):
            x = edge
            for _ in range(300):
                x = math.nextafter(x, direction)
                xs.append(x)
        # and offsets whose square is subnormal or 0
        xs += [edge + sign * 2.0 ** -e for sign in (-1.0, 1.0) for e in range(480, 600, 5)]
    xs = np.array(xs)
    with np.errstate(over="ignore"):
        detected = xs[segment_dist2(xs, np.zeros_like(xs), scenario) <= r * r]
    assert detected.size
    assert np.all((detected >= lo) & (detected <= hi))
    if math.isinf(r * r):
        assert detected.size == xs.size and (lo, hi) == (-math.inf, math.inf)
    else:
        # a few ulps wide, unless the squares underflow
        assert s + r <= hi <= max(s + r + 32 * math.ulp(s + r), 2.0 ** -499)


@pytest.mark.parametrize("r", [1.0, 1e-170, math.ulp(0.0), 1e200])
def test_y_band_holds_every_detecting_y(r):
    scenario = IntruderScenario(5.0, 3.0)
    _, (lo, hi) = montecarlo._bands([(scenario, r)])
    ys = []
    for edge in (-r, r, lo, hi):
        # 300 ulps either side of the edge
        for direction in (-math.inf, math.inf):
            y = edge
            for _ in range(300):
                y = math.nextafter(y, direction)
                ys.append(y)
        # and offsets whose square is subnormal or 0
        ys += [edge + sign * 2.0 ** -e for sign in (-1.0, 1.0) for e in range(480, 600, 5)]
    ys = np.array([y for y in ys if math.isfinite(y)])
    # x inside the path, and at both ends of its clip
    for x in (4.0, 2.0, 5.0):
        xs = np.full_like(ys, x)
        with np.errstate(over="ignore"):
            detected = ys[segment_dist2(xs, ys, scenario) <= r * r]
        assert detected.size
        assert np.all((detected >= lo) & (detected <= hi))
    if math.isinf(r * r):
        assert detected.size == ys.size and (lo, hi) == (-math.inf, math.inf)
    else:
        # a few ulps wide, unless the squares underflow
        assert lo == -hi and r <= hi <= max(r + 32 * math.ulp(r), 2.0 ** -499)


@pytest.mark.parametrize("r", [1.0, 1e-170, math.ulp(0.0)])
@pytest.mark.parametrize("s,d", [(5.0, 5.0), (0.0, 0.0), (50.0, 3.0)])
def test_uniform_narrow_pass_rules_out_only_sensors_that_miss(monkeypatch, r, s, d):
    # a pass whose y band lies within the inner band places only the inner
    # sensors: any other, from u at its ends and next to the step over the
    # band, detects in no case, at any x
    model = DeploymentModel(DeploymentKind.UNIFORM, Rectangle(-50.0, 50.0, -50.0, 50.0))
    scenario = IntruderScenario(s, d)
    field = Field(model)
    _, (_, band) = montecarlo._bands([(scenario, r)])
    assert band < field.outer_min
    step = int(0.5 * 2**53)
    ms = [0, 1, 2**53 - 2, 2**53 - 1] + list(range(step - 300, step + 301))
    u = (np.array(ms, dtype=np.float64) + 1.0) * 2.0 ** -53
    ys = field.outer_y(u)
    assert np.all(np.abs(ys) >= field.outer_min)
    # x at the ends of the path, of its capsule and of the region, a few ulps either side
    xs = [x for edge in (s - d - r, s - d, s, s + r, -50.0, 0.0, 50.0)
          for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))]
    xs, ys = np.broadcast_arrays(np.array(xs)[:, None], ys)
    assert np.all(segment_dist2(xs, ys, scenario) > r * r)


@pytest.mark.parametrize("model,r", [
    # every sensor detects where r * r overflows
    (DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0), 1e200),
    # x in [-1, 3] holds every x draw, and |y| <= 1 68% of the y draws
    (DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(0.0, 3.0, -3.0, 3.0), 1.0), 1.0),
    # x in [-1, 3] holds every x draw of the box, |y| <= 1 every y draw
    (DeploymentModel(DeploymentKind.STRIP, Rectangle(0.0, 3.0, -1.0, 1.0), 10.0), 1.0),
    (DeploymentModel(DeploymentKind.UNIFORM, Rectangle(-2.0, 3.0, -1.0, 1.0)), 1.0),
])
def test_no_screen_where_it_cannot_rule_sensors_out(model, r):
    bands = montecarlo._bands([(IntruderScenario(2.0, 2.0), r)])
    assert montecarlo._screen(Field(model), bands) is None


_BOX = Rectangle(-50.0, 50.0, -50.0, 50.0)
# (model, S, d, r, the offset of the axis screened first): a normal y and a
# folded y, also at r whose square is subnormal or 0; a folded x, also in
# the reflected form of a box far in the tail; then uniform x and y, where a
# sensor that is not inner is screened by y
_SCREEN_CASES = [
    (DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0), 5.0, 3.0, 1.0, 1),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, _BOX, 10.0), 5.0, 5.0, 1.0, 1),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, _BOX, 10.0), 0.0, 0.0, 1e-170, 1),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0), 5.0, 3.0, math.ulp(0.0), 1),
    (DeploymentModel(DeploymentKind.QUADRANT, Rectangle(-1.0, 40.0, -2.0, 30.0), 8.0),
     5.0, 3.0, 1.0, 1),
    (DeploymentModel(DeploymentKind.QUADRANT, HalfPlane(), 8.0), 5.0, 3.0, math.ulp(0.0), 1),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0), 30.0, 1.0, 5.0, 0),
    (DeploymentModel(DeploymentKind.STRIP, Rectangle(0.0, 50.0, -5.0, 5.0), 5.0),
     20.0, 1.0, 1.0, 0),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(30.0, 35.0, -1.0, 1.0), 5.0),
     35.0, 0.5, 0.5, 0),
    (DeploymentModel(DeploymentKind.QUADRANT, Rectangle(30.0, 35.0, -1.0, 1.0), 5.0),
     34.0, 0.5, 0.5, 0),
] + [(DeploymentModel(DeploymentKind.UNIFORM, region), s, d, r, offset)
     for region, s, d, r, offset in [
         (_BOX, 5.0, 3.0, 3.0, 1), (_BOX, 40.0, 3.0, 2.0, 1),
         (Rectangle(0.0, 20.0, -5.0, 5.0), 5.0, 3.0, 5.0, 0),
         (Rectangle(0.0, 20.0, -5.0, 5.0), 5.0, 3.0, 0.3, 1),
         (Rectangle(-1.1, 0.3, -0.3, 0.1), 0.1, 0.05, 0.05, 0),
         (Rectangle(-5.0, 5.0, 10.0, 20.0), 5.0, 3.0, 10.5, 1)]]


@pytest.mark.parametrize("model,s,d,r,offset", _SCREEN_CASES)
def test_screen_rules_out_only_sensors_that_miss(model, s, d, r, offset):
    # at each stage, raw values within 300 of either end of the interval
    # that the stage rules out place its coordinate, by the array map the
    # field uses, where no case detects, whatever the other coordinate
    field = Field(model)
    scenario = IntruderScenario(s, d)
    bands = montecarlo._bands([(scenario, r)])
    if field.banded:
        # a pass whose y band lies within the inner band is not screened
        assert bands[1][1] >= field.outer_min
    screen = montecarlo._screen(field, bands)
    # the other axis is a second stage unless its band holds every draw
    other = model.marginals()[1 - offset]
    lo, hi = bands[1 - offset]
    assert [stage[0] for stage in screen] == [offset, 1 - offset][
        :1 if lo <= other.lo and other.hi <= hi else 2]
    for axis, a, width in screen:
        value, bits, _ = field.axes[axis]
        shift = 64 - bits
        ends = (a >> shift, ((a + width + 1) % 2**64) >> shift)
        ms = sorted({m for end in ends for m in range(end - 300, end + 301)
                     if 0 <= m < 2**bits and ((m << shift) - a) % 2**64 > width})
        screened = value(rng.uniforms(np.array(ms, dtype=np.uint64) << np.uint64(shift), bits))
        # the other coordinate at the ends of its support, of the path and at 0
        other = model.marginals()[1 - axis]
        values = [other.lo, other.hi, 0.0] + ([s - d, s] if axis else [-r, r])
        others = np.clip([v for v in values if math.isfinite(v)], other.lo, other.hi)
        xs, ys = np.broadcast_arrays(others[:, None], screened) if axis else \
            np.broadcast_arrays(screened, others[:, None])
        assert np.all(model.region.contains(xs, ys))
        with np.errstate(over="ignore"):
            assert np.all(segment_dist2(xs, ys, scenario) > r * r)


def test_screen_draws_the_rest_only_for_candidates(monkeypatch):
    # the README half-normal row: y's draw decides all but 8% of the
    # sensors, and x's draw about half of those that remain
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, _BOX, 10.0)
    cases = [(IntruderScenario(5.0, 5.0), 1.0)]
    seeds = derive_stream_seeds(3, np.arange(2000, dtype=np.uint64))
    field = Field(model)
    screen = montecarlo._screen(field, montecarlo._bands(cases))
    assert [offset for offset, _, _ in screen] == [1, 0]
    intervals = {offset: (np.uint64(a), np.uint64(width)) for offset, a, width in screen}
    # at each counter offset within a sensor's block, the raw values read
    # and those of them within that axis's stage interval
    drawn, passed = np.zeros(256, dtype=np.int64), np.zeros(2, dtype=np.int64)
    raw_draws = rng.raw_draws

    def counted(seeds, counters, *buffers):
        values = raw_draws(seeds, counters, *buffers)
        offsets = np.broadcast_to(np.asarray(counters, dtype=np.uint64), values.shape) % 256
        drawn[:] += np.bincount(offsets.ravel().astype(np.intp), minlength=256)
        for offset, (a, width) in intervals.items():
            passed[offset] += np.count_nonzero((values - a <= width) & (offsets == offset))
        return values

    placed = []
    place = Field.place

    def counted_place(self, seeds, columns, inner):
        placed.append(np.size(columns))
        return place(self, seeds, columns, inner)

    monkeypatch.setattr(distributions, "raw_draws", counted)
    full = montecarlo._first_hits(field, cases, 500, seeds, None)
    examined, other = drawn[1], drawn[0]
    # the full draw reads both offsets for every sensor
    assert examined == other > 0
    drawn[:], passed[:] = 0, 0
    monkeypatch.setattr(Field, "place", counted_place)
    assert np.array_equal(montecarlo._first_hits(field, cases, 500, seeds, screen), full)
    survivors = sum(placed)
    # the screen reads y once for every sensor; x is read once for every y
    # candidate, and both again for the survivors, whose draws pass both stages
    assert drawn[1] == examined + survivors
    assert drawn[0] == passed[1]
    assert passed[0] == 2 * survivors
    candidates = drawn[0] - survivors
    assert 0 < survivors < 0.7 * candidates and candidates <= 0.1 * examined


def test_narrow_pass_places_only_inner_sensors(monkeypatch):
    # the README uniform row: |y| <= 1 holds 2% of the sensors, within the
    # inner band's 2^-5; only the inner sensors are placed, and the first
    # hits are those of the whole fields
    model = DeploymentModel(DeploymentKind.UNIFORM, Rectangle(-50.0, 50.0, -50.0, 50.0))
    cases = [(IntruderScenario(5.0, 5.0), 1.0)]
    trials, n = 2000, 500
    seeds = derive_stream_seeds(3, np.arange(trials, dtype=np.uint64))
    field = Field(model)
    assert montecarlo._bands(cases)[1][1] < field.outer_min
    screen = montecarlo._screen(field, montecarlo._bands(cases))
    assert screen == montecarlo._INNER
    placed = []
    place = Field.place

    def counted(self, seeds, columns, inner):
        placed.append(np.size(columns))
        return place(self, seeds, columns, inner)

    monkeypatch.setattr(Field, "place", counted)
    k = montecarlo._first_hits(field, cases, n, seeds, screen)
    assert 0 < sum(placed) <= 0.035 * trials * n
    monkeypatch.setattr(Field, "place", place)
    xs, ys = sample_positions(model, n, seeds)
    hit = detects_any(xs[:, :, None], ys[:, :, None], *cases[0])
    assert k[:, 0].tolist() == np.where(hit.any(axis=1), hit.argmax(axis=1), n).tolist()


@pytest.mark.parametrize("model,scenario,rs,offsets", [
    # a normal y, then x; a folded y, then x; a strip's folded x, then its
    # uniform y; a truncated box; a banded uniform field screened on x,
    # where every inner sensor passes the y stage
    (HALF_NORMAL_MODEL, SCENARIO, [1.0, 0.5], (1, 0)),
    (DeploymentModel(DeploymentKind.QUADRANT, HalfPlane(), 5.0), SCENARIO, [1.0], (1, 0)),
    (DeploymentModel(DeploymentKind.STRIP, Rectangle(0.0, 50.0, -5.0, 5.0), 5.0),
     IntruderScenario(8.0, 1.0), [1.0, 2.0], (0, 1)),
    (DeploymentModel(DeploymentKind.HALF_NORMAL, _BOX, 10.0), IntruderScenario(5.0, 5.0), [1.0],
     (1, 0)),
    (DeploymentModel(DeploymentKind.UNIFORM, Rectangle(0.0, 20.0, -5.0, 5.0)),
     IntruderScenario(5.0, 3.0), [2.0], (0, 1)),
])
def test_two_stage_first_hits_equal_the_full_scan(model, scenario, rs, offsets):
    cases = [(scenario, r) for r in rs]
    trials, n = 2000, 30
    seeds = derive_stream_seeds(5, np.arange(trials, dtype=np.uint64))
    field = Field(model)
    screen = montecarlo._screen(field, montecarlo._bands(cases))
    assert tuple(offset for offset, _, _ in screen) == offsets
    k = montecarlo._first_hits(field, cases, n, seeds, screen)
    assert np.array_equal(k, montecarlo._first_hits(field, cases, n, seeds, None))
    xs, ys = sample_positions(model, n, seeds)
    for c, (scenario, r) in enumerate(cases):
        hit = detects_any(xs[:, :, None], ys[:, :, None], scenario, r)
        assert k[:, c].tolist() == np.where(hit.any(axis=1), hit.argmax(axis=1), n).tolist()
        assert 0 < np.count_nonzero(k[:, c] < n) < trials


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_builds_its_screen_once(monkeypatch, workers):
    # five spans of 64 trials share one field and one screen
    monkeypatch.setattr(montecarlo, "_BATCH", 64)
    calls = []
    screen = montecarlo._screen

    def counted(*args):
        calls.append(args)
        return screen(*args)

    monkeypatch.setattr(montecarlo, "_screen", counted)
    counts = montecarlo._detections(HALF_NORMAL_MODEL, [(SCENARIO, 1.0)], [10, 100], 300, 9,
                                    workers)
    assert len(calls) == 1
    monkeypatch.setattr(montecarlo, "_BATCH", 1 << 15)
    assert np.array_equal(counts, montecarlo._detections(
        HALF_NORMAL_MODEL, [(SCENARIO, 1.0)], [10, 100], 300, 9, 1))


def _first_hits_peak(model, cases, n, trials):
    """The traced peak of one pass's _first_hits, in MiB, with the field and
    the screen built before it."""
    field = Field(model)
    screen = montecarlo._screen(field, montecarlo._bands(cases))
    seeds = derive_stream_seeds(1000, np.arange(trials, dtype=np.uint64))
    tracemalloc.start()
    try:
        montecarlo._first_hits(field, cases, n, seeds, screen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_half_plane_span_peak_memory():
    # one span of the simulate workload: 2^15 trials on the sigma = 5
    # half-plane up to N = 100. Its traced peak is about 2.0 MiB, where one
    # that kept each stage's arrays to the end of the chunk, and a copy of
    # the live trials' seeds per block, read about 2.6 MiB
    assert _first_hits_peak(HALF_NORMAL_MODEL, [(SCENARIO, 1.0)], 100, 1 << 15) <= 2.25


def test_two_worker_pass_peak_memory():
    # two spans of the simulate workload at once, on two threads: about
    # 3.8-4.5 MiB traced, where spans of about 2.6 MiB read 5.0-5.6 MiB. A
    # first pass imports the thread pool, whose allocations are traced too
    cases = [(SCENARIO, 1.0)]
    montecarlo._detections(HALF_NORMAL_MODEL, cases, [100], 2, 1000, 2)
    tracemalloc.start()
    try:
        montecarlo._detections(HALF_NORMAL_MODEL, cases, [100], 1 << 16, 1000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 4.75


def test_narrow_pass_peak_memory():
    # the README uniform row, which places only the inner sensors, in row
    # blocks of _BUDGET cells: about 1.3 MiB (the sigma = 10 row's, 1.2).
    # Blocks that kept their walks' bool grids and int64 indices, and the
    # last block's positions while walking the next, read about 2.1 MiB;
    # blocks of 2^15 inner sensors about 3.4 MiB
    model = DeploymentModel(DeploymentKind.UNIFORM, Rectangle(-50.0, 50.0, -50.0, 50.0))
    assert _first_hits_peak(model, [(IntruderScenario(5.0, 5.0), 1.0)], 500, 20_000) <= 1.5


@pytest.mark.parametrize("n", [10**6, 10**7])
def test_one_trial_pass_memory_is_bounded_whatever_n(n):
    # one live trial draws chunks of up to _BUDGET columns, and the screen
    # mixes such a row in pieces of _SCREEN_BLOCK draws, so the peak (about
    # 8.5-9.3 MiB; 19-21 MiB where the screen mixed a whole row at once)
    # does not grow with N. The uniform field places only inner sensors, up
    # to _BUDGET of them a chunk, each walked as one (gaps x 1) column: about
    # 0.7 and 9.5 MiB (1.2 and 13.0 MiB with the walk's bool grids and int64
    # indices)
    uniform = DeploymentModel(DeploymentKind.UNIFORM, Rectangle(-50.0, 50.0, -50.0, 50.0))
    for model in (HALF_NORMAL_MODEL, uniform):
        assert _first_hits_peak(model, [(SCENARIO, 1e-9)], n, 1) <= 12


def test_one_trial_pass_makes_few_calls(monkeypatch):
    # a trial that never detects widens its chunks up to _BUDGET columns:
    # 18 calls to N = 10^6, where chunks of 16 columns made 62,502
    calls = []
    sample = Field.sample

    def counted(self, *args):
        calls.append(args)
        return sample(self, *args)

    monkeypatch.setattr(Field, "sample", counted)
    est = estimate_detection(HALF_NORMAL_MODEL, 10**6, SCENARIO, 1e-9, 1, RandomSeed(1))
    assert est.detected_count == 0 and 0 < len(calls) <= 24


def test_massless_inner_band_is_screened():
    # far from y = 0 the inner band rounds to no length, so it holds no
    # sensor: the pass screens as any other does, and detects nothing
    model = DeploymentModel(DeploymentKind.UNIFORM, Rectangle(0.0, 10.0, 1e20, 1e20 + 1e5))
    field = Field(model)
    assert field.share == 0.0
    cases = [(SCENARIO, 1.0)]
    assert montecarlo._screen(field, montecarlo._bands(cases)) not in (None, montecarlo._INNER)
    assert estimate_detection(model, 100, SCENARIO, 1.0, 10, RandomSeed(1)).detected_count == 0


def _config(**overrides):
    base = dict(
        models=[DeploymentKind.HALF_NORMAL, DeploymentKind.UNIFORM],
        sigma_values=[10.0],
        n_values=[10, 50],
        s_values=[5.0],
        d_values=[5.0],
        r_values=[1.0],
        region=Rectangle(-50.0, 50.0, -50.0, 50.0),
        trials=2000,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSweep:
    @pytest.mark.parametrize("overrides", [
        {"n_values": [10, 2.5]}, {"n_values": [True]}, {"trials": 20.0}, {"trials": True},
        {"master_seed": 1.5}, {"master_seed": True}, {"workers": 1.5}, {"workers": True},
        {"sigma_values": [1e-320]},
    ])
    def test_config_rejects_bad_counts_and_sigma(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)

    def test_config_stores_numpy_integers_as_int(self):
        config = _config(n_values=[np.int64(10)], trials=np.uint32(2000),
                         master_seed=np.uint64(42), workers=np.int8(2))
        values = [*config.n_values, config.trials, config.master_seed, config.workers]
        assert values == [10, 2000, 42, 2] and all(type(v) is int for v in values)

    def test_config_converts_model_names(self):
        # a directly built config with kind names used to end sweep in AttributeError
        config = _config(models=["uniform", "half_normal"], n_values=[10])
        assert config.models == [DeploymentKind.UNIFORM, DeploymentKind.HALF_NORMAL]
        assert sweep(config) == sweep(_config(n_values=[10]))

    @pytest.mark.parametrize("region", [[0.0, 10.0, -5.0, 5.0], (0.0, 10.0, -5.0, 5.0), None])
    def test_config_rejects_region_that_is_not_a_rectangle(self, region):
        with pytest.raises(ValueError, match="^region must be a Rectangle"):
            _config(region=region)

    def test_config_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="^bad deployment kind"):
            _config(models=["uniform", "hexagonal"])

    def test_row_structure_and_order(self):
        result = sweep(_config())
        keys = [(row.model, row.N) for row in result]
        assert keys == sorted(keys)
        # uniform rows collapse sigma, half-normal rows carry it
        assert {row.model for row in result} == {"half_normal", "uniform"}
        for row in result:
            if row.model == "uniform":
                assert row.sigma is None
            else:
                assert row.sigma == 10.0

    def test_single_point_reduces_to_components(self):
        config = _config(models=[DeploymentKind.HALF_NORMAL], n_values=[10],
                         d_values=[3.0], trials=5000)
        result = sweep(config)
        assert len(result) == 1
        row = result[0]
        scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
        report = full_report(scenario, 1.0, 10.0, 10, region=config.region)
        assert row.p_analytic == pytest.approx(report.p_d, abs=1e-12)
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL,
                                region=config.region, sigma=10.0)
        est = estimate_detection(model, 10, scenario, 1.0, 5000, RandomSeed(row.seed))
        assert row.p_hat == est.p_hat

    def test_deterministic_replay(self):
        assert sweep(_config()) == sweep(_config())

    def test_bounded_half_normal_row_uses_truncated_density(self):
        # sigma = 30 in a +-50 region cuts off ~18% of the mass; the
        # untruncated half-plane value lies ~20 standard errors below the
        # estimate
        config = _config(models=[DeploymentKind.HALF_NORMAL], sigma_values=[30.0],
                         n_values=[50], trials=50_000)
        (row,) = sweep(config)
        se = math.sqrt(row.p_analytic * (1.0 - row.p_analytic) / row.trials)
        assert row.status == "ok"
        assert abs(row.p_hat - row.p_analytic) <= 4.0 * se

    def test_unsamplable_row_does_not_abort(self):
        # sigma = 1 puts no mass in the region, so neither engine can use it
        config = _config(sigma_values=[1.0], n_values=[10], s_values=[45.0], d_values=[3.0],
                         region=Rectangle(40.0, 50.0, -5.0, 5.0))
        rows = {row.model: row for row in sweep(config)}
        assert rows["uniform"].status == "ok"
        assert rows["half_normal"].status == (
            "invalid: region Rectangle(x_min=40.0, x_max=50.0, y_min=-5.0, y_max=5.0) carries "
            "no half_normal deployment mass at sigma=1.0")
        assert rows["half_normal"].p_hat is None

    def test_far_tail_row_is_sampled(self):
        # sigma = 1 puts ~1e-9 of the mass in the region: the draws invert
        # the truncated law, and p_hat agrees with p_analytic
        config = _config(sigma_values=[1.0], n_values=[1], s_values=[7.0], d_values=[1.0],
                         region=Rectangle(6.0, 30.0, -5.0, 5.0), trials=20_000)
        rows = {row.model: row for row in sweep(config)}
        row = rows["half_normal"]
        assert row.status == "ok"
        se = math.sqrt(row.p_analytic * (1.0 - row.p_analytic) / row.trials)
        assert abs(row.p_hat - row.p_analytic) <= 5.0 * se

    def test_density_overflow_does_not_abort(self):
        # at sigma = 1e-300, (x / (sigma sqrt 2))^2 exceeds the float range: the
        # density is 0 there, and the sigma = 5 row after it still runs
        config = _config(models=[DeploymentKind.HALF_NORMAL], sigma_values=[1e-300, 5.0],
                         n_values=[10], s_values=[5.0], d_values=[3.0],
                         region=Rectangle(0.0, 20.0, -5.0, 5.0), trials=500)
        rows = {row.sigma: row for row in sweep(config)}
        assert rows[1e-300].status == "ok"
        assert rows[1e-300].p_analytic == 0.0
        assert rows[5.0].status == "ok"
        assert rows[5.0].p_analytic > 0.0

    def test_invalid_rows_reported_not_fatal(self):
        config = _config(s_values=[5.0], d_values=[5.0, 8.0])
        result = sweep(config)
        statuses = {(row.d, row.status.startswith("invalid")) for row in result}
        assert (8.0, True) in statuses
        assert (5.0, False) in statuses

    def test_all_rows_invalid_is_fatal(self):
        config = _config(s_values=[1.0], d_values=[8.0])
        with pytest.raises(ValueError):
            sweep(config)

    def test_half_normal_dominates_near_target(self):
        result = sweep(_config(trials=20_000))
        by_model = {}
        for row in result:
            by_model.setdefault(row.model, {})[row.N] = row
        for n in (10, 50):
            assert by_model["half_normal"][n].p_hat >= by_model["uniform"][n].p_hat

    def test_p_hat_non_decreasing_in_r_and_d(self):
        # the scenarios of a (model, sigma) group share its sensor fields, and
        # a larger r, or a longer path from the same S, holds the smaller capsule
        result = sweep(_config(n_values=[10, 50], s_values=[5.0, 15.0], d_values=[1.0, 3.0, 5.0],
                               r_values=[0.5, 1.0, 2.0], trials=2000))
        p_hat = {(row.model, row.N, row.S, row.d, row.r): row.p_hat for row in result}
        assert None not in p_hat.values() and len(p_hat) == 72
        for model, n, s, d, r in p_hat:
            by_r = [p_hat[model, n, s, d, other] for other in (0.5, 1.0, 2.0)]
            by_d = [p_hat[model, n, s, other, r] for other in (1.0, 3.0, 5.0)]
            assert by_r == sorted(by_r) and by_d == sorted(by_d)

    def test_p_hat_non_decreasing_in_n(self):
        # rows that differ only in N count the same trials' first N sensors
        result = sweep(_config(n_values=[0, 4, 10, 50, 100], trials=5000))
        for model in ("half_normal", "uniform"):
            p_hats = [row.p_hat for row in result if row.model == model]
            assert len(p_hats) == 5 and p_hats == sorted(p_hats)


def _replay(config, row):
    """(estimate or None, status) of `row` run alone through estimate_detection
    on its recorded seed."""
    model = DeploymentModel(DeploymentKind(row.model), config.region, row.sigma)
    try:
        scenario = IntruderScenario(start_s=row.S, distance_d=row.d)
        return estimate_detection(model, row.N, scenario, row.r, row.trials,
                                  RandomSeed(row.seed)), "ok"
    except ValueError as exc:
        return None, f"invalid: {exc}"


# the two README models; a scenario grid with a path longer than its start
# (d = 8 > S = 4); every kind on a box far in the x tail at sigma = 5 (about
# 1e-9 of the half-normal mass), whose uniform rows are screened by x
_GROUP_CONFIGS = {
    "readme": dict(n_values=[0, 10, 50, 100, 200]),
    "grid": dict(sigma_values=[3.0, 10.0], n_values=[5, 20], s_values=[4.0, 15.0],
                 d_values=[1.0, 3.0, 8.0], r_values=[0.5, 2.0], trials=300),
    "far_tail": dict(models=list(DeploymentKind), sigma_values=[5.0], n_values=[1, 3, 20],
                     s_values=[33.0, 35.0], d_values=[0.5, 2.0], r_values=[0.1, 1.0],
                     region=Rectangle(30.0, 35.0, -1.0, 1.0), trials=300),
    # a uniform group whose pass screens every sensor for |y| <= 6, while
    # its r = 0.3 and r = 1 rows alone place only the inner ones
    "inner": dict(models=[DeploymentKind.UNIFORM], n_values=[10, 300], s_values=[5.0],
                  d_values=[2.0, 5.0], r_values=[0.3, 1.0, 6.0], trials=3000),
}


class TestSweepGroups:
    @pytest.mark.parametrize("name", sorted(_GROUP_CONFIGS))
    def test_every_row_replays_alone(self, name):
        config = _config(**_GROUP_CONFIGS[name])
        rows = sweep(config)
        for row in rows:
            estimate, status = _replay(config, row)
            assert row.status == status
            if estimate is None:
                assert row.p_hat is None and row.ci_half_width is None
            else:
                assert round(row.p_hat * row.trials) == estimate.detected_count
                assert (row.p_hat, row.ci_half_width) == (estimate.p_hat, estimate.ci_half_width)
        # only a path longer than its start fails, and its group still runs
        assert all((row.status == "ok") == (row.d <= row.S) for row in rows)

    def test_a_row_alone_may_place_only_inner_sensors(self):
        config = _config(**_GROUP_CONFIGS["inner"])
        field = Field(DeploymentModel(DeploymentKind.UNIFORM, config.region))
        cases = [(IntruderScenario(5.0, 5.0), r) for r in config.r_values]
        narrow = [montecarlo._bands([case])[1][1] < field.outer_min for case in cases]
        assert narrow == [True, True, False]
        assert montecarlo._bands(cases)[1][1] >= field.outer_min

    @pytest.mark.parametrize("name", sorted(_GROUP_CONFIGS))
    def test_rows_of_a_model_sigma_group_share_its_first_rows_seed(self, name):
        config = _config(**_GROUP_CONFIGS[name])
        rows = sweep(config)
        for row in rows:
            first = next(i for i, other in enumerate(rows)
                         if (other.model, other.sigma) == (row.model, row.sigma))
            assert row.seed == derive_stream_seed(config.master_seed, first)
            assert rows[first].N == min(config.n_values)

    @pytest.mark.parametrize("name", sorted(_GROUP_CONFIGS))
    def test_csv_is_identical_for_any_worker_count(self, monkeypatch, name):
        # several spans per pass, so the two workers share them
        monkeypatch.setattr(montecarlo, "_BATCH", 64)
        config = _config(**_GROUP_CONFIGS[name])
        serial = sweep_csv(sweep(config))
        assert sweep_csv(sweep(dataclasses.replace(config, workers=2))) == serial
