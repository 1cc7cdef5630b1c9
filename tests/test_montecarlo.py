import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hndeploy.analytic import capsule_probability, full_report
from hndeploy.config import ExperimentConfig
from hndeploy.distributions import DeploymentKind, DeploymentModel, SamplingError, sample_positions
from hndeploy import montecarlo
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle, detects, detects_any
from hndeploy.montecarlo import estimate_detection, sweep
from hndeploy.rng import RandomSeed, derive_stream_seed


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

        monkeypatch.setattr(montecarlo, "sample_positions", no_draw)
        est = estimate_detection(HALF_NORMAL_MODEL, 0, SCENARIO, 1.0, 1, RandomSeed(123))
        assert est.detected_count == 0
        assert _reference_trial(HALF_NORMAL_MODEL, 0, SCENARIO, 1.0, 123) is False

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
        assert est.master_seed == 5

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

    def test_detected_trial_draws_no_further_sensors(self):
        # every point of this box lies within r = 10 of the path; master 1's
        # trial places its first 8 sensors but rejects a later one of its 20 on
        # every attempt, so only the full field raises
        model = DeploymentModel(DeploymentKind.HALF_NORMAL, Rectangle(0.0, 1.0, -1.0, 1.0), 5.0)
        scenario = IntruderScenario(start_s=1.0, distance_d=1.0)
        seeds = np.array([derive_stream_seed(1, 0)], dtype=np.uint64)
        sample_positions(model, 8, seeds)
        with pytest.raises(SamplingError):
            sample_positions(model, 20, seeds)
        est = estimate_detection(model, 20, scenario, 10.0, 1, RandomSeed(1))
        assert est.detected_count == 1

    @pytest.mark.parametrize("kind,sigma", [(DeploymentKind.HALF_NORMAL, 10.0),
                                            (DeploymentKind.UNIFORM, None)])
    def test_peak_memory(self, kind, sigma):
        # the README row at N = 500 in one span of 2^15 trials; the whole field
        # would hold 2^15 x 500 positions (over 600 MiB at peak)
        model = DeploymentModel(kind, Rectangle(-50.0, 50.0, -50.0, 50.0), sigma)
        tracemalloc.start()
        try:
            estimate_detection(model, 500, IntruderScenario(start_s=5.0, distance_d=5.0), 1.0,
                               1 << 15, RandomSeed(1000))
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


# (kind, region, sigma); sigma = 5 on the small box rejects about four
# half-normal draws in five
_PROPERTY_CASES = [
    (kind, region, None if kind == DeploymentKind.UNIFORM else sigma)
    for region in (Rectangle(0.0, 3.0, -3.0, 3.0), Rectangle(-50.0, 50.0, -50.0, 50.0))
    for kind in DeploymentKind
    for sigma in (1.0, 5.0)
] + [(kind, HalfPlane(), sigma) for kind in (DeploymentKind.HALF_NORMAL, DeploymentKind.QUADRANT)
     for sigma in (1.0, 5.0)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_PROPERTY_CASES), n=st.integers(0, 60),
       r=st.floats(0.1, 5.0), s=st.floats(0.0, 20.0), d_frac=st.floats(0.0, 1.0),
       trials=st.integers(1, 200), master=st.integers(0, 2**64 - 1))
def test_chunked_count_equals_full_field_count(case, n, r, s, d_frac, trials, master):
    kind, region, sigma = case
    model = DeploymentModel(kind, region, sigma)
    scenario = IntruderScenario(start_s=s, distance_d=s * d_frac)
    seeds = np.array([derive_stream_seed(master, i) for i in range(trials)], dtype=np.uint64)
    xs, ys = sample_positions(model, n, seeds)
    expected = np.count_nonzero(detects_any(xs, ys, scenario, r))
    est = estimate_detection(model, n, scenario, r, trials, RandomSeed(master))
    assert est.detected_count == expected


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

    def test_row_structure_and_order(self):
        result = sweep(_config())
        keys = [(row.model, row.n) for row in result.rows]
        assert keys == sorted(keys)
        # uniform rows collapse sigma, half-normal rows carry it
        assert {row.model for row in result.rows} == {"half_normal", "uniform"}
        for row in result.rows:
            if row.model == "uniform":
                assert row.sigma is None
            else:
                assert row.sigma == 10.0

    def test_single_point_reduces_to_components(self):
        config = _config(models=[DeploymentKind.HALF_NORMAL], n_values=[10],
                         d_values=[3.0], trials=5000)
        result = sweep(config)
        assert len(result.rows) == 1
        row = result.rows[0]
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
        # sigma = 30 in a +-50 region rejects ~18% of draws; the untruncated
        # half-plane value lies ~20 standard errors below the estimate
        config = _config(models=[DeploymentKind.HALF_NORMAL], sigma_values=[30.0],
                         n_values=[50], trials=50_000)
        (row,) = sweep(config).rows
        se = math.sqrt(row.p_analytic * (1.0 - row.p_analytic) / row.trials)
        assert row.status == "ok"
        assert abs(row.p_hat - row.p_analytic) <= 4.0 * se

    @pytest.mark.parametrize("x_min", [20.0, 6.0])
    def test_unsamplable_row_does_not_abort(self, x_min):
        # sigma = 1 puts no mass (x_min = 20: the analytic value fails) or
        # ~1e-9 of it (x_min = 6: rejection sampling fails) in the region
        config = _config(sigma_values=[1.0], n_values=[10], s_values=[25.0], d_values=[3.0],
                         region=Rectangle(x_min, 30.0, -5.0, 5.0))
        rows = {row.model: row for row in sweep(config).rows}
        assert rows["uniform"].status == "ok"
        assert rows["half_normal"].status.startswith("invalid")
        assert rows["half_normal"].p_hat is None

    def test_density_overflow_does_not_abort(self):
        # at sigma = 1e-300, (x / (sigma sqrt 2))^2 exceeds the float range: the
        # density is 0 there, and the sigma = 5 row after it still runs
        config = _config(models=[DeploymentKind.HALF_NORMAL], sigma_values=[1e-300, 5.0],
                         n_values=[10], s_values=[5.0], d_values=[3.0],
                         region=Rectangle(0.0, 20.0, -5.0, 5.0), trials=500)
        rows = {row.sigma: row for row in sweep(config).rows}
        assert rows[1e-300].status == "ok"
        assert rows[1e-300].p_analytic == 0.0
        assert rows[5.0].status == "ok"
        assert rows[5.0].p_analytic > 0.0

    def test_invalid_rows_reported_not_fatal(self):
        config = _config(s_values=[5.0], d_values=[5.0, 8.0])
        result = sweep(config)
        statuses = {(row.d, row.status.startswith("invalid")) for row in result.rows}
        assert (8.0, True) in statuses
        assert (5.0, False) in statuses

    def test_all_rows_invalid_is_fatal(self):
        config = _config(s_values=[1.0], d_values=[8.0])
        with pytest.raises(ValueError):
            sweep(config)

    def test_half_normal_dominates_near_target(self):
        result = sweep(_config(trials=20_000))
        by_model = {}
        for row in result.rows:
            by_model.setdefault(row.model, {})[row.n] = row
        for n in (10, 50):
            assert by_model["half_normal"][n].p_hat >= by_model["uniform"][n].p_hat

    def test_monotone_in_n_up_to_noise(self):
        result = sweep(_config(trials=20_000))
        for model in ("half_normal", "uniform"):
            rows = [row for row in result.rows if row.model == model]
            rows.sort(key=lambda row: row.n)
            for a, b in zip(rows, rows[1:]):
                combined = math.hypot(a.ci_half_width, b.ci_half_width)
                assert b.p_hat >= a.p_hat - 2 * combined
