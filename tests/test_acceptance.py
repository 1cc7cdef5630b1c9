"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them inline).
"""

import math
import time

import numpy as np
import pytest

from hndeploy.analytic import detection_probability, full_report
from hndeploy.cli import sweep_csv
from hndeploy.config import ExperimentConfig
from hndeploy.distributions import (
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    correlated_half_normal_pdf,
    half_normal_mean,
    half_normal_pdf,
    sample_positions,
    stein_residual,
)
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle, capsule_area
from hndeploy.montecarlo import estimate_detection, sweep
from hndeploy.numerics import QuadratureSpec, integrate_1d, integrate_2d
from hndeploy.rng import RandomSeed, uniform_draws


def _half_normal_x(params, n, seed):
    """The x column of one half-plane half_normal deployment: n iid half-normal draws."""
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), params.sigma)
    xs, _ = sample_positions(model, n, np.array([seed], dtype=np.uint64))
    return xs[0]


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_half_normal_pdf_and_sampler():
    start = time.monotonic()
    spec = QuadratureSpec(1e-9)
    worst = 0.0
    for sigma in (0.5, 1.0, 5.0, 20.0):
        params = HalfNormalParams(sigma)
        total = integrate_1d(lambda y: half_normal_pdf(y, params), 0.0, 12.0 * sigma, spec)
        worst = max(worst, abs(total - 1.0))
    samples = _half_normal_x(HalfNormalParams(1.0), 1_000_000, 101)
    mean_err = abs(float(samples.mean()) - half_normal_mean(HalfNormalParams(1.0)))
    elapsed = time.monotonic() - start
    _report("pdf_normalization_and_sampler_mean",
            worst <= 1e-6 and mean_err <= 0.003 and elapsed < 10.0,
            f"norm_err={worst:.2e} mean_err={mean_err:.2e} t={elapsed:.1f}s")


def test_criterion_2_bivariate_density():
    spec = QuadratureSpec(1e-7)
    worst_norm = 0.0
    for s1, s2, rho in ((1.0, 1.0, 0.0), (1.0, 2.0, 0.5), (2.0, 1.0, -0.5)):
        params = Correlated2DParams(s1, s2, rho)
        total = integrate_2d(
            lambda x, y: correlated_half_normal_pdf(x, y, params),
            (0.0, 10.0 * s1), (0.0, 10.0 * s2), spec)
        worst_norm = max(worst_norm, abs(total - 1.0))
    # with rho = 0 the density factorizes into two independent half-normals
    params = Correlated2DParams(1.5, 0.7, 0.0)
    px, py = HalfNormalParams(1.5), HalfNormalParams(0.7)
    grid = np.linspace(0.0, 4.0, 10)
    worst_prod = max(
        abs(correlated_half_normal_pdf(float(x), float(y), params)
            - half_normal_pdf(float(x), px) * half_normal_pdf(float(y), py))
        for x in grid for y in grid)
    _report("bivariate_normalization_and_independence",
            worst_norm <= 1e-4 and worst_prod <= 1e-12,
            f"norm_err={worst_norm:.2e} product_err={worst_prod:.2e}")


def test_criterion_3_stein_characterization():
    start = time.monotonic()
    n = 1_000_000
    params = HalfNormalParams(1.0)
    samples = _half_normal_x(params, n, 202)
    residual = stein_residual("x", samples, params)
    z = samples / params.sigma
    se = float(np.std(1.0 - z * z)) / math.sqrt(n)
    control = uniform_draws(np.uint64(303), np.arange(n, dtype=np.uint64))
    control_residual = stein_residual("x", control, params)
    control_se = float(np.std(1.0 - control * control)) / math.sqrt(n)
    elapsed = time.monotonic() - start
    _report("stein_residual",
            abs(residual) <= 5 * se
            and abs(control_residual) > 5 * control_se
            and elapsed < 10.0,
            f"residual={residual:.2e} (se={se:.2e}) "
            f"control={control_residual:.3f} t={elapsed:.1f}s")


def test_criterion_4_closed_form_spot_checks():
    d_err = abs(detection_probability(0.1, 10) - 0.6513215599)
    a_err = abs(capsule_area(2.0, 1.0) - (4.0 + math.pi))
    scenario = IntruderScenario(start_s=1.0, distance_d=1.0)
    r_err = abs(full_report(scenario, 1.0, 1.0, 1).p_rect - math.erf(1.0 / math.sqrt(2.0)) ** 2)
    _report("closed_form_spot_checks",
            d_err <= 1e-9 and a_err <= 1e-12 and r_err <= 1e-6,
            f"detection_err={d_err:.2e} area_err={a_err:.2e} rect_err={r_err:.2e}")


def test_criterion_5_analytic_vs_monte_carlo():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    cases = [(5.0, 1.0, 5.0, 3.0)]
    for _ in range(4):
        sigma = float(rng.uniform(2.0, 8.0))
        s = float(rng.uniform(0.5 * sigma, 2.0 * sigma))
        d = float(rng.uniform(0.2, 0.9) * s)
        r = float(rng.uniform(0.5, 2.0))
        cases.append((sigma, r, s, d))
    worst = 0.0
    details = []
    for i, (sigma, r, s, d) in enumerate(cases):
        scenario = IntruderScenario(start_s=s, distance_d=d)
        model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL,
                                region=HalfPlane(), sigma=sigma)
        report = full_report(scenario, r, sigma, 10)
        est = estimate_detection(model, 10, scenario, r, 1_000_000,
                                 RandomSeed(500 + i), workers=4)
        gap = abs(est.p_hat - report.p_d)
        bound = max(0.005, 3 * est.ci_half_width)
        worst = max(worst, gap / bound)
        details.append(f"{gap:.1e}")
    elapsed = time.monotonic() - start
    _report("analytic_vs_monte_carlo",
            worst <= 1.0 and elapsed < 120.0,
            f"gaps=[{', '.join(details)}] t={elapsed:.1f}s")


def _sweep_config(**overrides):
    base = dict(
        models=[DeploymentKind.HALF_NORMAL, DeploymentKind.UNIFORM],
        sigma_values=[10.0],
        n_values=[10, 50, 100, 200, 500],
        s_values=[5.0],
        d_values=[5.0],
        r_values=[1.0],
        region=Rectangle(-50.0, 50.0, -50.0, 50.0),
        trials=20_000,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_6_placement_comparison_sweep():
    start = time.monotonic()
    result = sweep(_sweep_config())
    by_model = {}
    for row in result:
        assert row.status == "ok", row.status
        by_model.setdefault(row.model, {})[row.N] = row
    dominated = all(
        by_model["half_normal"][n].p_hat >= by_model["uniform"][n].p_hat
        for n in (10, 50, 100, 200, 500))
    # each model's rows differ only in N, so they count the same trials
    monotone = all(
        [model_rows[n].p_hat for n in sorted(model_rows)]
        == sorted(row.p_hat for row in model_rows.values())
        for model_rows in by_model.values())
    elapsed = time.monotonic() - start
    _report("sweep_dominance_and_monotonicity",
            dominated and monotone and elapsed < 120.0,
            f"dominated={dominated} monotone={monotone} t={elapsed:.1f}s")


def test_criterion_7_uniform_entry_point_invariance():
    region = Rectangle(0.0, 100.0, -50.0, 50.0)
    model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
    near = estimate_detection(model, 10, IntruderScenario(start_s=10.0, distance_d=3.0),
                              1.0, 200_000, RandomSeed(606))
    far = estimate_detection(model, 10, IntruderScenario(start_s=50.0, distance_d=3.0),
                             1.0, 200_000, RandomSeed(607))
    combined = math.hypot(near.ci_half_width, far.ci_half_width)
    gap = abs(near.p_hat - far.p_hat)
    _report("uniform_entry_point_invariance",
            gap <= 3 * combined,
            f"gap={gap:.2e} bound={3 * combined:.2e}")


def test_criterion_8_deterministic_replay():
    config = _sweep_config(n_values=[10, 50], trials=5000)
    first = sweep_csv(sweep(config))
    second = sweep_csv(sweep(config))
    model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL,
                            region=HalfPlane(), sigma=5.0)
    scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
    serial = estimate_detection(model, 10, scenario, 1.0, 100_000, RandomSeed(9))
    parallel = estimate_detection(model, 10, scenario, 1.0, 100_000, RandomSeed(9),
                                  workers=4)
    _report("deterministic_replay",
            first == second and serial.detected_count == parallel.detected_count,
            f"csv_identical={first == second} "
            f"worker_parity={serial.detected_count == parallel.detected_count}")
