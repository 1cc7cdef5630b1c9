"""Built-in self-check suite: normalizations, Stein residuals, oracle parity.

These are the library's invariants run at reduced trial counts so the whole
suite finishes in well under two minutes. Every check is deterministic
(fixed seeds), so a pass is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .analytic import capsule_probability, detection_probability, full_report
from .distributions import (
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    correlated_half_normal_pdf,
    half_normal_cdf,
    half_normal_pdf,
    halfplane_pdf,
    sample_positions,
    stein_residual,
)
from .geometry import HalfPlane, IntruderScenario, Rectangle, capsule_area
from .montecarlo import estimate_detection
from .numerics import QuadratureSpec, integrate_1d, integrate_2d
from .rng import RandomSeed, uniform_draws

# asymptotic Kolmogorov-Smirnov critical value at significance 0.01
_KS_COEFF_01 = 1.628


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_pdf_normalization() -> CheckResult:
    """PDF integrates to 1 for a spread of sigmas."""
    worst = 0.0
    for sigma in (0.5, 1.0, 5.0, 20.0):
        params = HalfNormalParams(sigma)
        total = integrate_1d(lambda y: half_normal_pdf(y, params),
                             0.0, 12.0 * sigma, QuadratureSpec(1e-9))
        worst = max(worst, abs(total - 1.0))
    return _check("pdf_normalization", worst <= 1e-6, f"max |integral - 1| = {worst:.3e}")


def check_cdf_matches_pdf_quadrature() -> CheckResult:
    params = HalfNormalParams(1.5)
    worst = 0.0
    for y in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        quad = integrate_1d(lambda t: half_normal_pdf(t, params), 0.0, y, QuadratureSpec(1e-10))
        worst = max(worst, abs(quad - half_normal_cdf(y, params)))
    return _check("cdf_vs_quadrature", worst <= 1e-7, f"max |cdf - quad| = {worst:.3e}")


def check_bivariate_normalization() -> CheckResult:
    worst = 0.0
    for s1, s2, rho in ((1.0, 1.0, 0.0), (1.0, 2.0, 0.5), (2.0, 1.0, -0.5)):
        params = Correlated2DParams(s1, s2, rho)
        hi = 10.0 * max(s1, s2)
        total = integrate_2d(lambda x, y: correlated_half_normal_pdf(x, y, params),
                             (0.0, hi), (0.0, hi), QuadratureSpec(1e-6))
        worst = max(worst, abs(total - 1.0))
    return _check("bivariate_normalization", worst <= 1e-4, f"max |integral - 1| = {worst:.3e}")


def check_halfplane_normalization() -> CheckResult:
    params = HalfNormalParams(1.0)
    total = integrate_2d(lambda x, y: halfplane_pdf(x, y, params),
                         (0.0, 12.0), (-12.0, 12.0), QuadratureSpec(1e-6))
    return _check("halfplane_normalization", abs(total - 1.0) <= 1e-4,
                  f"|integral - 1| = {abs(total - 1.0):.3e}")


def _half_normal_draws(params: HalfNormalParams, n: int, seed: int) -> np.ndarray:
    """The x column of one half-plane half_normal deployment: n iid half-normal draws."""
    model = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), params.sigma)
    xs, _ = sample_positions(model, n, np.array([seed], dtype=np.uint64))
    return xs[0]


def check_stein_residual() -> CheckResult:
    params = HalfNormalParams(1.0)
    n = 200_000
    z = _half_normal_draws(params, n, 2024)
    residual = stein_residual("x", z, params)
    # summands 1 - z^2, SE from their sample variance
    se = float(np.std(1.0 - z * z, ddof=1)) / math.sqrt(n)
    ok_null = abs(residual) <= 5.0 * se
    uniform = uniform_draws(np.uint64(77), np.arange(n, dtype=np.uint64))
    neg = stein_residual("x", uniform, params)
    se_neg = float(np.std(1.0 - uniform * uniform, ddof=1)) / math.sqrt(n)
    ok_neg = abs(neg) > 5.0 * se_neg
    return _check("stein_residual", ok_null and ok_neg,
                  f"half-normal residual {residual:.4e} (5 SE {5 * se:.2e}), "
                  f"uniform control {neg:.4f}")


def check_sampler_ks() -> CheckResult:
    params = HalfNormalParams(1.0)
    n = 10_000
    critical = _KS_COEFF_01 / math.sqrt(n)
    stat = None
    for seed in (11, 12):  # one retry to bound the flake rate
        z = np.sort(_half_normal_draws(params, n, seed))
        cdf = np.array([half_normal_cdf(v, params) for v in z])
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        stat = max(upper, lower)
        if stat <= critical:
            break
    return _check("sampler_ks", stat <= critical,
                  f"KS statistic {stat:.5f} vs critical {critical:.5f}")


def reference_capsule_parts(scenario: IntruderScenario, r: float, sigma: float,
                            spec: QuadratureSpec) -> Tuple[float, float, float]:
    """(rectangle, left, right) capsule parts by 2D quadrature of halfplane_pdf.

    The independent reference for the separable analytic parts; the left
    half-disk domain is clipped at x = 0 where the density vanishes.
    """
    params = HalfNormalParams(sigma)
    end, start = scenario.start_s - scenario.distance_d, scenario.start_s

    def density(x: float, y: float) -> float:
        return halfplane_pdf(x, y, params)

    def chord(center: float):
        def bounds(x: float) -> Tuple[float, float]:
            half = math.sqrt(max(0.0, r * r - (x - center) ** 2))
            return (-half, half)
        return bounds

    return (integrate_2d(density, (end, start), (-r, r), spec),
            integrate_2d(density, (max(0.0, end - r), end), chord(end), spec),
            integrate_2d(density, (start, start + r), chord(start), spec))


def check_closed_form_spots() -> CheckResult:
    ok = True
    details = []
    v = detection_probability(0.1, 10)
    ok &= abs(v - 0.6513215599) <= 1e-9
    details.append(f"detection_probability(0.1,10)={v:.10f}")
    a = capsule_area(2.0, 1.0)
    ok &= abs(a - (4.0 + math.pi)) <= 1e-12
    details.append(f"capsule_area(2,1)={a:.12f}")
    scenario = IntruderScenario(start_s=1.0, distance_d=0.8)  # left disk clipped at x = 0
    report = full_report(scenario, 1.0, 1.0, 1)
    reference = reference_capsule_parts(scenario, 1.0, 1.0, QuadratureSpec(1e-9))
    parts = (report.p_rect, report.p_left, report.p_right)
    gap = max(abs(part - ref) for part, ref in zip(parts, reference))
    ok &= gap <= 1e-8
    details.append(f"capsule parts vs 2D quadrature delta {gap:.2e}")
    return _check("closed_form_spots", bool(ok), "; ".join(details))


def check_oracle_equivalence() -> CheckResult:
    scenario = IntruderScenario(start_s=5.0, distance_d=3.0)
    sigma, r, n = 5.0, 1.0, 10
    report = full_report(scenario, r, sigma, n)
    model = DeploymentModel(kind=DeploymentKind.HALF_NORMAL, region=HalfPlane(), sigma=sigma)
    est = estimate_detection(model, n, scenario, r, 200_000, RandomSeed(314159))
    gap = abs(est.p_hat - report.p_d)
    tol = max(0.01, 3.0 * est.ci_half_width)
    return _check("oracle_equivalence", gap <= tol,
                  f"|p_hat - p_d| = {gap:.4f} (tolerance {tol:.4f})")


def check_uniform_area_ratio() -> CheckResult:
    region = Rectangle(0.0, 100.0, -50.0, 50.0)
    scenario = IntruderScenario(start_s=20.0, distance_d=3.0)
    model = DeploymentModel(kind=DeploymentKind.UNIFORM, region=region)
    est = estimate_detection(model, 1, scenario, 1.0, 400_000, RandomSeed(99))
    expected = capsule_probability(model, scenario, 1.0)
    gap = abs(est.p_hat - expected)
    tol = 3.0 * math.sqrt(expected * (1 - expected) / est.trials)
    return _check("uniform_area_ratio", gap <= tol,
                  f"|p_hat - area ratio| = {gap:.2e} (tolerance {tol:.2e})")


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_pdf_normalization,
    check_cdf_matches_pdf_quadrature,
    check_bivariate_normalization,
    check_halfplane_normalization,
    check_stein_residual,
    check_sampler_ks,
    check_closed_form_spots,
    check_oracle_equivalence,
    check_uniform_area_ratio,
]


def run_validation() -> List[CheckResult]:
    """Run every check, in ALL_CHECKS order."""
    return [check() for check in ALL_CHECKS]
