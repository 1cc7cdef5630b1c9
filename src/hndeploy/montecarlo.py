"""Empirical detection-probability estimation (the independent oracle).

Each trial draws its sensor field from the deployment model and checks
whether any sensor lies in the intrusion capsule, estimating the
deployment-averaged at-least-one detection probability. Sensors are drawn
in column chunks through sample_positions(model, n, seeds, first), and a
trial stops drawing after its first detecting chunk: the sensors it skips
cannot change its outcome, so SamplingError can come only from a sensor
that is drawn. Trial i always uses the substream derive_stream_seed(master,
i), and sensor j always reads counter block j of it, so estimates are
independent of batch size, chunk widths, evaluation order and worker count,
and each trial's count equals that of its whole field.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .analytic import capsule_probability, detection_probability
from .distributions import DeploymentKind, DeploymentModel, SamplingError, sample_positions
from .geometry import IntruderScenario, detects_any
from .numerics import QuadratureError, QuadratureSpec
from .rng import RandomSeed, check_integer, check_real, derive_stream_seed, derive_stream_seeds

_Z95 = 1.96
_BATCH = 1 << 15
# sensor columns per chunk: 4, 8, then 16 each; narrow first chunks let most
# half-normal trials stop early, and few chunks keep small N in few calls
_FIRST_CHUNK = 4
_MAX_CHUNK = 16


@dataclass(frozen=True)
class DetectionEstimate:
    """`hndeploy simulate`'s keys, in print order."""

    p_hat: float
    ci_half_width: float
    trials: int
    detected_count: int
    seed: int


@dataclass(frozen=True)
class SweepRow:
    """One row of a sweep; its fields are `hndeploy sweep`'s CSV columns, in order."""

    model: str
    sigma: Optional[float]
    N: int
    S: float
    d: float
    r: float
    trials: int
    p_analytic: Optional[float]
    p_hat: Optional[float]
    ci_half_width: Optional[float]
    seed: int
    status: str = "ok"


def _count(model: DeploymentModel, n: int, scenario: IntruderScenario, r: float,
           seeds: np.ndarray) -> int:
    """Number of the deployments keyed by `seeds` in which some sensor detects.

    Only trials with no detection so far draw the next chunk of sensors.
    """
    live = seeds
    j0, width = 0, _FIRST_CHUNK
    while j0 < n and live.size:
        j1 = min(j0 + width, n)
        xs, ys = sample_positions(model, j1, live, j0)
        live = live[~detects_any(xs, ys, scenario, r)]
        j0, width = j1, min(2 * width, _MAX_CHUNK)
    return len(seeds) - live.size


def estimate_detection(model: DeploymentModel, n: int, scenario: IntruderScenario, r: float,
                       trials: int, seed: RandomSeed, workers: int = 1) -> DetectionEstimate:
    """Monte Carlo estimate of the at-least-one detection probability.

    Trials run in spans of _BATCH; `workers` threads share the spans, and
    one worker runs them inline. n = 0 draws nothing and detects nothing.
    """
    n = check_integer("n", n)
    trials = check_integer("trials", trials, 1)
    workers = check_integer("workers", workers, 1)
    r = check_real("sensing range", r, math.ulp(0.0))

    def count(span):
        seeds = derive_stream_seeds(seed.master, np.arange(*span, dtype=np.uint64))
        return _count(model, n, scenario, r, seeds)

    spans = [(lo, min(lo + _BATCH, trials)) for lo in range(0, trials, _BATCH)]
    if workers == 1:
        detected = sum(map(count, spans))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            detected = sum(pool.map(count, spans))
    p_hat = detected / trials
    return DetectionEstimate(p_hat, _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials), trials,
                             detected, seed.master)


def sweep(config) -> List[SweepRow]:
    """Run the cartesian (model, sigma, N, S, d, r) experiment sweep.

    Rows are ordered by (model, N, sigma, S, d, r); row i uses the
    substream derive_stream_seed(master, i) as its own master seed, so the
    whole result is reproducible from the config alone. Every row's
    p_analytic is detection_probability(capsule_probability(model, ...), N)
    for the deployment model the row samples. A row that fails (d > S, a
    region the deployment cannot be sampled in) reports the failure as its
    status and keeps whatever it computed; the rest of the sweep still runs.
    """
    combos = sorted(
        (kind, n, sigma, s, d, r)
        for kind in config.models
        # the uniform baseline has no sigma; collapse it to one row
        for sigma in ([None] if kind == DeploymentKind.UNIFORM else config.sigma_values)
        for n in config.n_values
        for s in config.s_values
        for d in config.d_values
        for r in config.r_values
    )
    spec = QuadratureSpec(config.quadrature_tolerance)
    rows = []
    any_ok = False
    for index, (kind, n, sigma, s, d, r) in enumerate(combos):
        row_seed = derive_stream_seed(config.master_seed, index)
        p_analytic = p_hat = ci = None
        status = "ok"
        try:
            scenario = IntruderScenario(start_s=s, distance_d=d)
            model = DeploymentModel(kind=kind, region=config.region, sigma=sigma)
            p_analytic = detection_probability(capsule_probability(model, scenario, r, spec), n)
            estimate = estimate_detection(model, n, scenario, r, config.trials,
                                          RandomSeed(row_seed), workers=config.workers)
            p_hat, ci = estimate.p_hat, estimate.ci_half_width
            any_ok = True
        except (ValueError, QuadratureError, SamplingError) as exc:
            status = f"invalid: {exc}"
        rows.append(SweepRow(kind.value, sigma, n, s, d, r, config.trials, p_analytic,
                             p_hat, ci, row_seed, status))
    if rows and not any_ok:
        raise ValueError("every sweep row is invalid; nothing to estimate")
    return rows
