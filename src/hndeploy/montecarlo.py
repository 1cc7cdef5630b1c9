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
and each trial's count equals that of its whole field. One pass up to the
largest of several N gives the count at each N (the trials whose first N
sensors detect), which is how a sweep runs the rows that differ only in N:
common random numbers across N.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

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


def _counts(model: DeploymentModel, ns: Sequence[int], scenario: IntruderScenario, r: float,
            seeds: np.ndarray) -> List[int]:
    """For each n of the ascending `ns`, the number of the deployments keyed by
    `seeds` in which one of the first n sensors detects.

    One chunked pass draws up to max(ns) sensors; only trials with no
    detection so far draw the next chunk. An n inside a chunk adds the hits
    among that chunk's first columns to the trials already detected.
    """
    counts: List[int] = []
    live = seeds
    j0, width = 0, _FIRST_CHUNK
    while True:
        # the trials detected so far settle every n the pass has reached, and
        # every n once no trial is live
        while len(counts) < len(ns) and (ns[len(counts)] <= j0 or not live.size):
            counts.append(seeds.size - live.size)
        if len(counts) == len(ns):
            return counts
        j1 = min(j0 + width, ns[-1])
        xs, ys = sample_positions(model, j1, live, j0)
        while ns[len(counts)] < j1:
            head = ns[len(counts)] - j0
            hits = np.count_nonzero(detects_any(xs[:, :head], ys[:, :head], scenario, r))
            counts.append(seeds.size - live.size + int(hits))
        live = live[~detects_any(xs, ys, scenario, r)]
        j0, width = j1, min(2 * width, _MAX_CHUNK)


def _estimates(model: DeploymentModel, ns: Sequence[int], scenario: IntruderScenario, r: float,
               trials: int, master: int, workers: int) -> List[DetectionEstimate]:
    """One estimate per n of the ascending `ns`, all from one pass over the
    trials keyed by `master`.

    Trials run in spans of _BATCH; `workers` threads share the spans, and
    one worker runs them inline.
    """
    def count(span):
        seeds = derive_stream_seeds(master, np.arange(*span, dtype=np.uint64))
        return _counts(model, ns, scenario, r, seeds)

    spans = [(lo, min(lo + _BATCH, trials)) for lo in range(0, trials, _BATCH)]
    if workers == 1:
        per_span = list(map(count, spans))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_span = list(pool.map(count, spans))
    estimates = []
    for detected in map(sum, zip(*per_span)):
        p_hat = detected / trials
        estimates.append(DetectionEstimate(
            p_hat, _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials), trials, detected, master))
    return estimates


def estimate_detection(model: DeploymentModel, n: int, scenario: IntruderScenario, r: float,
                       trials: int, seed: RandomSeed, workers: int = 1) -> DetectionEstimate:
    """Monte Carlo estimate of the at-least-one detection probability.

    n = 0 draws nothing and detects nothing.
    """
    n = check_integer("n", n)
    trials = check_integer("trials", trials, 1)
    workers = check_integer("workers", workers, 1)
    r = check_real("sensing range", r, math.ulp(0.0))
    return _estimates(model, [n], scenario, r, trials, seed.master, workers)[0]


def _sweep_group(config, spec: QuadratureSpec, kind: DeploymentKind, sigma: Optional[float],
                 s: float, d: float, r: float, ns: List[int], seed: int) -> List[tuple]:
    """(p_analytic, estimate or None, status) for each n of the ascending `ns`."""
    try:
        scenario = IntruderScenario(start_s=s, distance_d=d)
        model = DeploymentModel(kind=kind, region=config.region, sigma=sigma)
        p_single = capsule_probability(model, scenario, r, spec)
        p_analytic = [detection_probability(p_single, n) for n in ns]
    except (ValueError, QuadratureError) as exc:
        return [(None, None, f"invalid: {exc}")] * len(ns)
    try:
        estimates = _estimates(model, ns, scenario, r, config.trials, seed, config.workers)
        return [(p, estimate, "ok") for p, estimate in zip(p_analytic, estimates)]
    except SamplingError:
        pass
    # a lone row draws a subset of the group's sensors, so one that fails
    # there may succeed alone: replay each row alone for its own status
    results = []
    for n, p in zip(ns, p_analytic):
        try:
            results.append((p, estimate_detection(model, n, scenario, r, config.trials,
                                                  RandomSeed(seed), config.workers), "ok"))
        except SamplingError as exc:
            results.append((p, None, f"invalid: {exc}"))
    return results


def sweep(config) -> List[SweepRow]:
    """Run the cartesian (model, sigma, N, S, d, r) experiment sweep.

    Rows are ordered by (model, N, sigma, S, d, r). Rows that share
    (model, sigma, S, d, r) form a group, which makes one Monte Carlo pass up
    to its largest N (common random numbers across N): every row of the
    group records the seed derive_stream_seed(master, i) of its first row i,
    which has its smallest N, so the whole result is reproducible from the
    config alone and p_hat never decreases with N within a group. A row's
    seed still replays it alone through estimate_detection, which counts the
    same first N sensors of the same trials. Every row's p_analytic is
    detection_probability(capsule_probability(model, ...), N) for the
    deployment model the row samples. A row that fails (d > S, a region the
    deployment cannot be sampled in) reports the failure as its status and
    keeps whatever it computed; the rest of the sweep still runs.
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
    groups = {}
    for index, (kind, n, sigma, s, d, r) in enumerate(combos):
        groups.setdefault((kind, sigma, s, d, r), []).append(index)
    spec = QuadratureSpec(config.quadrature_tolerance)
    rows: List[Optional[SweepRow]] = [None] * len(combos)
    for key, indices in groups.items():
        seed = derive_stream_seed(config.master_seed, indices[0])
        ns = [combos[i][1] for i in indices]
        for i, (p_analytic, estimate, status) in zip(
                indices, _sweep_group(config, spec, *key, ns, seed)):
            kind, n, sigma, s, d, r = combos[i]
            p_hat, ci = (estimate.p_hat, estimate.ci_half_width) if estimate else (None, None)
            rows[i] = SweepRow(kind.value, sigma, n, s, d, r, config.trials, p_analytic,
                               p_hat, ci, seed, status)
    if rows and all(row.status != "ok" for row in rows):
        raise ValueError("every sweep row is invalid; nothing to estimate")
    return rows
