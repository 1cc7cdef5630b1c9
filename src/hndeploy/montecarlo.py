"""Empirical detection-probability estimation (the independent oracle).

Each trial draws its sensor field from the deployment model and checks
whether any sensor lies in the intrusion capsule, estimating the
deployment-averaged at-least-one detection probability. The primitive is the
first-hit index: for each trial and case (scenario, r), the index of the
first detecting sensor, or the largest N if none detects; the count at any N
is the number of trials whose index is below N. Sensors are drawn in column
chunks through sample_positions(model, n, seeds, first), and a trial stops
drawing once every case has detected: the sensors it skips cannot change an
index, so SamplingError can come only from a sensor that is drawn. Where
most sensors can be decided from one raw draw (_screen), a chunk reads that
draw for every sensor and places only the candidates in full
(sample_screened), at the counters the full field reads them from. A
uniform field (UniformField) splits its sensors by |y| into an inner band,
a fixed share of them that depends on the model alone, and the rest; the
inner indices come from Geometric gaps (exact up to the rounding of log,
not bit-identical to a per-sensor Bernoulli draw). A pass whose cases all
detect within the inner band enumerates those indices and places and tests
only the inner sensors, since no other can detect; any other uniform pass
screens x, or the y of the rest, by one raw draw (_uniform_screen). Trial i
always uses the substream derive_stream_seed(master, i), and
sensor j always reads counter block j of it, so estimates are independent
of batch size, chunk widths, evaluation order and worker count, and each
trial's indices equal those of its whole field. A sensor field depends on
the model and the seed only, so one pass serves every (S, d, r) and N of a
sweep's (model, sigma) group: common random numbers across the scenario
grid and N.
estimate_detection is the same pass with one case and one N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analytic import capsule_probability, detection_probability
from .distributions import (DeploymentKind, DeploymentModel, InnerPicks, SamplingError,
                            UniformField, sample_positions, sample_screened)
from .geometry import IntruderScenario, segment_dist2
from .numerics import QuadratureError, QuadratureSpec
from .rng import (RandomSeed, check_integer, check_real, derive_stream_seed, derive_stream_seeds,
                  polar_radius)

_Z95 = 1.96
_BATCH = 1 << 15
# sensor columns per chunk: 4, 8, then 16 each; narrow first chunks let most
# half-normal trials stop early, and few chunks keep small N in few calls
_FIRST_CHUNK = 4
_MAX_CHUNK = 16
# a narrow uniform chunk places about this many sensors at a time; any other
# uniform chunk finds the inner sensors of the next _LOOKAHEAD chunks' width
_MEMBER_BLOCK = 1 << 15
_LOOKAHEAD = 8
# the screen costs one raw draw per sensor and the full draw per candidate.
# Against the full scan, one thread, 2^15 trials: half-normal 0.35-0.38 of the
# time at 16.5% candidates (the README sigma = 10 group), 0.48 at 31%, 0.73 at
# 51% (the sigma = 5 half-plane), 0.90 at 62%, 1.04 at 71%; a uniform screen
# (_uniform_screen) 0.84 at 25%, 1.24 at 56%
_MAX_CANDIDATES = 0.6
# the polar screen widens reach, and narrows inner, by this share plus 2^-500
_MARGIN = 1e-9

# a detection case: the intruder's path and the sensing range
Case = Tuple[IntruderScenario, float]


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


def _bands(cases: Sequence[Case]) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """An x and a y interval; a sensor outside either detects in no case.

    A case (S, d, r) detects within x in [S - d - r, S + r] and y in [-r, r].
    segment_dist2 and r * r round, so the hulls of those ranges are widened
    by 16 ulps of their largest end, which bounds their relative error, and
    by 2^-500 for ranges whose square is subnormal or 0. The y band is exact
    as well: segment_dist2 is fl(fl(c^2) + fl(y^2)) >= fl(y^2). Where r * r
    overflows, every sensor detects.
    """
    if any(math.isinf(r * r) for _, r in cases):
        return (-math.inf, math.inf), (-math.inf, math.inf)
    x_hi = max(scenario.start_s + r for scenario, r in cases)
    x_lo = min(scenario.start_s - scenario.distance_d - r for scenario, r in cases)
    y_hi = max(r for _, r in cases)
    x_slack, y_slack = (16.0 * math.ulp(hi) + 2.0 ** -500 for hi in (x_hi, y_hi))
    return (x_lo - x_slack, x_hi + x_slack), (-y_hi - y_slack, y_hi + y_slack)


def _first_index(predicate) -> int:
    """The least m in [0, 2^53] with predicate(m), for a predicate that is
    false up to some m and true from there on (2^53 where it never holds)."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _screen(model: DeploymentModel, cases: Sequence[Case]) -> Optional[Tuple[int, int]]:
    """(a, width) for sample_screened: a sensor whose first raw draw (at the
    first counter of its first attempt) satisfies (raw - a) mod 2^64 > width
    is placed on that attempt and detects in no case. None for no screen.

    The screen is an interval of m = raw >> 11, which fixes the uniform
    u1 = (m + 1) 2^-53 of the draw, for half_normal and quadrant: the radius
    rho = sigma sqrt(-2 ln u1) falls as m grows. Every case's capsule lies
    within reach = max(S + r) of the origin (0 <= d <= S), and a draw with
    rho < inner lies in the region: inner = min(x_max, -y_min, y_max) for
    half_normal and min(x_max, y_max) for quadrant, where x_min <= 0 (and
    y_min <= 0 for quadrant). So reach < rho < inner screens a sensor out.
    Both ends are found by bisection, after widening reach and narrowing inner
    by _MARGIN of themselves plus 2^-500, so neither the rounding of log,
    sqrt, sin and cos (in any library) nor a square that underflows can flip
    a decision. No screen where some r * r overflows (every sensor detects),
    for strip and uniform (_uniform_screen), or where more than
    _MAX_CANDIDATES of the sensors are candidates.
    """
    if any(math.isinf(r * r) for _, r in cases) or not model.polar:
        return None
    region, sigma = model.region, model.sigma
    folded_y = model.kind == DeploymentKind.QUADRANT
    if region.x_min > 0.0 or (folded_y and region.y_min > 0.0):
        return None
    inner = min(region.x_max, region.y_max, math.inf if folded_y else -region.y_min)
    inner = inner * (1.0 - _MARGIN) - 2.0 ** -500
    reach = max(scenario.start_s + r for scenario, r in cases)
    reach = reach * (1.0 + _MARGIN) + 2.0 ** -500
    # below m_inner rho may leave the region; from m_reach on it may detect
    m_inner = _first_index(lambda m: sigma * polar_radius(m << 11) < inner)
    m_reach = _first_index(lambda m: sigma * polar_radius(m << 11) <= reach)
    # candidates m >= m_reach or m < m_inner, an interval that wraps
    start, count = m_reach, (1 << 53) - max(m_reach - m_inner, 0)
    if count > _MAX_CANDIDATES * (1 << 53):
        return None
    return start << 11, (count << 11) - 1


def _uniform_screen(field: UniformField, bands) -> Optional[Tuple[int, int, int]]:
    """(offset, a, width) for UniformField.sample: a sensor whose raw draw at
    counter 256 j + offset satisfies (raw - a) mod 2^64 > width detects in no
    case, unless offset is 1 and it is inner. None for no screen.

    The screen is an interval of m = raw >> 11, which fixes the uniform
    u = (m + 1) 2^-53 of the draw: u places x (offset 0) or the y of a sensor
    that is not inner (offset 1), whichever band (_bands) holds fewer draws,
    counting every inner sensor as a y candidate. Both maps are
    nondecreasing in m and are evaluated as the draw evaluates them, so the
    interval is exact. No screen where more than _MAX_CANDIDATES of the
    sensors are candidates.
    """
    intervals = []
    for offset, (value, (lo, hi)) in enumerate(zip((field.x, field.outer_y), bands)):
        def at(m):
            return value((m + 1) * 2.0 ** -53)
        start = _first_index(lambda m: at(m) >= lo)
        count = _first_index(lambda m: at(m) > hi) - start
        inner = field.share if offset else 0.0
        intervals.append((inner + (1.0 - inner) * count / (1 << 53), offset, start, count))
    candidates, offset, start, count = min(intervals)
    if candidates > _MAX_CANDIDATES:
        return None
    if count <= 0:
        # no candidate; m = 0 stands in for one, since a candidate costs only its draw
        start, count = 0, 1
    return offset, start << 11, (count << 11) - 1


def _scan(xs: np.ndarray, ys: np.ndarray, at: Optional[tuple], paths: dict, k: np.ndarray,
          j0: int, j1: int) -> None:
    """Advance the first-hit indices k (live trials x cases) over sensors
    j0 .. j1 - 1.

    xs, ys are the positions of the sensors (rows, columns) = at, in any
    order; the others cannot detect. For at None they are the whole (live
    trials x (j1 - j0)) grid. A case with no detection so far has k = j0; it
    gets the index of its first detecting sensor, or j1 if none detects.
    """
    for scenario, cases in paths.items():
        dist2 = segment_dist2(xs, ys, scenario)
        for r2, c in cases:
            hit = dist2 <= r2
            if at is None:
                # a row's first hit, or j1 where it has none
                found = np.where(hit.any(axis=1), hit.argmax(axis=1) + j0, j1)
            else:
                hit = np.flatnonzero(hit)
                found = np.full(k.shape[0], j1, dtype=k.dtype)
                np.minimum.at(found, at[0][hit], at[1][hit].astype(k.dtype))
            np.copyto(k[:, c], found, where=k[:, c] == j0, casting="unsafe")


def _first_hits(model: DeploymentModel, cases: Sequence[Case], n_max: int,
                seeds: np.ndarray) -> np.ndarray:
    """K[trial, case]: the index of the first of the n_max sensors of the
    deployment keyed by seeds[trial] that detects in the case (scenario, r),
    or n_max if none does.

    One chunked pass; a trial draws the next chunk only while some case has
    no detection. Each chunk's squared distances to a path are computed once
    and compared with the r^2 of every case on that path. Where one raw
    draw rules most sensors out (_screen, _uniform_screen), the chunk reads
    it for every sensor and places and tests the candidates alone, from the
    same counters. A uniform pass whose y band lies within the inner band
    places only the inner sensors, since no other can detect; its chunks are
    index windows that hold about 4, 8, then 16 of them.
    """
    paths = {}
    for c, (scenario, r) in enumerate(cases):
        paths.setdefault(scenario, []).append((r * r, c))
    uniform = model.kind == DeploymentKind.UNIFORM
    share, narrow = 1.0, False
    if uniform:
        field, bands = UniformField(model), _bands(cases)
        picks = InnerPicks(field, seeds)
        # every sensor that is not inner has |y| >= field.outer_min
        narrow = bands[1][1] < field.outer_min
        if narrow:
            share = field.share
        else:
            screen = _uniform_screen(field, bands)
            # the inner sensors from index h0 to horizon, as a (trial x index) mask
            ahead, h0, horizon = np.zeros((seeds.size, 0), dtype=bool), 0, 0
    else:
        screen = _screen(model, cases)
    # the narrowest unsigned type that holds n_max
    k = np.zeros((seeds.size, len(cases)), dtype=np.min_scalar_type(n_max))
    live = np.arange(seeds.size)
    j0, chunk = 0, _FIRST_CHUNK
    while live.size and j0 < n_max:
        j1 = min(j0 + math.ceil(chunk / share), n_max)
        k_live = k[live]
        if narrow:
            # about _MEMBER_BLOCK inner sensors at a time
            step = max(1, _MEMBER_BLOCK // chunk)
            for lo in range(0, live.size, step):
                block = slice(lo, min(lo + step, live.size))
                t, j = picks.advance(j0, j1, block)
                xs, ys = field.place(seeds[live[block]][t], j, True)
                _scan(xs, ys, (t, j), paths, k_live[block], j0, j1)
        elif uniform:
            if j1 > horizon:
                # the inner sensors from j0 on: the rest of those found, and
                # those of this chunk and, past the first, of the next few
                end = j1 if j0 == 0 else min(j0 + _LOOKAHEAD * (j1 - j0), n_max)
                found = np.zeros((seeds.size, end - j0), dtype=bool)
                found[:, :horizon - j0] = ahead[:, j0 - h0:]
                t, j = picks.advance(horizon, end, slice(0, live.size))
                found[live[t], j - j0] = True
                ahead, h0, horizon = found, j0, end
            inner = ahead[live, j0 - h0:j1 - h0]
            xs, ys, at = field.sample(seeds[live], j0, j1, inner, screen)
            _scan(xs, ys, at, paths, k_live, j0, j1)
        else:
            if screen is None:
                xs, ys = sample_positions(model, j1, seeds[live], j0)
                at = None
            else:
                xs, ys, (rows, columns) = sample_screened(model, j1, seeds[live], j0, screen)
                at = rows, columns + j0
            _scan(xs, ys, at, paths, k_live, j0, j1)
        k[live] = k_live
        going = (k_live == j1).any(axis=1)
        live = live[going]
        if uniform:
            picks.keep(going)
        j0, chunk = j1, min(2 * chunk, _MAX_CHUNK)
    return k


def _detections(model: DeploymentModel, cases: Sequence[Case], ns: Sequence[int], trials: int,
                master: int, workers: int) -> np.ndarray:
    """Counts of shape (len(cases), len(ns)): of the trials keyed by `master`,
    those in which one of the first n sensors detects, all from one pass.

    Trials run in spans of _BATCH, each with its own first-hit indices;
    `workers` threads share the spans, and one worker runs them inline.
    """
    ns = np.asarray(ns)

    def count(span):
        seeds = derive_stream_seeds(master, np.arange(*span, dtype=np.uint64))
        k = _first_hits(model, cases, int(ns.max()), seeds)
        return np.count_nonzero(k[:, :, None] < ns, axis=0)

    spans = [(lo, min(lo + _BATCH, trials)) for lo in range(0, trials, _BATCH)]
    if workers == 1:
        per_span = list(map(count, spans))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_span = list(pool.map(count, spans))
    return sum(per_span)


def _estimate(detected: int, trials: int, seed: int) -> DetectionEstimate:
    p_hat = detected / trials
    return DetectionEstimate(p_hat, _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials), trials,
                             detected, seed)


def estimate_detection(model: DeploymentModel, n: int, scenario: IntruderScenario, r: float,
                       trials: int, seed: RandomSeed, workers: int = 1) -> DetectionEstimate:
    """Monte Carlo estimate of the at-least-one detection probability.

    n = 0 draws nothing and detects nothing.
    """
    n = check_integer("n", n)
    trials = check_integer("trials", trials, 1)
    workers = check_integer("workers", workers, 1)
    r = check_real("sensing range", r, math.ulp(0.0))
    detected = _detections(model, [(scenario, r)], [n], trials, seed.master, workers)
    return _estimate(int(detected[0, 0]), trials, seed.master)


def _sweep_group(config, spec: QuadratureSpec, model: DeploymentModel, combos: List[tuple],
                 seed: int) -> List[tuple]:
    """(p_analytic, estimate or None, status) for each (kind, n, sigma, s, d, r)
    of `combos`, which all sample `model`."""
    # each case (s, d, r): its capsule probability, or the status of its failure
    p_single = {}
    for *_, s, d, r in combos:
        if (s, d, r) not in p_single:
            try:
                p_single[s, d, r] = capsule_probability(
                    model, IntruderScenario(start_s=s, distance_d=d), r, spec)
            except (ValueError, QuadratureError) as exc:
                p_single[s, d, r] = f"invalid: {exc}"
    cases = [case for case, p in p_single.items() if not isinstance(p, str)]
    ns = sorted({combo[1] for combo in combos})
    detected = None
    try:
        if cases:
            detected = _detections(model, [(IntruderScenario(s, d), r) for s, d, r in cases], ns,
                                   config.trials, seed, config.workers)
    except SamplingError:
        # a lone row draws a subset of the group's sensors, so one that fails
        # there may succeed alone: replay each row alone for its own status
        pass
    results = []
    for _, n, _, s, d, r in combos:
        p = p_single[s, d, r]
        if isinstance(p, str):
            results.append((None, None, p))
            continue
        estimate, status = None, "ok"
        if detected is not None:
            count = int(detected[cases.index((s, d, r)), ns.index(n)])
            estimate = _estimate(count, config.trials, seed)
        else:
            try:
                estimate = estimate_detection(model, n, IntruderScenario(s, d), r, config.trials,
                                              RandomSeed(seed), config.workers)
            except SamplingError as exc:
                status = f"invalid: {exc}"
        results.append((detection_probability(p, n), estimate, status))
    return results


def sweep(config) -> List[SweepRow]:
    """Run the cartesian (model, sigma, N, S, d, r) experiment sweep.

    Rows are ordered by (model, N, sigma, S, d, r). Rows that share
    (model, sigma) form a group, which draws its sensor fields once: one
    Monte Carlo pass up to its largest N tests every (S, d, r) of the group
    (common random numbers across the scenario grid and N). Every row of the
    group records the seed derive_stream_seed(master, i) of its first row i,
    so the whole result is reproducible from the config alone, and within a
    group p_hat never decreases with N, with r, or with d at fixed S. A row's
    seed still replays it alone through estimate_detection, which counts the
    same first N sensors of the same trials. Every row's p_analytic is
    detection_probability(capsule_probability(model, ...), N) for the
    deployment model the row samples. A row that fails (d > S, a region the
    deployment cannot be sampled in) reports the failure as its status and
    keeps whatever it computed; the rest of its group and of the sweep still
    runs.
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
        groups.setdefault((kind, sigma), []).append(index)
    spec = QuadratureSpec(config.quadrature_tolerance)
    rows: List[Optional[SweepRow]] = [None] * len(combos)
    for (kind, sigma), indices in groups.items():
        seed = derive_stream_seed(config.master_seed, indices[0])
        model = DeploymentModel(kind=kind, region=config.region, sigma=sigma)
        group = [combos[i] for i in indices]
        for i, (p_analytic, estimate, status) in zip(
                indices, _sweep_group(config, spec, model, group, seed)):
            kind, n, sigma, s, d, r = combos[i]
            p_hat, ci = (estimate.p_hat, estimate.ci_half_width) if estimate else (None, None)
            rows[i] = SweepRow(kind.value, sigma, n, s, d, r, config.trials, p_analytic,
                               p_hat, ci, seed, status)
    if rows and all(row.status != "ok" for row in rows):
        raise ValueError("every sweep row is invalid; nothing to estimate")
    return rows
