"""Empirical detection-probability estimation (the independent oracle).

Each trial draws its sensor field from the deployment model and checks
whether any sensor lies in the intrusion capsule, estimating the
deployment-averaged at-least-one detection probability. The primitive is the
first-hit index: for each trial and case (scenario, r), the index of the
first detecting sensor, or the largest N if none detects; the count at any N
is the number of trials whose index is below N. Sensors are drawn in column
chunks from the model's Field, and a trial stops drawing once every case
has detected: the sensors it skips cannot change an index. Chunks widen as
trials detect, and a chunk's live trials go in row blocks of at most a
fixed number of (trial, column) cells, so that a pass with few live trials
makes few calls and no call's memory grows with N; a block reads its
seeds as a slice of the live trials' seeds, which shrink with them, not as
a copy. Every coordinate is placed by a map that is nondecreasing in one
raw draw, so the sensors that cannot detect in any case are those whose x
draw, or whose y draw, lies outside an interval of raw values (_screen,
computed once per pass): a chunk reads the draw of whichever axis holds
fewer candidates for every sensor, even where none is ruled out, the other
axis's draw, where it rules some out, for the sensors that pass, and
places only those that pass both in full, from the counters the full field
reads them from. A field whose axes are both uniform splits its sensors by
|y| into an inner band, a fixed share of them that depends on the model
alone, and the rest; the inner indices come from Geometric gaps (exact up
to the rounding of log, not bit-identical to a per-sensor Bernoulli draw).
A pass whose cases all detect within the inner band enumerates those
indices and places and tests only the inner sensors, since no other can
detect; on any other pass of such a field every inner sensor passes the y
stage. Trial i always uses the substream derive_stream_seed(master, i),
and sensor j always reads counter block j of it, so estimates are
independent of batch size, chunk widths, evaluation order and worker
count, and each trial's indices equal those of its whole field. A sensor
field depends on the model and the seed only, so one pass serves every
(S, d, r) and N of a sweep's (model, sigma) group: common random numbers
across the scenario grid and N.
estimate_detection is the same pass with one case and one N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analytic import capsule_probability, detection_probability
from .distributions import DeploymentKind, DeploymentModel, Field, InnerPicks
from .geometry import IntruderScenario, segment_dist2
from .numerics import QuadratureError, QuadratureSpec
from .rng import (RandomSeed, check_integer, check_real, derive_stream_seed, derive_stream_seeds,
                  uniform_of)

_Z95 = 1.96
_BATCH = 1 << 15
# a chunk is 4 sensor columns (inner sensors on a pass that places only
# those), then twice the last, up to _BUDGET cells (live trial, column) over
# the live trials: narrow first chunks let most half-normal trials stop
# early, and wide later ones keep a pass with few live trials in few calls.
# A chunk's live trials go in row blocks of at most _BUDGET cells, which
# bounds a call's memory whatever N
_FIRST_CHUNK = 4
_BUDGET = 1 << 19
# the screen widens each band by this share of its ends plus 2^-500
_MARGIN = 1e-9
# the screen of a pass that places only the inner sensors of a banded field
_INNER = "inner"

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


def _first_index(predicate, bits: int) -> int:
    """The least m in [0, 2^bits] with predicate(m), for a predicate that is
    false up to some m and true from there on (2^bits where it never holds)."""
    lo, hi = 0, 1 << bits
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _screen(field: Field, bands):
    """How a pass of `field` with the bands (_bands) of its cases rules
    sensors out: _INNER where the field is banded, its inner band holds
    sensors and its y band lies within the inner band, so that only the
    inner sensors can detect; else the stages (offset, a, width) of
    Field.sample. A sensor whose raw draw at counter 256 j + offset
    satisfies (raw - a) mod 2^64 > width, for some stage, detects in no
    case, unless offset is 1 and it is inner.

    A stage is an interval of the top bits m of an axis's raw draw, which
    fix the uniform u of the draw: u places x (offset 0) or y (offset 1; of
    a sensor that is not inner). The first stage is the axis whose band
    holds fewer draws, counting every inner sensor as a y candidate, kept
    even where it rules no draw out (as where some r * r overflows: every
    sensor detects), and the second the other axis, where its band rules
    any draw out. Each map is nondecreasing in m, and an interval's ends are
    found by bisection of its scalar twin against the band widened by
    _MARGIN of its ends plus 2^-500, so that neither the rounding of the
    inverse normal CDF (the twin's and the array's may differ by a few ulps,
    and the rational pieces need not be monotone to the ulp at their seams)
    nor a square that underflows can flip a decision.
    """
    if field.banded and field.share > 0.0 and bands[1][1] < field.outer_min:
        # every sensor that is not inner has |y| >= field.outer_min
        return _INNER
    stages = []
    for offset, ((value, bits, share), (lo, hi)) in enumerate(zip(field.axes, bands)):
        lo -= _MARGIN * abs(lo) + 2.0 ** -500
        hi += _MARGIN * abs(hi) + 2.0 ** -500

        def at(m):
            return value(uniform_of(m, bits))
        start = _first_index(lambda m: at(m) >= lo, bits)
        count = _first_index(lambda m: at(m) > hi, bits) - start
        stages.append((share + (1.0 - share) * count / (1 << bits), offset, start, count, bits))
    stages.sort()
    screen = []
    for _, offset, start, count, bits in stages:
        if screen and count == 1 << bits:
            # a second stage that rules no draw out
            continue
        if count <= 0:
            # no draw passes; m = 0 stands in for one, since it costs only its draw
            start, count = 0, 1
        screen.append((offset, start << (64 - bits), (count << (64 - bits)) - 1))
    return tuple(screen)


def _scan(xs: np.ndarray, ys: np.ndarray, at: tuple, paths: dict, k: np.ndarray, j0: int,
          j1: int) -> None:
    """Advance the first-hit indices k (live trials x cases) over sensors
    j0 .. j1 - 1.

    xs, ys are the positions of the sensors (rows, columns) = at, in any
    order; the others cannot detect. A case with no detection so far has
    k = j0; it gets the index of its first detecting sensor, or j1 if none
    detects.
    """
    for scenario, cases in paths.items():
        dist2 = segment_dist2(xs, ys, scenario)
        for r2, c in cases:
            hit = np.flatnonzero(dist2 <= r2)
            found = np.full(k.shape[0], j1, dtype=k.dtype)
            np.minimum.at(found, at[0][hit], at[1][hit].astype(k.dtype))
            np.copyto(k[:, c], found, where=k[:, c] == j0, casting="unsafe")


def _first_hits(field: Field, cases: Sequence[Case], n_max: int, seeds: np.ndarray,
                screen) -> np.ndarray:
    """K[trial, case]: the index of the first of the n_max sensors of the
    deployment of `field` keyed by seeds[trial] that detects in the case
    (scenario, r), or n_max if none does.

    One chunked pass; a trial draws the next chunk only while some case has
    no detection. Each chunk's squared distances to a path are computed once
    and compared with the r^2 of every case on that path. screen is
    _screen's for the field and the cases' bands: where it has stages, the
    chunk reads the first stage's raw draw for every sensor, the second's
    for those that pass the first, and places and tests the candidates
    alone, from the same counters; where it is _INNER, the pass places only
    the inner sensors, since no other can detect, and a chunk counts them,
    not columns. Every chunk walks its live trials' seeds in row blocks
    (slices) of at most _BUDGET cells (one block unless the pass places only
    inner sensors), and a banded field finds each block's inner sensors as
    it goes. An inner-only block's trials, indices (int32 where they fit),
    x and y are dropped once scanned.
    """
    paths = {}
    for c, (scenario, r) in enumerate(cases):
        paths.setdefault(scenario, []).append((r * r, c))
    narrow = screen == _INNER
    share = field.share if narrow else 1.0
    if field.banded:
        picks = InnerPicks(field, seeds)
    # the narrowest unsigned type that holds n_max
    k = np.zeros((seeds.size, len(cases)), dtype=np.min_scalar_type(n_max))
    live = np.arange(seeds.size, dtype=np.int32 if seeds.size < 2**31 else np.intp)
    live_seeds = seeds
    j0, chunk = 0, _FIRST_CHUNK
    while live.size and j0 < n_max:
        j1 = min(j0 + math.ceil(chunk / share), n_max)
        k_live = k[live]
        rows = max(1, _BUDGET // (j1 - j0))
        for lo in range(0, live.size, rows):
            block = slice(lo, min(lo + rows, live.size))
            seeds_block = live_seeds[block]
            if field.banded:
                t, j = picks.advance(seeds_block, j0, j1, block)
            if narrow:
                xs, ys = field.place(seeds_block[t], j, True)
                at = (t, j)
            else:
                inner = None
                if field.banded:
                    inner = np.zeros((seeds_block.size, j1 - j0), dtype=bool)
                    inner[t, j - j0] = True
                xs, ys, at = field.sample(seeds_block, j0, j1, inner, screen)
            _scan(xs, ys, at, paths, k_live[block], j0, j1)
            if narrow:  # a screened block's arrays, if freed, would fault in again
                del xs, ys, at, t, j
        k[live] = k_live
        going = (k_live == j1).any(axis=1)
        live, live_seeds = live[going], live_seeds[going]
        if field.banded:
            picks.keep(going)
        j0, chunk = j1, min(2 * chunk, max(_FIRST_CHUNK, _BUDGET // max(live.size, 1)))
    return k


def _detections(model: DeploymentModel, cases: Sequence[Case], ns: Sequence[int], trials: int,
                master: int, workers: int) -> np.ndarray:
    """Counts of shape (len(cases), len(ns)): of the trials keyed by `master`,
    those in which one of the first n sensors detects, all from one pass.

    Trials run in spans of _BATCH, each with its own first-hit indices and
    the pass's one field and screen; `workers` threads share the spans, and
    one worker runs them inline.
    """
    ns = np.asarray(ns)
    field = Field(model)
    screen = _screen(field, _bands(cases))

    def count(span):
        seeds = derive_stream_seeds(master, np.arange(*span, dtype=np.uint64))
        k = _first_hits(field, cases, int(ns.max()), seeds, screen)
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
    of `combos`, which all sample `model`. A case whose capsule probability
    fails (d > S, a region that carries no mass) is not sampled."""
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
    if cases:
        detected = _detections(model, [(IntruderScenario(s, d), r) for s, d, r in cases], ns,
                               config.trials, seed, config.workers)
    results = []
    for _, n, _, s, d, r in combos:
        p = p_single[s, d, r]
        if isinstance(p, str):
            results.append((None, None, p))
            continue
        count = int(detected[cases.index((s, d, r)), ns.index(n)])
        results.append((detection_probability(p, n), _estimate(count, config.trials, seed), "ok"))
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
    deployment model the row samples. A row that fails (d > S, a region that
    carries no deployment mass) reports the failure as its status; the rest
    of its group and of the sweep still runs.
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
