import math
import statistics
import tracemalloc

import numpy as np
import pytest

from hndeploy.analytic import capsule_probability, detection_probability, full_report
from hndeploy.cli import _region_from_args
from hndeploy.config import ExperimentConfig
from hndeploy.distributions import (
    Correlated2DParams,
    DeploymentKind,
    DeploymentModel,
    HalfNormalParams,
    half_normal_cdf,
    half_normal_pdf,
)
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle, capsule_area, detects
from hndeploy.montecarlo import estimate_detection
from hndeploy.numerics import QuadratureSpec
from hndeploy.rng import (
    GOLDEN,
    MASK64,
    RandomSeed,
    check_integer,
    check_real,
    derive_stream_seed,
    derive_stream_seeds,
    mix64,
    normal_quantile,
    normal_quantiles,
    raw_draw,
    raw_draws,
    uniform_draw,
    uniform_draws,
    uniform_of,
    uniforms,
)
from hndeploy.rng import _mix64_inplace


def test_mix64_known_fixed_point_free():
    # bijective finalizer: distinct inputs give distinct outputs
    values = {mix64(i) for i in range(10_000)}
    assert len(values) == 10_000


def test_raw_draw_matches_sequential_stream():
    # counter c of a stream is the documented mix64((seed + (c + 1) * GOLDEN) mod 2**64)
    sequential = [mix64((12345 + (c + 1) * GOLDEN) & MASK64) for c in range(50)]
    addressed = [raw_draw(12345, c) for c in range(50)]
    assert sequential == addressed


def test_vectorized_matches_scalar():
    # raw and uniform draws are bit-identical
    n = 100_000
    counters = np.arange(n, dtype=np.uint64)
    vec = raw_draws(987654321, counters)
    scalar = [raw_draw(987654321, c) for c in range(n)]
    assert vec.tolist() == scalar

    uv = uniform_draws(987654321, counters)
    us = [uniform_draw(987654321, c) for c in range(n)]
    assert uv.tolist() == us


def test_mix64_array_matches_scalar():
    values = np.array([0, 1, GOLDEN, MASK64, 2**63], dtype=np.uint64)
    assert _mix64_inplace(values.copy()).tolist() == [mix64(int(v)) for v in values]


def test_raw_draws_into_buffers_match_fresh_ones():
    # seeds down a column, counters along a row, as the screen's tiles draw them
    seeds = np.array([[0], [5], [MASK64]], dtype=np.uint64)
    counters = np.arange(2**64 - 3, 2**64, dtype=np.uint64)
    out, scratch = np.empty((2, 3, 3), dtype=np.uint64)
    assert raw_draws(seeds, counters, out, scratch) is out
    assert out.tolist() == [[raw_draw(int(s), int(c)) for c in counters] for s in seeds[:, 0]]


def test_uniform_in_half_open_unit_interval():
    u = uniform_draws(7, np.arange(100_000, dtype=np.uint64))
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_uniform_mean_equidistribution():
    # 5 SE sanity check on the mapped-to-(0,1] mean
    n = 10_000
    u = uniform_draws(4242, np.arange(n, dtype=np.uint64))
    se = 1.0 / math.sqrt(12 * n)
    assert abs(u.mean() - 0.5) < 5 * se


def test_derive_stream_seed_reproducible_and_distinct():
    assert derive_stream_seed(99, 3) == derive_stream_seed(99, 3)
    masters = raw_draws(31337, np.arange(1_000_000, dtype=np.uint64))
    s0 = raw_draws(_mix64_inplace(masters.copy()), np.uint64(0))
    s1 = raw_draws(_mix64_inplace(masters.copy()), np.uint64(1))
    assert not np.any(s0 == s1)


def test_derived_seed_matches_documented_formula():
    # derive_stream_seed(m, i) = raw_draw(mix64(m), i), spelled out, for the
    # scalar form and for derive_stream_seeds, the form the oracle uses
    for m in (0, 1, 2**63, 123456789):
        for i in (0, 1, 7, 1000):
            expected = mix64((mix64(m) + (i + 1) * GOLDEN) & MASK64)
            assert derive_stream_seed(m, i) == expected
            assert int(derive_stream_seeds(m, np.uint64(i))) == expected


@pytest.mark.parametrize("master", [0, 1, 2**63, 123456789, MASK64])
def test_derive_stream_seeds_matches_scalar(master):
    indices = np.array([0, 1, 7, 1000, 2**32, 2**63], dtype=np.uint64)
    seeds = derive_stream_seeds(master, indices)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_stream_seed(master, int(i)) for i in indices]


@pytest.mark.parametrize("bits,lo,hi", [(53, 2.0 ** -53, 1.0), (52, 2.0 ** -53, 1.0 - 2.0 ** -53)])
def test_uniforms_of_both_widths(bits, lo, hi):
    # (m + 1) 2^-53 of the top 53 bits, or (m + 1/2) 2^-52 of the top 52, as
    # uniform_of gives them; the extreme raw values map to the interval's ends
    raws = [0, 1, 2**11, 2**12, 2**63, MASK64 - 2**12, MASK64] + raw_draws(
        3, np.arange(1000, dtype=np.uint64)).tolist()
    u = uniforms(np.array(raws, dtype=np.uint64), bits)
    assert u.tolist() == [uniform_of(v >> (64 - bits), bits) for v in raws]
    assert (u[0], u[6]) == (lo, hi)
    assert np.all(np.diff(u[:7]) >= 0.0)
    assert uniforms(raw_draws(5, np.arange(10, dtype=np.uint64))).tolist() == \
        uniform_draws(5, np.arange(10, dtype=np.uint64)).tolist()


def test_uniforms_convert_a_grid_in_its_own_memory():
    # a contiguous grid converts as one run, with no copy of the grid (numpy
    # copies an overlapping 2-D input first: 1.6 MB here); a strided one
    # converts alike, in its own memory
    raw = raw_draws(3, np.arange(200_000, dtype=np.uint64))
    expected = uniforms(raw.copy()).tolist()
    grid = raw.reshape(2000, 100)
    tracemalloc.start()
    try:
        u = uniforms(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(u, grid) and u.ravel().tolist() == expected
    assert peak < 1 << 16
    strided = raw_draws(3, np.arange(200_000, dtype=np.uint64)).reshape(2000, 100)[:, ::2]
    assert uniforms(strided).ravel().tolist() == expected[::2]


def test_a_seed_shift_is_a_counter_shift():
    # raw(s + f GOLDEN, c) = raw(s, f + c) mod 2^64, so one column of gap
    # counters serves deployments at different gaps (InnerPicks)
    seeds = derive_stream_seeds(9, np.arange(5, dtype=np.uint64))
    first = np.array([0, 1, 7, 2**40, 2**62 + 3], dtype=np.uint64)
    shifted = seeds + first * np.uint64(GOLDEN)
    column = np.arange(2**63, 2**63 + 3, dtype=np.uint64)[:, None]
    assert raw_draws(shifted, column).tolist() == raw_draws(seeds, first + column).tolist()


def _quantile_mismatch(p):
    """The ulps by which normal_quantiles(p) differs from the standard
    library's inverse CDF, and whether numpy's log agrees with the C
    library's on min(p, 1 - p) (always where |p - 1/2| <= 0.425, which takes
    no log)."""
    x = normal_quantiles(np.array(p, dtype=np.float64))
    ref = np.array([statistics.NormalDist().inv_cdf(v) for v in p])
    ulps = np.abs(x - ref) / np.spacing(np.maximum(np.abs(ref), 2.0 ** -1022))
    tail = np.minimum(p, 1.0 - np.array(p))
    same_log = [abs(v - 0.5) <= 0.425 or float(np.log(t)) == math.log(t)
                for v, t in zip(p, tail.tolist())]
    return ulps, np.array(same_log)


# where numpy's log rounds as the C library's, the quantile is the standard
# library's bit for bit; elsewhere (about 2 in 10,000 tail values here) a
# one-ulp change of ln p moves it by at most 8 ulps (measured over 10^6 tail
# values, most near the seams)
_QUANTILE_MAXULP = 8


def _check_quantiles(p):
    ulps, same_log = _quantile_mismatch(p)
    assert np.all(ulps[same_log] == 0.0)
    assert np.all(ulps <= _QUANTILE_MAXULP)
    # the scalar twin is the standard library's, bit for bit
    assert [normal_quantile(v) for v in p] == [statistics.NormalDist().inv_cdf(v) for v in p]


def test_normal_quantiles_are_the_standard_librarys():
    # 20,000 draws of the open uniform, and the least and greatest of them
    p = uniforms(raw_draws(21, np.arange(20_000, dtype=np.uint64)), 52).tolist()
    _check_quantiles(p + [2.0 ** -53, 1.0 - 2.0 ** -53])


@pytest.mark.parametrize("seam", [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)])
def test_normal_quantiles_across_the_seams(seam):
    # 300 steps of p either side of where AS241 changes rational piece:
    # |p - 1/2| = 0.425 and sqrt(-ln min(p, 1 - p)) = 5
    p = [seam]
    for direction in (-math.inf, math.inf):
        v = seam
        for _ in range(300):
            v = math.nextafter(v, direction)
            p.append(v)
    _check_quantiles(p)


def test_normal_quantiles_keep_the_shape():
    p = uniforms(raw_draws(4, np.arange(12, dtype=np.uint64)), 52).reshape(3, 4)
    assert np.array_equal(normal_quantiles(p), normal_quantiles(p.ravel()).reshape(3, 4))


def test_normal_moments():
    z = normal_quantiles(uniforms(raw_draws(55, np.arange(200_000, dtype=np.uint64)), 52))
    n = z.size
    assert abs(z.mean()) < 5 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0 / n)


def test_random_seed_validation():
    RandomSeed(0)
    RandomSeed(MASK64)
    with pytest.raises(ValueError):
        RandomSeed(-1)
    with pytest.raises(ValueError):
        RandomSeed(MASK64 + 1)


@pytest.mark.parametrize("master", [2.5, 3.0, True, False, "7", None, np.float64(4.0)])
def test_random_seed_rejects_non_integers(master):
    with pytest.raises(ValueError, match="master seed must be an integer"):
        RandomSeed(master)


@pytest.mark.parametrize("master", [np.uint64(MASK64), np.int64(5), np.uint8(5)])
def test_random_seed_accepts_numpy_integers_as_int(master):
    seed = RandomSeed(master)
    assert type(seed.master) is int
    assert seed.master == int(master)


@pytest.mark.parametrize("value,lo,hi", [(2.5, 0, None), (True, 0, None), (np.bool_(True), 0, None),
                                         (-1, 0, None), (0, 1, None), (11, 0, 10)])
def test_check_integer_rejects(value, lo, hi):
    with pytest.raises(ValueError, match="^count must be"):
        check_integer("count", value, lo, hi)


def _config(**overrides):
    base = dict(models=["half_normal"], sigma_values=[5.0], n_values=[10], s_values=[5.0],
                d_values=[3.0], r_values=[1.0], region=Rectangle(0.0, 100.0, -50.0, 50.0),
                trials=100, master_seed=1)
    return ExperimentConfig(**dict(base, **overrides))


_SCENARIO = IntruderScenario(5.0, 3.0)
_MODEL = DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), 5.0)
_NON_REALS = [True, np.bool_(True), "5", math.nan, math.inf, -math.inf]
# every real input: (call with the value, a finite value out of its range or None)
REAL_INPUTS = {
    "check_real": (lambda v: check_real("x", v, 0.0, 1.0), 2.0),
    "HalfNormalParams": (HalfNormalParams, 1e-320),
    "Correlated2DParams.rho": (lambda v: Correlated2DParams(1.0, 1.0, v), 2.0),
    "DeploymentModel.sigma": (lambda v: DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), v),
                              0.0),
    "half_normal_pdf.y": (lambda v: half_normal_pdf(v, HalfNormalParams(1.0)), None),
    "half_normal_cdf.y": (lambda v: half_normal_cdf(v, HalfNormalParams(1.0)), None),
    "IntruderScenario.start_s": (lambda v: IntruderScenario(v, 0.0), -1.0),
    "IntruderScenario.distance_d": (lambda v: IntruderScenario(5.0, v), 6.0),
    "capsule_area.length": (lambda v: capsule_area(v, 1.0), -1.0),
    "capsule_area.r": (lambda v: capsule_area(1.0, v), 0.0),
    "detects.r": (lambda v: detects((5.0, 0.0), _SCENARIO, v), -1.0),
    "QuadratureSpec": (QuadratureSpec, 0.0),
    "detection_probability.p": (lambda v: detection_probability(v, 3), 1.5),
    "capsule_probability.r": (lambda v: capsule_probability(_MODEL, _SCENARIO, v), 0.0),
    "full_report.r": (lambda v: full_report(_SCENARIO, v, 5.0, 3), 0.0),
    "full_report.sigma": (lambda v: full_report(_SCENARIO, 1.0, v, 3), 0.0),
    "estimate_detection.r": (
        lambda v: estimate_detection(_MODEL, 3, _SCENARIO, v, 10, RandomSeed(1)), 0.0),
    "cli --region": (lambda v: _region_from_args([0.0, v, -1.0, 1.0]), None),
    "config.sigma_values": (lambda v: _config(sigma_values=[5.0, v]), 1e-320),
    "config.s_values": (lambda v: _config(s_values=[v]), -1.0),
    "config.d_values": (lambda v: _config(d_values=[v]), -1.0),
    "config.r_values": (lambda v: _config(r_values=[1.0, v]), 0.0),
    "config.quadrature_tolerance": (lambda v: _config(quadrature_tolerance=v), 0.0),
}


def _real_rejection_cases():
    for name, (call, out_of_range) in REAL_INPUTS.items():
        for value in _NON_REALS + ([] if out_of_range is None else [out_of_range]):
            yield pytest.param(call, value, id=f"{name}-{value!r}")
    # the config refuses a bool or +-inf region bound; a Rectangle only the bool
    for value in (True, np.bool_(True), math.inf, -math.inf):
        yield pytest.param(lambda v: _config(region=Rectangle(-1.0, 1.0, v, 50.0)), value,
                           id=f"config.region-{value!r}")
    # each Rectangle bound refuses a non-real, though a bool would make a valid
    # rectangle (True < 2, False < True)
    bounds = [0.0, 2.0, 0.0, 2.0]
    for index, name in enumerate(("x_min", "x_max", "y_min", "y_max")):
        for value in _NON_REALS[:4]:
            yield pytest.param(
                lambda v, i=index: Rectangle(*bounds[:i], v, *bounds[i + 1:]), value,
                id=f"Rectangle.{name}-{value!r}")
    yield pytest.param(lambda v: Rectangle(v, True, 0, 1), False, id="Rectangle-False-True")
    yield pytest.param(lambda v: Correlated2DParams(1.0, 1.0, v), False,
                       id="Correlated2DParams.rho-False")


@pytest.mark.parametrize("call,value", _real_rejection_cases())
def test_real_inputs_reject(call, value):
    with pytest.raises(ValueError):
        call(value)


def test_full_report_rejects_bool_reals():
    with pytest.raises(ValueError, match="^start_s must be"):
        full_report(IntruderScenario(True, False), True, True, 3)


@pytest.mark.parametrize("value", [5, np.float64(5)])
def test_real_inputs_accept_ints_and_numpy_reals_as_float(value):
    scenario = IntruderScenario(value, value)
    config = _config(sigma_values=[value], s_values=[value], d_values=[value], r_values=[value])
    stored = [HalfNormalParams(value).sigma,
              DeploymentModel(DeploymentKind.HALF_NORMAL, HalfPlane(), value).sigma,
              scenario.start_s, scenario.distance_d, check_real("r", value, math.ulp(0.0)),
              *config.sigma_values, *config.s_values, *config.d_values, *config.r_values]
    assert stored == [5.0] * len(stored) and all(type(v) is float for v in stored)
    assert capsule_area(value, value) == 2.0 * 25.0 + math.pi * 25.0
    assert detects((0.0, 5.0), scenario, value)
    assert full_report(scenario, value, value, 3) == full_report(IntruderScenario(5.0, 5.0),
                                                                 5.0, 5.0, 3)


@pytest.mark.parametrize("value,lo,hi,message", [
    (math.nan, math.ulp(0.0), math.inf, "^r must be positive and finite, got nan$"),
    (-0.5, 0.0, 1.0, r"^r must be a finite real in \[0.0, 1.0\], got -0.5$"),
    (10 ** 400, -math.inf, math.inf, "^r must be a finite real, got 1000"),
])
def test_check_real_messages(value, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        check_real("r", value, lo, hi)
