import math

import numpy as np
import pytest

from hndeploy.rng import (
    GOLDEN,
    MASK64,
    RandomSeed,
    check_integer,
    derive_stream_seed,
    derive_stream_seeds,
    mix64,
    normal_draw,
    normal_draws,
    raw_draw,
    raw_draws,
    uniform_draw,
    uniform_draws,
)
from hndeploy.rng import _mix64_array


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
    # raw and uniform draws are bit-identical; numpy's log/cos may differ from
    # libm's by an ulp, so normals agree within 2 ulps
    n = 100_000
    counters = np.arange(n, dtype=np.uint64)
    vec = raw_draws(987654321, counters)
    scalar = [raw_draw(987654321, c) for c in range(n)]
    assert vec.tolist() == scalar

    uv = uniform_draws(987654321, counters)
    us = [uniform_draw(987654321, c) for c in range(n)]
    assert uv.tolist() == us

    nv = normal_draws(987654321, counters * np.uint64(2))
    ns = [normal_draw(987654321, 2 * c) for c in range(n)]
    np.testing.assert_array_max_ulp(nv, np.array(ns), maxulp=2)


def test_mix64_array_matches_scalar():
    values = np.array([0, 1, GOLDEN, MASK64, 2**63], dtype=np.uint64)
    assert _mix64_array(values).tolist() == [mix64(int(v)) for v in values]


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
    s0 = raw_draws(_mix64_array(masters), np.uint64(0))
    s1 = raw_draws(_mix64_array(masters), np.uint64(1))
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


def test_normal_moments():
    z = normal_draws(55, np.arange(0, 400_000, 2, dtype=np.uint64))
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


def test_stream_normal_consumes_two_counters():
    # Box-Muller on counters (c, c + 1); the next normal starts at c + 2
    for c in (0, 2, 4):
        u1, u2 = uniform_draw(11, c), uniform_draw(11, c + 1)
        assert normal_draw(11, c) == math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
