"""Deterministic counter-based random number generation (splitmix64).

Every draw is addressed by a (seed, counter) pair:

    raw(seed, counter) = mix64((seed + (counter + 1) * GOLDEN) mod 2**64)

where mix64 is the splitmix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.
A stream is the sequence counter = 0, 1, 2, ...; batch code can evaluate
any set of counters at once and still reproduce exactly the raw and uniform
values of the scalar functions (normals within 2 ulps), and a vectorized
result never depends on batch size or thread count.

Normal variates use the Box-Muller transform on two consecutive counters
(the sine branch is discarded), giving every normal draw a fixed footprint
of two counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# (x >> 11) yields 53 bits; +1 maps to (0, 1], so log(u) is always finite.
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def check_integer(name: str, value, lo: int = 0, hi: Optional[int] = None) -> int:
    """value as an int: an int or numpy integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


@dataclass(frozen=True)
class RandomSeed:
    """Master seed of an experiment; all streams derive from it."""

    master: int

    def __post_init__(self):
        object.__setattr__(self, "master", check_integer("master seed", self.master, 0, MASK64))


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def raw_draw(seed: int, counter: int) -> int:
    """64-bit value at position `counter` of the stream keyed by `seed`."""
    return mix64((seed + (counter + 1) * GOLDEN) & MASK64)


def uniform_draw(seed: int, counter: int) -> float:
    """Uniform float in (0, 1] at the given stream position."""
    return ((raw_draw(seed, counter) >> 11) + 1) * _INV53


def normal_draw(seed: int, counter: int) -> float:
    """Standard normal draw consuming counters (counter, counter + 1)."""
    u1 = uniform_draw(seed, counter)
    u2 = uniform_draw(seed, counter + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def derive_stream_seed(master: int, index: int) -> int:
    """Seed of substream `index`: raw_draw(mix64(master), index).

    Every trial and sweep row is keyed this way; derive_stream_seeds is the
    vectorized form. mix64 is bijective and the inputs for distinct indices
    are distinct, so substreams of one master never share a seed.
    """
    return raw_draw(mix64(master), index)


# -- vectorized counterparts ------------------------------------------------
# raw and uniform draws are bit-identical to the scalar functions; normal
# draws agree within 2 ulps, since numpy's log and cos may round differently
# from libm's. Every determinism guarantee uses the vectorized path only.

_GOLDEN_U64 = np.uint64(GOLDEN)
_MUL1_U64 = np.uint64(_MUL1)
_MUL2_U64 = np.uint64(_MUL2)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MUL1_U64
    z = (z ^ (z >> np.uint64(27))) * _MUL2_U64
    return z ^ (z >> np.uint64(31))


def raw_draws(seeds, counters) -> np.ndarray:
    """Vectorized raw_draw; `seeds` and `counters` broadcast together."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64_array(seeds + (counters + np.uint64(1)) * _GOLDEN_U64)


def derive_stream_seeds(master: int, indices) -> np.ndarray:
    """Vectorized derive_stream_seed: the seeds of substreams `indices` of `master`."""
    return raw_draws(mix64(master), indices)


def uniform_draws(seeds, counters) -> np.ndarray:
    """Vectorized uniform_draw, values in (0, 1]."""
    raw = raw_draws(seeds, counters)
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV53


def normal_draws(seeds, counters) -> np.ndarray:
    """Vectorized normal_draw; each entry consumes counters (c, c + 1)."""
    u1 = uniform_draws(seeds, counters)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        u2 = uniform_draws(seeds, counters + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
