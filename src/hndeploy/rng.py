"""Deterministic counter-based random number generation (splitmix64).

Every draw is addressed by a (seed, counter) pair:

    raw(seed, counter) = mix64((seed + (counter + 1) * GOLDEN) mod 2**64)

where mix64 is the splitmix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.
A stream is the sequence counter = 0, 1, 2, ...; batch code can evaluate
any set of counters at once and still reproduce exactly the raw and uniform
values of the scalar functions (normals within 2 ulps), and a vectorized
result never depends on batch size or thread count.

Normal variates use the Box-Muller transform on two consecutive counters:
u1 at the first gives the radius sqrt(-2 ln u1), u2 at the second the angle
2 pi u2. normal_draw is the cosine branch; normal_pair gives both branches,
two independent normals from the same two counters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

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


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """value as a float: a finite int, float or numpy real (not a bool) in [lo, hi].

    lo = math.ulp(0.0), the least positive float, asks for a positive value.
    """
    # a Python int compares exactly, so one beyond the float range fails the range test
    x = float(value) if isinstance(value, (np.integer, np.floating)) else value
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not (-sys.float_info.max <= x <= sys.float_info.max and lo <= x <= hi)):
        bound = ("positive and finite" if (lo, hi) == (math.ulp(0.0), math.inf)
                 else "a finite real" if (lo, hi) == (-math.inf, math.inf)
                 else f"a finite real of at least {lo}" if hi == math.inf
                 else f"a finite real in [{lo}, {hi}]")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return float(x)


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


def polar_radius(raw: int) -> float:
    """Box-Muller radius sqrt(-2 ln u) of the uniform u of a raw draw.

    u = ((raw >> 11) + 1) 2^-53, so the radius falls as raw >> 11 grows.
    """
    return math.sqrt(-2.0 * math.log(((raw >> 11) + 1) * _INV53))


def normal_pair(seed: int, counter: int) -> Tuple[float, float]:
    """Two independent standard normals (rho cos phi, rho sin phi) from
    counters (counter, counter + 1): rho = sqrt(-2 ln u1), phi = 2 pi u2."""
    rho = polar_radius(raw_draw(seed, counter))
    phi = _TWO_PI * uniform_draw(seed, counter + 1)
    return rho * math.cos(phi), rho * math.sin(phi)


def normal_draw(seed: int, counter: int) -> float:
    """Standard normal draw consuming counters (counter, counter + 1): the
    cosine branch of normal_pair."""
    return normal_pair(seed, counter)[0]


def derive_stream_seed(master: int, index: int) -> int:
    """Seed of substream `index`: raw_draw(mix64(master), index).

    Every trial and sweep row is keyed this way; derive_stream_seeds is the
    vectorized form. mix64 is bijective and the inputs for distinct indices
    are distinct, so substreams of one master never share a seed.
    """
    return raw_draw(mix64(master), index)


# -- vectorized counterparts ------------------------------------------------
# raw and uniform draws are bit-identical to the scalar functions; normal
# draws agree within 2 ulps, since numpy's log, cos and sin may round
# differently from libm's. Every determinism guarantee uses the vectorized
# path only.

_GOLDEN_U64 = np.uint64(GOLDEN)
_MUL1_U64 = np.uint64(_MUL1)
_MUL2_U64 = np.uint64(_MUL2)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 into a fresh array; z is left as it is."""
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of the uint64 array z, computed in z itself."""
    z ^= z >> np.uint64(30)
    z *= _MUL1_U64
    z ^= z >> np.uint64(27)
    z *= _MUL2_U64
    z ^= z >> np.uint64(31)
    return z


def raw_draws(seeds, counters) -> np.ndarray:
    """Vectorized raw_draw; `seeds` and `counters` broadcast together."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # a fresh array (0-d for scalar inputs), so the mix may overwrite it
        return _mix64_inplace(np.asarray(seeds + (counters + np.uint64(1)) * _GOLDEN_U64))


def derive_stream_seeds(master: int, indices) -> np.ndarray:
    """Vectorized derive_stream_seed: the seeds of substreams `indices` of `master`."""
    return raw_draws(mix64(master), indices)


def uniform_draws(seeds, counters) -> np.ndarray:
    """Vectorized uniform_draw, values in (0, 1]."""
    raw = raw_draws(seeds, counters)
    raw >>= np.uint64(11)
    # below 2^53, so the conversion, the + 1 and the power-of-two scale are exact
    u = raw.astype(np.float64)
    u += 1.0
    u *= _INV53
    return u


def _polar(seeds, counters) -> Tuple[np.ndarray, np.ndarray]:
    """The Box-Muller radius sqrt(-2 ln u1) and angle 2 pi u2 of counters (c, c + 1)."""
    rho = uniform_draws(seeds, counters)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        phi = uniform_draws(seeds, counters + np.uint64(1))
    # in the two fresh arrays
    np.log(rho, out=rho)
    rho *= -2.0
    np.sqrt(rho, out=rho)
    phi *= _TWO_PI
    return rho, phi


def normal_draws(seeds, counters) -> np.ndarray:
    """Vectorized normal_draw; each entry consumes counters (c, c + 1)."""
    rho, phi = _polar(seeds, counters)
    np.cos(phi, out=phi)
    rho *= phi
    return rho


def normal_pairs(seeds, counters) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized normal_pair; each entry consumes counters (c, c + 1)."""
    rho, phi = _polar(seeds, counters)
    sine = np.sin(phi)
    sine *= rho
    np.cos(phi, out=phi)
    phi *= rho
    return phi, sine
