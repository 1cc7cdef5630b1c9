"""Deterministic counter-based random number generation (splitmix64).

Every draw is addressed by a (seed, counter) pair:

    raw(seed, counter) = mix64((seed + (counter + 1) * GOLDEN) mod 2**64)

where mix64 is the splitmix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.
A stream is the sequence counter = 0, 1, 2, ...; batch code can evaluate
any set of counters at once and still reproduce exactly the raw and uniform
values of the scalar functions, and a vectorized result never depends on
batch size or thread count.

A raw draw gives a uniform u in one of two ways (uniforms): (m + 1) 2^-53 of
its top 53 bits m, in (0, 1], or (m + 1/2) 2^-52 of its top 52, in the open
interval (0, 1), which any inverse CDF accepts. normal_quantiles is the
inverse standard normal CDF by Wichura's AS241 (Applied Statistics 37,
1988), the rational approximations of the standard library's
statistics.NormalDist.inv_cdf, and normal_quantile is its scalar twin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# (x >> 11) yields 53 bits; +1 maps to (0, 1], so log(u) is always finite.
_INV53 = 2.0 ** -53


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


def derive_stream_seed(master: int, index: int) -> int:
    """Seed of substream `index`: raw_draw(mix64(master), index).

    Every trial and sweep row is keyed this way; derive_stream_seeds is the
    vectorized form. mix64 is bijective and the inputs for distinct indices
    are distinct, so substreams of one master never share a seed.
    """
    return raw_draw(mix64(master), index)


# -- vectorized counterparts ------------------------------------------------
# raw and uniform draws are bit-identical to the scalar functions. Every
# determinism guarantee uses the vectorized path only.

_GOLDEN_U64 = np.uint64(GOLDEN)
_MUL1_U64 = np.uint64(_MUL1)
_MUL2_U64 = np.uint64(_MUL2)


def _mix64_inplace(z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """mix64 of every word of the uint64 array z, computed in z itself; each
    shift goes to scratch, an array of z's shape, where it is given."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MUL1_U64
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MUL2_U64
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def raw_draws(seeds, counters, out: Optional[np.ndarray] = None,
              scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized raw_draw; `seeds` and `counters` broadcast together. out
    and scratch, uint64 arrays of the broadcast shape, take the draws and
    the mix's shifts where given, so a loop over tiles allocates nothing."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # out or a fresh array (0-d for scalar inputs), so the mix may overwrite it
        z = np.asarray(np.add(seeds, (counters + np.uint64(1)) * _GOLDEN_U64, out=out))
        return _mix64_inplace(z, scratch)


def derive_stream_seeds(master: int, indices) -> np.ndarray:
    """Vectorized derive_stream_seed: the seeds of substreams `indices` of `master`."""
    return raw_draws(mix64(master), indices)


def uniforms(raw: np.ndarray, bits: int = 53) -> np.ndarray:
    """The uniforms of the raw draws `raw` (a uint64 array, which it
    overwrites): (m + 1) 2^-53 of m = raw >> 11, in (0, 1], or for bits = 52
    (m + 1/2) 2^-52 of m = raw >> 12, in the open interval (0, 1). Both are
    nondecreasing in raw."""
    raw >>= np.uint64(64 - bits)
    # below 2^53, so the conversion, the offset and the power-of-two scale are exact
    u = raw.astype(np.float64)
    u += 1.0 if bits == 53 else 0.5
    u *= 2.0 ** -bits
    return u


def uniform_of(m: int, bits: int = 53) -> float:
    """The uniform that uniforms gives a raw draw whose top `bits` bits are m."""
    return (m + (1.0 if bits == 53 else 0.5)) * 2.0 ** -bits


def uniform_draws(seeds, counters) -> np.ndarray:
    """Vectorized uniform_draw, values in (0, 1]."""
    return uniforms(raw_draws(seeds, counters))


# AS241's numerator and denominator coefficients, highest power first: for
# |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2 (the numerator times
# p - 1/2), else in r = sqrt(-ln min(p, 1 - p)) less 1.6 where that is at
# most 5, or less 5 beyond
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
             4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
             2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_NEAR = ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
          1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
          4.63033784615654529590e+0, 1.42343711074968357734e+0),
         (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
          1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
          2.05319162663775882187e+0, 1.0))
_FAR = ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
         2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
         5.46378491116411436990e+0, 6.65790464350110377720e+0),
        (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
         7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0))


def _ratio(coefficients, r, times=1.0):
    """times * numerator(r) / denominator(r), each polynomial by Horner's
    rule, all in AS241's order of operations, for r an array or a float."""
    a, b = coefficients
    num, den = r * a[0], r * b[0]
    for ak, bk in zip(a[1:-1], b[1:-1]):
        num += ak
        num *= r
        den += bk
        den *= r
    num += a[-1]
    num *= times
    den += b[-1]
    num /= den
    return num


def normal_quantile(p: float) -> float:
    """The standard normal quantile of one p in (0, 1): normal_quantiles'
    scalar twin, in the same order of operations with the C library's log,
    which is statistics.NormalDist().inv_cdf bit for bit."""
    q = p - 0.5
    if abs(q) <= 0.425:
        return _ratio(_CENTRAL, 0.180625 - q * q, q)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    x = _ratio(_NEAR, r - 1.6) if r <= 5.0 else _ratio(_FAR, r - 5.0)
    return -x if q < 0.0 else x


def normal_quantiles(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of every p in (0, 1), by AS241:
    normal_quantile's value bit for bit wherever numpy's log rounds as the
    C library's (always for |p - 1/2| <= 0.425, which takes no log), and
    within a few ulps elsewhere, as a one-ulp change of ln p moves the tail
    pieces by up to 8 ulps."""
    shape, p = p.shape, p.reshape(-1)
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _ratio(_CENTRAL, r, q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q[tail]
        r = np.where(qt <= 0.0, p[tail], 1.0 - p[tail])
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        far = r > 5.0
        xt = _ratio(_NEAR, r - 1.6)
        xt[far] = _ratio(_FAR, r[far] - 5.0)
        np.negative(xt, out=xt, where=qt < 0.0)
        x[tail] = xt
    return x.reshape(shape)
