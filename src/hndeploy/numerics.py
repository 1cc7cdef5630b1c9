"""Adaptive Simpson quadrature (1D and iterated 2D).

integrate_1d drives the analytic half-disk integrals; integrate_2d serves
the density normalization checks and the 2D reference the analytic
capsule parts are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

# subdivision budget of one integrate_1d call
MAX_SUBDIVISIONS = 100_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance for one integration call."""

    absolute_tolerance: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.absolute_tolerance) and self.absolute_tolerance > 0):
            raise ValueError(f"absolute_tolerance must be a positive finite real, "
                             f"got {self.absolute_tolerance}")


class QuadratureError(Exception):
    """Tolerance not reached; carries the best estimate and its error bound."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Adaptive Simpson integral of f over [a, b].

    Raises QuadratureError when the MAX_SUBDIVISIONS budget is exhausted before
    every interval meets its share of the tolerance.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # stack entries: (a, fa, m, fm, b, fb, whole, tol, depth); a minimum
    # depth guards against false convergence on a coarse first probe of a
    # sharply peaked integrand
    min_depth = 4
    stack = [(a, fa, m, fm, b, fb, whole, spec.absolute_tolerance, 0)]
    total = 0.0
    error = 0.0
    used = 0
    exhausted = False
    min_width = abs(b - a) * 1e-14
    while stack:
        a0, fa0, m0, fm0, b0, fb0, whole0, tol0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = left + right - whole0
        used += 1
        converged = depth >= min_depth and abs(delta) <= 15.0 * tol0
        if converged or abs(b0 - a0) <= min_width:
            total += left + right + delta / 15.0
            error += abs(delta) / 15.0
        elif used >= MAX_SUBDIVISIONS:
            exhausted = True
            total += left + right + delta / 15.0
            error += abs(delta) / 15.0
        else:
            half = 0.5 * tol0
            stack.append((a0, fa0, lm, flm, m0, fm0, left, half, depth + 1))
            stack.append((m0, fm0, rm, frm, b0, fb0, right, half, depth + 1))
    if exhausted:
        raise QuadratureError("subdivision budget exhausted", total, error)
    return total


YBounds = Union[Tuple[float, float], Callable[[float], Tuple[float, float]]]


def integrate_2d(
    f: Callable[[float, float], float],
    x_bounds: Tuple[float, float],
    y_bounds: YBounds,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Iterated adaptive Simpson integral over x in x_bounds, y in y_bounds(x).

    y_bounds may be a fixed (lo, hi) pair or a function of x. The inner
    tolerance is tol/3 scaled down by the x-extent so accumulated inner
    error stays within the overall budget; the outer pass also runs at
    tol/3.
    """
    x_lo, x_hi = x_bounds
    width = abs(x_hi - x_lo)
    inner_tol = spec.absolute_tolerance / (3.0 * max(1.0, width))
    inner_spec = QuadratureSpec(inner_tol)
    outer_spec = QuadratureSpec(spec.absolute_tolerance / 3.0)

    if callable(y_bounds):
        bounds_at = y_bounds
    else:
        fixed = y_bounds

        def bounds_at(_x: float) -> Tuple[float, float]:
            return fixed

    def slice_integral(x: float) -> float:
        y_lo, y_hi = bounds_at(x)
        return integrate_1d(lambda y: f(x, y), y_lo, y_hi, inner_spec)

    return integrate_1d(slice_integral, x_lo, x_hi, outer_spec)
