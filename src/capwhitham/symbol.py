"""Dispersion symbol m_T and double bifurcation points.

The symbol of the nonlocal operator is

    m_T(xi) = sqrt((1 + T*xi**2) * tanh(xi) / xi),

an even, analytic function with m_T(0) = 1.  For weak surface tension
0 < T < 1/3 it decreases from 1 to a minimum at a turning point xi_T and
increases to infinity beyond it, so for a coprime wavenumber pair
(k1, k2) there is a unique scaling kappa0 with
m_T(kappa0*k1) = m_T(kappa0*k2) =: c0.  At that double bifurcation point
the linearisation of the steady equation has a two-dimensional kernel
spanned by the modes k1 and k2.

This module evaluates the symbol and its derivative in closed form,
locates the turning point, and solves for bifurcation points, together
with the two asymptotic predictions for kappa0 used as cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

__all__ = [
    "WaveNumberPair",
    "BifurcationPoint",
    "tanhc",
    "dtanhc",
    "eval_symbol",
    "eval_symbol_deriv",
    "turning_point",
    "double_bifurcation",
    "kappa_asymptote_low_T",
    "kappa_asymptote_high_T",
    "WEAK_TENSION_LIMIT",
]

# Weak surface tension regime is 0 < T < 1/3.
WEAK_TENSION_LIMIT = 1.0 / 3.0

# Below this argument tanh(x)/x and its derivative switch to Maclaurin
# series to avoid cancellation (the T -> 1/3 regime probes kappa -> 0).
_SERIES_CUTOFF = 1e-2

# cosh overflows in double precision near x = 710; beyond 350 the
# sech^2 term underflows to zero anyway.
_SECH_ARG_CAP = 350.0

# Residual guard on |m_T(kappa0*k1) - m_T(kappa0*k2)| for a solved point.
_RESIDUAL_TOL = 1e-13

# Absolute tolerance on bracketing root solves.
_BRACKET_XTOL = 1e-14


def tanhc(x: float) -> float:
    """Return tanh(x)/x, an even function with value 1 at x = 0."""
    x = abs(float(x))
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0 - 17.0 * x2**3 / 315.0
    return math.tanh(x) / x


def dtanhc(x: float) -> float:
    """Return d/dx [tanh(x)/x], an odd function vanishing at x = 0."""
    x = float(x)
    sign = 1.0
    if x < 0.0:
        sign, x = -1.0, -x
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return sign * (-(2.0 / 3.0) * x + (8.0 / 15.0) * x * x2 - (34.0 / 105.0) * x * x2 * x2)
    th = math.tanh(x)
    sech2 = 1.0 / math.cosh(min(x, _SECH_ARG_CAP)) ** 2
    return sign * (x * sech2 - th) / (x * x)


def eval_symbol(T: float, xi: float) -> float:
    """Evaluate the dispersion symbol m_T(xi).

    Parameters
    ----------
    T : float
        Surface tension parameter, T > 0.
    xi : float
        Frequency; any finite real, the symbol is even.

    Returns
    -------
    float
        m_T(xi) = sqrt((1 + T*xi**2) * tanh(xi)/xi), with the removable
        singularity at xi = 0 evaluated by series (value 1).
    """
    T = float(T)
    xi = float(xi)
    if not T > 0.0:
        raise DomainError("surface tension T must be positive", T=T)
    if not math.isfinite(xi):
        raise DomainError("frequency xi must be finite", xi=xi)
    return math.sqrt((1.0 + T * xi * xi) * tanhc(xi))


def eval_symbol_deriv(T: float, xi: float) -> float:
    """Evaluate the closed-form derivative d/dxi m_T(xi) for xi > 0.

    Writing f(xi) = (1 + T*xi**2) * tanh(xi)/xi, the derivative is
    f'(xi) / (2*sqrt(f(xi))) with
    f'(xi) = 2*T*xi*tanhc(xi) + (1 + T*xi**2)*dtanhc(xi).
    """
    T = float(T)
    xi = float(xi)
    if not T > 0.0:
        raise DomainError("surface tension T must be positive", T=T)
    if not (math.isfinite(xi) and xi > 0.0):
        raise DomainError("xi must be finite and positive", xi=xi)
    tc = tanhc(xi)
    f = (1.0 + T * xi * xi) * tc
    fp = 2.0 * T * xi * tc + (1.0 + T * xi * xi) * dtanhc(xi)
    return fp / (2.0 * math.sqrt(f))


@functools.lru_cache(maxsize=4096)
def turning_point(T: float) -> float:
    """Locate the unique interior minimum xi_T of m_T for 0 < T < 1/3.

    The bracket is found by scanning xi = 2**j, j = -20..40, for a sign
    change of the derivative, then refined by Brent's method.  Results
    are cached by T: every pair of a scan samples the same tension grid.
    """
    T = float(T)
    if not 0.0 < T < WEAK_TENSION_LIMIT:
        raise DomainError(
            "turning point exists only for 0 < T < 1/3", T=T
        )
    prev_xi = 2.0**-20
    prev_d = eval_symbol_deriv(T, prev_xi)
    for j in range(-19, 41):
        xi = 2.0**j
        d = eval_symbol_deriv(T, xi)
        if prev_d < 0.0 <= d or prev_d <= 0.0 < d:
            return brentq(
                lambda x: eval_symbol_deriv(T, x), prev_xi, xi, xtol=_BRACKET_XTOL
            )
        prev_xi, prev_d = xi, d
    raise ConvergenceError(
        "no sign change of m_T' on the geometric scan", T=T
    )


@dataclass(frozen=True)
class WaveNumberPair:
    """A validated coprime wavenumber pair (k1, k2) with 1 <= k1 < k2.

    Non-coprime inputs are reduced by their gcd at construction; the
    pair spans the kernel modes of the linearised steady equation.
    """

    k1: int
    k2: int

    def __post_init__(self):
        k1, k2 = self.k1, self.k2
        if not (isinstance(k1, int) and isinstance(k2, int)):
            raise DomainError("wavenumbers must be integers", k1=k1, k2=k2)
        if not 1 <= k1 < k2:
            raise DomainError("wavenumbers must satisfy 1 <= k1 < k2", k1=k1, k2=k2)
        g = math.gcd(k1, k2)
        if g > 1:
            object.__setattr__(self, "k1", k1 // g)
            object.__setattr__(self, "k2", k2 // g)

    def astuple(self) -> tuple[int, int]:
        return (self.k1, self.k2)


@dataclass(frozen=True)
class BifurcationPoint:
    """A solved double bifurcation point (T, c0, kappa0) for a pair.

    Attributes
    ----------
    pair : WaveNumberPair
        The kernel wavenumbers.
    T : float
        Surface tension at which the point was solved.
    c0 : float
        Common wave speed m_T(kappa0*k1) = m_T(kappa0*k2), in (0, 1).
    kappa0 : float
        Period scaling; kappa0*k1 lies left of the turning point and
        kappa0*k2 right of it.
    residual : float
        |m_T(kappa0*k1) - m_T(kappa0*k2)| of the solved root.
    """

    pair: WaveNumberPair
    T: float
    c0: float
    kappa0: float
    residual: float


def double_bifurcation(pair: WaveNumberPair, T: float) -> BifurcationPoint:
    """Solve m_T(k1*kappa) = m_T(k2*kappa) for the unique kappa0 > 0.

    The root is bracketed in (xi_T/k2, xi_T/k1) where the difference
    m_T(k1*kappa) - m_T(k2*kappa) changes sign, then refined by Brent's
    method.  The returned point satisfies the derivative-sign and speed
    invariants of a double bifurcation point.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    T = float(T)
    if not 0.0 < T < WEAK_TENSION_LIMIT:
        raise DomainError(
            "double bifurcation points exist only for 0 < T < 1/3", T=T
        )
    k1, k2 = pair.k1, pair.k2
    xi_t = turning_point(T)
    lo, hi = xi_t / k2, xi_t / k1

    def gap(kappa: float) -> float:
        return eval_symbol(T, k1 * kappa) - eval_symbol(T, k2 * kappa)

    glo, ghi = gap(lo), gap(hi)
    if not (glo < 0.0 < ghi or ghi < 0.0 < glo):
        raise ConvergenceError(
            "bracket endpoints do not straddle a sign change",
            T=T,
            bracket=(lo, hi),
            gap_values=(glo, ghi),
        )
    kappa0 = brentq(gap, lo, hi, xtol=_BRACKET_XTOL)
    c0 = eval_symbol(T, k1 * kappa0)
    residual = abs(gap(kappa0))
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            "bifurcation residual above tolerance",
            T=T,
            kappa0=kappa0,
            residual=residual,
        )
    d1 = eval_symbol_deriv(T, k1 * kappa0)
    d2 = eval_symbol_deriv(T, k2 * kappa0)
    if not (d1 < 0.0 < d2):
        raise ConvergenceError(
            "derivative signs violate the double-bifurcation invariant",
            T=T,
            kappa0=kappa0,
            derivs=(d1, d2),
        )
    if not 0.0 < c0 < 1.0:
        raise ConvergenceError(
            "wave speed outside (0, 1)", T=T, c0=c0
        )
    return BifurcationPoint(pair=pair, T=T, c0=c0, kappa0=kappa0, residual=residual)


def kappa_asymptote_low_T(pair: WaveNumberPair, T: float) -> float:
    """Asymptotic kappa0 ~ 1/sqrt(k1*k2*T) as T -> 0."""
    return 1.0 / math.sqrt(pair.k1 * pair.k2 * T)


def kappa_asymptote_high_T(pair: WaveNumberPair, T: float) -> float:
    """Asymptotic kappa0 ~ sqrt((1/3 - T) * 45/(k1^2 + k2^2)) as T -> 1/3."""
    k1, k2 = pair.k1, pair.k2
    return math.sqrt((WEAK_TENSION_LIMIT - T) * 45.0 / (k1 * k1 + k2 * k2))
