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

This module evaluates the symbol and its partials in closed form,
locates the turning point, and solves for bifurcation points.  The
symbol functions take floats or arrays, and every root solve runs
through one array-valued Brent solver, so a whole tension grid is
solved at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    "bifurcation_grid",
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

# Relative tolerance and iteration cap of Brent's method.
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100

# Geometric scan xi = 2**j, j = -20..40, that brackets the turning point.
_TURNING_LADDER = np.ldexp(1.0, np.arange(-20, 41))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """Apply a scalar math function elementwise.

    numpy's SIMD tanh differs from libm's in the last bit for many
    arguments; going through ``math`` keeps every array value bitwise
    equal to the scalar one.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _result(values: np.ndarray):
    """A float for a scalar computation, the array otherwise."""
    return values if values.ndim else float(values)


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _quot(p: float, q: float) -> float:
    """p / q in Python floats, with numpy's +-inf or nan for q = +-0."""
    if q:
        return p / q
    with np.errstate(all="ignore"):
        return float(np.float64(p) / q)


def _cosh_squared(x: float) -> float:
    return math.cosh(x) ** 2


def _tanhc(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """tanh(x)/x for x >= 0, given th = tanh(x)."""
    # out starts at 1, the series value at x = 0, so the series runs on
    # 0 < x < cutoff only.
    out = np.divide(th, x, out=np.ones_like(x), where=~(x < _SERIES_CUTOFF))
    small = (0.0 < x) & (x < _SERIES_CUTOFF)
    if small.any():
        x2 = x[small] * x[small]
        out[small] = 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0 - 17.0 * x2**3 / 315.0
    return out


def _dtanhc(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """d/dx [tanh(x)/x] for x >= 0, given th = tanh(x)."""
    small = x < _SERIES_CUTOFF
    sech2 = 1.0 / _libm(_cosh_squared, np.minimum(x, _SECH_ARG_CAP))
    out = np.divide(x * sech2 - th, x * x, out=np.zeros_like(x), where=~small)
    if small.any():
        xs = x[small]
        x2 = xs * xs
        out[small] = -(2.0 / 3.0) * xs + (8.0 / 15.0) * xs * x2 - (34.0 / 105.0) * xs * x2 * x2
    return out


def tanhc(x):
    """Return tanh(x)/x, an even function with value 1 at x = 0."""
    x = np.abs(np.asarray(x, dtype=float))
    return _result(_tanhc(x, _libm(math.tanh, x)))


def dtanhc(x):
    """Return d/dx [tanh(x)/x], an odd function vanishing at x = 0."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    value = _dtanhc(ax, _libm(math.tanh, ax))
    return _result(np.where(x < 0.0, -value, value))


def _symbol(T, xi: np.ndarray) -> np.ndarray:
    x = np.abs(xi)
    return np.sqrt((1.0 + T * xi * xi) * _tanhc(x, _libm(math.tanh, x)))


def _symbol_partials(T, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m_T(xi), d/dxi m_T(xi) and d/dT m_T(xi) for xi >= 0, from one tanh evaluation.

    Each partial is that of f = m_T**2 = (1 + T*xi**2) * tanhc(xi) over 2*m_T.
    """
    th = _libm(math.tanh, xi)
    tc = _tanhc(xi, th)
    a = 1.0 + T * xi * xi
    m = np.sqrt(a * tc)
    return m, (2.0 * T * xi * tc + a * _dtanhc(xi, th)) / (2.0 * m), xi * xi * tc / (2.0 * m)


def _validated(T, xi, xi_ok, message: str) -> tuple[np.ndarray, np.ndarray]:
    T, xi = np.asarray(T, dtype=float), np.asarray(xi, dtype=float)
    positive = T > 0.0
    if not positive.all():
        raise DomainError("surface tension T must be positive", T=float(T.flat[_first(~positive)]))
    ok = xi_ok(xi)
    if not ok.all():
        raise DomainError(message, xi=float(xi.flat[_first(~ok)]))
    return T, xi


def eval_symbol(T, xi):
    """Evaluate the dispersion symbol m_T(xi).

    Parameters
    ----------
    T : float or array
        Surface tension parameter, T > 0.
    xi : float or array
        Frequency; any finite real, the symbol is even.  T and xi
        broadcast against each other.

    Returns
    -------
    float or ndarray
        m_T(xi) = sqrt((1 + T*xi**2) * tanh(xi)/xi), with the removable
        singularity at xi = 0 evaluated by series (value 1); a float when
        both arguments are scalars.  Every element is bitwise equal to
        the scalar evaluation.
    """
    T, xi = _validated(T, xi, np.isfinite, "frequency xi must be finite")
    return _result(_symbol(T, xi))


def eval_symbol_deriv(T, xi):
    """Evaluate the closed-form derivative d/dxi m_T(xi) for xi > 0.

    Writing f(xi) = (1 + T*xi**2) * tanh(xi)/xi, the derivative is
    f'(xi) / (2*sqrt(f(xi))) with
    f'(xi) = 2*T*xi*tanhc(xi) + (1 + T*xi**2)*dtanhc(xi).  T and xi
    broadcast like in :func:`eval_symbol`.
    """
    T, xi = _validated(
        T, xi, lambda xi: np.isfinite(xi) & (xi > 0.0), "xi must be finite and positive"
    )
    return _result(_symbol_partials(T, xi)[1])


def _brentq(f, a, b, xtol: float, fa=None, fb=None, args=()):
    """Roots of f in the brackets [a, b] by Brent's method, elementwise.

    A port of scipy's C ``brentq`` (rtol = 4*eps, at most 100
    iterations): ``f(x, *args)`` maps abscissae and per-element
    parameter arrays to values, and each element takes exactly the
    iterates of a scalar solve.  Two or more brackets run in lockstep
    over arrays; after the endpoints, ``f`` sees only the unfinished
    elements, and finished ones keep their abscissa and value.  Exactly
    one bracket (``a`` and ``b`` of size 1) runs the same state update
    in Python floats, which spares numpy's per-call overhead on every
    iterate, while ``f`` still sees a one-element array.  ``fa`` and
    ``fb`` may pass f(a) and f(b) when they are known.  Scalar brackets
    give a float root.

    Raises
    ------
    ValueError
        If f is NaN at an iterate, or f(a) and f(b) have the same sign.
    ConvergenceError
        If an element has not converged after 100 iterations.
    """
    xpre, xcur = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def call(x, *args):
        fx = np.asarray(f(x, *args), dtype=float)
        nan = np.isnan(fx)
        if nan.any():
            x_nan = np.broadcast_to(x, fx.shape).flat[_first(nan)]
            raise ValueError(f"The function value at x={x_nan} is NaN; solver cannot continue.")
        return fx

    fpre = call(xpre, *args) if fa is None else np.asarray(fa, dtype=float)
    fcur = call(xcur, *args) if fb is None else np.asarray(fb, dtype=float)
    root = np.where(fpre == 0.0, xpre, xcur)
    active = (fpre != 0.0) & (fcur != 0.0)
    if (active & (np.signbit(fpre) == np.signbit(fcur))).any():
        raise ValueError("f(a) and f(b) must have different signs")

    def unconverged(x: float) -> ConvergenceError:
        message = f"Brent's method did not converge in {_BRENT_MAXITER} iterations"
        return ConvergenceError(message, x=x)

    if xcur.size == 1:
        if not active.any():
            return _result(root)
        args = tuple(p[active] for p in args)
        xpre, xcur, fpre, fcur = (v.item() for v in (xpre, xcur, fpre, fcur))
        xblk = fblk = spre = scur = 0.0
        for _ in range(_BRENT_MAXITER):
            # The lockstep update below, one branch at a time.  A zero
            # fcur converges whatever its sign bit.
            if (fpre < 0.0) != (fcur < 0.0):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0.0 or abs(sbis) < delta:
                return _result(np.full(root.shape, xcur))
            short = False
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:
                    stry = _quot(-fcur * (xcur - xpre), fcur - fpre)
                else:
                    dpre = _quot(fpre - fcur, xpre - xcur)
                    dblk = _quot(fblk - fcur, xblk - xcur)
                    stry = _quot(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
                # Two comparisons, so that a NaN bound rejects the step
                # as np.minimum does.
                short = 2 * abs(stry) < abs(spre) and 2 * abs(stry) < 3 * abs(sbis) - delta
            spre, scur = (scur, stry) if short else (sbis, sbis)
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = call(np.array([xcur]), *args).item()
        raise unconverged(xcur)

    xblk = fblk = spre = scur = np.zeros_like(xcur)
    # Finished elements keep xcur and root; the rest of their state is
    # never read again.
    for _ in range(_BRENT_MAXITER):
        if not active.any():
            return _result(root)
        # Keep the root bracketed by (xcur, xblk).  fpre is never zero on
        # an active element, and one whose fcur is zero converges below
        # whatever the bracket.
        flip = np.signbit(fpre) != np.signbit(fcur)
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, spre, scur)
        # Make xcur the best estimate.
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = np.abs(sbis)
        done = active & ((fcur == 0.0) | (abs_sbis < delta))
        root = np.where(done, xcur, root)
        active &= ~done

        with np.errstate(all="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        abs_spre = np.abs(spre)
        short = (
            (abs_spre > delta)
            & (np.abs(fcur) < np.abs(fpre))
            & (2 * np.abs(stry) < np.minimum(abs_spre, 3 * abs_sbis - delta))
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xcur = np.where(active, xcur + step, xcur)
        if active.any():
            fcur = fcur.copy()  # fpre is the same array
            fcur[active] = call(xcur[active], *(a[active] for a in args))
    if active.any():
        raise unconverged(float(xcur.flat[_first(active)]))
    return _result(root)


def _ladder_tensions(xi: np.ndarray) -> np.ndarray:
    """The tensions whose turning point is xi: m_T'(xi) = 0 solved for T."""
    tc, dtc = tanhc(xi), dtanhc(xi)
    return -dtc / (2.0 * xi * tc + xi * xi * dtc)


# The ladder brackets xi_T from T = 2**-80 at its top to 1/3 - 4.04e-14 at
# its bottom, both inclusive.
_TURNING_REACH = tuple(_ladder_tensions(_TURNING_LADDER[[-1, 0]]).tolist())


def _turning_points(T: np.ndarray) -> np.ndarray:
    """Turning points xi_T for an array of tensions, in one Brent solve.

    Each bracket is the first sign change of m_T' on the geometric scan
    xi = 2**j, j = -20..40, refined by Brent's method.
    """
    T = np.asarray(T, dtype=float)
    inside = (_TURNING_REACH[0] <= T) & (T <= _TURNING_REACH[1])
    if not inside.all():
        message = "tension beyond the reach of the turning-point scan"
        raise DomainError(message, T=float(T.flat[_first(~inside)]), reach=_TURNING_REACH)
    d = _symbol_partials(T[:, None], _TURNING_LADDER)[1]
    prev, nxt = d[:, :-1], d[:, 1:]
    change = ((prev < 0.0) & (0.0 <= nxt)) | ((prev <= 0.0) & (0.0 < nxt))
    found = change.any(axis=1)
    if not found.all():
        raise ConvergenceError(
            "no sign change of m_T' on the geometric scan", T=float(T[_first(~found)])
        )
    i, j = np.arange(T.size), change.argmax(axis=1)
    return _brentq(
        lambda x, T: _symbol_partials(T, x)[1], _TURNING_LADDER[j], _TURNING_LADDER[j + 1],
        _BRACKET_XTOL, fa=d[i, j], fb=d[i, j + 1], args=(T,),
    )


def turning_point(T: float) -> float:
    """Locate the unique interior minimum xi_T of m_T for 0 < T < 1/3.

    The bracket is found by scanning xi = 2**j, j = -20..40, for a sign
    change of the derivative, then refined by Brent's method; the scan
    reaches 2**-80 <= T <= 1/3 - 4.04e-14, and other T raise DomainError.
    """
    return float(_turning_points(np.array([float(T)]))[0])


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

    @classmethod
    def coerce(cls, pair) -> WaveNumberPair:
        """``pair`` unchanged if it is a WaveNumberPair, else the pair built from its (k1, k2)."""
        return pair if isinstance(pair, cls) else cls(*pair)

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


def _solve_bifurcations(pairs, T, xi_t=None):
    """Double bifurcation points of P wavenumber pairs on one tension grid.

    ``pairs`` lists P pairs (k1, k2), T holds G tensions and ``xi_t``
    their turning points, if known.  Every kappa0 is bracketed in
    (xi_T/k2, xi_T/k1), where m_T(k1*kappa) - m_T(k2*kappa) changes
    sign, and all P*G are refined in one Brent solve, in which each
    element takes the iterates of its own scalar solve.

    Returns arrays (c0, kappa0, residual) of shape (P, G) and a list with
    one entry per pair: None, or the error of the pair's first failing
    tension, which a loop of scalar solves over the grid would raise.
    The row of a failed pair holds no valid points.  A bad tension, or a
    Brent failure of any element, raises for the whole call.
    """
    T = np.asarray(T, dtype=float)
    inside = (0.0 < T) & (T < WEAK_TENSION_LIMIT)
    if not inside.all():
        message = "double bifurcation points exist only for 0 < T < 1/3"
        raise DomainError(message, T=float(T.flat[_first(~inside)]))
    if xi_t is None:
        xi_t = _turning_points(T)
    P, G = len(pairs), T.size
    # Element p*G + g is pair p at tension g.
    modes = np.repeat(np.asarray(pairs, dtype=float), G, axis=0)
    k1, k2 = modes.T
    T, xi_t = np.concatenate([T] * P), np.concatenate([xi_t] * P)
    lo, hi = xi_t / k2, xi_t / k1

    def gap(kappa, T, modes):
        m = _symbol(T[:, None], kappa[:, None] * modes)
        return m[:, 0] - m[:, 1]

    glo, ghi = gap(lo, T, modes), gap(hi, T, modes)
    straddle = ((glo < 0.0) & (0.0 < ghi)) | ((ghi < 0.0) & (0.0 < glo))
    kappa0, c0, residual, d1, d2 = np.full((5, T.size), np.nan)
    # The remaining checks run on the bracketed elements only.
    idx = np.flatnonzero(straddle)
    if idx.size:
        Ts, fa, fb = T[idx], glo[idx], ghi[idx]
        kappa0[idx] = _brentq(gap, lo[idx], hi[idx], _BRACKET_XTOL, fa, fb, args=(Ts, modes[idx]))
        # Both modes' symbol and slope at kappa0 from one tanh each.
        m, dm, _ = _symbol_partials(Ts[:, None], kappa0[idx, None] * modes[idx])
        c0[idx] = m[:, 0]
        residual[idx] = np.abs(m[:, 0] - m[:, 1])
        d1[idx], d2[idx] = dm.T
    checks = [
        (~straddle, lambda i: ConvergenceError(
            "bracket endpoints do not straddle a sign change",
            T=float(T[i]),
            bracket=(float(lo[i]), float(hi[i])),
            gap_values=(float(glo[i]), float(ghi[i])),
        )),
        (residual > _RESIDUAL_TOL, lambda i: ConvergenceError(
            "bifurcation residual above tolerance",
            T=float(T[i]), kappa0=float(kappa0[i]), residual=float(residual[i]),
        )),
        (straddle & ~((d1 < 0.0) & (0.0 < d2)), lambda i: ConvergenceError(
            "derivative signs violate the double-bifurcation invariant",
            T=float(T[i]), kappa0=float(kappa0[i]), derivs=(float(d1[i]), float(d2[i])),
        )),
        (straddle & ~((0.0 < c0) & (c0 < 1.0)), lambda i: ConvergenceError(
            "wave speed outside (0, 1)", T=float(T[i]), c0=float(c0[i])
        )),
    ]
    failed = np.stack([bad for bad, _ in checks])
    rows = failed.any(axis=0).reshape(P, G)
    errors = [None] * P
    # A pair's first failing tension raises the first check it fails, as
    # in a scalar solve.
    for p in np.flatnonzero(rows.any(axis=1)).tolist():
        i = p * G + _first(rows[p])
        errors[p] = checks[_first(failed[:, i])][1](i)
    return c0.reshape(P, G), kappa0.reshape(P, G), residual.reshape(P, G), errors


def _points(pair: WaveNumberPair, T, c0, kappa0, residual) -> list[BifurcationPoint]:
    return [
        BifurcationPoint(pair=pair, T=t, c0=c, kappa0=k, residual=r)
        for t, c, k, r in zip(
            np.asarray(T, dtype=float).tolist(), c0.tolist(), kappa0.tolist(), residual.tolist()
        )
    ]


def bifurcation_grid(pair: WaveNumberPair, tensions) -> list[BifurcationPoint]:
    """Solve the double bifurcation points at every tension of a grid at once.

    Each point is bitwise equal to :func:`double_bifurcation` at its
    tension; an invalid grid raises the error of its first failing
    tension.
    """
    pair = WaveNumberPair.coerce(pair)
    T = np.asarray(tensions, dtype=float)
    (c0,), (kappa0,), (residual,), (error,) = _solve_bifurcations([pair.astuple()], T)
    if error is not None:
        raise error
    return _points(pair, T, c0, kappa0, residual)


def double_bifurcation(pair: WaveNumberPair, T: float) -> BifurcationPoint:
    """Solve m_T(k1*kappa) = m_T(k2*kappa) for the unique kappa0 > 0.

    The root is bracketed in (xi_T/k2, xi_T/k1) where the difference
    m_T(k1*kappa) - m_T(k2*kappa) changes sign, then refined by Brent's
    method.  The returned point satisfies the derivative-sign and speed
    invariants of a double bifurcation point.  Points are cached by
    (pair, T): every wave solve at a tension starts from its point.
    """
    pair = WaveNumberPair.coerce(pair)
    return _bifurcation_point(pair, float(T))


@functools.lru_cache(maxsize=4096)
def _bifurcation_point(pair: WaveNumberPair, T: float) -> BifurcationPoint:
    return bifurcation_grid(pair, [T])[0]
