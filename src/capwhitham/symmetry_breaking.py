"""The symmetry-breaking function phi and the wavenumber-pair classification.

For a coprime pair (k1, k2) the function

    phi(T; k1, k2) = (u^2)_hat_{(k2-1,0),(0,k1)} evaluated at the
                     double bifurcation point (c0(T), kappa0(T))

decides whether asymmetric waves bifurcate: a simple root T0 with a sign
change is a symmetry-breaking bifurcation point.  This module samples
phi over the weak-tension interval, refines its roots, computes its
normalized endpoint limits, and classifies pairs as excluded (by the
divisor or difference criteria), admitting, or undecided.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (
    LIMIT_HIGH_T,
    LIMIT_LOW_T,
    MultiplierContext,
    _scaled_u2,
    limit_ratio,
    phi_target_indices,
)
from .errors import CapWhithamError, DomainError
from .symbol import (
    WEAK_TENSION_LIMIT,
    BifurcationPoint,
    WaveNumberPair,
    _brentq,
    _points,
    _solve_bifurcations,
    _turning_points,
)

__all__ = [
    "PhiSample",
    "PhiRoot",
    "PairVerdict",
    "phi_eval",
    "phi_curve",
    "phi_limits",
    "phi_root",
    "exclusion_check",
    "pair_scan",
    "STATUS_EXCLUDED_DIVISOR",
    "STATUS_EXCLUDED_DIFFERENCE",
    "STATUS_ADMITS",
    "STATUS_UNDECIDED",
    "STATUS_PASSES",
    "T_MARGIN",
    "DEFAULT_GRID_SIZE",
]

STATUS_EXCLUDED_DIVISOR = "excluded-divisor"
STATUS_EXCLUDED_DIFFERENCE = "excluded-difference"
STATUS_ADMITS = "admits"
STATUS_UNDECIDED = "undecided"
STATUS_PASSES = "passes"

# Margin delta of the sampling interval (delta, 1/3 - delta).
T_MARGIN = 1e-4

# Default number of sample points for root scans.
DEFAULT_GRID_SIZE = 200

# Bracketing refinement tolerance on T0 and the slope-estimate step.
_ROOT_XTOL = 1e-10
_SLOPE_STEP = 1e-5


@dataclass(frozen=True)
class PhiSample:
    """One evaluation of phi with the bifurcation point it used."""

    T: float
    value: float
    bifurcation: BifurcationPoint


@dataclass(frozen=True)
class PhiRoot:
    """A refined root of phi with its bracket and slope estimate.

    ``slope`` is a central finite-difference estimate of the
    T-derivative at the root; a nonzero value signals the local
    monotonicity that makes the root a symmetry-breaking point.
    """

    T0: float
    bracket: tuple[float, float]
    slope: float


@dataclass(frozen=True)
class PairVerdict:
    """Classification of one enumerated (k1, k2) pair.

    ``k1``/``k2`` are the raw enumerated values and ``reduced`` the
    coprime pair actually analysed.  Excluded statuses carry no limits
    or roots; per-pair failures are recorded in ``error`` with status
    undecided rather than aborting a scan, with any limits computed first.
    """

    k1: int
    k2: int
    reduced: WaveNumberPair
    status: str
    limit_low: float | None = None
    limit_high: float | None = None
    roots: tuple[PhiRoot, ...] = ()
    error: str | None = None


def _warn_k1_one(pair: WaveNumberPair) -> None:
    if pair.k1 == 1:
        warnings.warn(
            "phi is strictly positive for pairs with k1 = 1; "
            "no symmetry breaking can occur",
            UserWarning,
            stacklevel=3,
        )


def _check_values(pair: WaveNumberPair, grid: np.ndarray, values: np.ndarray) -> None:
    """Raise on the first non-finite phi; enforce positivity for k1 = 1."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        T = float(grid[bad[0]])
        raise DomainError(
            f"phi is not finite in double precision at T = {T!r}",
            pair=pair.astuple(),
            T=T,
        )
    if pair.k1 == 1 and not np.all(values > 0.0):
        i = int(np.argmin(values))
        raise AssertionError(
            f"phi(T={grid[i]}; 1, {pair.k2}) = {values[i]} violates the positivity invariant"
        )


def _phi(pair: WaveNumberPair, ell):
    """phi from the coefficient table, with ell(k) a float or an array."""
    alpha, beta = phi_target_indices(pair)
    return _scaled_u2(pair, alpha, beta, ell) / 2.0 ** (pair.k1 + pair.k2 - 1)


def _phi_values(pair: WaveNumberPair, T, xi_t=None):
    """phi at an array of tensions, with the arrays of its bifurcation points.

    One grid solve gives the bifurcation points, and one pass of the
    coefficient table, in which each ell(k) is a single array multiplier
    call, gives phi.  Returns (phi, c0, kappa0, residual).
    """
    T = np.asarray(T, dtype=float)
    c0, kappa0, residual = _solve_bifurcations(pair, T, xi_t)
    ell = functools.cache(MultiplierContext(pair=pair, c=c0, kappa=kappa0, T=T).ell)
    # Overflow surfaces as inf or nan, which _check_values reports.
    with np.errstate(over="ignore", invalid="ignore"):
        value = _phi(pair, lambda k: ell(abs(k)))
    # A target that never applies ell (M = 0) comes back as one float.
    values = np.broadcast_to(value, T.shape)
    _check_values(pair, T, values)
    return values, c0, kappa0, residual


def phi_eval(pair: WaveNumberPair, T: float) -> PhiSample:
    """Evaluate phi(T; k1, k2) at the solved bifurcation point.

    Pairs with k1 = 1 are allowed but flagged with a UserWarning, since
    phi is then provably positive and never yields symmetry breaking;
    positivity is also enforced at runtime.

    Raises
    ------
    DomainError
        If phi overflows double precision (large pairs near T = 1/3).
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    _warn_k1_one(pair)
    T = np.array([float(T)])
    values, *point = _phi_values(pair, T)
    return PhiSample(T=float(T[0]), value=float(values[0]), bifurcation=_points(pair, T, *point)[0])


def _clustered_grid(grid_size: int, lo: float, hi: float) -> np.ndarray:
    """Grid on [lo, hi] with square-root point clustering at both ends."""
    s = np.linspace(0.0, 1.0, grid_size)
    q = np.where(s < 0.5, 2.0 * s * s, 1.0 - 2.0 * (1.0 - s) ** 2)
    return lo + (hi - lo) * q


@functools.lru_cache(maxsize=16)
def _tension_grid(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampling grid and its turning points, shared by every pair."""
    grid = _clustered_grid(grid_size, T_MARGIN, WEAK_TENSION_LIMIT - T_MARGIN)
    xi_t = _turning_points(grid)
    grid.flags.writeable = xi_t.flags.writeable = False
    return grid, xi_t


def phi_curve(pair: WaveNumberPair, grid_size: int = DEFAULT_GRID_SIZE) -> list[PhiSample]:
    """Sample phi on the endpoint-clustered grid over (delta, 1/3 - delta).

    The bifurcation points of the whole grid are solved at once, and the
    coefficient table is filled once with every multiplier an array over
    them; each value is bitwise identical to :func:`phi_eval` at that
    tension.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    if grid_size < 2:
        raise DomainError("curve needs at least two points", grid_size=grid_size)
    _warn_k1_one(pair)
    grid, xi_t = _tension_grid(grid_size)
    values, *point = _phi_values(pair, grid, xi_t)
    return [
        PhiSample(T=p.T, value=v, bifurcation=p)
        for p, v in zip(_points(pair, grid, *point), values.tolist())
    ]


def phi_limits(pair: WaveNumberPair) -> tuple[float, float]:
    """Normalized limits of phi/ell(k2+1)^M at T -> 0 and T -> 1/3.

    Every term of phi is homogeneous of degree M in the multiplier
    values, so the limits equal the coefficient table filled with ell
    replaced by its normalized endpoint ratios, both endpoints at once.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)

    def rho(k: int):
        if abs(k) in (pair.k1, pair.k2):
            return 0.0
        return np.array(
            [limit_ratio(pair, LIMIT_LOW_T, k), limit_ratio(pair, LIMIT_HIGH_T, k)]
        )

    value = _phi(pair, rho)
    # A target that never applies ell (M = 0) comes back as one float.
    low, high = np.broadcast_to(value, 2).tolist()
    return low, high


def phi_root(
    pair: WaveNumberPair,
    grid_size: int = DEFAULT_GRID_SIZE,
    xtol: float = _ROOT_XTOL,
) -> list[PhiRoot]:
    """Locate all sign-change roots of phi on the sampling interval.

    Samples phi at ``grid_size`` endpoint-clustered points, refines every
    sign change in one Brent solve over all brackets to |dT| <= ``xtol``,
    and reports a central-difference slope estimate per root.  A sample
    that is exactly zero is a root with a degenerate bracket.  An empty
    list is a valid result.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    if grid_size < 16:
        raise DomainError("root scan needs at least 16 points", grid_size=grid_size)
    if not xtol > 0.0:
        raise DomainError("root tolerance must be positive", xtol=xtol)
    _warn_k1_one(pair)
    T, xi_t = _tension_grid(grid_size)
    values = _phi_values(pair, T, xi_t)[0]

    def phi(T):
        return _phi_values(pair, T)[0]

    # Compare signs, not products: |phi| reaches 1e295, and the product of
    # two neighbours would overflow.
    signs = np.sign(values)
    change = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    grid = T.tolist()
    found = [(i, grid[i], grid[i]) for i in np.flatnonzero(values == 0.0).tolist()]
    if change.size:
        lo, hi = change, change + 1
        refined = _brentq(phi, T[lo], T[hi], xtol, fa=values[lo], fb=values[hi])
        found += [(i, t0, grid[i + 1]) for i, t0 in zip(change.tolist(), refined.tolist())]
    if not found:
        return []
    found.sort()
    T0 = np.array([t0 for _, t0, _ in found])
    # Both slope evaluations of every root in one batch.
    up, down = np.split(phi(np.concatenate([T0 + _SLOPE_STEP, T0 - _SLOPE_STEP])), 2)
    slopes = (up - down) / (2.0 * _SLOPE_STEP)
    return [
        PhiRoot(T0=t0, bracket=(grid[i], b), slope=slope)
        for (i, t0, b), slope in zip(found, slopes.tolist())
    ]


def exclusion_check(k1: int, k2: int) -> str:
    """Apply the two arithmetic exclusion criteria to a raw pair.

    Returns ``excluded-divisor`` when k1 divides k2,
    ``excluded-difference`` when k2 - k1 divides k1, and ``passes``
    otherwise.  Inputs need not be coprime.
    """
    k1, k2 = int(k1), int(k2)
    if not 1 <= k1 < k2:
        raise DomainError("pair must satisfy 1 <= k1 < k2", k1=k1, k2=k2)
    if k2 % k1 == 0:
        return STATUS_EXCLUDED_DIVISOR
    if k1 % (k2 - k1) == 0:
        return STATUS_EXCLUDED_DIFFERENCE
    return STATUS_PASSES


def _classify_pair(item: tuple[int, int, bool, int]) -> PairVerdict:
    """Worker body: classify one surviving pair (never raises)."""
    k1, k2, refine, grid_size = item
    reduced = WaveNumberPair(k1, k2)
    low = high = None
    try:
        low, high = phi_limits(reduced)
        if low * high < 0.0:
            return PairVerdict(
                k1=k1, k2=k2, reduced=reduced, status=STATUS_ADMITS,
                limit_low=low, limit_high=high,
            )
        roots: tuple[PhiRoot, ...] = ()
        status = STATUS_UNDECIDED
        if refine:
            roots = tuple(phi_root(reduced, grid_size))
            if roots:
                status = STATUS_ADMITS
        return PairVerdict(
            k1=k1, k2=k2, reduced=reduced, status=status,
            limit_low=low, limit_high=high, roots=roots,
        )
    except (CapWhithamError, ArithmeticError, ValueError) as exc:
        return PairVerdict(
            k1=k1, k2=k2, reduced=reduced, status=STATUS_UNDECIDED,
            limit_low=low, limit_high=high, error=f"{type(exc).__name__}: {exc}",
        )


def pair_scan(
    k_max: int,
    refine: bool = False,
    grid_size: int = DEFAULT_GRID_SIZE,
    jobs: int = 1,
) -> list[PairVerdict]:
    """Classify every pair 1 <= k1 < k2 <= k_max.

    Excluded pairs are labelled immediately from the arithmetic
    criteria; survivors get their normalized limits, admitting on a sign
    difference.  With ``refine`` set, undecided pairs are additionally
    scanned for roots, and a verified sign change upgrades them to
    admitting.  Work distributes over ``jobs`` processes; the result
    order (sorted by (k1, k2)) and content are independent of
    scheduling.
    """
    if k_max < 3:
        raise DomainError("scan needs k_max >= 3", k_max=k_max)
    if refine and grid_size < 16:
        raise DomainError("root scan needs at least 16 points", grid_size=grid_size)
    verdicts: list[PairVerdict] = []
    work: list[tuple[int, int]] = []
    for k1 in range(1, k_max):
        for k2 in range(k1 + 1, k_max + 1):
            status = exclusion_check(k1, k2)
            if status in (STATUS_EXCLUDED_DIVISOR, STATUS_EXCLUDED_DIFFERENCE):
                verdicts.append(
                    PairVerdict(
                        k1=k1, k2=k2, reduced=WaveNumberPair(k1, k2), status=status
                    )
                )
            else:
                work.append((k1, k2))
    # Exclusion is scale invariant, so every surviving raw pair reduces to
    # a surviving coprime pair; each of those is classified once.
    reduced = sorted({WaveNumberPair(k1, k2).astuple() for k1, k2 in work})
    items = [(k1, k2, refine, grid_size) for k1, k2 in reduced]
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            classified = list(pool.map(_classify_pair, items))
    else:
        classified = [_classify_pair(item) for item in items]
    shared = dict(zip(reduced, classified))
    for k1, k2 in work:
        verdict = shared[WaveNumberPair(k1, k2).astuple()]
        verdicts.append(replace(verdict, k1=k1, k2=k2))
    verdicts.sort(key=lambda v: (v.k1, v.k2))
    return verdicts
