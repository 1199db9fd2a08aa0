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
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import _limit_ell, _path_ell, _phi
from .errors import CapWhithamError, ConvergenceError, DomainError
from .symbol import (
    _BRENT_FAILURE,
    WEAK_TENSION_LIMIT,
    BifurcationPoint,
    WaveNumberPair,
    _brentq,
    _points,
    _solve_bifurcations,
    _turning_points,
    guard_grid_size,
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

# Default and least number of sample points for root scans.
DEFAULT_GRID_SIZE = 200
_MIN_ROOT_GRID_SIZE = 16

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
    or roots.  A pair's failure is recorded in ``error``, with status
    undecided, rather than aborting a scan; the verdict keeps what the
    stages before the failure found.
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


def _check_values(pair: WaveNumberPair, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The values, after raising on the first non-finite phi; enforce
    positivity for k1 = 1."""
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
    return values


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
    pair = WaveNumberPair.coerce(pair)
    _warn_k1_one(pair)
    T = np.array([float(T)])
    values, point = _phi_on([pair], T)[pair]
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
    pair = WaveNumberPair.coerce(pair)
    if grid_size < 2:
        raise DomainError("curve needs at least two points", grid_size=grid_size)
    guard_grid_size(grid_size)
    _warn_k1_one(pair)
    grid, xi_t = _tension_grid(grid_size)
    values, point = _phi_on([pair], grid, xi_t)[pair]
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
    pair = WaveNumberPair.coerce(pair)
    [limits] = _phi([pair], [_limit_ell(pair)])
    return tuple(limits.tolist())


def phi_root(pair: WaveNumberPair, grid_size: int = DEFAULT_GRID_SIZE) -> list[PhiRoot]:
    """Locate all sign-change roots of phi on the sampling interval.

    Samples phi at ``grid_size`` endpoint-clustered points, whose
    bifurcation points come from one array solve (a refined pair scan
    solves those of all its pairs at once), refines every sign change in
    one Brent solve over all brackets to |dT| <= 1e-10, and reports a
    central-difference slope estimate per root.  A sample that is exactly
    zero is a root with a degenerate bracket.  An empty list is valid.
    """
    pair = WaveNumberPair.coerce(pair)
    if grid_size < _MIN_ROOT_GRID_SIZE:
        raise DomainError(f"root scan needs at least {_MIN_ROOT_GRID_SIZE} points", grid_size=grid_size)
    guard_grid_size(grid_size)
    _warn_k1_one(pair)
    T, xi_t = _tension_grid(grid_size)
    return _phi_roots(pair, T, _phi_on([pair], T, xi_t)[pair][0])


def _phi_roots(pair: WaveNumberPair, T: np.ndarray, values: np.ndarray) -> list[PhiRoot]:
    """The body of :func:`phi_root`, given phi on the grid T."""

    def phi(T):
        return _phi_on([pair], T)[pair][0]

    # Compare signs, not products: |phi| reaches 1e295, and the product of
    # two neighbours would overflow.
    signs = np.sign(values)
    change = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    grid = T.tolist()
    found = [(i, grid[i], grid[i]) for i in np.flatnonzero(values == 0.0).tolist()]
    if change.size:
        lo, hi = change, change + 1
        refined = _brentq(phi, T[lo], T[hi], _ROOT_XTOL, fa=values[lo], fb=values[hi])
        if np.isnan(refined).any():
            i = int(change[np.isnan(refined)][0])
            raise ConvergenceError(_BRENT_FAILURE, pair=pair.astuple(), bracket=(grid[i], grid[i + 1]))
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


# The failures a pair's verdict records instead of aborting a scan.
_PAIR_ERRORS = (CapWhithamError, ArithmeticError, ValueError)


def _stage(pairs, fn, fail) -> dict:
    """{pair: fn(pair)} for the pairs where fn returns; the others go to ``fail``."""
    done = {}
    for pair in pairs:
        try:
            done[pair] = fn(pair)
        except _PAIR_ERRORS as exc:
            fail(pair, exc)
    return done


def _phi_stacks(pairs: list[WaveNumberPair], rows, fail) -> dict:
    """phi of the pairs whose ell rows fill, one stack per k1 (see ``coefficients._phi``).

    ``rows(pair)`` gives the pair's ell rows; a pair whose rows raise
    goes to ``fail(pair, error)`` and gets no phi.  Each group's rows are
    computed just before its fill, so one group's are held at a time.
    """
    groups: dict[int, list[WaveNumberPair]] = {}
    for pair in pairs:
        groups.setdefault(pair.k1, []).append(pair)
    phi = {}
    for group in groups.values():
        filled = _stage(group, rows, fail)
        if filled:
            phi.update(zip(filled, _phi(list(filled), list(filled.values()))))
    return phi


def _reraise(pair, exc):
    raise exc


def _phi_on(pairs: list[WaveNumberPair], T: np.ndarray, xi_t=None, fail=_reraise) -> dict:
    """{pair: (phi, (c0, kappa0, residual))} at the tensions T, for every pair that gets there.

    One bifurcation solve for all pairs, then one stacked table per k1;
    no pair's values depend on another's.  A failing pair goes to
    ``fail(pair, error)``, by default a raise of that error; an error of
    the whole solve (a bad tension, or a NaN gap) goes to every pair's.
    """
    try:
        c0, kappa0, residual, errors = _solve_bifurcations([p.astuple() for p in pairs], T, xi_t)
    except _PAIR_ERRORS as exc:
        errors = [exc] * len(pairs)
    points = {}
    for row, (pair, error) in enumerate(zip(pairs, errors)):
        if error is None:
            points[pair] = c0[row], kappa0[row], residual[row]
        else:
            fail(pair, error)
    # Overflow surfaces as inf or nan, which _check_values reports.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phi_stacks(list(points), lambda pair: _path_ell(pair, T, points[pair]), fail)
    checked = _stage(phi, lambda pair: _check_values(pair, T, phi[pair]), fail)
    return {pair: (values, points[pair]) for pair, values in checked.items()}


def _classify_pairs(chunk: tuple) -> list[PairVerdict]:
    """Worker body: classify a chunk of surviving coprime pairs end to end.

    ``chunk`` is (pairs, refine, grid_size).  The stages: the limits,
    from one stacked table per k1; when refining, the grid phi of the
    pairs whose limits do not admit, from :func:`_phi_on`; their roots.
    A pair leaves at its first failing stage: its verdict records that
    error and keeps what the earlier stages found.  Each stage adds to
    the pair's fields, from which its verdict is built at the end.
    """
    pairs, refine, grid_size = chunk
    pairs = [WaveNumberPair(*pair) for pair in pairs]
    fields = {pair: {"status": STATUS_UNDECIDED} for pair in pairs}

    def fail(pair, exc):
        fields[pair]["error"] = f"{type(exc).__name__}: {exc}"

    scan = []
    for pair, limits in _phi_stacks(pairs, _limit_ell, fail).items():
        low, high = limits.tolist()
        fields[pair].update(limit_low=low, limit_high=high)
        if low * high < 0.0:
            fields[pair]["status"] = STATUS_ADMITS
        elif refine:
            scan.append(pair)
    if scan:
        T, xi_t = _tension_grid(grid_size)
        on = _phi_on(scan, T, xi_t, fail)
        found = _stage(on, lambda pair: _phi_roots(pair, T, on[pair][0]), fail)
        for pair, roots in found.items():
            if roots:
                fields[pair].update(status=STATUS_ADMITS, roots=tuple(roots))
    return [PairVerdict(k1=pair.k1, k2=pair.k2, reduced=pair, **fields[pair]) for pair in pairs]


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
    admitting.  One worker body classifies a chunk of reduced pairs end
    to end, in stages; a pair leaves at its first failing stage, and its
    verdict records that error and keeps what the earlier stages found.
    The serial scan is one chunk of every pair, and ``jobs`` processes
    each take a round-robin chunk, receiving only pairs and returning
    only verdicts.  The result order (sorted by (k1, k2)) and content
    are independent of ``jobs``.
    """
    if k_max < 3:
        raise DomainError("scan needs k_max >= 3", k_max=k_max)
    if jobs < 1:
        raise DomainError("scan needs jobs >= 1", jobs=jobs)
    if refine and grid_size < _MIN_ROOT_GRID_SIZE:
        raise DomainError(f"root scan needs at least {_MIN_ROOT_GRID_SIZE} points", grid_size=grid_size)
    if refine:
        guard_grid_size(grid_size)
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
    if jobs > 1 and len(reduced) > 1:
        n = min(jobs, len(reduced))
        chunks = [(reduced[i::n], refine, grid_size) for i in range(n)]
        # Imported here: the pool's modules load only on this path.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n) as pool:
            classified = [v for chunk in pool.map(_classify_pairs, chunks) for v in chunk]
    else:
        classified = _classify_pairs((reduced, refine, grid_size))
    shared = {v.reduced: v for v in classified}
    for k1, k2 in work:
        verdicts.append(replace(shared[WaveNumberPair(k1, k2)], k1=k1, k2=k2))
    verdicts.sort(key=lambda v: (v.k1, v.k2))
    return verdicts
