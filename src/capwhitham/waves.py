"""Truncated Fourier solver for small-amplitude periodic travelling waves.

A candidate wave splits as u = v + w: the kernel part
v = r1*cos(k1*(x+theta1)) + r2*cos(k2*(x+theta2)) carries the two modal
amplitudes, and the remainder w (supported away from the kernel modes)
solves the fixed-point equation w = L P_W (v+w)^2, where L multiplies
mode k by ell(k) and P_W zeroes the kernel modes.  The four kernel
projections of the residual J(u) = (M_{T,kappa} - c)u + u^2 then reduce,
after division by the known amplitude monomials and sine factor, to a
small nonlinear system G(c, kappa, T) = 0 solved by Newton iteration
with the exact Jacobian of the reduced system.

Profiles are stored on the nonnegative half of the spectrum (modes
0..K); the negative modes are the complex conjugates, so every profile
is a real 2*pi-periodic function.  All products are computed alias-free
on a padded grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .coefficients import MultiplierContext, multiplier
from .errors import ConvergenceError, DomainError, SizeGuardError, TruncationError
from .symbol import WaveNumberPair, _symbol_partials, double_bifurcation, eval_symbol

__all__ = [
    "ModalParameters",
    "WaveProfile",
    "SolverSettings",
    "SolveReport",
    "WSolveResult",
    "synthesize_v",
    "asymmetry_test",
    "solve_w",
    "assemble_profile",
    "inner_products",
    "residual_j_inf",
    "variational_identity",
    "linear_dependence_residual",
    "solve_wave",
    "symmetric_solve",
]


@dataclass(frozen=True)
class ModalParameters:
    """Kernel-mode amplitudes and phases (r1, r2, theta1, theta2).

    The phases live on circles: theta1 matters modulo 2*pi/k1 and theta2
    modulo 2*pi/k2; ``reduced`` maps them into those fundamental domains.
    """

    r1: float
    r2: float
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        values = (self.r1, self.r2, self.theta1, self.theta2)
        if not all(math.isfinite(value) for value in values):
            raise DomainError(
                "modal parameters must be finite",
                r1=self.r1, r2=self.r2, theta1=self.theta1, theta2=self.theta2,
            )
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise DomainError("amplitudes must be nonnegative", r1=self.r1, r2=self.r2)

    def reduced(self, pair: WaveNumberPair) -> "ModalParameters":
        return replace(
            self,
            theta1=math.fmod(self.theta1, 2.0 * math.pi / pair.k1),
            theta2=math.fmod(self.theta2, 2.0 * math.pi / pair.k2),
        )


@dataclass(frozen=True, eq=False)
class WaveProfile:
    """A real trigonometric polynomial with its solve metadata.

    ``modes[k]`` for k = 0..K is the coefficient of exp(i*k*x); the
    coefficient of exp(-i*k*x) is its conjugate, so ``mode(-k)`` returns
    that.  ``c``, ``kappa`` and ``T`` are None for bare kernel profiles
    that have not been through a solve.  ``j_terms`` is computed on first
    use and kept; ``dataclasses.replace(profile)`` gives a copy without it.
    """

    modes: np.ndarray
    K: int
    pair: WaveNumberPair
    params: ModalParameters | None = None
    c: float | None = None
    kappa: float | None = None
    T: float | None = None

    def mode(self, k: int) -> complex:
        k = int(k)
        if abs(k) > self.K:
            return 0.0 + 0.0j
        if k >= 0:
            return complex(self.modes[k])
        return complex(np.conj(self.modes[-k]))

    def sample(self, n: int = 1024) -> np.ndarray:
        """Values on the uniform grid x_j = 2*pi*j/n."""
        if n < 2 * self.K + 2:
            raise TruncationError("sample grid too coarse for K", n=n, K=self.K)
        return _to_grid(self.modes, n)

    @cached_property
    def j_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms of J(u): modes 0..2K of u^2, and m_T(kappa*k) for k = 0..K."""
        if self.c is None or self.kappa is None or self.T is None:
            raise DomainError("profile carries no (c, kappa, T) metadata")
        m = eval_symbol(self.T, self.kappa * np.arange(self.K + 1))
        return _square_modes(self.modes, self.K), m


@dataclass(frozen=True)
class SolverSettings:
    """Truncation order 1 <= K <= 4096 and positive, finite w tolerance (Newton's: ``_TOL_NEWTON``)."""

    K: int = 64
    tol_w: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.tol_w < math.inf:
            raise DomainError("tolerances must be positive and finite", tol_w=self.tol_w)
        if self.K < 1:
            raise DomainError("truncation needs K >= 1", K=self.K)
        if self.K > _K_GUARD:
            raise SizeGuardError("truncation order exceeds the size guard", size=self.K, guard=_K_GUARD)


# Largest K: a solve builds dense (K-1)**2 arrays, 1.8 GB at K = 4096.
_K_GUARD = 4096
# Iteration budgets of the w fixed point, of one w-Newton stage, and of
# the parameter Newton with its trial steps (each half the last) per step.
_MAX_ITER_W = 200
_MAX_ITER_W_NEWTON = 60
_MAX_ITER_NEWTON = 50
_MAX_TRIALS = 11
# Bound on ||v||_inf before the w fixed point is attempted.
_AMPLITUDE_CAP = 0.3
# The parameter Newton stops once |g|_inf is at most this.
_TOL_NEWTON = 1e-12
# A report is converged when all three residuals are below these.
_TOL_RESIDUAL_J = 1e-10
_TOL_ORTHOGONALITY = 1e-12
_TOL_LINDEP = 1e-12
# Smallest |sin(k1 k2 (theta1 - theta2))| that asymmetry_test counts as
# asymmetric, and so the smallest sine the asymmetric solve divides by.
_SINE_GUARD = 1e-10
# The parameter Newton stops after a step no larger than this times |x|:
# its error is then of the order of that step's square, the rounding of x.
_STEP_FLOOR = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a wave solve.

    ``converged`` is true exactly when all three residual fields are
    below their fixed tolerances, which every returned report meets (a
    solve that misses them raises); ``g_inf`` records the final
    scaled kernel equations, whose attainable floor is limited by the
    division by amplitude monomials rather than by the solution quality,
    so it may stay above ``_TOL_NEWTON`` when the Newton ends on a
    rounding-size step.
    """

    converged: bool
    mode: str
    w_method: str
    iterations_w: int
    iterations_newton: int
    residual_J_inf: float
    residual_orthogonality: float
    residual_lindep: float
    g_inf: float
    c: float
    kappa: float
    T: float


@dataclass(frozen=True, eq=False)
class WSolveResult:
    """Solved remainder w with its iteration count and method tag.

    ``ell`` holds ell(k) for k = 0..K at the solve's (c, kappa, T).
    """

    w: WaveProfile
    iterations: int
    method: str
    ell: np.ndarray | None = None


def _to_grid(modes: np.ndarray, n: int) -> np.ndarray:
    """Evaluate a half-spectrum profile on n uniform grid points."""
    return np.fft.irfft(modes * n, n)


def _from_grid(values: np.ndarray, kmax: int) -> np.ndarray:
    """Read modes 0..kmax off a uniform-grid sampling."""
    return np.fft.rfft(values)[: kmax + 1] / len(values)


def _square_modes(modes: np.ndarray, K: int) -> np.ndarray:
    """Alias-free modes 0..2K of the square of a degree-K profile."""
    n = 4 * K + 4
    g = _to_grid(modes, n)
    return _from_grid(g * g, 2 * K)


def synthesize_v(pair: WaveNumberPair, params: ModalParameters, K: int = 64) -> WaveProfile:
    """Build the kernel profile v = r1*cos(k1*(x+theta1)) + r2*cos(k2*(x+theta2)).

    Requires K >= 2*k2 so that the square of v is resolvable on the
    truncation.
    """
    pair = WaveNumberPair.coerce(pair)
    if K < 2 * pair.k2:
        raise TruncationError("truncation must satisfy K >= 2*k2", K=K, k2=pair.k2)
    params = params.reduced(pair)
    modes = np.zeros(K + 1, dtype=complex)
    modes[pair.k1] = 0.5 * params.r1 * np.exp(1j * pair.k1 * params.theta1)
    modes[pair.k2] = 0.5 * params.r2 * np.exp(1j * pair.k2 * params.theta2)
    return WaveProfile(modes=modes, K=K, pair=pair, params=params)


def asymmetry_test(pair: WaveNumberPair, params: ModalParameters) -> bool:
    """True iff the kernel profile has no axis of even symmetry.

    The profile is asymmetric exactly when both amplitudes are nonzero
    and theta1 - theta2 is not a multiple of pi/(k1*k2), that is when
    sin(k1 k2 (theta1 - theta2)) is nonzero.  Numerically that sine, the
    factor the asymmetric solve divides by, must be at least 1e-10 in
    magnitude; phases nearer the lattice count as symmetric.  The sine is
    taken at the reduced phases, as the solvers take it, so the verdict
    does not depend on which representative of each phase is given.
    """
    pair = WaveNumberPair.coerce(pair)
    params = params.reduced(pair)
    nonzero = params.r1 != 0.0 and params.r2 != 0.0
    return nonzero and abs(_phase_sine(pair, params)) >= _SINE_GUARD


def _phase_sine(pair: WaveNumberPair, params: ModalParameters) -> float:
    """sin(k1 k2 (theta1 - theta2)), the factor the asymmetric solve divides by."""
    return math.sin(pair.k1 * pair.k2 * (params.theta1 - params.theta2))


def solve_w(
    v: WaveProfile,
    c: float,
    kappa: float,
    T: float,
    settings: SolverSettings | None = None,
    *,
    picard: bool = True,
) -> WSolveResult:
    """Solve the remainder equation w = L P_W (v+w)^2 on the truncation.

    The plain fixed-point iteration runs first (stopping when the
    update norm drops to ``tol_w``).  It stops contracting well below
    the amplitude cap when the multiplier values are large (near (2,5)
    bifurcation points the observed radius is about 0.013 per mode
    amplitude); when it diverges or misses its budget, a damped Newton
    iteration with amplitude continuation takes over, tracking the
    small-solution branch from small amplitude.  With ``picard=False``
    the fixed point is skipped and that Newton fallback runs at once,
    as the parameter Newton asks once the fixed point has failed in
    the same wave solve.  The returned w is zero exactly on the kernel
    modes.

    Raises
    ------
    ConvergenceError
        If no small solution is found (in particular past the fold
        where the small branch ceases to exist).
    """
    settings = settings or SolverSettings()
    K = v.K
    pair = v.pair
    vmax = float(np.max(np.abs(_to_grid(v.modes, 4 * K + 4))))
    if vmax > _AMPLITUDE_CAP:
        raise DomainError(
            "kernel amplitude exceeds the contraction cap",
            amplitude=vmax,
            cap=_AMPLITUDE_CAP,
        )
    ctx = MultiplierContext(pair=pair, c=c, kappa=kappa, T=T)
    ell = multiplier(ctx, np.arange(K + 1))
    method = "newton"
    if picard:
        try:
            w_modes, iterations = _solve_w_picard(v.modes, ell, K, settings)
            method = "picard"
        except ConvergenceError:
            pass
    if method == "newton":
        w_modes, iterations = _solve_w_newton(v.modes, ell, K, pair, settings)
    w = WaveProfile(
        modes=w_modes, K=K, pair=pair, params=v.params, c=c, kappa=kappa, T=T
    )
    return WSolveResult(w=w, iterations=iterations, method=method, ell=ell)


def _fixed_point_image(w_modes: np.ndarray, v_modes: np.ndarray, ell: np.ndarray, K: int) -> np.ndarray:
    """One application of w -> L P_W (v+w)^2.

    The operations of ``ell * _square_modes(v + w, K)[:K+1]``, with the
    division by the grid size kept to the modes that are used.
    """
    n = 4 * K + 4
    g = np.fft.irfft((v_modes + w_modes) * n, n)
    return ell * (np.fft.rfft(g * g)[: K + 1] / n)


def _solve_w_picard(
    v_modes: np.ndarray, ell: np.ndarray, K: int, settings: SolverSettings
) -> tuple[np.ndarray, int]:
    """Plain fixed-point iteration from w = 0."""
    w = np.zeros(K + 1, dtype=complex)
    growth = 0
    prev_delta = math.inf
    # Diverging iterates may overflow; nonfinite deltas are counted as
    # growth below, so silence the transient warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, _MAX_ITER_W + 1):
            w_next = _fixed_point_image(w, v_modes, ell, K)
            delta = float(np.abs(w_next - w).max())
            if delta <= settings.tol_w:
                return w_next, iteration
            if not math.isfinite(delta) or delta > prev_delta:
                growth += 1
                if growth >= 10:
                    raise ConvergenceError(
                        "fixed-point iterate norms grew for 10 consecutive steps",
                        last_delta=delta,
                    )
            else:
                growth = 0
            prev_delta = delta
            w = w_next
    raise ConvergenceError(
        "fixed point did not reach tolerance",
        iterations=_MAX_ITER_W,
        last_delta=delta,
        tol=settings.tol_w,
    )


@dataclass(frozen=True, eq=False)
class _IndexMap:
    """Index arrays of the packed remainder unknowns at one (pair, K).

    ``free`` holds the modes 0..K other than k1 and k2, and ``pack``
    reads the ``_pack`` layout off the float view of a half spectrum.
    ``toeplitz`` and ``hankel`` gather the two terms of each
    ``_w_jacobian`` entry from the extended spectrum, see there.  The
    arrays are read-only, since the map is shared.
    """

    K: int
    free: np.ndarray
    pack: np.ndarray
    toeplitz: np.ndarray
    hankel: np.ndarray


@lru_cache(maxsize=4)
def _index_map(pair: WaveNumberPair, K: int) -> _IndexMap:
    """The index arrays of the packed unknowns of (pair, K), built once."""
    free = np.array([k for k in range(K + 1) if k not in (pair.k1, pair.k2)])
    toeplitz = K + free[:, None] - free[None, :]
    hankel = K + free[:, None] + free[None, :]
    # Column m = 0 takes u[k] once: its Hankel term reads ext[3K], a zero.
    hankel[:, 0] = 3 * K
    pack = np.concatenate([2 * free, 2 * free[1:] + 1])
    index = _IndexMap(K, free, pack, toeplitz, hankel)
    for array in (free, pack, toeplitz, hankel):
        array.setflags(write=False)
    return index


def _pack(w: np.ndarray, index: _IndexMap) -> np.ndarray:
    """Real unknown vector [Re w_k (k free), Im w_k (k free, k != 0)].

    Packs along the last axis, so a stack of profiles packs at once;
    that axis must be contiguous, as in every freshly computed spectrum.
    """
    return w.view(float)[..., index.pack]


def _unpack(x: np.ndarray, index: _IndexMap) -> np.ndarray:
    w = np.zeros((*x.shape[:-1], index.K + 1), dtype=complex)
    nf = len(index.free)
    w[..., index.free] = x[..., :nf]
    w[..., index.free[1:]] += 1j * x[..., nf:]
    return w


def _w_jacobian(u: np.ndarray, ell: np.ndarray, index: _IndexMap) -> np.ndarray:
    """Packed Jacobian of F(w) = w - L P_W (v+w)^2 at u = v + w.

    The derivative of u^2 along delta is 2*u*delta.  At output mode k a
    real unit at free mode m > 0 gives u[k-m] + u[k+m], an imaginary
    unit i*(u[k-m] - u[k+m]), and the real unit at mode 0 gives u[k]
    alone, where u[-j] = conj(u[j]) and u[j] = 0 for j > K.  Gathering
    the Toeplitz (k-m) and Hankel (k+m) entries from one extended
    spectrum and scaling row k by 2*ell(k) gives the four real blocks of
    the ``_pack`` layout without any FFT.  ``index`` is the
    ``_index_map`` of u's pair and K.
    """
    ext = np.concatenate([np.conj(u[:0:-1]), u, np.zeros(index.K)])
    a, b = ext[index.toeplitz], ext[index.hankel]
    plus, minus = a + b, a - b
    scale = (-2.0 * ell[index.free])[:, None]
    nf = len(index.free)
    jac = np.empty((2 * nf - 1, 2 * nf - 1))
    np.multiply(scale, plus.real, out=jac[:nf, :nf])
    np.multiply(scale[1:], plus.imag[1:], out=jac[nf:, :nf])
    np.multiply(-scale, minus.imag[:, 1:], out=jac[:nf, nf:])
    np.multiply(scale[1:], minus.real[1:, 1:], out=jac[nf:, nf:])
    jac.ravel()[:: 2 * nf] += 1.0
    return jac


def _newton_w_step(
    v_modes: np.ndarray,
    ell: np.ndarray,
    index: _IndexMap,
    w0: np.ndarray,
    settings: SolverSettings,
) -> tuple[np.ndarray, int]:
    """Damped Newton for F(w) = w - L P_W (v+w)^2 from the given start."""
    K = index.K
    x = _pack(w0, index)

    def residual(xv: np.ndarray) -> np.ndarray:
        w = _unpack(xv, index)
        return _pack(w - _fixed_point_image(w, v_modes, ell, K), index)

    f = residual(x)
    norm = float(np.abs(f).max())
    for iteration in range(1, _MAX_ITER_W_NEWTON + 1):
        if norm <= settings.tol_w:
            return _unpack(x, index), iteration
        jac = _w_jacobian(v_modes + _unpack(x, index), ell, index)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular w-Jacobian", iteration=iteration) from exc
        t = 1.0
        while True:
            f_try = residual(x + t * step)
            norm_try = float(np.abs(f_try).max())
            if math.isfinite(norm_try) and norm_try <= (1.0 - 0.25 * t) * norm:
                break
            t *= 0.5
            if t < 1e-6:
                raise ConvergenceError(
                    "w-Newton line search failed (no nearby small solution)",
                    residual=norm,
                )
        x = x + t * step
        f = f_try
        norm = norm_try
    raise ConvergenceError("w-Newton did not converge", residual=norm)


def _solve_w_newton(
    v_modes: np.ndarray,
    ell: np.ndarray,
    K: int,
    pair: WaveNumberPair,
    settings: SolverSettings,
) -> tuple[np.ndarray, int]:
    """Newton solve of the w equation with continuation in amplitude.

    Scales the kernel profile by s and climbs s -> 1, warm-starting each
    stage from the last solved w; raises with diagnostics when the
    small-solution branch folds before full amplitude.
    """
    index = _index_map(pair, K)
    w = np.zeros(K + 1, dtype=complex)
    total_iterations = 0
    s_done = 0.0
    ds = 1.0
    while s_done < 1.0:
        s = min(1.0, s_done + ds)
        try:
            w_new, iterations = _newton_w_step(s * v_modes, ell, index, w, settings)
        except ConvergenceError:
            ds *= 0.5
            if ds < 1.0 / 512.0:
                raise ConvergenceError(
                    "small-solution branch lost before full amplitude "
                    "(fold in the w equation)",
                    amplitude_fraction=s_done,
                ) from None
            continue
        total_iterations += iterations
        w = w_new
        s_done = s
        ds = min(1.5 * ds, 1.0)
    return w, total_iterations


def assemble_profile(v: WaveProfile, w: WaveProfile, c: float, kappa: float, T: float) -> WaveProfile:
    """Combine kernel and remainder parts into the full profile u = v + w."""
    return WaveProfile(
        modes=v.modes + w.modes,
        K=v.K,
        pair=v.pair,
        params=v.params,
        c=c,
        kappa=kappa,
        T=T,
    )


def _j_modes(profile: WaveProfile) -> np.ndarray:
    """Alias-free modes 0..2K of J(u) = (M_{T,kappa} - c)u + u^2."""
    square, m = profile.j_terms
    j = square.astype(complex)
    j[: profile.K + 1] += (m - profile.c) * profile.modes
    return j


def residual_j_inf(profile: WaveProfile) -> float:
    """Sup over resolved modes 0..K of |J(u)_k|."""
    j = _j_modes(profile)
    return float(np.max(np.abs(j[: profile.K + 1])))


def inner_products(profile: WaveProfile) -> tuple[float, float, float, float]:
    """Kernel projections of I = J(u) in the (1/2pi) integral convention.

    Returns (<I, v1_cos>, <I, v2_cos>, <I, v1_sin>, <I, v2_sin>) where
    v1_cos = cos(k1*(x+theta1)) and so on with the profile's phases.
    """
    if profile.params is None:
        raise DomainError("profile carries no modal parameters")
    j = _j_modes(profile)
    # Modes above 2K of J are zero: the zero wave allows 2K < k2.
    j1, j2 = (j[k] if k < len(j) else 0.0 for k in (profile.pair.k1, profile.pair.k2))
    return tuple(float(p) for p in _project(j1, j2, profile))


def _project(j1, j2, profile: WaveProfile) -> tuple:
    """The four kernel projections of modes k1 and k2 of J (or of a derivative of J)."""
    pair, params = profile.pair, profile.params
    z1 = j1 * np.exp(-1j * pair.k1 * params.theta1)
    z2 = j2 * np.exp(-1j * pair.k2 * params.theta2)
    return (z1.real, z2.real, -z1.imag, -z2.imag)


def variational_identity(profile: WaveProfile) -> tuple[float, float]:
    """Exact orthogonality <J(u), u'> and its natural scale.

    Returns (inner, scale) with inner = <J(u), u'> computed alias-free
    and scale = ||J(u)||_2 * ||u'||_2 in the same convention; the inner
    product vanishes for every real trigonometric polynomial because the
    multiplier is real and even and the cubic term integrates away.
    """
    j = _j_modes(profile)
    K = profile.K
    k = np.arange(K + 1)
    uprime = 1j * k * profile.modes
    inner = float(np.sum(2.0 * (j[: K + 1] * np.conj(uprime)).real[1:]))
    jnorm = math.sqrt(float(abs(j[0]) ** 2 + 2.0 * np.sum(np.abs(j[1:]) ** 2)))
    unorm = math.sqrt(float(2.0 * np.sum(np.abs(uprime[1:]) ** 2)))
    return inner, jnorm * unorm


def linear_dependence_residual(profile: WaveProfile) -> float:
    """The combination k1*r1*<I, v1_sin> + k2*r2*<I, v2_sin>.

    Equal to -<J(u), v'>, so it vanishes (to ten times the w tolerance)
    whenever the remainder equation is solved, for any (c, kappa, T).
    """
    _, _, s1, s2 = inner_products(profile)
    params = profile.params
    pair = profile.pair
    return pair.k1 * params.r1 * s1 + pair.k2 * params.r2 * s2


def _parameter_jacobian(
    profile: WaveProfile, equations: tuple[tuple[int, float], ...], ell: np.ndarray
) -> np.ndarray:
    """Exact derivative of the scaled kernel equations along (c, kappa, T).

    Column p is the derivative along the p-th of the first
    ``len(equations)`` parameters at a profile whose remainder solves
    F(w; p) = w - ell P_W u^2 = 0.  With ell = (c - m)^-1 and
    dm_p = d(m - c)/dp, i.e. -1 for c, k d_xi m_T(kappa k) for kappa and
    d_T m_T(kappa k) for T (both from ``_symbol_partials``), the implicit
    function theorem gives dw/dp = F_w^-1 (ell^2 dm_p u^2), one linear
    solve for all columns.  At a kernel mode k, where w is zero,
    dJ_k/dp = dm_p(k) v_k + 2 (u dw/dp)_k, projected and scaled like
    the equations themselves.  ``ell`` holds ell(k) for k = 0..K, the
    ``WSolveResult.ell`` of the profile's remainder solve.
    """
    K, pair, u = profile.K, profile.pair, profile.modes
    square = profile.j_terms[0]
    rows = [np.full(K + 1, -1.0)]
    if len(equations) > 1:
        k = np.arange(K + 1)
        _, dxi, dT = _symbol_partials(profile.T, profile.kappa * k)
        rows += [k * dxi, dT]
    dm = np.array(rows[: len(equations)])
    index = _index_map(pair, K)
    rhs = ell * ell * dm * square[: K + 1]
    dx = np.linalg.solve(_w_jacobian(u, ell, index), _pack(rhs, index).T)
    dw = _unpack(dx.T, index)
    # Mode k of a product: the full spectra -K..K of u and dw, the first
    # reversed, overlap on modes k-K..K.
    u_full = np.concatenate([np.conj(u[:0:-1]), u])
    dw_full = np.concatenate([np.conj(dw[:, :0:-1]), dw], axis=1)
    dj1, dj2 = (
        dm[:, kk] * u[kk] + 2.0 * (dw_full[:, kk:] @ u_full[kk:][::-1])
        for kk in (pair.k1, pair.k2)
    )
    projections = _project(dj1, dj2, profile)
    return np.array([projections[index] / divisor for index, divisor in equations])


def _solve_kernel(
    pair: WaveNumberPair,
    params: ModalParameters,
    T: float,
    settings: SolverSettings,
    mode: str,
    equations: tuple[tuple[int, float], ...],
) -> tuple[WaveProfile, SolveReport]:
    """Newton on the scaled kernel equations of one wave mode.

    Each entry (index, divisor) of ``equations`` is the equation
    ``inner_products(profile)[index] / divisor = 0``.  Newton runs on the
    first ``len(equations)`` entries of (c, kappa, T) from the
    bifurcation point at T; the other entries stay fixed there.  Every
    iterate or halved trial re-solves the remainder equation, and every
    step takes the exact Jacobian of :func:`_parameter_jacobian`.  The
    remainder solves try the fixed point until one of them returns by
    the Newton fallback; the later ones of this call go to that fallback
    directly, and a trial that raises changes nothing.  It
    stops at |g|_inf <= ``_TOL_NEWTON``, or after an accepted step with
    |step_i| <= sqrt(eps) |x_i|: g bottoms out at a rounding floor set by
    the amplitude monomials, often above ``_TOL_NEWTON``, while the error
    after such a step is of the order of its square.  With no equations
    the zero wave at the bifurcation point is reported after no steps.
    The last iterate is returned only if it meets the residual tolerances.
    """
    # The zero wave needs no kernel profile, so no K >= 2*k2 either.
    v = synthesize_v(pair, params, settings.K) if equations else None
    point = double_bifurcation(pair, T)
    start = (point.c0, point.kappa0, float(T))
    free = len(equations)
    picard = True

    def evaluate(x: np.ndarray) -> tuple[WaveProfile, WSolveResult, np.ndarray]:
        """The iterate at x: its profile, remainder solve and g."""
        nonlocal picard
        c, kappa, t = (*x, *start[free:])
        if v is None:
            modes = np.zeros(settings.K + 1, dtype=complex)
            zero = WaveProfile(modes, settings.K, pair, ModalParameters(0.0, 0.0), c, kappa, t)
            return zero, WSolveResult(w=zero, iterations=0, method="none"), np.zeros(0)
        result = solve_w(v, c, kappa, t, settings, picard=picard)
        picard = result.method == "picard"
        profile = assemble_profile(v, result.w, c, kappa, t)
        projections = inner_products(profile)
        return profile, result, np.array([projections[i] / d for i, d in equations])

    x = np.array(start[:free])
    profile, wres, g = evaluate(x)
    g_inf = float(np.max(np.abs(g), initial=0.0))
    steps = 0
    while g_inf > _TOL_NEWTON:
        if steps == _MAX_ITER_NEWTON:
            raise ConvergenceError(
                "Newton did not converge within the step budget",
                steps=_MAX_ITER_NEWTON,
                residual=g_inf,
            )
        steps += 1
        try:
            jac = _parameter_jacobian(profile, equations, wres.ell)
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular parameter Jacobian", step=steps) from exc
        scale = 1.0
        for _ in range(_MAX_TRIALS):
            try:
                trial = evaluate(x + scale * delta)
            except (DomainError, ConvergenceError):
                pass
            else:
                if np.all(np.isfinite(trial[2])):
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "Newton step left the evaluable domain", step=steps, residual=g_inf
            )
        step = scale * delta
        x = x + step
        profile, wres, g = trial
        g_inf = float(np.max(np.abs(g)))
        if np.all(np.abs(step) <= _STEP_FLOOR * np.abs(x)):
            break
    rj = residual_j_inf(profile)
    orth, _ = variational_identity(profile)
    lindep = linear_dependence_residual(profile)
    converged = (
        rj <= _TOL_RESIDUAL_J
        and abs(orth) <= _TOL_ORTHOGONALITY
        and abs(lindep) <= _TOL_LINDEP
    )
    if not converged:
        raise ConvergenceError(
            "parameter Newton ended at a non-solution",
            reason="stalled" if g_inf > _TOL_NEWTON else "residuals above tolerance",
            g_inf=g_inf,
            residual_J_inf=rj,
        )
    report = SolveReport(
        converged=converged,
        mode=mode,
        w_method=wres.method,
        iterations_w=wres.iterations,
        iterations_newton=steps,
        residual_J_inf=rj,
        residual_orthogonality=orth,
        residual_lindep=lindep,
        g_inf=g_inf,
        c=profile.c,
        kappa=profile.kappa,
        T=profile.T,
    )
    return profile, report


def solve_wave(
    pair: WaveNumberPair,
    params: ModalParameters,
    T_init: float,
    settings: SolverSettings | None = None,
) -> tuple[WaveProfile, SolveReport]:
    """Construct a small-amplitude wave by Newton on (c, kappa, T).

    For genuinely asymmetric parameters the three scaled kernel
    equations g1 = <I,v1_cos>/r1, g2 = <I,v2_cos>/r2 and
    g3 = <I,v1_sin>/(r1^(k2-1) r2^k1 sin(k1 k2 (theta1-theta2)))
    are driven to zero from the bifurcation point at T_init, re-solving
    the remainder equation at every iterate, with the exact Jacobian of
    the reduced system.  Parameters that :func:`asymmetry_test` counts as
    symmetric, phases within its sine guard of the lattice included,
    route to :func:`symmetric_solve` at fixed T.

    A returned report is always converged.  The parameter Newton, the
    loop of ``_solve_kernel`` that every wave mode shares, stops when g
    is within ``_TOL_NEWTON`` (1e-12) or after a step at the rounding of
    (c, kappa, T); its last iterate is returned only if it meets the
    residual tolerances.

    Raises
    ------
    ConvergenceError
        If the remainder or parameter iteration fails outright (in
        particular for amplitudes beyond the small-solution fold), or if
        the parameter Newton ends at a point that misses the residual
        tolerances; its context then holds ``reason``, ``g_inf`` and
        ``residual_J_inf``.
    """
    pair = WaveNumberPair.coerce(pair)
    settings = settings or SolverSettings()
    params = params.reduced(pair)
    if not asymmetry_test(pair, params):
        return symmetric_solve(pair, params, T_init, settings)
    monomial = params.r1 ** (pair.k2 - 1) * params.r2**pair.k1 * _phase_sine(pair, params)
    equations = ((0, params.r1), (1, params.r2), (2, monomial))
    return _solve_kernel(pair, params, T_init, settings, "asymmetric", equations)


def symmetric_solve(
    pair: WaveNumberPair,
    params: ModalParameters,
    T: float,
    settings: SolverSettings | None = None,
) -> tuple[WaveProfile, SolveReport]:
    """Solve for a symmetric wave at fixed T.

    Bimodal symmetric parameters (both amplitudes positive, phase
    difference on the symmetric lattice) give a two-variable Newton on
    (c, kappa); the sine-factored equations are verified to vanish
    rather than solved.  Unimodal parameters leave the period scaling
    free, so kappa is frozen at the bifurcation value and Newton runs on
    the wave speed alone.  Zero amplitudes give the zero wave at the
    bifurcation point, after no Newton step.
    """
    pair = WaveNumberPair.coerce(pair)
    settings = settings or SolverSettings()
    params = params.reduced(pair)
    if asymmetry_test(pair, params):
        raise DomainError("parameters are asymmetric; use solve_wave")
    # One cosine equation per nonzero amplitude; none gives the zero wave.
    equations = tuple(
        (index, r) for index, r in enumerate((params.r1, params.r2)) if r != 0.0
    )
    mode = ("trivial", "unimodal", "symmetric")[len(equations)]
    return _solve_kernel(pair, params, T, settings, mode, equations)
