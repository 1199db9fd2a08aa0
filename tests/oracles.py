"""Frozen reference values and independent oracles for the test suite.

The constants below were computed with mpmath at 40 significant digits by
the regeneration block at the bottom of this file (run it with
``python3 tests/oracles.py``).  They rely only on the explicit formula
for the dispersion symbol and the hand-typed grouped monomial list
``MONOMIALS_2_5``, never on the package's own recursion code, so they
can arbitrate its correctness.

``series_squaring_oracle`` is a structurally independent implementation
of the coefficient computation: instead of the index recursion it
iterates the truncated functional equation U = V + L[U^2] globally on a
dense 4-index polynomial and squares by a truncated direct sum.

``exact_phi_monomials`` is an independent exact expansion of phi: a
memoized recursion on single coefficients, in plain dicts keyed by sorted
factor tuples, that sums every splitting in both orders.

``table_ell`` is the per-|k| reference for the cell multipliers of a
coefficient table: it asks ell once per |k| as the cells come, in place
of one call on every |k| at once.

``unimodal_c2`` and ``bimodal_shift`` are the closed-form order-r^2
parameter shifts of small symmetric waves, from the r^3 cosine
equations with the remainder w = L P_W v^2, evaluated with this file's
own ``symbol``.

``kappa_asymptote_low_T`` and ``kappa_asymptote_high_T`` are the
leading-order closed forms of the bifurcation scaling kappa0 as the
tension nears 0 and 1/3, an independent check of the bifurcation solve
at the ends of the weak-tension range.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# Dispersion symbol values m_T(xi) = sqrt((1 + T xi^2) tanh(xi) / xi).
SYMBOL_T025_XI1 = 0.97570112992898912
SYMBOL_T01_XI25 = 0.8008116468923449

# Minimizer xi_T of the symbol at T = 0.32.
TURNING_T032 = 0.54658771126180909

# Double bifurcation point of the pair (2, 5) at T = 0.1215.
KAPPA0_2_5_T01215 = 0.83572489403556566
C0_2_5_T01215 = 0.86409809853583313

# phi(0.1215; 2, 5) via the exact 13-monomial expansion (40-digit
# bifurcation solve).  Double-precision evaluations agree only to about
# 1e-8 relative because the 13 terms cancel from magnitude ~1e7.
PHI_2_5_T01215 = 75.778072220268168

# The unique zero of phi(T; 2, 5) on (0, 1/3) and data at the root.
T0_2_5 = 0.12147441822803752
KAPPA0_2_5_AT_T0 = 0.83584590616395969
C0_2_5_AT_T0 = 0.86405898821476778
PHI_SLOPE_AT_T0 = 2960854.7

# Normalized limits of phi/ell(6)^4 for (2, 5).  The T -> 1/3 value is
# the exact rational 163531984/255879.
PHI_LIMIT_HIGH_2_5 = float(Fraction(163531984, 255879))
PHI_LIMIT_LOW_2_5 = -0.21263965855421453

# Normalized limits of phi/ell(4) for (1, 3); the high value is -21/4.
PHI_LIMIT_HIGH_1_3 = -5.25
PHI_LIMIT_LOW_1_3 = -1.0419272465126322

# The complete grouped expansion of phi(T; 2, 5): prefactor 1/2^6 and 13
# monomials {sorted ell-argument tuple: integer weight}.  Weights sum to
# N = 630 and every monomial has M = 4 factors.
PREFACTOR_EXPONENT_2_5 = 6
MONOMIALS_2_5 = {
    (1, 1, 3, 3): 80,
    (1, 1, 3, 4): 80,
    (1, 1, 4, 4): 20,
    (1, 3, 3, 4): 80,
    (1, 3, 4, 4): 40,
    (1, 3, 4, 6): 80,
    (1, 4, 4, 6): 40,
    (3, 3, 4, 6): 40,
    (3, 4, 4, 8): 20,
    (3, 4, 6, 8): 80,
    (4, 4, 6, 10): 20,
    (4, 4, 8, 10): 10,
    (4, 6, 8, 10): 40,
}


def phi_from_monomials(ell) -> float:
    """Evaluate phi(T; 2, 5) from the hand-typed monomial table."""
    total = 0.0
    for factors, coeff in MONOMIALS_2_5.items():
        term = float(coeff)
        for f in factors:
            term *= ell(f)
        total += term
    return total / 2.0**PREFACTOR_EXPONENT_2_5


def _truncated_square(u, mask):
    """Square of the dense polynomial u, keeping total degree inside ``mask``.

    Sums u[p] * u[q] into entry p + q for every nonzero entry p, as one
    shifted slice of u per p; products past the array or past the
    degree mask are dropped.
    """
    n = u.shape[0]
    sq = np.zeros_like(u)
    for p in np.argwhere(u != 0.0):
        a1, a2, b1, b2 = p
        sq[a1:, a2:, b1:, b2:] += u[a1, a2, b1, b2] * u[: n - a1, : n - a2, : n - b1, : n - b2]
    sq[~mask] = 0.0
    return sq


def series_squaring_oracle(k1: int, k2: int, ell, degree: int):
    """Solve U = V + L[U^2] globally on the truncated polynomial ring.

    U is a dense real array indexed by (a1, a2, b1, b2) with total degree
    <= ``degree``; entry (alpha, beta) is the coefficient u_hat_{alpha,beta}.
    V places 1/2 at the four first-order indices.  L multiplies entry
    (alpha, beta) by ell(k1 (a1-b1) + k2 (a2-b2)); ``ell`` must vanish on
    the kernel wavenumbers, which makes the four kernel equations and the
    zeroth-order equation hold automatically.  Squaring is a truncated
    direct sum over the nonzero entries of U, so this shares no code path
    with the table recursion it checks.

    Returns ``(u, u2)`` where u2 is the truncated square of u.
    """
    n = degree + 1
    shape = (n, n, n, n)
    grid = np.indices(shape)
    total = grid.sum(axis=0)
    mask = total <= degree

    ell_arr = np.zeros(shape)
    for a1, a2, b1, b2 in np.argwhere(mask):
        ell_arr[a1, a2, b1, b2] = ell(k1 * (a1 - b1) + k2 * (a2 - b2))

    v = np.zeros(shape)
    v[1, 0, 0, 0] = 0.5
    v[0, 1, 0, 0] = 0.5
    v[0, 0, 1, 0] = 0.5
    v[0, 0, 0, 1] = 0.5

    u = v.copy()
    for _ in range(degree + 2):
        u_next = v + ell_arr * _truncated_square(u, mask)
        if np.array_equal(u_next, u):
            break
        u = u_next
    return u, _truncated_square(u, mask)


def exact_phi_monomials(k1: int, k2: int) -> dict:
    """Exact 2**(k1+k2-1) * phi(T; k1, k2) as {ascending ell-argument tuple: weight}.

    The scaled coefficients s = 2**order * u_hat of U = V + L[U^2] are 1
    at order one and ell(k) times the scaled square at higher orders; the
    scaled square of a cell sums s(left) * s(right) over every splitting
    into two parts of order >= 1.  phi is the square at the target
    ((k2-1, 0), (0, k1)).  ell(k) is the one-factor monomial (|k|,), and
    zero on the kernel wavenumbers k1, k2.
    """

    def times(p, q):
        out = {}
        for fp, cp in p.items():
            for fq, cq in q.items():
                key = tuple(sorted(fp + fq))
                out[key] = out.get(key, 0) + cp * cq
        return out

    def square(cell):
        out = {}
        for left in itertools.product(*(range(n + 1) for n in cell)):
            right = tuple(n - m for n, m in zip(cell, left))
            if sum(left) and sum(right):
                for key, coeff in times(s(left), s(right)).items():
                    out[key] = out.get(key, 0) + coeff
        return out

    @functools.cache
    def s(cell):
        if sum(cell) == 1:
            return {(): 1}
        k = abs(k1 * (cell[0] - cell[2]) + k2 * (cell[1] - cell[3]))
        if k in (k1, k2):
            return {}
        return times({(k,): 1}, square(cell))

    return square((k2 - 1, 0, 0, k1))


def table_ell(pair, corner, ell, one=1.0):
    """The cell multiplier of one pair's table below ``corner``.

    A cell of wavenumber k takes ell(|k|), asked once per |k| (``ell``
    must be even), and the corner takes ``one``.
    """
    k1, k2 = pair.k1, pair.k2
    ells = {}

    def at(cell):
        if cell == corner:
            return one
        c0, c1, c2, c3 = cell
        k = abs(k1 * (c0 - c2) + k2 * (c1 - c3))
        if k not in ells:
            ells[k] = ell(k)
        return ells[k]

    return at


def symbol(T, xi):
    """The dispersion symbol m_T(xi) = sqrt((1 + T xi^2) tanh(xi) / xi), m_T(0) = 1."""
    if xi == 0.0:
        return 1.0
    return math.sqrt((1.0 + T * xi * xi) * math.tanh(xi) / xi)


def symbol_deriv(T, xi):
    """m_T'(xi) for xi > 0: half the derivative of m_T^2, divided by m_T."""
    t = math.tanh(xi)
    square = 2.0 * T * t + (1.0 + T * xi * xi) * (xi * (1.0 - t * t) - t) / (xi * xi)
    return square / (2.0 * symbol(T, xi))


def kappa_asymptote_low_T(k1, k2, T):
    """kappa0 ~ 1 / sqrt(k1 k2 T) as T -> 0."""
    return 1.0 / math.sqrt(k1 * k2 * T)


def kappa_asymptote_high_T(k1, k2, T):
    """kappa0 ~ sqrt((1/3 - T) 45 / (k1^2 + k2^2)) as T -> 1/3."""
    return math.sqrt((1.0 / 3.0 - T) * 45.0 / (k1 * k1 + k2 * k2))


def _ell(T, c0, kappa0):
    """ell(n) = 1 / (c0 - m_T(kappa0 n)) at a bifurcation point; ell(0) = 1 / (c0 - 1)."""
    return lambda n: 1.0 / (c0 - symbol(T, kappa0 * n))


def unimodal_c2(T, c0, kappa0, k):
    """c2 of c = c0 + c2 r^2 + O(r^4) for the wave r cos(k x) at kappa = kappa0.

    Mode k of 2 v w, with w = L P_W v^2 = r^2 (ell(0) + ell(2k) cos(2kx)) / 2,
    balances (c - c0) v there: c2 = ell(0) + ell(2k)/2.
    """
    ell = _ell(T, c0, kappa0)
    return ell(0) + ell(2 * k) / 2.0


def bimodal_shift(T, c0, kappa0, k1, k2, r1, r2):
    """Leading (c - c0, kappa - kappa0) of the symmetric wave r1 cos(k1 x) + r2 cos(k2 x).

    With S = ell(k2-k1) + ell(k1+k2) and m'_j = m_T'(kappa0 k_j), the two
    r^3 cosine equations are the 2x2 linear system

        dc - k1 m'_1 dkappa = ell(0)(r1^2+r2^2) + ell(2k1) r1^2/2 + S r2^2
        dc - k2 m'_2 dkappa = ell(0)(r1^2+r2^2) + ell(2k2) r2^2/2 + S r1^2.

    It needs the modes 0, 2k1, 2k2 and k2 +- k1 of v^2, and the modes
    that 2 v w sends to k1 and k2, to be these alone: k2 = 2k1 puts mode
    2k1 in the kernel, and k2 = 3k1 sends mode 2k1 to k1 and k2 as well.
    """
    if k2 in (2 * k1, 3 * k1):
        raise ValueError(f"no closed form for the resonant pair ({k1}, {k2})")
    ell = _ell(T, c0, kappa0)
    s = ell(k2 - k1) + ell(k1 + k2)
    common = ell(0) * (r1 * r1 + r2 * r2)
    b1 = common + ell(2 * k1) * r1 * r1 / 2.0 + s * r2 * r2
    b2 = common + ell(2 * k2) * r2 * r2 / 2.0 + s * r1 * r1
    a1 = k1 * symbol_deriv(T, kappa0 * k1)
    a2 = k2 * symbol_deriv(T, kappa0 * k2)
    dkappa = (b1 - b2) / (a2 - a1)
    return b1 + a1 * dkappa, dkappa


if __name__ == "__main__":
    import mpmath as mp

    mp.mp.dps = 40

    def msym(T, x):
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(1)
        return mp.sqrt((1 + T * x * x) * mp.tanh(x) / x)

    def bifurcation(T, k1=2, k2=5):
        h = lambda k: msym(T, k1 * k) - msym(T, k2 * k)
        prev_x, prev_h = None, None
        bracket = None
        for i in range(401):
            x = mp.mpf("0.05") * mp.mpf(60) ** (mp.mpf(i) / 400)
            hx = h(x)
            if prev_h is not None and prev_h * hx < 0:
                bracket = (prev_x, x)
                break
            prev_x, prev_h = x, hx
        kap = mp.findroot(h, bracket, solver="anderson", tol=mp.mpf(10) ** -30)
        return kap, msym(T, k1 * kap)

    def phi(T):
        kap, c0 = bifurcation(T)
        ell = {n: 1 / (c0 - msym(T, kap * n)) for n in (1, 3, 4, 6, 8, 10)}
        total = mp.mpf(0)
        for factors, coeff in MONOMIALS_2_5.items():
            term = mp.mpf(coeff)
            for f in factors:
                term *= ell[f]
            total += term
        return total / 64

    print("SYMBOL_T025_XI1 =", mp.nstr(msym(mp.mpf("0.25"), 1), 17))
    print("SYMBOL_T01_XI25 =", mp.nstr(msym(mp.mpf("0.1"), mp.mpf("2.5")), 17))
    xi = mp.findroot(
        lambda x: mp.diff(lambda y: msym(mp.mpf("0.32"), y), x), mp.mpf("0.55")
    )
    print("TURNING_T032 =", mp.nstr(xi, 17))

    kap, c0 = bifurcation(mp.mpf("0.1215"))
    print("KAPPA0_2_5_T01215 =", mp.nstr(kap, 17))
    print("C0_2_5_T01215 =", mp.nstr(c0, 17))
    print("PHI_2_5_T01215 =", mp.nstr(phi(mp.mpf("0.1215")), 17))

    a, b = mp.mpf("0.118"), mp.mpf("0.125")
    fa = phi(a)
    for _ in range(120):
        mid = (a + b) / 2
        fm = phi(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    T0 = (a + b) / 2
    print("T0_2_5 =", mp.nstr(T0, 17))
    kap0, c00 = bifurcation(T0)
    print("KAPPA0_2_5_AT_T0 =", mp.nstr(kap0, 17))
    print("C0_2_5_AT_T0 =", mp.nstr(c00, 17))
    hs = mp.mpf(10) ** -8
    print("PHI_SLOPE_AT_T0 =", mp.nstr((phi(T0 + hs) - phi(T0 - hs)) / (2 * hs), 8))

    def g(m, k1=2, k2=5):
        return -Fraction(m * m - k1 * k1) * Fraction(m * m - k2 * k2)

    hi = Fraction(0)
    for factors, coeff in MONOMIALS_2_5.items():
        term = Fraction(coeff, 64)
        for f in factors:
            term *= g(6) / g(f)
        hi += term
    print("PHI_LIMIT_HIGH_2_5 =", hi)

    def br(m):
        return mp.sqrt(7) - mp.sqrt(mp.mpf(10) / m + m)

    lo = mp.mpf(0)
    for factors, coeff in MONOMIALS_2_5.items():
        term = mp.mpf(coeff) / 64
        for f in factors:
            term *= br(6) / br(f)
        lo += term
    print("PHI_LIMIT_LOW_2_5 =", mp.nstr(lo, 17))

    print("PHI_LIMIT_HIGH_1_3 =", Fraction(6, 8) * g(4, 1, 3) / g(2, 1, 3))
    br13 = lambda m: mp.sqrt(4) - mp.sqrt(mp.mpf(3) / m + m)
    print("PHI_LIMIT_LOW_1_3 =", mp.nstr(mp.mpf(6) / 8 * br13(4) / br13(2), 17))
