"""Resolvent multiplier and the memoized Taylor-Fourier coefficient recursion.

Small-amplitude solutions of the steady equation expand in powers of the
two modal amplitudes.  Their Taylor-Fourier coefficients u_hat_{alpha,beta},
indexed by a pair of multi-indices alpha, beta in N0^2, obey a quadratic
convolution recursion weighted by the multiplier

    ell(k) = 0                     for |k| in {k1, k2}
    ell(k) = 1 / (c - m_T(kappa*|k|))   otherwise,

with m_T(0) = 1 at k = 0.  The recursion runs here over a pluggable scalar
algebra, giving three interchangeable evaluation modes:

* numeric -- floats, ell evaluated at a concrete (c, kappa, T);
* limit-ratio -- floats, ell replaced by its normalized endpoint limits
  rho(n) = lim ell(n)/ell(k2+1) as T -> 0 or T -> 1/3 (valid because every
  term of the target is homogeneous of the same degree in ell);
* symbolic -- exact integer-weighted monomials in the ell factors.

Internally the engine computes the scaled values
s(alpha, beta) = 2**(|alpha|+|beta|) * u_hat_{alpha,beta}, whose base case
is 1 instead of 1/2; in symbolic mode all weights are then exact integers.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearResonanceError, SizeGuardError
from .symbol import BifurcationPoint, WaveNumberPair, eval_symbol

__all__ = [
    "MultiIndex",
    "MultiplierContext",
    "Monomial",
    "PhiExpansion",
    "multiplier",
    "numeric_session",
    "grid_session",
    "limit_session",
    "expand_symbolic",
    "expansion_size",
    "limit_ratio",
    "phi_target_indices",
    "CoefficientSession",
    "LIMIT_LOW_T",
    "LIMIT_HIGH_T",
    "NEAR_RESONANCE_TOL",
    "SIZE_GUARD",
]

MultiIndex = tuple[int, int]

# Endpoint labels for limit-ratio evaluations.
LIMIT_LOW_T = "T->0"
LIMIT_HIGH_T = "T->1/3"

# Guard on |c - m_T(kappa*k)| for non-kernel wavenumbers.
NEAR_RESONANCE_TOL = 1e-13

# Refuse symbolic expansions whose exact monomial count exceeds this.
SIZE_GUARD = 10**8


@dataclass(frozen=True)
class MultiplierContext:
    """Environment (pair, c, kappa, T) of the multiplier ell(k).

    Usually built at (or near) a solved bifurcation point, where the
    kernel modes k1, k2 are the only integer resonances.
    """

    pair: WaveNumberPair
    c: float
    kappa: float
    T: float

    def __post_init__(self):
        if not (self.c > 0.0 and self.kappa > 0.0 and self.T > 0.0):
            raise DomainError(
                "context requires c, kappa, T > 0",
                c=self.c,
                kappa=self.kappa,
                T=self.T,
            )

    @classmethod
    def from_bifurcation(cls, point: BifurcationPoint) -> "MultiplierContext":
        return cls(pair=point.pair, c=point.c0, kappa=point.kappa0, T=point.T)

    def ell(self, k: int) -> float:
        return multiplier(self, k)


def multiplier(ctx: MultiplierContext, k: int) -> float:
    """Evaluate ell(k) = (c - m_T(kappa*|k|))**-1, zeroed on kernel modes.

    Raises
    ------
    NearResonanceError
        If |c - m_T(kappa*k)| < 1e-13 for a non-kernel wavenumber k.
    """
    k = abs(int(k))
    if k == ctx.pair.k1 or k == ctx.pair.k2:
        return 0.0
    m = 1.0 if k == 0 else eval_symbol(ctx.T, ctx.kappa * k)
    den = ctx.c - m
    if abs(den) < NEAR_RESONANCE_TOL:
        raise NearResonanceError(
            "wave speed resonates with a non-kernel mode", k=k, denominator=den
        )
    return 1.0 / den


class _FloatAlgebra:
    """Float scalars with ell(k) drawn from a callable."""

    zero = 0.0
    one = 1.0

    def __init__(self, ell):
        self._ell = ell

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def apply_ell(self, k, value):
        return self._ell(k) * value


class _MonomialAlgebra:
    """Exact integer-weighted monomials {sorted factor tuple: coeff}.

    Applying ell(k) appends the factor |k| to every monomial.  Kernel or
    zero wavenumbers never occur on the phi path for a coprime pair;
    encountering one would silently change the term count, so it raises.
    """

    zero: dict = {}
    one = {(): 1}

    def __init__(self, pair: WaveNumberPair):
        self._forbidden = {0, pair.k1, pair.k2}

    def add(self, a, b):
        out = dict(a)
        for factors, coeff in b.items():
            total = out.get(factors, 0) + coeff
            if total:
                out[factors] = total
            else:
                del out[factors]
        return out

    def mul(self, a, b):
        out: dict = {}
        for fa, ca in a.items():
            for fb, cb in b.items():
                key = tuple(sorted(fa + fb))
                total = out.get(key, 0) + ca * cb
                if total:
                    out[key] = total
                else:
                    del out[key]
        return out

    def apply_ell(self, k, value):
        k = abs(int(k))
        if k in self._forbidden:
            raise AssertionError(
                f"phi-path purity violated: ell({k}) arose in a symbolic expansion"
            )
        return {tuple(sorted(factors + (k,))): coeff for factors, coeff in value.items()}


class CoefficientSession:
    """One memoized evaluation session of the coefficient recursion.

    Memo tables are confined to the session; sessions are independent,
    deterministic, and safe to use from parallel workers.  Keys are
    canonicalized to the lexicographically smaller of (alpha, beta) and
    (beta, alpha), which halves the tables and enforces the index
    symmetry by construction.
    """

    def __init__(self, pair: WaveNumberPair, algebra):
        self.pair = pair
        self.algebra = algebra
        self._memo_u: dict = {}
        self._memo_u2: dict = {}

    @staticmethod
    def _key(alpha: MultiIndex, beta: MultiIndex):
        return min((alpha, beta), (beta, alpha))

    def _wavenumber(self, alpha: MultiIndex, beta: MultiIndex) -> int:
        k1, k2 = self.pair.k1, self.pair.k2
        return k1 * (alpha[0] - beta[0]) + k2 * (alpha[1] - beta[1])

    def scaled_u(self, alpha: MultiIndex, beta: MultiIndex):
        """Scaled coefficient s(alpha, beta) = 2**order * u_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order == 0:
            return self.algebra.zero
        if order == 1:
            return self.algebra.one
        key = self._key(alpha, beta)
        hit = self._memo_u.get(key)
        if hit is not None:
            return hit
        conv = self._convolution(alpha, beta)
        value = self.algebra.apply_ell(self._wavenumber(alpha, beta), conv)
        self._memo_u[key] = value
        return value

    def scaled_u2(self, alpha: MultiIndex, beta: MultiIndex):
        """Scaled square coefficient 2**order * (u^2)_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order < 2:
            raise DomainError(
                "square coefficients need |alpha|+|beta| >= 2", alpha=alpha, beta=beta
            )
        key = self._key(alpha, beta)
        hit = self._memo_u2.get(key)
        if hit is not None:
            return hit
        value = self._convolution(alpha, beta)
        self._memo_u2[key] = value
        return value

    def _convolution(self, alpha: MultiIndex, beta: MultiIndex):
        """Sum of s(alpha', beta') * s(alpha'', beta'') over all splittings.

        Splittings with an order-zero half contribute nothing (the zero
        coefficient) and are skipped.
        """
        a1, a2 = alpha
        b1, b2 = beta
        order = a1 + a2 + b1 + b2
        algebra = self.algebra
        total = algebra.zero
        for p1 in range(a1 + 1):
            for p2 in range(a2 + 1):
                for q1 in range(b1 + 1):
                    for q2 in range(b2 + 1):
                        left = p1 + p2 + q1 + q2
                        if left == 0 or left == order:
                            continue
                        term = algebra.mul(
                            self.scaled_u((p1, p2), (q1, q2)),
                            self.scaled_u((a1 - p1, a2 - p2), (b1 - q1, b2 - q2)),
                        )
                        total = algebra.add(total, term)
        return total

    def u(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Unscaled u_hat_{alpha,beta} (float algebras only)."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order < 1:
            raise DomainError(
                "coefficients need |alpha|+|beta| >= 1", alpha=alpha, beta=beta
            )
        return self.scaled_u(alpha, beta) / 2.0**order

    def u2(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Unscaled (u^2)_hat_{alpha,beta} (float algebras only)."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        return self.scaled_u2(alpha, beta) / 2.0**order


def numeric_session(ctx: MultiplierContext) -> CoefficientSession:
    """Create a numeric evaluation session at a concrete context."""
    return CoefficientSession(ctx.pair, _FloatAlgebra(lambda k: multiplier(ctx, k)))


def grid_session(contexts: Sequence[MultiplierContext]) -> CoefficientSession:
    """Create one numeric session over many contexts of the same pair.

    ell(k) is the array of ``multiplier(ctx, k)`` over ``contexts``, so a
    single pass of the recursion yields every coefficient as an array
    over the contexts.  numpy float64 addition and multiplication round
    like Python floats, so each entry is bitwise identical to the value
    of :func:`numeric_session` at that context.  A target that never
    applies ell stays a plain float.
    """

    @functools.cache
    def ell(k: int) -> np.ndarray:
        return np.array([multiplier(ctx, k) for ctx in contexts])

    return CoefficientSession(contexts[0].pair, _FloatAlgebra(ell))


def limit_session(pair: WaveNumberPair, endpoint: str) -> CoefficientSession:
    """Create a session with ell replaced by its normalized endpoint limits."""
    k1, k2 = pair.k1, pair.k2

    def rho(k: int) -> float:
        k = abs(int(k))
        if k == k1 or k == k2:
            return 0.0
        return limit_ratio(pair, endpoint, k)

    return CoefficientSession(pair, _FloatAlgebra(rho))


@dataclass(frozen=True)
class Monomial:
    """One grouped term coeff * prod ell(factor) of an expansion."""

    coeff: int
    factors: tuple[int, ...]


@dataclass(frozen=True)
class PhiExpansion:
    """Exact integer expansion of 2**(k1+k2-1) * phi as monomials in ell.

    ``evaluate`` at concrete ell-values returns that scaled quantity;
    divide by 2**prefactor_exponent to recover phi itself.
    """

    pair: WaveNumberPair
    prefactor_exponent: int
    monomials: tuple[Monomial, ...]

    @property
    def coefficient_total(self) -> int:
        """Total monomial count N with multiplicity."""
        return sum(m.coeff for m in self.monomials)

    @property
    def factors_per_monomial(self) -> int:
        """Common factor count M of every monomial."""
        return len(self.monomials[0].factors) if self.monomials else 0

    def evaluate(self, ell) -> float:
        """Sum coeff * prod ell(factor); equals 2**prefactor_exponent * phi."""
        total = 0.0
        for mono in self.monomials:
            term = float(mono.coeff)
            for k in mono.factors:
                term *= ell(k)
            total += term
        return total

    def to_dict(self) -> dict:
        """Canonical serialization (factors ascending, monomials lex-sorted)."""
        return {
            "pair": [self.pair.k1, self.pair.k2],
            "prefactor_exponent": self.prefactor_exponent,
            "N": self.coefficient_total,
            "M": self.factors_per_monomial,
            "monomials": [
                {"coeff": m.coeff, "factors": list(m.factors)} for m in self.monomials
            ],
        }


def phi_target_indices(pair: WaveNumberPair) -> tuple[MultiIndex, MultiIndex]:
    """Multi-index pair ((k2-1, 0), (0, k1)) whose u^2 coefficient is phi."""
    return (pair.k2 - 1, 0), (0, pair.k1)


def expansion_size(pair: WaveNumberPair) -> tuple[int, int]:
    """Exact term count N and factor count M of the phi expansion.

    N = (2*k2 + 2*k1 - 4)! / ((k1 + k2 - 2)! * k1! * (k2 - 1)!) counts
    monomials with multiplicity; every grouped monomial carries exactly
    M = k1 + k2 - 3 ell-factors.
    """
    k1, k2 = pair.k1, pair.k2
    n = math.factorial(2 * k2 + 2 * k1 - 4) // (
        math.factorial(k1 + k2 - 2) * math.factorial(k1) * math.factorial(k2 - 1)
    )
    return n, k1 + k2 - 3


def expand_symbolic(pair: WaveNumberPair) -> PhiExpansion:
    """Exact symbolic expansion of 2**(k1+k2-1) * phi in monomials of ell.

    Runs the scaled recursion over the integer monomial algebra and
    groups equal factor multisets.  The expansion is refused up front if
    its exact term count N exceeds the size guard.

    Raises
    ------
    SizeGuardError
        If N > 10**8.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    n_expected, m_expected = expansion_size(pair)
    if n_expected > SIZE_GUARD:
        raise SizeGuardError(
            "expansion term count exceeds the size guard",
            size=n_expected,
            guard=SIZE_GUARD,
        )
    session = CoefficientSession(pair, _MonomialAlgebra(pair))
    alpha, beta = phi_target_indices(pair)
    raw = session.scaled_u2(alpha, beta)
    monomials = tuple(
        Monomial(coeff=coeff, factors=factors)
        for factors, coeff in sorted(raw.items())
    )
    total = sum(m.coeff for m in monomials)
    if total != n_expected:
        raise AssertionError(
            f"expansion coefficient total {total} != exact count {n_expected}"
        )
    for mono in monomials:
        if len(mono.factors) != m_expected:
            raise AssertionError(
                f"monomial {mono} violates the factor-count invariant M={m_expected}"
            )
    return PhiExpansion(
        pair=pair,
        prefactor_exponent=pair.k1 + pair.k2 - 1,
        monomials=monomials,
    )


def limit_ratio(pair: WaveNumberPair, endpoint: str, n: int) -> float:
    """Normalized multiplier limit rho(n) = lim ell(n)/ell(k2+1).

    Closed forms at the two endpoints of the weak-tension interval:

    * T -> 0:   [sqrt(k1+k2) - sqrt(k1*k2/m + m)] evaluated at m = k2+1
      over the same expression at m = n; at n = 0 the un-normalized
      ell(0) stays bounded while ell(k2+1) diverges, so rho(0) = 0.
    * T -> 1/3: g(k2+1)/g(n) with g(m) = m^2(k1^2+k2^2) - k1^2 k2^2 - m^4,
      which factors as -(m^2-k1^2)(m^2-k2^2) and is valid at n = 0.

    Raises
    ------
    DomainError
        If n is a kernel wavenumber (the ratio denominator vanishes
        identically) or the endpoint label is unknown.
    """
    if not isinstance(pair, WaveNumberPair):
        pair = WaveNumberPair(*pair)
    k1, k2 = pair.k1, pair.k2
    n = abs(int(n))
    if n == k1 or n == k2:
        raise DomainError("limit ratio undefined on kernel wavenumbers", n=n)
    ref = k2 + 1
    if endpoint == LIMIT_LOW_T:
        if n == 0:
            return 0.0
        root = math.sqrt(k1 + k2)
        num = root - math.sqrt(k1 * k2 / ref + ref)
        den = root - math.sqrt(k1 * k2 / n + n)
        return num / den
    if endpoint == LIMIT_HIGH_T:
        ksq = k1 * k1 + k2 * k2
        kprod = k1 * k1 * k2 * k2

        def g(m: int) -> float:
            return m * m * ksq - kprod - m**4

        return g(ref) / g(n)
    raise DomainError(
        "unknown endpoint label", endpoint=endpoint, expected=[LIMIT_LOW_T, LIMIT_HIGH_T]
    )
