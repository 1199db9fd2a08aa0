"""Resolvent multiplier and the Taylor-Fourier coefficient table.

Small-amplitude solutions of the steady equation expand in powers of the
two modal amplitudes.  Their Taylor-Fourier coefficients u_hat_{alpha,beta},
indexed by a pair of multi-indices alpha, beta in N0^2, obey a quadratic
convolution recursion weighted by the multiplier

    ell(k) = 0                     for |k| in {k1, k2}
    ell(k) = 1 / (c - m_T(kappa*|k|))   otherwise,

with m_T(0) = 1 at k = 0.  One function fills the recursion as a table
below a target, and one cell map names the multiplier of each cell; the
evaluation modes differ only in ell's value type:

* numeric -- floats at a concrete (c, kappa, T), or arrays over a grid;
* limit-ratio -- ell replaced by its normalized endpoint limits
  rho(n) = lim ell(n)/ell(k2+1) as T -> 0 and T -> 1/3 (valid because
  every term of the target is homogeneous of the same degree in ell);
* symbolic -- exact integer-weighted monomials in the ell factors.

The table holds the scaled values
s(alpha, beta) = 2**(|alpha|+|beta|) * u_hat_{alpha,beta}, whose base
case is 1 instead of 1/2; in symbolic mode all weights are then exact
integers.

The table is one array over the box below the target.  A cell's
splittings pair the box slice below it with the same slice reversed.
Floats and arrays take the slice product in one array operation and add
its rows one after the other, as a loop from 0.0 would, so every numeric
mode rounds alike.  Exact monomials are int64 keys with one bit field
of exponents per distinct |k|, so a product of monomials is an addition
of keys; their cell sum multiplies each mirror pair of splittings once,
with weight 2, and merges equal keys once per cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

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
    "expand_symbolic",
    "expansion_size",
    "limit_ratio",
    "phi_target_indices",
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
    kernel modes k1, k2 are the only integer resonances.  c, kappa and T
    may be arrays of one shape, such as the bifurcation points of a
    tension grid; ell(k) is then an array over them.
    """

    pair: WaveNumberPair
    c: float
    kappa: float
    T: float

    def __post_init__(self):
        positive = np.greater(self.c, 0.0) & np.greater(self.kappa, 0.0) & np.greater(self.T, 0.0)
        if not positive.all():
            raise DomainError(
                "context requires c, kappa, T > 0",
                c=self.c,
                kappa=self.kappa,
                T=self.T,
            )

    @classmethod
    def from_bifurcation(cls, point: BifurcationPoint) -> "MultiplierContext":
        return cls(pair=point.pair, c=point.c0, kappa=point.kappa0, T=point.T)

    def ell(self, k):
        return multiplier(self, k)


def multiplier(ctx: MultiplierContext, k):
    """Evaluate ell(k) = (c - m_T(kappa*|k|))**-1, zeroed on kernel modes.

    k may be an integer array, and the context array-valued; the result
    broadcasts over both and is a float when neither is an array.  Every
    element is bitwise equal to the scalar evaluation.

    Raises
    ------
    NearResonanceError
        If |c - m_T(kappa*k)| < 1e-13 for a non-kernel wavenumber k; the
        first such element (in C order) is named, together with its flat
        index ``element`` into the context arrays when those are arrays
        (k may add leading axes to them, as a column does).
    """
    k = np.abs(np.asarray(k, dtype=int))
    kernel = (k == ctx.pair.k1) | (k == ctx.pair.k2)
    den = np.subtract(ctx.c, eval_symbol(ctx.T, ctx.kappa * k))
    near = ~kernel & (np.abs(den) < NEAR_RESONANCE_TOL)
    if near.any():
        i = int(np.flatnonzero(near)[0])
        context = {"k": int(np.broadcast_to(k, near.shape).flat[i])}
        arrays = np.broadcast(ctx.c, ctx.kappa, ctx.T)
        if arrays.ndim:
            context["element"] = i % arrays.size
        raise NearResonanceError(
            "wave speed resonates with a non-kernel mode",
            **context,
            denominator=float(np.ravel(den)[i]),
        )
    ell = np.divide(1.0, den, out=np.zeros(den.shape), where=~kernel)
    return ell if ell.ndim else float(ell)


@dataclass(frozen=True)
class _Monomials:
    """Exact integer-weighted monomials as int64 keys.

    ``key`` packs a monomial's exponents into one bit field per distinct
    |k| on the phi path, the smallest |k| in the highest bits; ``c`` holds
    the coefficients.  Keys are distinct and descending, the canonical
    order: at the first column where two monomials differ, the larger
    exponent comes first, as in ascending factor tuples.  Every weight is
    a sum of products of positive integers, so none cancels to zero.

    Nothing overflows.  Each field is as wide as its column's largest
    exponent in the phi expansion (_key_widths), which every cell's
    monomials divide, so no field carries.  A cell's coefficients add up
    to its term count, at most N, because the corner splits into every
    cell and its complement; so every coefficient and every weighted
    pairwise product is at most 2 * N <= 2 * SIZE_GUARD, far below 2**63.
    """

    key: np.ndarray
    c: np.ndarray

    def __mul__(self, other):
        """ell(k) * other, where self is ell(k), the unit key of column k; nothing merges."""
        return _Monomials(self.key + other.key, self.c * other.c)

    @staticmethod
    def cell_sum(left, right):
        """Sum a * b over a cell's splittings, multiplying each mirror pair once.

        The raveled slices pair up into the splittings (see _scaled_u2),
        so halves[n-1-i] swaps the two halves of halves[i]: the first half
        is taken with weight 2 and a middle splitting with weight 1.  Each
        product is one outer sum of the keys of a and b, written into its
        slice of one array of product keys; one sort, which need not be
        stable, brings equal keys together, and their coefficients add.
        """
        halves = list(zip(left.ravel()[1:-1], right.ravel()[1:-1]))
        n = len(halves)
        taken = halves[: (n + 1) // 2]
        sizes = [len(a.c) * len(b.c) for a, b in taken]
        key = np.empty(sum(sizes), dtype=np.int64)
        c = np.empty_like(key)
        stop = 0
        for i, ((a, b), size) in enumerate(zip(taken, sizes)):
            start, stop = stop, stop + size
            weight = 1 if 2 * i == n - 1 else 2
            shape = (len(a.c), len(b.c))
            np.add.outer(a.key, b.key, out=key[start:stop].reshape(shape))
            np.multiply.outer(weight * a.c, b.c, out=c[start:stop].reshape(shape))
        order = np.argsort(key)[::-1]
        key, c = key[order], c[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        return _Monomials(key[starts], np.add.reduceat(c, starts))


def _sequential_sum(left, right):
    """Sum a * b over a cell's splittings, left to right from 0.0 (floats, arrays).

    numpy reduces along an axis that is not the fast one in memory by
    adding the rows one at a time (see the notes of ``np.sum``), so values
    of two or more elements take ``np.add.reduce``.  A one-element value
    would be summed pairwise and takes ``np.add.accumulate``, where
    ``+ 0.0`` turns an all-(-0.0) sum into the +0.0 of a loop from 0.0.
    """
    products = (left * right).reshape(-1, *left.shape[4:])[1:-1]
    if products[0].size > 1:
        return np.add.reduce(products, axis=0, initial=0.0)
    return np.add.accumulate(products, axis=0)[-1] + 0.0


def _scaled_u2(corner: tuple[int, int, int, int], ell, one=1.0, cell_sum=_sequential_sum):
    """Fill the table of scaled square coefficients below ``corner``.

    Holds s in one array S over the box (c0+1, c1+1, c2+1, c3+1) of the
    corner, with the trailing shape and dtype of ``one`` (object for
    monomials), and fills it in lexicographic order, in which every
    strict sub-cell comes first.  Order-one cells hold ``one``.  Cell c
    hands the slices S[:c0+1, ..., :c3+1] and S[c0::-1, ..., c3::-1] to
    ``cell_sum``: their C-order entries, less the first and last
    (order-zero halves), pair s(left) with s(c - left) in lexicographic
    order of the left half.  It stores ``ell(c)`` times the sum and
    returns S; ``ell`` gives 1 at a corner, so S holds the sum there.

    The trailing axis may hold a stack: the value columns of several
    tables side by side, ordered so that the tables whose box holds a
    cell are a prefix.  ``ell(c)`` then has the length of that prefix,
    and the cell's sum and product run over those columns only.
    """
    box = tuple(n + 1 for n in corner)
    S = np.zeros(box + np.shape(one), dtype=np.asarray(one).dtype)
    for axis in np.flatnonzero(corner):
        S[tuple(np.eye(4, dtype=int)[axis])] = one
    stacked = S.ndim > 4
    for cell in np.ndindex(box):
        c0, c1, c2, c3 = cell
        if c0 + c1 + c2 + c3 < 2:
            continue
        m = ell(cell)
        cols = slice(len(m)) if stacked else Ellipsis
        total = cell_sum(
            S[: c0 + 1, : c1 + 1, : c2 + 1, : c3 + 1, cols],
            S[c0::-1, c1::-1, c2::-1, c3::-1, cols],
        )
        S[c0, c1, c2, c3, cols] = m * total
    return S


@functools.lru_cache(maxsize=1024)
def _cell_map(pair: WaveNumberPair, corner) -> tuple[tuple[int, ...], np.ndarray]:
    """(ks, rows): the ascending |k| at which the table below ``corner``
    asks ell (which is even), and for each cell the index in ks of its
    |k|, or len(ks) for the cells that take ``one``: those of order below
    2 and the corner.  A table reads cell multipliers as values[rows[cell]].
    """
    c = np.indices(tuple(n + 1 for n in corner))
    k = np.abs(pair.k1 * (c[0] - c[2]) + pair.k2 * (c[1] - c[3]))
    asks = c.sum(axis=0) >= 2
    asks[tuple(corner)] = False
    # The distinct |k| in ascending order; np.unique would load numpy.ma.
    ks = np.flatnonzero(np.bincount(k[asks]))
    rows = np.where(asks, np.searchsorted(ks, k), len(ks))
    rows.flags.writeable = False
    return tuple(ks.tolist()), rows


@dataclass(frozen=True)
class _NumericSession:
    """General coefficients u_hat and (u^2)_hat at one context.

    Every call fills a fresh table in the lexicographically larger of
    (alpha, beta) and (beta, alpha).  The swap only negates the
    wavenumber and ell is even, so the index symmetry holds exactly.
    """

    ctx: MultiplierContext

    def scaled_u(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Scaled coefficient s(alpha, beta) = 2**order * u_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order < 2:
            return 1.0 if order else 0.0
        k1, k2 = self.ctx.pair.k1, self.ctx.pair.k2
        k = k1 * (alpha[0] - beta[0]) + k2 * (alpha[1] - beta[1])
        return self.ctx.ell(k) * self.scaled_u2(alpha, beta)

    def scaled_u2(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Scaled square coefficient 2**order * (u^2)_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order < 2:
            raise DomainError(
                "square coefficients need |alpha|+|beta| >= 2", alpha=alpha, beta=beta
            )
        larger = max((alpha, beta), (beta, alpha))
        corner = (*larger[0], *larger[1])
        ks, rows = _cell_map(self.ctx.pair, corner)
        values = np.append(self.ctx.ell(ks), 1.0)
        return float(_scaled_u2(corner, lambda cell: values[rows[cell]])[corner])

    def u(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Unscaled u_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        if order < 1:
            raise DomainError(
                "coefficients need |alpha|+|beta| >= 1", alpha=alpha, beta=beta
            )
        return self.scaled_u(alpha, beta) / 2.0**order

    def u2(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        """Unscaled (u^2)_hat_{alpha,beta}."""
        order = alpha[0] + alpha[1] + beta[0] + beta[1]
        return self.scaled_u2(alpha, beta) / 2.0**order


def numeric_session(ctx: MultiplierContext) -> _NumericSession:
    """Coefficients of the recursion at a concrete context."""
    return _NumericSession(ctx)


@dataclass(frozen=True)
class Monomial:
    """One grouped term coeff * prod ell(factor) of an expansion."""

    coeff: int
    factors: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PhiExpansion:
    """Exact integer expansion of 2**(k1+k2-1) * phi as monomials in ell.

    Rows over ``ks``, the ascending |k| of the phi path: uint8 ``exponents``
    (the power of ell(ks[j]) in column j) and int64 ``coeffs``, one monomial
    per row in canonical order; ``monomials`` is built from them on first
    use.  ``evaluate`` at concrete ell-values returns 2**prefactor_exponent * phi.
    """

    pair: WaveNumberPair
    prefactor_exponent: int
    ks: tuple[int, ...]
    exponents: np.ndarray
    coeffs: np.ndarray

    def __eq__(self, other):
        """Equal by value, field by field; the arrays leave expansions unhashable."""
        if not isinstance(other, PhiExpansion):
            return NotImplemented
        names = [f.name for f in fields(self)]
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)

    @property
    def coefficient_total(self) -> int:
        """Total monomial count N with multiplicity."""
        return int(self.coeffs.sum())

    @property
    def factors_per_monomial(self) -> int:
        """Common factor count M of every monomial."""
        return self.pair.k1 + self.pair.k2 - 3

    def factor_columns(self) -> np.ndarray:
        """uint8 matrix of each monomial's M factors, as ascending column indices into ks."""
        columns = np.broadcast_to(np.arange(len(self.ks), dtype=np.uint8), self.exponents.shape)
        return np.repeat(columns, self.exponents.ravel()).reshape(len(self.coeffs), -1)

    @functools.cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        """The rows as ``Monomial`` terms, each with its ascending factor tuple."""
        factors = np.array(self.ks)[self.factor_columns()].tolist()
        return tuple(map(Monomial, self.coeffs.tolist(), map(tuple, factors)))

    def evaluate(self, ell) -> float:
        """Sum coeff * prod ell(factor); equals 2**prefactor_exponent * phi.

        Asks ell once per |k| of ``ks``.  Each row multiplies its factors in
        ascending order onto its coefficient, and the rows add in canonical
        order from 0.0 (see _sequential_sum), as a loop over the monomials.
        """
        values = np.array([ell(k) for k in self.ks], dtype=float)
        terms = self.coeffs.astype(float)
        for column in self.factor_columns().T:
            terms = terms * values[column]
        return float(np.add.accumulate(terms)[-1] + 0.0)

    def to_dict(self) -> dict:
        """Canonical serialization (factors ascending, monomials lex-sorted)."""
        return {
            "pair": [self.pair.k1, self.pair.k2],
            "prefactor_exponent": self.prefactor_exponent,
            "N": self.coefficient_total,
            "M": self.factors_per_monomial,
            "monomials": [{"coeff": m.coeff, "factors": list(m.factors)} for m in self.monomials],
        }


def phi_target_indices(pair: WaveNumberPair) -> tuple[MultiIndex, MultiIndex]:
    """Multi-index pair ((k2-1, 0), (0, k1)) whose u^2 coefficient is phi."""
    return (pair.k2 - 1, 0), (0, pair.k1)


def _phi_corner(pair: WaveNumberPair) -> tuple[int, int, int, int]:
    """The phi table's corner (k2-1, 0, 0, k1), whose order k1 + k2 - 1 scales phi."""
    alpha, beta = phi_target_indices(pair)
    return (*alpha, *beta)


def _phi_path(pair: WaveNumberPair) -> tuple[int, ...]:
    """The ascending |k| at which the phi table asks ell: |k1 a - k2 b| at
    its cells (a, 0, 0, b) of order >= 2 but the corner.  For a coprime
    pair none is 0, k1 or k2.  Empty for (1, 2), where M = 0.
    """
    return _cell_map(pair, _phi_corner(pair))[0]


def _phi(pairs: list[WaveNumberPair], rows: list[np.ndarray]) -> list[np.ndarray]:
    """phi of pairs that share k1, from one stack of their coefficient tables.

    ``rows[p]`` holds ell of pair p at the i-th |k| of its phi path in
    row i, with one column per evaluation point, G columns for every
    pair.  A pair's phi box is (k2, 1, 1, k1+1).  With the pairs in
    descending k2 and their columns side by side on the trailing axis,
    the pairs whose box holds a cell of row a are those with k2 > a, a
    prefix of the columns.  The largest box is filled once: each cell
    sums over its prefix and multiplies every pair's columns by that
    pair's ell at |k1 a - k2 b|, or by 1 at the pair's own corner, where
    its phi is read.  No column's arithmetic involves another, so each
    pair's values are bitwise equal to its table filled alone.
    """
    G = rows[0].shape[1]
    order = sorted(range(len(pairs)), key=lambda p: -pairs[p].k2)
    corners = [_phi_corner(pairs[p]) for p in order]
    top, _, _, k1 = corners[0]
    # Every pair's rows followed by a row of ones, which the cells
    # without a multiplier take, and the row of each pair's cells.
    ell = np.concatenate([r for p in order for r in (rows[p], np.ones((1, G)))])
    at = np.zeros((top + 1, k1 + 1, len(pairs)), dtype=int)
    start = 0
    for j, (p, corner) in enumerate(zip(order, corners)):
        at[: corner[0] + 1, :, j] = start + _cell_map(pairs[p], corner)[1][:, 0, 0]
        start += len(rows[p]) + 1
    live = (np.array(corners)[:, :1] >= np.arange(top + 1)).sum(axis=0).tolist()

    # The filler asks the cells row after row; hold one row at a time.
    @functools.lru_cache(maxsize=1)
    def row(a):
        return ell[at[a, :, : live[a]]].reshape(k1 + 1, -1)

    S = _scaled_u2(corners[0], lambda cell: row(cell[0])[cell[3]], np.ones(len(pairs) * G))
    phi = [None] * len(pairs)
    for j, (p, corner) in enumerate(zip(order, corners)):
        phi[p] = S[corner][j * G : (j + 1) * G] / 2.0 ** sum(corner)
    return phi


def _path_ell(pair: WaveNumberPair, T, points) -> np.ndarray:
    """ell at every |k| of the phi path (rows) and every tension of T
    (columns), given the arrays (c0, kappa0, residual) of their
    bifurcation points, from one array multiplier call."""
    c0, kappa0, _ = points
    ks = np.array(_phi_path(pair), dtype=int)
    return MultiplierContext(pair=pair, c=c0, kappa=kappa0, T=T).ell(ks[:, None])


def _limit_ell(pair: WaveNumberPair) -> np.ndarray:
    """The normalized endpoint ratios at every |k| of the phi path, one
    column per endpoint."""
    ks = np.array(_phi_path(pair), dtype=int)
    return np.stack([limit_ratio(pair, end, ks) for end in (LIMIT_LOW_T, LIMIT_HIGH_T)], 1)


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


def _key_widths(pair: WaveNumberPair) -> list[int]:
    """The bit length of each column's largest exponent in the phi expansion.

    Fills the phi table with one float 2**e per column (ell(k) is 2 in its
    column, 1 elsewhere), a cell taking its largest splitting product; all
    weights are positive, so the corner holds 2**(largest exponent), exactly.
    """
    corner = _phi_corner(pair)
    ks, rows = _cell_map(pair, corner)
    values = [*(1.0 + np.eye(len(ks))), np.ones(len(ks))]

    def largest(left, right):  # the order-zero products are 0
        return (left * right).max(axis=(0, 1, 2, 3))
    top = _scaled_u2(corner, lambda cell: values[rows[cell]], values[-1], largest)[corner]
    return [int(e).bit_length() for e in np.log2(top)]


def expand_symbolic(pair: WaveNumberPair) -> PhiExpansion:
    """Exact symbolic expansion of 2**(k1+k2-1) * phi in monomials of ell.

    Fills the scaled table with integer-weighted monomial keys, in which
    ell(k) is the unit key of the column of |k|.  The corner's keys
    arrive merged and in canonical order, and the expansion decodes them
    into read-only exponent rows.  The expansion is refused up front if
    its exact term count N exceeds the size guard.

    Raises
    ------
    SizeGuardError
        If N > 10**8.
    """
    pair = WaveNumberPair.coerce(pair)
    n_expected, m_expected = expansion_size(pair)
    if n_expected > SIZE_GUARD:
        raise SizeGuardError(
            "expansion term count exceeds the size guard", size=n_expected, guard=SIZE_GUARD
        )
    corner = _phi_corner(pair)
    ks, rows = _cell_map(pair, corner)
    # A factor ell(0), ell(k1) or ell(k2) would silently change the term
    # count, so it raises.
    for k in sorted(set(ks) & {0, pair.k1, pair.k2}):
        raise AssertionError(f"phi-path purity violated: ell({k}) arose in a symbolic expansion")
    widths = np.array(_key_widths(pair), dtype=np.int64)
    if widths.sum() > 63:
        raise AssertionError(f"monomial keys need {widths.sum()} bits, more than 63")
    shifts = np.cumsum(widths[::-1])[::-1] - widths
    one = _Monomials(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    values = [_Monomials(unit[None], one.c) for unit in 1 << shifts] + [one]
    raw = _scaled_u2(corner, lambda cell: values[rows[cell]], one, _Monomials.cell_sum)[corner]
    total = int(raw.c.sum())
    if total != n_expected:
        raise AssertionError(f"expansion coefficient total {total} != exact count {n_expected}")
    E = ((raw.key[:, None] >> shifts) & ((1 << widths) - 1)).astype(np.uint8)
    bad = np.flatnonzero(E.sum(axis=1) != m_expected)
    if bad.size:
        raise AssertionError(
            f"monomial {dict(zip(ks, E[bad[0]].tolist()))} violates the "
            f"factor-count invariant M={m_expected}"
        )
    E.flags.writeable = raw.c.flags.writeable = False
    return PhiExpansion(pair, sum(corner), ks, E, raw.c)


def limit_ratio(pair: WaveNumberPair, endpoint: str, n):
    """Normalized multiplier limit rho(n) = lim ell(n)/ell(k2+1).

    Closed forms at the two endpoints of the weak-tension interval:

    * T -> 0:   [sqrt(k1+k2) - sqrt(k1*k2/m + m)] evaluated at m = k2+1
      over the same expression at m = n; at n = 0 the un-normalized
      ell(0) stays bounded while ell(k2+1) diverges, so rho(0) = 0.
    * T -> 1/3: g(k2+1)/g(n) with g(m) = m^2(k1^2+k2^2) - k1^2 k2^2 - m^4,
      which factors as -(m^2-k1^2)(m^2-k2^2) and is valid at n = 0.

    n may be an integer array, which gives the array of ratios.  Each
    rounds like the closed form in exact integers and Python floats as
    long as |g| < 2**53.

    Raises
    ------
    DomainError
        If n is a kernel wavenumber (the ratio denominator vanishes
        identically) or the endpoint label is unknown.
    """
    pair = WaveNumberPair.coerce(pair)
    k1, k2 = pair.k1, pair.k2
    n = np.abs(np.asarray(n, dtype=np.int64))
    kernel = (n == k1) | (n == k2)
    if kernel.any():
        raise DomainError("limit ratio undefined on kernel wavenumbers", n=int(n[kernel][0]))
    ref = k2 + 1
    if endpoint == LIMIT_LOW_T:
        root = math.sqrt(k1 + k2)
        num = root - math.sqrt(k1 * k2 / ref + ref)
        m = np.where(n == 0, ref, n)  # rho(0) = 0; m keeps k1*k2/m finite
        rho = np.where(n == 0, 0.0, num / (root - np.sqrt(k1 * k2 / m + m)))
    elif endpoint == LIMIT_HIGH_T:
        ksq, kprod = k1 * k1 + k2 * k2, k1 * k1 * k2 * k2
        rho = (ref * ref * ksq - kprod - ref**4) / (n * n * ksq - kprod - n**4)
    else:
        raise DomainError(
            "unknown endpoint label", endpoint=endpoint, expected=[LIMIT_LOW_T, LIMIT_HIGH_T]
        )
    return rho if rho.ndim else float(rho)
