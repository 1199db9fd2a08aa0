"""Tests for the multiplier and the Taylor-Fourier coefficient engine."""

import ast
import dataclasses
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from capwhitham import coefficients, emitters
from capwhitham import (
    LIMIT_HIGH_T,
    LIMIT_LOW_T,
    DomainError,
    MultiplierContext,
    NearResonanceError,
    SizeGuardError,
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    expand_symbolic,
    expansion_size,
    limit_ratio,
    multiplier,
    numeric_session,
    phi_limits,
    phi_target_indices,
)

PAIR_2_5 = WaveNumberPair(2, 5)


def _context(T: float = 0.1215) -> MultiplierContext:
    return MultiplierContext.from_bifurcation(double_bifurcation(PAIR_2_5, T))


def test_multiplier_vanishes_on_kernel_modes():
    ctx = _context()
    for k in (2, 5, -2, -5):
        assert multiplier(ctx, k) == 0.0


def test_multiplier_reference_values():
    ctx = _context()
    c0, kap = oracles.C0_2_5_T01215, oracles.KAPPA0_2_5_T01215
    assert ctx.ell(0) == pytest.approx(1.0 / (c0 - 1.0), rel=1e-12)
    for n in (1, 3, 4, 6, 8, 10):
        expected = 1.0 / (c0 - eval_symbol(0.1215, kap * n))
        assert ctx.ell(n) == pytest.approx(expected, rel=1e-10)


def test_multiplier_sign_pattern():
    # Inside the kernel window the symbol dips below the wave speed, so
    # ell is positive there and negative outside.
    ctx = _context()
    assert ctx.ell(1) < 0.0 and ctx.ell(0) < 0.0
    assert ctx.ell(3) > 0.0 and ctx.ell(4) > 0.0
    for n in (6, 7, 8, 10, 20):
        assert ctx.ell(n) < 0.0


def test_multiplier_even():
    ctx = _context()
    for n in (1, 3, 7):
        assert ctx.ell(-n) == ctx.ell(n)


def test_multiplier_near_resonance_raises():
    point = double_bifurcation(PAIR_2_5, 0.1215)
    # Force the wave speed onto the symbol value of mode 3.
    ctx = MultiplierContext(
        pair=PAIR_2_5,
        c=eval_symbol(0.1215, point.kappa0 * 3),
        kappa=point.kappa0,
        T=0.1215,
    )
    with pytest.raises(NearResonanceError):
        multiplier(ctx, 3)


def test_context_validation():
    with pytest.raises(DomainError):
        MultiplierContext(pair=PAIR_2_5, c=-0.5, kappa=0.8, T=0.1)
    with pytest.raises(DomainError):
        MultiplierContext(pair=PAIR_2_5, c=0.9, kappa=0.0, T=0.1)


def test_base_cases():
    sess = numeric_session(_context())
    for alpha, beta in [
        ((1, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
        ((0, 0), (0, 1)),
    ]:
        assert sess.u(alpha, beta) == 0.5
        assert sess.scaled_u(alpha, beta) == 1.0


def test_order_zero_rejected():
    sess = numeric_session(_context())
    with pytest.raises(DomainError):
        sess.u((0, 0), (0, 0))
    with pytest.raises(DomainError):
        sess.u2((1, 0), (0, 0))


def test_second_order_closed_forms():
    ctx = _context()
    sess = numeric_session(ctx)
    # u_hat at ((2,0),(0,0)): wavenumber 4, one splitting 0.25.
    assert sess.u((2, 0), (0, 0)) == pytest.approx(ctx.ell(4) / 4.0, rel=1e-14)
    # u_hat at ((1,0),(0,1)): wavenumber -3, two splittings.
    assert sess.u((1, 0), (0, 1)) == pytest.approx(ctx.ell(3) / 2.0, rel=1e-14)
    # u_hat at ((1,0),(1,0)): wavenumber 0.
    assert sess.u((1, 0), (1, 0)) == pytest.approx(ctx.ell(0) / 2.0, rel=1e-14)
    # u_hat at ((1,1),(0,0)): wavenumber 7.
    assert sess.u((1, 1), (0, 0)) == pytest.approx(ctx.ell(7) / 2.0, rel=1e-14)
    # The square without the multiplier.
    assert sess.u2((1, 0), (1, 0)) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("pair", [(2, 5), (3, 7), (3, 8), (4, 9), (2, 7), (3, 10), (5, 8)])
@pytest.mark.parametrize("T", [0.05, 0.1215, 0.2, 0.3])
def test_order_three_kernel_sums_equal_the_closed_forms(pair, T):
    # The table's order-3 kernel sums are four times the r^2 terms of the
    # closed-form oracles: c2 of each unimodal wave, and the bimodal
    # cross sum ell(0) + ell(k2-k1) + ell(k1+k2).
    k1, k2 = pair
    point = double_bifurcation(pair, T)
    sess = numeric_session(MultiplierContext.from_bifurcation(point))
    ell = oracles._ell(T, point.c0, point.kappa0)
    cross = 4.0 * (ell(0) + ell(k2 - k1) + ell(k1 + k2))
    expected = {
        ((2, 0), (1, 0)): 4.0 * oracles.unimodal_c2(T, point.c0, point.kappa0, k1),
        ((0, 2), (0, 1)): 4.0 * oracles.unimodal_c2(T, point.c0, point.kappa0, k2),
        ((1, 1), (0, 1)): cross,
        ((1, 1), (1, 0)): cross,
    }
    for (alpha, beta), want in expected.items():
        assert sess.scaled_u2(alpha, beta) == pytest.approx(want, rel=1e-11), (alpha, beta)


def test_index_swap_symmetry():
    # Swapping alpha and beta conjugates the wavenumber, and the
    # multiplier is even, so the coefficients agree exactly.
    sess = numeric_session(_context(0.2))
    indices = [
        (a1, a2, b1, b2)
        for a1, a2, b1, b2 in itertools.product(range(6), repeat=4)
        if 1 <= a1 + a2 + b1 + b2 <= 5
    ]
    for a1, a2, b1, b2 in indices:
        assert sess.u((a1, a2), (b1, b2)) == sess.u((b1, b2), (a1, a2))


def test_seven_term_grouping_identity():
    # The square coefficient at ((4,0),(0,2)) splits into exactly seven
    # grouped products of lower coefficients.
    sess = numeric_session(_context())
    u = sess.u
    parts = [
        2.0 * u((3, 0), (0, 2)) * u((1, 0), (0, 0)),
        2.0 * u((2, 0), (0, 2)) * u((2, 0), (0, 0)),
        2.0 * u((1, 0), (0, 2)) * u((3, 0), (0, 0)),
        2.0 * u((0, 0), (0, 2)) * u((4, 0), (0, 0)),
        2.0 * u((4, 0), (0, 1)) * u((0, 0), (0, 1)),
        2.0 * u((3, 0), (0, 1)) * u((1, 0), (0, 1)),
        u((2, 0), (0, 1)) ** 2,
    ]
    # The seven products are of magnitude ~3e5 and cancel down to ~76,
    # so the comparison tolerance scales with the terms, not the result.
    scale = max(abs(p) for p in parts)
    assert abs(sess.u2((4, 0), (0, 2)) - sum(parts)) <= 1e-13 * scale


def test_phi_target_indices():
    assert phi_target_indices(PAIR_2_5) == ((4, 0), (0, 2))
    assert phi_target_indices(WaveNumberPair(3, 7)) == ((6, 0), (0, 3))


def test_phi_path_is_the_set_of_cell_wavenumbers():
    # For every coprime pair with k2 <= 40: |k1 a - k2 b| over the cells
    # (a, 0, 0, b) of order >= 2 but the corner, none of them 0, k1 or k2.
    for k2 in range(2, 41):
        for k1 in range(1, k2):
            if math.gcd(k1, k2) > 1:
                continue
            path = coefficients._phi_path(WaveNumberPair(k1, k2))
            want = {
                abs(k1 * a - k2 * b)
                for a in range(k2)
                for b in range(k1 + 1)
                if a + b >= 2 and (a, b) != (k2 - 1, k1)
            }
            assert path == tuple(sorted(want))
            assert not {0, k1, k2} & set(path)


@pytest.mark.parametrize(
    "pair, corner",
    [
        ((2, 5), (3, 3, 3, 3)),
        ((3, 7), (2, 1, 3, 0)),
        ((2, 5), (4, 0, 0, 2)),
        ((1, 2), (1, 0, 0, 1)),
    ],
    ids=str,
)
def test_cell_map_rows_name_each_cells_wavenumber(pair, corner):
    pair = WaveNumberPair(*pair)
    ks, rows = coefficients._cell_map(pair, corner)
    assert rows.shape == tuple(n + 1 for n in corner)
    asked = set()
    for cell in np.ndindex(rows.shape):
        if sum(cell) < 2 or cell == corner:
            assert rows[cell] == len(ks)
        else:
            k = abs(pair.k1 * (cell[0] - cell[2]) + pair.k2 * (cell[1] - cell[3]))
            assert ks[rows[cell]] == k
            asked.add(k)
    assert ks == tuple(sorted(asked))


def test_oracles_import_nothing_from_the_package():
    # The oracles can arbitrate the package only while they share no code.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "numpy" in modules
    assert not [m for m in modules if m.split(".")[0] == "capwhitham"]


def test_phi_table_is_decided_in_coefficients():
    # symmetry_breaking takes the stacked phi fill and its two row builders
    # from coefficients, and no other module fills a table or reads the
    # cell map itself.
    src = Path(coefficients.__file__).parent
    tree = ast.parse((src / "symmetry_breaking.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "coefficients" and node.level == 1
        for alias in node.names
    }
    assert imported == {"_phi", "_path_ell", "_limit_ell"}
    others = [p.name for p in src.glob("*.py") if p.name != "coefficients.py"]
    assert "symmetry_breaking.py" in others
    for name in others:
        text = (src / name).read_text()
        assert "_cell_map(" not in text and "_scaled_u2(" not in text, name


def test_expansion_2_5_exact_monomials():
    expansion = expand_symbolic(PAIR_2_5)
    table = {m.factors: m.coeff for m in expansion.monomials}
    assert table == oracles.MONOMIALS_2_5
    assert expansion.prefactor_exponent == oracles.PREFACTOR_EXPONENT_2_5
    assert expansion.coefficient_total == 630
    assert expansion.factors_per_monomial == 4
    # Monomials arrive lexicographically sorted.
    factors = [m.factors for m in expansion.monomials]
    assert factors == sorted(factors)


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 5), (3, 7), (4, 7), (5, 7), (4, 9)])
def test_expansion_json_matches_json_encoder(pair):
    # (1, 2) has M = 0, so its factor lists are empty; (4, 7), (5, 7) and
    # (4, 9) have two-digit factors and M = 8 to 10 on up to 8,221 rows.
    expansion = expand_symbolic(WaveNumberPair(*pair))
    assert emitters.expansion_json(expansion) == emitters.json_text(expansion.to_dict())


def test_expansion_sizes():
    assert expansion_size(PAIR_2_5) == (630, 4)
    assert expansion_size(WaveNumberPair(3, 7)) == (120120, 7)
    assert expansion_size(WaveNumberPair(1, 3)) == (6, 1)
    assert expansion_size(WaveNumberPair(1, 2)) == (2, 0)
    assert expansion_size(WaveNumberPair(5, 9)) == (267711444, 11)


def test_expansion_3_7_consistency():
    expansion = expand_symbolic(WaveNumberPair(3, 7))
    assert expansion.coefficient_total == 120120
    assert expansion.factors_per_monomial == 7
    assert len(expansion.monomials) == 265
    assert sum(m.coeff for m in expansion.monomials) == 120120
    assert all(len(m.factors) == 7 for m in expansion.monomials)


def test_expansion_1_3():
    expansion = expand_symbolic(WaveNumberPair(1, 3))
    assert [(m.factors, m.coeff) for m in expansion.monomials] == [((2,), 6)]
    assert expansion.prefactor_exponent == 3


_ORACLE_PAIRS = [
    (k1, k2) for k2 in range(2, 8) for k1 in range(1, k2) if math.gcd(k1, k2) == 1
] + [(3, 8), (2, 9)]


@pytest.mark.parametrize("pair", _ORACLE_PAIRS, ids=lambda p: f"{p[0]}_{p[1]}")
def test_expansion_matches_exact_oracle(pair):
    expansion = expand_symbolic(WaveNumberPair(*pair))
    want = sorted(oracles.exact_phi_monomials(*pair).items())
    assert [(m.factors, m.coeff) for m in expansion.monomials] == want


@pytest.mark.parametrize("pair", _ORACLE_PAIRS, ids=lambda p: f"{p[0]}_{p[1]}")
def test_expansion_rows_api(pair):
    pair = WaveNumberPair(*pair)
    expansion = expand_symbolic(pair)
    n, m = expansion_size(pair)
    assert (expansion.coefficient_total, expansion.factors_per_monomial) == (n, m)
    assert (expansion.exponents.sum(axis=1) == m).all()
    assert expansion.monomials is expansion.monomials
    with pytest.raises(ValueError):
        expansion.exponents[0, :] = 0
    with pytest.raises(ValueError):
        expansion.coeffs[0] = 0
    assert expansion == expand_symbolic(pair)
    doubled = dataclasses.replace(expansion, coeffs=2 * expansion.coeffs)
    assert expansion != doubled
    other = WaveNumberPair(1, 2) if pair != WaveNumberPair(1, 2) else PAIR_2_5
    assert expansion != expand_symbolic(other)
    assert expansion.__eq__(5) is NotImplemented
    assert expansion != 5 and not expansion == 5


def test_expansion_1_2_has_no_factors():
    # M = 0: the table has no column, and phi is the single empty monomial.
    expansion = expand_symbolic(WaveNumberPair(1, 2))
    assert [(m.factors, m.coeff) for m in expansion.monomials] == [((), 2)]
    assert (expansion.coefficient_total, expansion.factors_per_monomial) == (2, 0)


@pytest.mark.parametrize("k", [0, 2, 5])
def test_expansion_refuses_kernel_and_zero_factors(monkeypatch, k):
    # The cells of the first |k| on the path are mapped to k instead.
    cell_map = coefficients._cell_map

    def with_k(pair, corner):
        ks, rows = cell_map(pair, corner)
        return (k, *ks[1:]), rows

    monkeypatch.setattr(coefficients, "_cell_map", with_k)
    with pytest.raises(AssertionError, match=rf"phi-path purity violated: ell\({k}\)"):
        expand_symbolic(PAIR_2_5)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda key, c: (key, 2 * c), "coefficient total 1260 != exact count 630"),
        # One more factor of the largest |k|: its unit key is 1.
        (lambda key, c: (key + 1, c), "factor-count invariant M=4"),
    ],
    ids=["N", "M"],
)
def test_expansion_invariants_fail_loudly(monkeypatch, corrupt, message):
    fill = coefficients._scaled_u2

    def corrupted(corner, *args):
        S = fill(corner, *args)
        table = S[corner]
        if isinstance(table, coefficients._Monomials):  # not the width pass
            S[corner] = coefficients._Monomials(*corrupt(table.key, table.c))
        return S

    monkeypatch.setattr(coefficients, "_scaled_u2", corrupted)
    with pytest.raises(AssertionError, match=message):
        expand_symbolic(PAIR_2_5)


def _coprime_pairs_under_the_guard():
    pairs = []
    for k2 in itertools.count(2):
        row = [
            WaveNumberPair(k1, k2)
            for k1 in range(1, k2)
            if math.gcd(k1, k2) == 1
            and expansion_size(WaveNumberPair(k1, k2))[0] <= coefficients.SIZE_GUARD
        ]
        if not row:
            return pairs
        pairs += row


def test_key_widths_fit_one_word():
    # N grows with both wavenumbers, so the first k2 without a pair under
    # the guard ends the list.
    pairs = _coprime_pairs_under_the_guard()
    assert len(pairs) == 33
    totals = []
    for pair in pairs:
        widths = coefficients._key_widths(pair)
        assert len(widths) == len(coefficients._phi_path(pair))
        totals.append(sum(widths))
    assert max(totals) == 39


@pytest.mark.parametrize("pair", [(2, 5), (5, 8), (4, 9), (6, 7)], ids=str)
def test_key_widths_are_the_exponent_bit_lengths(pair):
    pair = WaveNumberPair(*pair)
    largest = expand_symbolic(pair).exponents.max(axis=0).tolist()
    assert coefficients._key_widths(pair) == [int(e).bit_length() for e in largest]


def test_key_widths_over_one_word_fail_loudly(monkeypatch):
    widths = coefficients._key_widths
    def one_bit_too_wide(pair):
        w = widths(pair)
        return [w[0] + 64 - sum(w), *w[1:]]

    monkeypatch.setattr(coefficients, "_key_widths", one_bit_too_wide)
    with pytest.raises(AssertionError, match="monomial keys need 64 bits, more than 63"):
        expand_symbolic(PAIR_2_5)


def test_size_guard():
    with pytest.raises(SizeGuardError) as excinfo:
        expand_symbolic(WaveNumberPair(5, 9))
    assert excinfo.value.context["size"] == 267711444


def test_expansion_evaluate_matches_numeric_recursion():
    ctx = _context(0.17)
    expansion = expand_symbolic(PAIR_2_5)
    via_expansion = expansion.evaluate(ctx.ell) / 2.0**expansion.prefactor_exponent
    sess = numeric_session(ctx)
    via_recursion = sess.u2(*phi_target_indices(PAIR_2_5))
    assert via_expansion == pytest.approx(via_recursion, rel=1e-11)


def test_expansion_evaluate_matches_typed_polynomial():
    ctx = _context()
    expansion = expand_symbolic(PAIR_2_5)
    assert expansion.evaluate(ctx.ell) / 64.0 == pytest.approx(
        oracles.phi_from_monomials(ctx.ell), rel=1e-13
    )


@pytest.mark.parametrize("pair", [(2, 5), (3, 7), (4, 9), (5, 8)], ids=str)
def test_expansion_evaluate_reads_the_rows(pair):
    # One ell call per |k| of the path, and the value of a loop over the
    # monomials: each product left to right from its coefficient, the
    # terms added in canonical order from 0.0.
    pair = WaveNumberPair(*pair)
    expansion = expand_symbolic(pair)
    ctx = MultiplierContext.from_bifurcation(double_bifurcation(pair, 0.2))
    ells = [ctx.ell] + [
        lambda n, end=end: limit_ratio(pair, end, n) for end in (LIMIT_LOW_T, LIMIT_HIGH_T)
    ]
    for ell in ells:
        asked = []

        def counting(k, ell=ell):
            asked.append(k)
            return ell(k)

        value = expansion.evaluate(counting)
        assert sorted(asked) == list(expansion.ks)
        known = {k: ell(k) for k in expansion.ks}
        total = 0.0
        for mono in expansion.monomials:
            term = float(mono.coeff)
            for k in mono.factors:
                term *= known[k]
            total += term
        assert value.hex() == total.hex()


def test_limit_ratio_normalization():
    for endpoint in (LIMIT_LOW_T, LIMIT_HIGH_T):
        assert limit_ratio(PAIR_2_5, endpoint, 6) == pytest.approx(1.0, rel=1e-14)


def test_limit_ratio_rejects_kernel_and_unknown_endpoint():
    with pytest.raises(DomainError):
        limit_ratio(PAIR_2_5, LIMIT_LOW_T, 2)
    with pytest.raises(DomainError):
        limit_ratio(PAIR_2_5, LIMIT_HIGH_T, 5)
    with pytest.raises(DomainError):
        limit_ratio(PAIR_2_5, "T->1/2", 3)


def test_limit_ratio_zero_mode():
    # As T -> 0 the zero mode ratio vanishes; as T -> 1/3 it follows the
    # rational formula g(6)/g(0) with g(m) = -(m^2-4)(m^2-25).
    assert limit_ratio(PAIR_2_5, LIMIT_LOW_T, 0) == 0.0
    assert limit_ratio(PAIR_2_5, LIMIT_HIGH_T, 0) == pytest.approx(
        Fraction(-352, -100), rel=1e-13
    )


def test_limit_ratio_high_T_rational_values():
    def g(m):
        return -(m * m - 4) * (m * m - 25)

    for n in (1, 3, 4, 8, 10):
        assert limit_ratio(PAIR_2_5, LIMIT_HIGH_T, n) == pytest.approx(
            g(6) / g(n), rel=1e-13
        )


def test_high_T_denominator_factorization():
    # m^2 (k1^2 + k2^2) - k1^2 k2^2 - m^4 factors as -(m^2-k1^2)(m^2-k2^2).
    rng = np.random.default_rng(3)
    for _ in range(50):
        k1, k2, m = (int(v) for v in rng.integers(1, 30, size=3))
        lhs = m * m * (k1 * k1 + k2 * k2) - k1 * k1 * k2 * k2 - m**4
        assert lhs == -(m * m - k1 * k1) * (m * m - k2 * k2)


def test_limit_ratio_matches_finite_tension():
    # The endpoint ratios are genuine limits of ell(n)/ell(6).  The zero
    # mode ratio decays like sqrt(T) as T -> 0, so it is still ~2e-3 at
    # T = 1e-6; the nonzero modes are already converged to rounding.
    ctx_low = _context(1e-6)
    assert abs(ctx_low.ell(0) / ctx_low.ell(6)) <= 5e-3
    for n in (1, 3, 4, 8):
        finite = ctx_low.ell(n) / ctx_low.ell(6)
        assert limit_ratio(PAIR_2_5, LIMIT_LOW_T, n) == pytest.approx(finite, rel=1e-6)
    ctx_high = _context(1.0 / 3.0 - 1e-6)
    for n in (0, 1, 3, 4, 8):
        finite = ctx_high.ell(n) / ctx_high.ell(6)
        assert limit_ratio(PAIR_2_5, LIMIT_HIGH_T, n) == pytest.approx(finite, rel=1e-3)


def test_phi_limits_match_symbolic_substitution():
    # Evaluating the exact expansion with the endpoint ratios reproduces
    # the normalized limits computed by the table, at both endpoints and
    # for two pairs.
    for pair in (PAIR_2_5, WaveNumberPair(3, 7)):
        expansion = expand_symbolic(pair)
        for endpoint, via_table in zip((LIMIT_LOW_T, LIMIT_HIGH_T), phi_limits(pair)):
            rho = lambda n: limit_ratio(pair, endpoint, n)
            via_expansion = expansion.evaluate(rho) / 2.0**expansion.prefactor_exponent
            assert via_table == pytest.approx(via_expansion, rel=1e-12)


def test_recursion_against_series_squaring_oracle_small():
    # Spot version of the full oracle comparison: total order <= 4.
    ctx = _context(0.2)
    u_oracle, u2_oracle = oracles.series_squaring_oracle(2, 5, ctx.ell, 4)
    sess = numeric_session(ctx)
    for a1, a2, b1, b2 in itertools.product(range(5), repeat=4):
        order = a1 + a2 + b1 + b2
        if not 1 <= order <= 4:
            continue
        engine = sess.u((a1, a2), (b1, b2))
        oracle = u_oracle[a1, a2, b1, b2]
        assert abs(engine - oracle) <= 1e-12 * max(abs(engine), abs(oracle), 1e-3)
        if order >= 2:
            engine2 = sess.u2((a1, a2), (b1, b2))
            oracle2 = u2_oracle[a1, a2, b1, b2]
            assert abs(engine2 - oracle2) <= 1e-12 * max(
                abs(engine2), abs(oracle2), 1e-3
            )


def test_sessions_are_independent_per_context():
    a = numeric_session(_context(0.1))
    b = numeric_session(_context(0.2))
    assert a.u((2, 0), (0, 0)) != b.u((2, 0), (0, 0))


def test_coefficients_do_not_depend_on_call_history():
    # Criterion 6's 205 indices through one shared session and through a
    # fresh session per index give bitwise equal values.
    ctx = _context(0.2)
    shared = numeric_session(ctx)
    indices = [
        ((a1, a2), (b1, b2))
        for a1, a2, b1, b2 in itertools.product(range(7), repeat=4)
        if 2 <= a1 + a2 + b1 + b2 <= 6
    ]
    assert len(indices) == 205
    via_shared = [shared.u2(*index) for index in indices]
    via_fresh = [numeric_session(ctx).u2(*index) for index in indices]
    assert via_shared == via_fresh


def _reference_sums(pair, corner, ell, one=1.0):
    """Every cell's splitting sum in the box below corner, by a plain loop.

    The splittings are enumerated with itertools.product in lexicographic
    order of the left half, skipping the order-zero halves, and their
    products added one at a time from 0.0.  The table filler must agree
    with this bitwise.
    """
    k1, k2 = pair.k1, pair.k2
    s, sums = {}, {}
    for cell in itertools.product(*(range(n + 1) for n in corner)):
        order = sum(cell)
        if order < 2:
            if order:
                s[cell] = one
            continue
        total = 0.0
        for left in itertools.product(*(range(n + 1) for n in cell)):
            if 0 < sum(left) < order:
                total = total + s[left] * s[tuple(c - h for c, h in zip(cell, left))]
        sums[cell] = total
        s[cell] = ell(k1 * (cell[0] - cell[2]) + k2 * (cell[1] - cell[3])) * total
    return sums


def _hex(value):
    return [float(v).hex() for v in np.ravel(value)]


def _fill(pair, alpha, beta, ell, one):
    """s at the corner (alpha, beta) of one pair's table."""
    corner = (*alpha, *beta)
    S = coefficients._scaled_u2(corner, oracles.table_ell(pair, corner, ell, one), one)
    return S[corner]


def _random_ell(rng, shape):
    """Random multipliers of both signs over six decades, one per |k|."""
    values = {}

    def ell(k):
        if abs(k) not in values:
            values[abs(k)] = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        return values[abs(k)]

    return ell


@pytest.mark.parametrize("shape", [(), (1,), (2,), (200,)], ids=str)
def test_fill_matches_reference_loop_bitwise(shape):
    rng = np.random.default_rng(17)
    for pair, target in [
        (PAIR_2_5, phi_target_indices(PAIR_2_5)),
        (WaveNumberPair(3, 7), phi_target_indices(WaveNumberPair(3, 7))),
        (PAIR_2_5, ((2, 1), (1, 2))),
    ]:
        ell = _random_ell(rng, shape)
        want = _reference_sums(pair, (*target[0], *target[1]), ell)[(*target[0], *target[1])]
        got = _fill(pair, *target, ell, np.ones(shape))
        assert got.shape == shape
        assert _hex(got) == _hex(np.broadcast_to(want, shape))


def test_fill_cancellation_sums_are_sequential():
    # Wide random multipliers of both signs make every cell a cancelling
    # sum of up to 256 products, whose rounding depends on the order of
    # the additions; with one element per cell a pairwise reduction would
    # round differently.
    rng = np.random.default_rng(23)
    corner = (3, 3, 3, 3)
    for _ in range(20):
        ell = _random_ell(rng, (1,))
        want = _reference_sums(PAIR_2_5, corner, ell)[corner]
        got = _fill(PAIR_2_5, (3, 3), (3, 3), ell, np.ones(1))
        assert _hex(got) == _hex(want)


def test_fill_all_negative_zero_cell_is_positive_zero():
    # ell(4) = -0.0 makes s(2, 0, 0, 0) = -0.0, so both splittings of the
    # corner (3, 0, 0, 0) are -0.0; a loop from 0.0 gives +0.0.
    for shape in [(), (2,)]:
        ell = lambda k: np.full(shape, -0.0)  # noqa: E731
        got = _fill(PAIR_2_5, (3, 0), (0, 0), ell, np.ones(shape))
        assert _hex(got) == _hex(np.zeros(shape))
        assert not np.signbit(got).any()


def test_numeric_session_matches_reference_loop_bitwise():
    # Every target with each index <= 3 at (2,5), in full 4-D boxes.  The
    # session fills the larger of (alpha, beta) and (beta, alpha).
    ctx = _context(0.2)
    sums = _reference_sums(PAIR_2_5, (3, 3, 3, 3), ctx.ell)
    sess = numeric_session(ctx)
    checked = 0
    for a1, a2, b1, b2 in itertools.product(range(4), repeat=4):
        if a1 + a2 + b1 + b2 < 2:
            continue
        larger = max((a1, a2, b1, b2), (b1, b2, a1, a2))
        got = sess.scaled_u2((a1, a2), (b1, b2))
        assert type(got) is float
        assert got.hex() == sums[larger].hex()
        checked += 1
    assert checked == 251


@pytest.mark.parametrize(
    "pair, signs",
    [((13, 27), (-1.0, -1.0)), ((19, 20), (1.0, 1.0)), ((23, 30), (1.0, 1.0))],
    ids=["13_27", "19_20", "23_30"],
)
def test_large_pair_limits_match_reference_loop_bitwise(pair, signs):
    pair = WaveNumberPair(*pair)
    alpha, beta = phi_target_indices(pair)
    corner = (*alpha, *beta)
    want = []
    for endpoint in (LIMIT_LOW_T, LIMIT_HIGH_T):

        def rho(k):
            return 0.0 if abs(k) in (pair.k1, pair.k2) else limit_ratio(pair, endpoint, k)

        want.append(_reference_sums(pair, corner, rho)[corner] / 2.0 ** (pair.k1 + pair.k2 - 1))
    got = phi_limits(pair)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert tuple(np.sign(got)) == signs
    if pair.k1 > 13:
        # The T -> 1/3 limits of these pairs are about 1e-25 and positive.
        assert 1e-27 < got[1] < 1e-24
