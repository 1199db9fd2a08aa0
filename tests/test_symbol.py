"""Tests for the dispersion symbol, its partials, and bifurcation solves."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from capwhitham import (
    DomainError,
    ConvergenceError,
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    eval_symbol_deriv,
    turning_point,
)
from capwhitham import symbol
from capwhitham.symbol import _symbol_partials


def test_symbol_reference_values():
    assert eval_symbol(0.25, 1.0) == pytest.approx(oracles.SYMBOL_T025_XI1, rel=1e-15)
    assert eval_symbol(0.1, 2.5) == pytest.approx(oracles.SYMBOL_T01_XI25, rel=1e-15)


def test_symbol_at_zero_is_one():
    for T in (1e-6, 0.1, 0.25, 0.33):
        assert eval_symbol(T, 0.0) == 1.0


def test_symbol_even():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = float(rng.uniform(0.01, 0.33))
        xi = float(rng.uniform(0.0, 30.0))
        assert eval_symbol(T, -xi) == eval_symbol(T, xi)


def test_symbol_series_cutoff_continuity():
    # The tanhc series takes over below |xi| = 1e-2; values on the two
    # sides of the cutoff must agree to full precision.
    for T in (0.05, 0.2):
        below = eval_symbol(T, 1e-2 * (1.0 - 1e-12))
        above = eval_symbol(T, 1e-2 * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-13)


def test_symbol_small_argument_matches_direct_formula():
    # Just above the cutoff the direct tanh evaluation is still accurate.
    for xi in (0.011, 0.02, 0.5):
        direct = math.sqrt((1.0 + 0.2 * xi * xi) * math.tanh(xi) / xi)
        assert eval_symbol(0.2, xi) == pytest.approx(direct, rel=1e-14)


def test_symbol_large_argument_no_overflow():
    # tanh saturates to 1 far before the sech^2 cap; the value must stay
    # finite and match sqrt((1 + T xi^2)/xi).
    for xi in (360.0, 1e4):
        val = eval_symbol(0.1, xi)
        assert math.isfinite(val)
        assert val == pytest.approx(math.sqrt((1.0 + 0.1 * xi * xi) / xi), rel=1e-14)


def test_symbol_invalid_inputs():
    with pytest.raises(DomainError):
        eval_symbol(0.0, 1.0)
    with pytest.raises(DomainError):
        eval_symbol(-0.1, 1.0)
    with pytest.raises(DomainError):
        eval_symbol(0.1, float("nan"))


def test_deriv_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        T = float(rng.uniform(0.01, 0.33))
        xi = float(rng.uniform(0.05, 20.0))
        h = 1e-6 * max(1.0, xi)
        fd = (eval_symbol(T, xi + h) - eval_symbol(T, xi - h)) / (2.0 * h)
        assert eval_symbol_deriv(T, xi) == pytest.approx(fd, rel=2e-8, abs=1e-12)


def test_deriv_small_argument_series_branch():
    # Below the cutoff the derivative comes from the tanhc series pair;
    # to leading order m_T'(xi) = (T - 1/3) xi with an O(xi^2) correction.
    T = 0.15
    for xi in (1e-3, 5e-3, 9.9e-3):
        lead = (T - 1.0 / 3.0) * xi
        assert eval_symbol_deriv(T, xi) == pytest.approx(lead, rel=1e-3)
    fd = (eval_symbol(T, 9e-3 + 3e-5) - eval_symbol(T, 9e-3 - 3e-5)) / 6e-5
    assert eval_symbol_deriv(T, 9e-3) == pytest.approx(fd, rel=1e-6)


def test_deriv_invalid_inputs():
    with pytest.raises(DomainError):
        eval_symbol_deriv(0.2, 0.0)
    with pytest.raises(DomainError):
        eval_symbol_deriv(0.2, -1.0)


def test_symbol_partials_pin_the_symbol_and_both_partials():
    # m and d/dxi m are the public evaluations bit for bit; d/dT m is
    # checked against central differences in T of the independent oracle
    # symbol, within the rounding of the difference (at most 0.75
    # eps m / h measured) plus a relative 1e-9 for its truncation.
    rng = np.random.default_rng(28)
    T = rng.uniform(0.01, 0.33, 400)
    xi = np.concatenate([[0.0], rng.uniform(0.0, 1e-2, 40), rng.uniform(1e-2, 60.0, 359)])
    m, dxi, dT = _symbol_partials(T, xi)
    assert m.tobytes() == eval_symbol(T, xi).tobytes()
    assert dxi[1:].tobytes() == eval_symbol_deriv(T[1:], xi[1:]).tobytes()
    assert (dxi[0], dT[0]) == (0.0, 0.0)
    h = 1e-6 * T
    fd = np.array([
        (oracles.symbol(t + s, x) - oracles.symbol(t - s, x)) / (2.0 * s)
        for t, x, s in zip(T.tolist(), xi.tolist(), h.tolist())
    ])
    eps = np.finfo(float).eps
    assert np.all(np.abs(dT - fd) <= 1e-9 * np.abs(dT) + 2.0 * eps * m / h)


def _names(tree):
    """Every identifier a module names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_only_symbol_names_the_tanh_helpers():
    # The symbol and its partials have one owner: no other module of the
    # package names the libm map or the tanhc pair, so none can grow its
    # own copy of a symbol formula.
    helpers = {"_libm", "_tanhc", "_dtanhc"}
    for path in sorted(Path(symbol.__file__).parent.glob("*.py")):
        named = set(_names(ast.parse(path.read_text())))
        if path.name == "symbol.py":
            assert helpers <= named
        else:
            assert not helpers & named, path.name


def test_turning_point_reference():
    assert turning_point(0.32) == pytest.approx(oracles.TURNING_T032, rel=1e-12)
    assert turning_point(1e-4) == pytest.approx(100.0, rel=1e-3)


def test_turning_point_is_a_sign_change_of_the_derivative():
    for T in (0.05, 0.1215, 0.2, 0.32):
        xi = turning_point(T)
        assert eval_symbol_deriv(T, 0.99 * xi) < 0.0
        assert eval_symbol_deriv(T, 1.01 * xi) > 0.0


def test_turning_point_decreases_with_tension():
    values = [turning_point(T) for T in (0.01, 0.05, 0.1, 0.2, 0.3, 0.33)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_turning_point_rejects_strong_tension():
    with pytest.raises(DomainError):
        turning_point(1.0 / 3.0)
    with pytest.raises(DomainError):
        turning_point(0.4)


def test_turning_point_reach_ends_at_the_ladder():
    # m_T'(xi) = 0 solved for T at the ladder's top 2**40 and bottom 2**-20.
    lo, hi = symbol._TURNING_REACH
    assert (lo, hi) == (2.0**-80, 0.3333333333332929)
    assert turning_point(lo) == 2.0**40
    assert turning_point(hi) == 2.0**-20
    for T in (math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)):
        with pytest.raises(DomainError) as info:
            turning_point(T)
        assert info.value.message == "tension beyond the reach of the turning-point scan"
        assert info.value.context == {"T": T, "reach": (lo, hi)}


def test_pair_validation_and_reduction():
    pair = WaveNumberPair(2, 5)
    assert pair.astuple() == (2, 5)
    assert WaveNumberPair(4, 10).astuple() == (2, 5)
    assert WaveNumberPair(6, 12).astuple() == (1, 2)
    # coerce passes a pair through and builds one from a (k1, k2) tuple.
    assert WaveNumberPair.coerce(pair) is pair
    assert WaveNumberPair.coerce((4, 10)) == pair
    with pytest.raises(DomainError):
        WaveNumberPair.coerce((5, 2))
    with pytest.raises(DomainError):
        WaveNumberPair(5, 2)
    with pytest.raises(DomainError):
        WaveNumberPair(3, 3)
    with pytest.raises(DomainError):
        WaveNumberPair(0, 3)
    with pytest.raises(DomainError):
        WaveNumberPair(2.0, 5)


def test_double_bifurcation_reference_point():
    point = double_bifurcation(WaveNumberPair(2, 5), 0.1215)
    assert point.c0 == pytest.approx(oracles.C0_2_5_T01215, rel=1e-13)
    assert point.kappa0 == pytest.approx(oracles.KAPPA0_2_5_T01215, rel=1e-13)
    assert point.residual <= 1e-13
    assert point.pair.astuple() == (2, 5)


def test_double_bifurcation_accepts_plain_tuples():
    a = double_bifurcation((2, 5), 0.1215)
    b = double_bifurcation(WaveNumberPair(2, 5), 0.1215)
    assert a.kappa0 == b.kappa0


def test_double_bifurcation_invariants():
    rng = np.random.default_rng(23)
    pairs = [(2, 5), (3, 5), (2, 7), (3, 7), (4, 7), (5, 7)]
    for _ in range(20):
        k1, k2 = pairs[int(rng.integers(len(pairs)))]
        T = float(rng.uniform(0.01, 0.32))
        point = double_bifurcation(WaveNumberPair(k1, k2), T)
        assert 0.0 < point.c0 < 1.0
        assert point.residual <= 1e-13
        assert eval_symbol_deriv(T, point.kappa0 * k1) < 0.0
        assert eval_symbol_deriv(T, point.kappa0 * k2) > 0.0
        # The kernel modes sit on either side of the symbol minimum, so
        # every mode strictly between them lies below the wave speed and
        # every mode outside lies above it.
        for n in range(0, k2 + 3):
            m = eval_symbol(T, point.kappa0 * n) if n else 1.0
            if n in (k1, k2):
                continue
            if k1 < n < k2:
                assert m < point.c0
            else:
                assert m > point.c0


def test_double_bifurcation_equivalent_scalar_equation():
    # At the solved point, T kappa^2 k1 k2 equals the tanh cross-ratio
    # (k1 tanh(kappa k2) - k2 tanh(kappa k1)) /
    # (k1 tanh(kappa k1) - k2 tanh(kappa k2)).
    for (k1, k2), T in [((2, 5), 0.1215), ((2, 5), 0.05), ((3, 7), 0.2), ((3, 5), 0.1)]:
        point = double_bifurcation(WaveNumberPair(k1, k2), T)
        kap = point.kappa0
        lhs = T * kap * kap * k1 * k2
        rhs = (k1 * math.tanh(kap * k2) - k2 * math.tanh(kap * k1)) / (
            k1 * math.tanh(kap * k1) - k2 * math.tanh(kap * k2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_double_bifurcation_rejects_bad_tension():
    with pytest.raises((DomainError, ConvergenceError)):
        double_bifurcation(WaveNumberPair(2, 5), 0.34)
    with pytest.raises(DomainError):
        double_bifurcation(WaveNumberPair(2, 5), -0.1)


# --- Invariants that real tensions never break, forced ------------------------

_INVARIANT_T = np.array([0.1, 0.2])
_INVARIANT_PAIRS = [(2, 5), (3, 8)]


def test_turning_points_raise_without_a_sign_change(monkeypatch):
    real = symbol._symbol_partials

    def rising(T, xi):
        m, dm, dT = real(T, xi)
        return m, np.abs(dm) + 1.0, dT

    monkeypatch.setattr(symbol, "_symbol_partials", rising)
    with pytest.raises(ConvergenceError) as info:
        symbol._turning_points(_INVARIANT_T)
    assert info.value.message == "no sign change of m_T' on the geometric scan"
    assert info.value.context == {"T": 0.1}


def test_each_pair_reports_an_unbracketed_bifurcation(monkeypatch):
    xi_t = symbol._turning_points(_INVARIANT_T)
    # A flat symbol makes m_T(k1 kappa) - m_T(k2 kappa) vanish on every bracket.
    monkeypatch.setattr(symbol, "_symbol", lambda T, xi: np.ones(np.broadcast(T, xi).shape))
    *_, errors = symbol._solve_bifurcations(_INVARIANT_PAIRS, _INVARIANT_T, xi_t)
    for (k1, k2), error in zip(_INVARIANT_PAIRS, errors):
        assert isinstance(error, ConvergenceError)
        assert error.message == "bracket endpoints do not straddle a sign change"
        assert error.context == {
            "T": 0.1,
            "bracket": (float(xi_t[0]) / k2, float(xi_t[0]) / k1),
            "gap_values": (0.0, 0.0),
        }


def test_each_pair_reports_its_derivative_signs(monkeypatch):
    xi_t = symbol._turning_points(_INVARIANT_T)
    _, kappa0, _, _ = symbol._solve_bifurcations(_INVARIANT_PAIRS, _INVARIANT_T, xi_t)
    real = symbol._symbol_partials

    def mirrored(T, xi):
        m, dm, dT = real(T, xi)
        return m, -dm, dT

    monkeypatch.setattr(symbol, "_symbol_partials", mirrored)
    *_, errors = symbol._solve_bifurcations(_INVARIANT_PAIRS, _INVARIANT_T, xi_t)
    for row, error in enumerate(errors):
        assert isinstance(error, ConvergenceError)
        assert error.message == "derivative signs violate the double-bifurcation invariant"
        assert set(error.context) == {"T", "kappa0", "derivs"}
        assert (error.context["T"], error.context["kappa0"]) == (0.1, float(kappa0[row, 0]))
        d1, d2 = error.context["derivs"]
        assert d1 > 0.0 > d2


def test_kappa_asymptotes_near_endpoints():
    pair = WaveNumberPair(2, 5)
    low = double_bifurcation(pair, 1e-4)
    assert low.kappa0 == pytest.approx(oracles.kappa_asymptote_low_T(2, 5, 1e-4), rel=0.05)
    T = 1.0 / 3.0 - 1e-4
    high = double_bifurcation(pair, T)
    assert high.kappa0 == pytest.approx(oracles.kappa_asymptote_high_T(2, 5, T), rel=0.05)
