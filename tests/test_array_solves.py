"""Array solves: the in-package Brent solver and the array symbol.

Brent's method is checked bitwise against scipy's ``brentq``, and every
array evaluation against the scalar one.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from capwhitham import (
    LIMIT_HIGH_T,
    LIMIT_LOW_T,
    ConvergenceError,
    DomainError,
    MultiplierContext,
    NearResonanceError,
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    eval_symbol_deriv,
    limit_ratio,
    multiplier,
    phi_limits,
    phi_target_indices,
    turning_point,
)
from capwhitham import symbol
from capwhitham.coefficients import _phi_path, _scaled_u2
from capwhitham.symbol import (
    _brentq,
    _solve_bifurcations,
    _turning_points,
    bifurcation_grid,
    dtanhc,
    tanhc,
)
from capwhitham.symmetry_breaking import (
    STATUS_PASSES,
    _clustered_grid,
    _phi_on,
    _tension_grid,
    exclusion_check,
)


def _smooth(p):
    # Only +, * and / enter, so a float and an array argument round alike.
    return lambda x: (x - p[0]) * (1.0 + p[1] * x * x) / (2.0 + p[2] * x + x * x)


def test_brentq_matches_scipy_bitwise():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        p = (rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0), rng.uniform(-1.0, 1.0))
        f = _smooth(p)
        a, b = float(rng.uniform(-3.0, p[0] - 0.01)), float(rng.uniform(p[0] + 0.01, 3.0))
        for xtol in (1e-14, 1e-10, 1e-4):
            assert _brentq(f, a, b, xtol).hex() == brentq(f, a, b, xtol=xtol).hex()
            checked += 1
    assert checked == 180


# One bracket as a scalar and as a one-element array take the Python-float
# loop of _brentq; the same bracket twice takes the lockstep one.
_BRACKET_FORMS = {
    "scalar": lambda a, b: (a, b),
    "one-element": lambda a, b: (np.array([a]), np.array([b])),
    "lockstep": lambda a, b: (np.array([a, a]), np.array([b, b])),
}


@pytest.mark.parametrize("form", list(_BRACKET_FORMS))
def test_brentq_returns_an_endpoint_root(form):
    f = lambda x: x - 1.0  # noqa: E731
    for a, b in ((1.0, 2.5), (-0.5, 1.0)):
        bracket = _BRACKET_FORMS[form](a, b)
        got = _brentq(f, *bracket, 1e-12)
        if form == "scalar":
            assert type(got) is float
        assert np.shape(got) == np.shape(bracket[0])
        assert brentq(f, a, b, xtol=1e-12).hex() == (1.0).hex()
        assert [x.hex() for x in np.ravel(got).tolist()] == [(1.0).hex()] * np.size(got)
    got = _brentq(f, np.array([1.0, 0.0]), np.array([2.0, 1.0]), 1e-12)
    assert got.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("form", list(_BRACKET_FORMS))
def test_brentq_zero_divisor_rejects_the_step(form):
    # Values near 1e-300 make the slopes' product underflow, so an
    # extrapolation divides 0 by 0: the NaN step fails the step test, as
    # in scipy, and neither loop raises or warns.
    f = lambda x: 1e-300 * (x * x * x - 2.0)  # noqa: E731
    got = _brentq(f, *_BRACKET_FORMS[form](0.0, 2.0), 1e-12)
    want = brentq(f, 0.0, 2.0, xtol=1e-12)
    assert [x.hex() for x in np.ravel(got).tolist()] == [want.hex()] * np.size(got)


def test_one_bracket_takes_scipy_iterates():
    # The brackets of test_brentq_matches_scipy_bitwise, counting f calls.
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = (rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0), rng.uniform(-1.0, 1.0))
        f = _smooth(p)
        a, b = float(rng.uniform(-3.0, p[0] - 0.01)), float(rng.uniform(p[0] + 0.01, 3.0))
        for xtol in (1e-14, 1e-10, 1e-4):
            want, info = brentq(f, a, b, xtol=xtol, full_output=True)
            shapes = []

            def counted(x):
                shapes.append(np.shape(x))
                return f(x)

            assert _brentq(counted, a, b, xtol).hex() == want.hex()
            assert len(shapes) == info.function_calls
            # Iterates reach f as one-element arrays.
            assert shapes[2:] == [(1,)] * (len(shapes) - 2)
            shapes.clear()
            assert _brentq(counted, a, b, xtol, fa=f(a), fb=f(b)).hex() == want.hex()
            assert len(shapes) == info.function_calls - 2


@pytest.mark.parametrize("pair, T", [((2, 5), 0.1215), ((3, 8), 0.15), ((4, 9), 0.3)])
def test_one_tension_solves_reuse_their_bracket_values(monkeypatch, pair, T):
    # The turning-point ladder and the straddle check have evaluated both
    # bracket endpoints, so each Brent solve calls its symbol two times
    # fewer than scipy's brentq, which evaluates them itself, calls f.
    calls = {"_symbol": 0, "_symbol_partials": 0}
    for name, fn in [(name, getattr(symbol, name)) for name in calls]:
        def counted(*a, name=name, fn=fn):
            calls[name] += 1
            return fn(*a)

        monkeypatch.setattr(symbol, name, counted)
    solves = []
    brent = symbol._brentq

    def recorded(f, a, b, xtol, fa=None, fb=None, args=()):
        solves.append((f, a.item(), b.item(), xtol, args))
        return brent(f, a, b, xtol, fa, fb, args)

    monkeypatch.setattr(symbol, "_brentq", recorded)
    xi_t = _turning_points(np.array([T]))
    turning = dict(calls)
    calls.update(_symbol=0, _symbol_partials=0)
    kappa0 = _solve_bifurcations([pair], np.array([T]), xi_t)[1]
    bifurcation = dict(calls)

    scipy_calls = []
    for (f, a, b, xtol, args), root in zip(solves, [xi_t[0], kappa0[0, 0]]):
        g = lambda x: f(np.array([x]), *args)[0]  # noqa: E731
        want, info = brentq(g, a, b, xtol=xtol, full_output=True)
        assert root.hex() == want.hex()
        scipy_calls.append(info.function_calls)
    # One ladder call and the iterates; two straddle calls and the
    # iterates, then one call for the symbol and slope at kappa0.
    assert turning == {"_symbol": 0, "_symbol_partials": 1 + scipy_calls[0] - 2}
    assert bifurcation == {"_symbol": 2 + scipy_calls[1] - 2, "_symbol_partials": 1}


def test_one_bracket_roots_equal_lockstep_roots():
    # The batch of test_brentq_lockstep_elements_take_scipy_iterates, each
    # bracket also solved alone with its own parameters.
    rng = np.random.default_rng(5)
    params = rng.uniform([-1.0, 0.0, -1.0], [1.0, 30.0, 1.0], size=(40, 3))
    a = params[:, 0] - rng.uniform(0.01, 2.0, 40)
    b = params[:, 0] + rng.uniform(0.01, 2.0, 40)
    f = lambda x, *p: _smooth(p)(x)  # noqa: E731
    batch = _brentq(f, a, b, 1e-13, args=tuple(params.T))
    for i in range(40):
        one = _brentq(f, a[i:i + 1], b[i:i + 1], 1e-13, args=tuple(params[i:i + 1].T))
        assert one.shape == (1,)
        assert one[0].hex() == batch[i].hex()


def test_brentq_lockstep_elements_take_scipy_iterates():
    rng = np.random.default_rng(5)
    params = rng.uniform([-1.0, 0.0, -1.0], [1.0, 30.0, 1.0], size=(40, 3))
    a = params[:, 0] - rng.uniform(0.01, 2.0, 40)
    b = params[:, 0] + rng.uniform(0.01, 2.0, 40)
    got = _brentq(lambda x, *p: _smooth(p)(x), a, b, 1e-13, args=tuple(params.T))
    iterations = set()
    for i, p in enumerate(params):
        want, info = brentq(_smooth(p), a[i], b[i], xtol=1e-13, full_output=True)
        assert got[i].hex() == want.hex()
        iterations.add(info.iterations)
    # Elements finish at different steps while the others go on.
    assert len(iterations) > 3


def _step(x):
    return np.where(x < 0.1, -1.0, 1.0)


@pytest.mark.parametrize("form", list(_BRACKET_FORMS))
def test_brentq_errors(form):
    bracket = _BRACKET_FORMS[form]
    # NaN at an endpoint, then at the first iterate, the bisection point.
    with pytest.raises(ValueError) as err:
        _brentq(lambda x: np.where(x > 0.25, np.nan, x - 0.5), *bracket(0.0, 1.0), 1e-12)
    assert str(err.value) == "The function value at x=1.0 is NaN; solver cannot continue."
    with pytest.raises(ValueError) as err:
        _brentq(lambda x: np.where(abs(x - 0.5) < 0.1, np.nan, x - 0.5), *bracket(0.0, 1.0), 1e-12)
    assert str(err.value) == "The function value at x=0.5 is NaN; solver cannot continue."
    with pytest.raises(ValueError) as err:
        _brentq(lambda x: x * x + 1.0, *bracket(-1.0, 1.0), 1e-12)
    assert str(err.value) == "f(a) and f(b) must have different signs"
    # A jump with f = +-1 admits no short steps, so 100 iterations cannot
    # shrink a bracket of 1e300 to the tolerance: scipy raises, and
    # _brentq returns NaN for the element.
    with pytest.raises(RuntimeError):
        brentq(lambda x: float(_step(x)), -1e300, 1e300, xtol=1e-12)
    got = _brentq(_step, *bracket(-1e300, 1e300), 1e-12)
    if form == "scalar":
        assert type(got) is float
    assert np.shape(got) == np.shape(bracket(0.0, 1.0)[0])
    assert np.isnan(got).all()


def test_brentq_marks_only_the_unconverged_element():
    # The jump of test_brentq_errors in lockstep with an ordinary bracket:
    # the jump's element is NaN, and the other takes scipy's iterates.
    p = (0.3, 1.5, -0.4)

    def f(x, jump):
        fx = np.empty_like(x)
        fx[jump] = _step(x[jump])
        fx[~jump] = _smooth(p)(x[~jump])
        return fx

    got = _brentq(f, np.array([-1e300, -1.0]), np.array([1e300, 2.0]), 1e-12,
                  args=(np.array([True, False]),))
    assert math.isnan(got[0])
    assert got[1].hex() == brentq(_smooth(p), -1.0, 2.0, xtol=1e-12).hex()


def _unconverged_from(index, nargs):
    """A wrapper of ``_brentq`` whose solves with ``nargs`` parameter
    arrays return NaN from element ``index`` on, as unconverged elements."""
    real = symbol._brentq

    def brent(f, a, b, xtol, fa=None, fb=None, args=()):
        root = real(f, a, b, xtol, fa, fb, args)
        if len(args) == nargs:
            root = np.where(np.arange(np.size(root)) >= index, np.nan, root)
        return root

    return brent


def test_turning_point_raises_an_unconverged_brent_element(monkeypatch):
    monkeypatch.setattr(symbol, "_brentq", _unconverged_from(1, 1))
    assert math.isfinite(turning_point(0.1))
    with pytest.raises(ConvergenceError) as err:
        _turning_points(np.array([0.05, 0.1, 0.2]))
    assert err.value.message == "Brent's method did not converge in 100 iterations"
    assert err.value.context == {"T": 0.1}
    monkeypatch.setattr(symbol, "_brentq", _unconverged_from(0, 1))
    with pytest.raises(ConvergenceError) as err:
        turning_point(0.1215)
    assert err.value.context == {"T": 0.1215}


def test_bifurcation_grid_raises_an_unconverged_brent_element(monkeypatch):
    # Only the bifurcation solve (two parameter arrays) fails, from its
    # second tension on; the turning points converge.
    monkeypatch.setattr(symbol, "_brentq", _unconverged_from(1, 2))
    assert math.isfinite(bifurcation_grid((2, 5), [0.05])[0].kappa0)
    with pytest.raises(ConvergenceError) as err:
        bifurcation_grid((2, 5), [0.05, 0.1, 0.2])
    assert err.value.message == "Brent's method did not converge in 100 iterations"
    assert err.value.context == {"T": 0.1}



def test_only_the_three_checked_solves_use_brentq():
    # Each function that uses _brentq turns its NaN for an unconverged
    # element into a ConvergenceError, which the turning-point and
    # bifurcation tests above and the phi_root test of
    # test_symmetry_breaking check; a new user has to join them before it
    # can return a silent NaN.
    users = set()
    for path in sorted(Path(symbol.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if "_brentq" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    users.add((path.name, name))
                elif isinstance(node, ast.alias) and node.name == "_brentq":
                    assert node.asname is None, path.name
    assert users == {
        ("symbol.py", "_turning_points"),
        ("symbol.py", "_solve_bifurcations"),
        ("symmetry_breaking.py", "_phi_roots"),
    }


# float.hex values printed at commit f5f7174 by scipy's brentq.
_TURNING_PINS = {
    1e-4: "0x1.9000000000000p+6",
    0.05: "0x1.1d8965f3278f2p+2",
    0.1215: "0x1.5ed2c36bddb93p+1",
    0.2: "0x1.ddd77e77d840bp+0",
    0.32: "0x1.17da583087aa0p-1",
    1.0 / 3.0 - 1e-4: "0x1.8491ff8f70195p-5",
}


def test_turning_point_bitwise_pins():
    for T, pin in _TURNING_PINS.items():
        assert turning_point(T).hex() == pin


@pytest.mark.parametrize("pair", [(2, 5), (7, 12), (11, 12)])
def test_double_bifurcation_equals_grid_solve(pair):
    pair = WaveNumberPair(*pair)
    grid = _clustered_grid(200, 1e-4, 1.0 / 3.0 - 1e-4)
    points = bifurcation_grid(pair, grid)
    assert len(points) == 200
    for T, point in zip(grid.tolist(), points):
        assert double_bifurcation(pair, T) == point
    # Each tension alone (one bracket) against the grid (lockstep).
    xi_t = [x.hex() for x in _turning_points(grid).tolist()]
    assert [turning_point(T).hex() for T in grid.tolist()] == xi_t


@pytest.mark.parametrize("grid_size", [64, 200])
def test_batched_bifurcations_equal_per_pair_grids(grid_size):
    # Every pair a scan up to k2 = 12 may root-scan, in one solve.
    pairs = [
        (k1, k2) for k2 in range(3, 13) for k1 in range(1, k2)
        if math.gcd(k1, k2) == 1 and exclusion_check(k1, k2) == STATUS_PASSES
    ]
    grid, xi_t = _tension_grid(grid_size)
    *arrays, errors = _solve_bifurcations(pairs, grid, xi_t)
    assert errors == [None] * len(pairs)
    for row, pair in enumerate(pairs):
        points = bifurcation_grid(pair, grid)
        for array, name in zip(arrays, ("c0", "kappa0", "residual")):
            alone = np.array([getattr(point, name) for point in points])
            assert array[row].tobytes() == alone.tobytes(), (pair, name)


def test_bifurcation_grid_raises_first_failing_tension():
    pair = WaveNumberPair(2, 5)
    with pytest.raises(DomainError) as err:
        bifurcation_grid(pair, [0.1, 0.2, 0.4, -1.0])
    assert err.value.context == {"T": 0.4}
    assert "double bifurcation points" in err.value.message

# --- The array symbol and multiplier against scalar calls --------------------


def _libm_symbol(T: float, xi: float) -> float:
    # The scalar formula, with the tanhc series below 1e-2.
    x = abs(xi)
    if x < 1e-2:
        x2 = x * x
        tc = 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0 - 17.0 * x2**3 / 315.0
    else:
        tc = math.tanh(x) / x
    return math.sqrt((1.0 + T * xi * xi) * tc)


def test_array_symbol_bitwise_equals_scalar():
    rng = np.random.default_rng(17)
    xi = np.concatenate([
        rng.uniform(0.0, 1e-2, 300),      # series branch
        rng.uniform(1e-2, 20.0, 300),
        rng.uniform(20.0, 400.0, 100),    # tanh saturated, sech^2 capped
        [0.0, 1e-2, 20.0, 350.0],
    ])
    xi = np.concatenate([xi, -xi[::7]])
    T = rng.uniform(1e-4, 1.0 / 3.0, xi.size)
    m = eval_symbol(T, xi)
    assert m.shape == xi.shape
    for t, x, got in zip(T.tolist(), xi.tolist(), m.tolist()):
        assert got == eval_symbol(t, x) == _libm_symbol(t, x)
    for fn in (tanhc, dtanhc):
        values = fn(xi)
        assert all(v == fn(x) for v, x in zip(values.tolist(), xi.tolist()))
    positive = np.abs(xi) + 1e-3
    d = eval_symbol_deriv(T, positive)
    assert all(v == eval_symbol_deriv(t, x) for v, t, x in zip(d.tolist(), T.tolist(), positive.tolist()))
    # One tension broadcasts over a frequency grid, and a scalar stays a float.
    assert eval_symbol(0.2, xi).tolist() == [eval_symbol(0.2, x) for x in xi.tolist()]
    assert type(eval_symbol(0.2, 1.5)) is float


def test_array_symbol_names_first_bad_element():
    with pytest.raises(DomainError) as err:
        eval_symbol(np.array([0.1, -0.2, -0.3]), 1.0)
    assert err.value.context == {"T": -0.2}
    with pytest.raises(DomainError) as err:
        eval_symbol(0.1, np.array([1.0, np.inf, np.nan]))
    assert err.value.context == {"xi": math.inf}


def test_array_multiplier_bitwise_equals_scalar():
    pair = WaveNumberPair(2, 5)
    grid = np.linspace(0.01, 0.32, 40)
    points = bifurcation_grid(pair, grid)
    ctx = MultiplierContext(
        pair=pair,
        c=np.array([p.c0 for p in points]),
        kappa=np.array([p.kappa0 for p in points]),
        T=grid,
    )
    for k in (0, 1, 2, 3, 5, -7, 12, 60):
        ell = multiplier(ctx, k)
        assert ell.shape == grid.shape
        for got, p in zip(ell.tolist(), points):
            assert got == multiplier(MultiplierContext.from_bifurcation(p), k)
    for k in (2, 5, -2):
        assert multiplier(ctx, k).tolist() == [0.0] * grid.size
    # A scalar context over an array of wavenumbers, kernel modes and k = 0.
    one = MultiplierContext.from_bifurcation(points[7])
    ks = np.arange(-3, 64)
    assert multiplier(one, ks).tolist() == [multiplier(one, int(k)) for k in ks]
    assert multiplier(one, np.array([2, 5])).tolist() == [0.0, 0.0]


def test_array_multiplier_names_first_resonance():
    pair = WaveNumberPair(2, 5)
    points = bifurcation_grid(pair, [0.05, 0.1, 0.15, 0.2, 0.25])
    c = np.array([p.c0 for p in points])
    kappa = np.array([p.kappa0 for p in points])
    T = np.array([p.T for p in points])
    # Put the wave speed of element 3 onto the symbol value of mode 6.
    c[3] = eval_symbol(T[3], kappa[3] * 6)
    ctx = MultiplierContext(pair=pair, c=c, kappa=kappa, T=T)
    multiplier(ctx, 4)
    with pytest.raises(NearResonanceError) as err:
        multiplier(ctx, -6)
    assert err.value.context["k"] == 6
    assert err.value.context["element"] == 3
    one = MultiplierContext(pair=pair, c=float(c[3]), kappa=float(kappa[3]), T=float(T[3]))
    with pytest.raises(NearResonanceError) as err:
        multiplier(one, np.arange(10))
    assert err.value.context["k"] == 6
    assert "element" not in err.value.context


def test_multiplier_column_names_the_context_element():
    # A column of wavenumbers against a grid context, as a phi table asks:
    # the error names the smallest resonant |k| and the index of its
    # tension, not the flat index of the (k, tension) broadcast.
    pair = WaveNumberPair(2, 5)
    points = bifurcation_grid(pair, [0.05, 0.1, 0.15, 0.2, 0.25])
    c = np.array([p.c0 for p in points])
    kappa = np.array([p.kappa0 for p in points])
    T = np.array([p.T for p in points])
    c[1] = eval_symbol(T[1], kappa[1] * 8)
    c[3] = eval_symbol(T[3], kappa[3] * 6)
    column = np.arange(10)[:, None]
    with pytest.raises(NearResonanceError) as err:
        multiplier(MultiplierContext(pair=pair, c=c, kappa=kappa, T=T), column)
    assert (err.value.context["k"], err.value.context["element"]) == (6, 3)
    # A one-tension context broadcasts along the column: element 0.
    one = MultiplierContext(pair=pair, c=c[1:2], kappa=kappa[1:2], T=T[1:2])
    with pytest.raises(NearResonanceError) as err:
        multiplier(one, column)
    assert (err.value.context["k"], err.value.context["element"]) == (8, 0)


# --- One multiplier and limit-ratio call per table against per-|k| calls ----

_COPRIME_30 = [
    WaveNumberPair(k1, k2) for k2 in range(2, 31) for k1 in range(1, k2) if math.gcd(k1, k2) == 1
]


def _per_k_phi(pair, ell, one):
    """phi from a table that asks ell(k) once per |k|, as the scalar paths do."""
    alpha, beta = phi_target_indices(pair)
    corner = (*alpha, *beta)
    with np.errstate(over="ignore", invalid="ignore"):
        S = _scaled_u2(corner, oracles.table_ell(pair, corner, ell, one), one)
        return S[corner] / 2.0 ** (pair.k1 + pair.k2 - 1)


@pytest.mark.parametrize(
    "pair", [(1, 2), (2, 5), (7, 10), (4, 9), (7, 20)], ids=lambda p: f"{p[0]}_{p[1]}"
)
def test_one_call_phi_values_equal_per_k_fill(pair):
    # A grid fill, a one-tension refinement fill and a two-element slope
    # batch; (7, 20) is finite on the whole default grid.
    pair = WaveNumberPair(*pair)
    grid, xi_t = _tension_grid(200)
    for T in (grid, np.array([0.1215]), np.array([0.1215 + 1e-5, 0.1215 - 1e-5])):
        c0, kappa0, _, errors = _solve_bifurcations(
            [pair.astuple()], T, xi_t if T is grid else None
        )
        assert errors == [None]
        ctx = MultiplierContext(pair=pair, c=c0[0], kappa=kappa0[0], T=T)
        want = _per_k_phi(pair, ctx.ell, np.ones(T.shape))
        assert _phi_on([pair], T, xi_t if T is grid else None)[pair][0].tobytes() == want.tobytes()


def _closed_form_ratio(k1, k2, endpoint, n):
    """limit_ratio's closed forms for one n, in Python floats and exact integers."""
    ref = k2 + 1
    if endpoint == LIMIT_LOW_T:
        if n == 0:
            return 0.0
        root = math.sqrt(k1 + k2)
        return (root - math.sqrt(k1 * k2 / ref + ref)) / (root - math.sqrt(k1 * k2 / n + n))

    def g(m):
        return m * m * (k1 * k1 + k2 * k2) - k1 * k1 * k2 * k2 - m**4

    return g(ref) / g(n)


def test_array_limit_ratio_equals_scalar():
    with warnings.catch_warnings():
        # The T -> 0 closed form divides by n, and n = 0 is in every array.
        warnings.simplefilter("error", RuntimeWarning)
        for pair in _COPRIME_30:
            n = [0, *_phi_path(pair)]
            for endpoint in (LIMIT_LOW_T, LIMIT_HIGH_T):
                want = [_closed_form_ratio(pair.k1, pair.k2, endpoint, m).hex() for m in n]
                got = limit_ratio(pair, endpoint, np.array(n))
                assert [float(v).hex() for v in got] == want
                assert [limit_ratio(pair, endpoint, m).hex() for m in n] == want
    with pytest.raises(DomainError) as err:
        limit_ratio((2, 5), LIMIT_HIGH_T, np.array([0, 3, -5, 2]))
    assert err.value.context["n"] == 5


def test_phi_limits_equal_per_k_fill():
    for pair in [pair for pair in _COPRIME_30 if pair.k2 <= 20]:

        def rho(k):
            k1, k2 = pair.k1, pair.k2
            return np.array([_closed_form_ratio(k1, k2, e, k) for e in (LIMIT_LOW_T, LIMIT_HIGH_T)])

        want = _per_k_phi(pair, rho, np.ones(2))
        assert [v.hex() for v in phi_limits(pair)] == [float(v).hex() for v in want]
