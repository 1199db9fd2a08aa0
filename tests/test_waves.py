"""Tests for kernel synthesis, the remainder solve, and the wave solvers."""

import math
from dataclasses import fields, replace
from functools import cached_property, partial

import numpy as np
import pytest

import oracles
from capwhitham import (
    ConvergenceError,
    DomainError,
    ModalParameters,
    MultiplierContext,
    SizeGuardError,
    SolverSettings,
    TruncationError,
    WaveNumberPair,
    WaveProfile,
    asymmetry_test,
    double_bifurcation,
    eval_symbol,
    inner_products,
    linear_dependence_residual,
    multiplier,
    phi_root,
    residual_j_inf,
    solve_w,
    solve_wave,
    symmetric_solve,
    synthesize_v,
    variational_identity,
)
from capwhitham.waves import assemble_profile

PAIR_2_5 = WaveNumberPair(2, 5)
T0 = oracles.T0_2_5


def _point(T=0.1215):
    return double_bifurcation(PAIR_2_5, T)


def _random_profile(rng, K=64, pair=PAIR_2_5):
    """A random conjugate-symmetric truncated profile with metadata."""
    modes = np.zeros(K + 1, dtype=complex)
    k = np.arange(K + 1)
    scale = 0.01 / (1.0 + k * k)
    modes[1:] = scale[1:] * (
        rng.standard_normal(K) + 1j * rng.standard_normal(K)
    )
    modes[0] = 0.01 * rng.standard_normal()
    return WaveProfile(
        modes=modes,
        K=K,
        pair=pair,
        params=ModalParameters(0.01, 0.01, 0.1, 0.4),
        c=float(rng.uniform(0.5, 0.99)),
        kappa=float(rng.uniform(0.4, 1.2)),
        T=float(rng.uniform(0.03, 0.3)),
    )


def test_modal_parameters_validation_and_reduction():
    with pytest.raises(DomainError):
        ModalParameters(-0.1, 0.2)
    params = ModalParameters(0.1, 0.2, theta1=2.0 * math.pi / 2.0 + 0.3, theta2=-0.1)
    reduced = params.reduced(PAIR_2_5)
    assert reduced.theta1 == pytest.approx(0.3, abs=1e-12)
    # Reduction keeps a signed representative but preserves the phases
    # exp(i*k*theta) that enter the synthesis.
    assert abs(reduced.theta2) < 2.0 * math.pi / 5.0
    assert np.exp(1j * 5 * reduced.theta2) == pytest.approx(
        np.exp(1j * 5 * params.theta2), abs=1e-12
    )


@pytest.mark.parametrize(
    "values",
    [
        (math.nan, 0.01, 0.0, 0.0),
        (0.01, 0.01, math.inf, 0.0),
        (0.01, -math.inf, 0.0, 0.0),
        (0.01, 0.01, 0.0, math.nan),
    ],
)
def test_modal_parameters_reject_non_finite(values):
    with pytest.raises(DomainError, match="finite"):
        ModalParameters(*values)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("field", ["tol_w"])
def test_solver_settings_need_positive_finite_tolerances(field, value):
    with pytest.raises(DomainError, match="tolerances must be positive and finite"):
        SolverSettings(**{field: value})


def test_solver_settings_hold_only_the_truncation_and_w_tolerance():
    # The parameter Newton's tolerance is a constant, not a setting.
    from capwhitham import waves

    assert [f.name for f in fields(SolverSettings)] == ["K", "tol_w"]
    assert waves._TOL_NEWTON == 1e-12
    with pytest.raises(TypeError):
        SolverSettings(tol_newton=1e-12)


@pytest.mark.parametrize("K", [0, -3])
def test_solver_settings_need_a_positive_truncation(K):
    with pytest.raises(DomainError, match="K >= 1"):
        SolverSettings(K=K)


def test_solver_settings_guard_the_truncation_size():
    # The dense remainder arrays grow as K**2: K = 4096 is the largest
    # order allowed, and the next is refused before any work.
    assert SolverSettings(K=4096).K == 4096
    with pytest.raises(SizeGuardError) as info:
        SolverSettings(K=4097)
    assert info.value.message == "truncation order exceeds the size guard"
    assert info.value.context == {"size": 4097, "guard": 4096}


def test_synthesize_places_half_amplitudes():
    params = ModalParameters(0.1, 0.2, theta1=0.3, theta2=0.15)
    v = synthesize_v(PAIR_2_5, params, K=16)
    assert v.modes[2] == pytest.approx(0.05 * np.exp(1j * 2 * 0.3))
    assert v.modes[5] == pytest.approx(0.1 * np.exp(1j * 5 * 0.15))
    others = [k for k in range(17) if k not in (2, 5)]
    assert np.all(v.modes[others] == 0.0)
    # A bare kernel profile has no (c, kappa, T), so it has no J terms.
    with pytest.raises(DomainError, match="metadata"):
        residual_j_inf(v)


def test_synthesize_sample_matches_cosines():
    params = ModalParameters(0.07, 0.11, theta1=0.5, theta2=0.2)
    v = synthesize_v(PAIR_2_5, params, K=32)
    n = 256
    x = 2.0 * np.pi * np.arange(n) / n
    expected = 0.07 * np.cos(2 * (x + 0.5)) + 0.11 * np.cos(5 * (x + 0.2))
    assert np.allclose(v.sample(n), expected, atol=1e-14)


def test_synthesize_unimodal_peak_and_mean():
    theta1 = 0.4
    v = synthesize_v(PAIR_2_5, ModalParameters(1.0, 0.0, theta1=theta1), K=16)
    samples = v.sample(4096)
    x = 2.0 * np.pi * np.arange(4096) / 4096
    # The grid straddles the crest, so the sampled maximum sits below 1
    # by at most (k1 * pi / n)^2 / 2.
    assert samples.max() == pytest.approx(1.0, abs=2e-6)
    assert samples.max() <= 1.0 + 1e-14
    assert abs(samples.mean()) <= 1e-14
    peak_x = x[np.argmax(samples)]
    period = 2.0 * np.pi / 2
    distance = (peak_x + theta1) % period
    assert min(distance, period - distance) <= 2.0 * np.pi / 4096 + 1e-12


def test_synthesize_requires_resolvable_truncation():
    with pytest.raises(TruncationError):
        synthesize_v(PAIR_2_5, ModalParameters(0.1, 0.1), K=9)


def test_wave_profile_mode_conjugate_extension():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.1, 0.2, 0.3, 0.1), K=12)
    for k in (0, 2, 5, 12):
        assert v.mode(-k) == np.conj(v.mode(k))
    assert v.mode(13) == 0.0


def test_wave_profile_sample_length_validation():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.1, 0.1), K=16)
    with pytest.raises(DomainError):
        v.sample(16)


def test_asymmetry_test_cases():
    p = lambda dth: ModalParameters(0.1, 0.1, theta1=dth, theta2=0.0)
    assert asymmetry_test(PAIR_2_5, p(math.pi / 20.0))
    assert not asymmetry_test(PAIR_2_5, p(math.pi / 10.0))
    assert not asymmetry_test(PAIR_2_5, p(0.0))
    assert not asymmetry_test(PAIR_2_5, p(3.0 * math.pi / 10.0))
    assert not asymmetry_test(PAIR_2_5, ModalParameters(0.1, 0.0, theta1=0.3))
    assert not asymmetry_test(PAIR_2_5, ModalParameters(0.0, 0.1, theta2=0.3))
    # The test respects its tolerance around the symmetric lattice.
    assert not asymmetry_test(PAIR_2_5, p(math.pi / 10.0 + 1e-14))
    assert asymmetry_test(PAIR_2_5, p(math.pi / 10.0 + 1e-9))
    # With theta1 < theta2 the phase difference is negative; each verdict
    # stands.
    for dth, asymmetric in [
        (math.pi / 20.0, True),
        (math.pi / 10.0, False),
        (3.0 * math.pi / 10.0, False),
        (math.pi / 10.0 + 1e-9, True),
    ]:
        swapped = ModalParameters(0.1, 0.1, theta1=0.0, theta2=dth)
        assert asymmetry_test(PAIR_2_5, swapped) is asymmetric
    # Phases a thousand periods out round the sine otherwise than their
    # reduced forms, which the solvers use; the verdict follows the latter.
    far = p(1000.0 * math.pi + math.pi / 10.0 + 1e-11)
    assert asymmetry_test(PAIR_2_5, far) is asymmetry_test(PAIR_2_5, far.reduced(PAIR_2_5))


def test_solve_w_zero_kernel_gives_zero():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.0, 0.0), K=32)
    point = _point()
    result = solve_w(v, point.c0, point.kappa0, 0.1215)
    assert result.method == "picard"
    assert result.iterations == 1
    assert np.all(result.w.modes == 0.0)


def test_solve_w_vanishes_on_kernel_modes():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.01, 0.01, 0.1, 0.2), K=32)
    point = _point()
    result = solve_w(v, point.c0, point.kappa0, 0.1215)
    assert result.w.modes[2] == 0.0
    assert result.w.modes[5] == 0.0


def test_solve_w_leading_order_coefficients():
    # To leading order w = L P (v^2): mode 2*k1 carries ell(4) r1^2/4
    # and mode 0 carries ell(0) r1^2/2.  The neglected corrections are
    # relative O(r1^2) with multiplier-sized constants, so shrink r1
    # until they sit well below the tolerance.
    h = 1e-4
    theta1 = 0.25
    v = synthesize_v(PAIR_2_5, ModalParameters(h, 0.0, theta1=theta1), K=32)
    point = _point()
    ctx = MultiplierContext.from_bifurcation(point)
    result = solve_w(v, point.c0, point.kappa0, 0.1215)
    expected_4 = ctx.ell(4) * h * h / 4.0 * np.exp(1j * 4 * theta1)
    assert result.w.modes[4] == pytest.approx(expected_4, rel=1e-3)
    assert result.w.modes[0] == pytest.approx(ctx.ell(0) * h * h / 2.0, rel=1e-3)


def test_solve_w_translation_equivariance():
    # Translating the kernel phases rotates every remainder mode by the
    # same shift.
    shift = 0.37
    point = _point()
    base = ModalParameters(0.004, 0.006, theta1=0.1, theta2=0.3)
    moved = ModalParameters(0.004, 0.006, theta1=0.1 + shift, theta2=0.3 + shift)
    w0 = solve_w(synthesize_v(PAIR_2_5, base, 32), point.c0, point.kappa0, 0.1215).w
    w1 = solve_w(synthesize_v(PAIR_2_5, moved, 32), point.c0, point.kappa0, 0.1215).w
    k = np.arange(33)
    rotated = w0.modes * np.exp(1j * k * shift)
    assert np.allclose(w1.modes, rotated, atol=1e-15)


def test_solve_w_reflection_equivariance():
    # Negating both phases conjugates the remainder modes.
    point = _point()
    base = ModalParameters(0.004, 0.006, theta1=0.1, theta2=0.3)
    mirrored = ModalParameters(0.004, 0.006, theta1=-0.1, theta2=-0.3)
    w0 = solve_w(synthesize_v(PAIR_2_5, base, 32), point.c0, point.kappa0, 0.1215).w
    w1 = solve_w(synthesize_v(PAIR_2_5, mirrored, 32), point.c0, point.kappa0, 0.1215).w
    assert np.allclose(w1.modes, np.conj(w0.modes), atol=1e-15)


def test_solve_w_rejects_large_kernel_amplitude():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.3, 0.3), K=32)
    point = _point()
    with pytest.raises(DomainError):
        solve_w(v, point.c0, point.kappa0, 0.1215)


def test_solve_w_divergence_and_fold():
    # At r = 0.05 the fixed-point map has gain ~2.8 and diverges; the
    # Newton continuation then loses the small branch at a fold.
    from capwhitham.waves import _solve_w_picard

    v = synthesize_v(PAIR_2_5, ModalParameters(0.05, 0.05, 0.0, 0.2), K=64)
    point = _point()
    ctx = MultiplierContext(pair=PAIR_2_5, c=point.c0, kappa=point.kappa0, T=0.1215)
    with pytest.raises(ConvergenceError, match="grew for 10 consecutive steps"):
        _solve_w_picard(v.modes, multiplier(ctx, np.arange(65)), 64, SolverSettings())
    with pytest.raises(ConvergenceError):
        solve_w(v, point.c0, point.kappa0, 0.1215, SolverSettings())


def test_solve_w_newton_agrees_with_picard_when_both_work():
    v = synthesize_v(PAIR_2_5, ModalParameters(0.008, 0.008, 0.05, 0.2), K=32)
    point = _point()
    picard = solve_w(v, point.c0, point.kappa0, 0.1215)
    from capwhitham.waves import _solve_w_newton

    ctx = MultiplierContext(pair=PAIR_2_5, c=point.c0, kappa=point.kappa0, T=0.1215)
    newton_modes, _ = _solve_w_newton(
        v.modes, multiplier(ctx, np.arange(33)), 32, PAIR_2_5, SolverSettings()
    )
    assert picard.method == "picard"
    assert np.allclose(picard.w.modes, newton_modes, atol=1e-12)
    direct = solve_w(v, point.c0, point.kappa0, 0.1215, picard=False)
    assert direct.method == "newton"
    assert direct.w.modes.tobytes() == newton_modes.tobytes()


def test_solve_w_without_picard_equals_the_fallback_bitwise():
    # Where the fixed point fails, skipping it leaves the fallback's
    # iterate, count and method as they were.
    v = synthesize_v(PAIR_2_5, ModalParameters(0.024, 0.024, math.pi / 5.0, 0.0), K=64)
    point = _point(T0)
    fallback = solve_w(v, point.c0, point.kappa0, T0)
    direct = solve_w(v, point.c0, point.kappa0, T0, picard=False)
    assert fallback.method == direct.method == "newton"
    assert fallback.iterations == direct.iterations
    assert fallback.w.modes.tobytes() == direct.w.modes.tobytes()


def _conv_square(u, K):
    """Modes 0..K of the square of a half-spectrum profile, by direct convolution."""
    full = np.concatenate([np.conj(u[:0:-1]), u])
    return np.convolve(full, full)[2 * K : 3 * K + 1]


@pytest.mark.parametrize("K", [12, 64])
def test_fixed_point_image_equals_the_square_modes_path(K):
    # The Picard image divides only the kept modes by the grid size; the
    # bits must be those of the full square_modes path it replaces.
    from capwhitham.waves import _fixed_point_image, _square_modes

    rng = np.random.default_rng(K)
    v = np.zeros(K + 1, dtype=complex)
    v[[2, 5]] = 0.01 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    w = 1e-4 * (rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1))
    w[[2, 5]] = 0.0
    w[0] = w[0].real
    ell = rng.standard_normal(K + 1)
    ell[[2, 5]] = 0.0
    image = _fixed_point_image(w, v, ell, K)
    assert image.tobytes() == (ell * _square_modes(v + w, K)[: K + 1]).tobytes()
    direct = ell * _conv_square(v + w, K)
    assert np.max(np.abs(image - direct)) <= 1e-14 * np.max(np.abs(direct))


# (pair, K) keys of the index-map cache, two sharing a pair and two a K;
# every case builds all of them, interleaved, before it checks its own.
INDEX_MAP_KEYS = [((2, 5), 12), ((3, 8), 20), ((2, 5), 24), ((3, 8), 24)]


@pytest.mark.parametrize("pair, K", INDEX_MAP_KEYS, ids=["2-5-K12", "3-8-K20", "2-5-K24", "3-8-K24"])
def test_w_jacobian_matches_central_differences(pair, K):
    # F(x) = x - pack(ell * (v + unpack(x))^2) is quadratic in x, so a
    # central difference of the packed residual equals the Jacobian up to
    # rounding.  The residual, the packing and the square are rebuilt
    # here without the package's FFT code.
    from capwhitham.waves import _index_map, _w_jacobian

    for key in INDEX_MAP_KEYS[::-1] + INDEX_MAP_KEYS:
        _index_map(WaveNumberPair(*key[0]), key[1])
    index = _index_map(WaveNumberPair(*pair), K)
    assert index is _index_map(WaveNumberPair(*pair), K)
    rng = np.random.default_rng(2024)
    free = [k for k in range(K + 1) if k not in pair]
    nf = len(free)
    assert index.K == K and index.free.tolist() == free
    v = np.zeros(K + 1, dtype=complex)
    v[list(pair)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ell = rng.standard_normal(K + 1)
    ell[list(pair)] = 0.0

    def unpack(x):
        w = np.zeros(K + 1, dtype=complex)
        w[free] = x[:nf]
        w[free[1:]] += 1j * x[nf:]
        return w

    def residual(x):
        image = ell * _conv_square(v + unpack(x), K)
        return x - np.concatenate([image[free].real, image[free[1:]].imag])

    x0 = rng.standard_normal(2 * nf - 1)
    u = v + unpack(x0)
    assert u[0] != 0.0 and np.all(u[1:].imag != 0.0)

    h = 1e-3
    ref = np.empty((2 * nf - 1, 2 * nf - 1))
    for j in range(2 * nf - 1):
        e = np.zeros(2 * nf - 1)
        e[j] = h
        ref[:, j] = (residual(x0 + e) - residual(x0 - e)) / (2.0 * h)
    jac = _w_jacobian(u, ell, index)
    assert jac.shape == ref.shape
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(jac - ref))) <= 1e-9 * scale
    # Mode 0 has one real unknown: its row and column, checked on their own.
    assert np.all(ref[0] != 0.0) and np.all(ref[:, 0] != 0.0)
    assert float(np.max(np.abs(jac[0] - ref[0]))) <= 1e-9 * scale
    assert float(np.max(np.abs(jac[:, 0] - ref[:, 0]))) <= 1e-9 * scale
    # Real-real block where k + m > K: the Hankel term u[k+m] is zero.
    modes = np.array(free)
    beyond = modes[:, None] + modes[None, :] > K
    assert beyond.sum() > 0
    block = jac[:nf, :nf][beyond] - ref[:nf, :nf][beyond]
    assert float(np.max(np.abs(block))) <= 1e-9 * scale

    # Bit for bit, the uncached formula: Toeplitz and Hankel blocks
    # gathered from the extended spectrum on every call.
    ext = np.concatenate([np.conj(u[:0:-1]), u, np.zeros(K)])
    toeplitz = K + modes[:, None] - modes[None, :]
    hankel = K + modes[:, None] + modes[None, :]
    a_re, a_im = ext.real[toeplitz], ext.imag[toeplitz]
    b_re, b_im = ext.real[hankel], ext.imag[hankel]
    b_re[:, 0] = b_im[:, 0] = 0.0
    s = (2.0 * ell[modes])[:, None]
    formula = np.empty((2 * nf - 1, 2 * nf - 1))
    formula[:nf, :nf] = -s * (a_re + b_re)
    formula[nf:, :nf] = -s[1:] * (a_im + b_im)[1:]
    formula[:nf, nf:] = s * (a_im - b_im)[:, 1:]
    formula[nf:, nf:] = -s[1:] * (a_re - b_re)[1:, 1:]
    formula[np.diag_indices_from(formula)] += 1.0
    assert jac.tobytes() == formula.tobytes()


# Symmetric (2,5) waves whose remainder solve takes the Newton fallback,
# with (iterations_w, iterations_newton, c, kappa) from the probed-Jacobian
# solver that preceded the analytic one.
NEWTON_PINS = [
    (0.024, 64, 6, 4, 0.8564467496592129, 0.8442534174661641),
    (0.02, 128, 6, 3, 0.8602531202372886, 0.844803605689403),
]


def _newton_pin_solve(r, K):
    """``symmetric_solve`` of the ``NEWTON_PINS`` request at (r, K)."""
    params = ModalParameters(r, r, theta1=math.pi / 5.0, theta2=0.0)
    return symmetric_solve(PAIR_2_5, params, T0, SolverSettings(K=K))


@pytest.mark.parametrize("r, K, iterations_w, iterations_newton, c, kappa", NEWTON_PINS)
def test_symmetric_newton_fallback_pinned(r, K, iterations_w, iterations_newton, c, kappa):
    _, report = _newton_pin_solve(r, K)
    assert report.converged
    assert report.w_method == "newton"
    assert (report.iterations_w, report.iterations_newton) == (
        iterations_w,
        iterations_newton,
    )
    assert abs(report.c - c) <= 1e-12
    assert abs(report.kappa - kappa) <= 1e-12


def _counting_picard(monkeypatch):
    """Record each fixed-point run as "P" (converged) or "F" (failed)."""
    from capwhitham import waves

    real, runs = waves._solve_w_picard, []

    def counting(*args):
        try:
            result = real(*args)
        except ConvergenceError:
            runs.append("F")
            raise
        runs.append("P")
        return result

    monkeypatch.setattr(waves, "_solve_w_picard", counting)
    return runs


def _recording_solve_w(monkeypatch):
    """Record the method of each remainder solve that returns."""
    from capwhitham import waves

    real, methods = waves.solve_w, []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        methods.append(result.method)
        return result

    monkeypatch.setattr(waves, "solve_w", recording)
    return methods


def test_unimodal_picard_then_fallback_pinned(monkeypatch):
    # The benchmark's uni-newton request: the fixed point converges at
    # the first iterate (191 images) and fails at the second, whose
    # fallback then serves the later ones.  c and kappa are the bits of
    # the solver that tried the fixed point at every iterate.  A fallback
    # from the first iterate ends on the same bits, so the recorded runs
    # are what shows that no fixed point is skipped before one failed.
    runs = _counting_picard(monkeypatch)
    params = ModalParameters(0.029, 0.0, 0.0, 0.0)
    _, report = symmetric_solve(PAIR_2_5, params, T0)
    assert report.mode == "unimodal"
    assert (report.w_method, report.iterations_w, report.iterations_newton) == ("newton", 6, 3)
    assert report.c.hex() == "0x1.b8f810042e4d8p-1"
    assert report.kappa.hex() == "0x1.abf3fe9ef07b9p-1"
    assert runs == ["P", "F"]


@pytest.mark.parametrize("r, K", [pin[:2] for pin in NEWTON_PINS])
def test_fallback_solve_runs_the_fixed_point_once(monkeypatch, r, K):
    # Once a remainder solve has fallen back, the later iterates and
    # trials of the same wave solve go to the fallback directly.
    runs = _counting_picard(monkeypatch)
    methods = _recording_solve_w(monkeypatch)
    _, report = _newton_pin_solve(r, K)
    assert report.iterations_newton >= 3
    assert runs == ["F"]
    assert len(methods) == report.iterations_newton + 1
    assert set(methods) == {"newton"}


def test_picard_solve_runs_the_fixed_point_per_remainder_solve(monkeypatch):
    runs = _counting_picard(monkeypatch)
    methods = _recording_solve_w(monkeypatch)
    r1, r2, theta1, theta2, *_ = FD_NEWTON_SOLUTIONS[0]
    _, report = solve_wave(PAIR_2_5, ModalParameters(r1, r2, theta1, theta2), T0)
    assert report.w_method == "picard"
    assert len(runs) == len(methods) == report.iterations_newton + 1
    assert set(runs) == {"P"} and set(methods) == {"picard"}


# (r1, r2, theta1, theta2, c, kappa, T) of (2,5) waves at T0 from the
# finite-difference parameter Newton that preceded the analytic Jacobian:
# five asymmetric solves, then a symmetric Picard and a symmetric
# Newton-fallback one.
FD_NEWTON_SOLUTIONS = [
    (0.00125, 0.00125, math.pi / 20.0, 0.0,
     0.8590496838891946, 0.8515266510366981, 0.11823119814466901),
    (0.003, 0.003, math.pi / 20.0, 0.0,
     0.8366699299044549, 0.9219864341955393, 0.10481822312505078),
    (0.003, 0.001, 0.3, 0.1,
     0.8448743156479073, 0.8957911145152665, 0.10953054496249394),
    (0.0008, 0.0035, 2.0, 0.7,
     0.8491725543429263, 0.8828915774227236, 0.11212128911350754),
    (0.004, 0.0025, 1.1, 0.2,
     0.8260973133916505, 0.9554300273345991, 0.0990178429936306),
    (0.002, 0.002, math.pi / 10.0, 0.0,
     0.8641155972474183, 0.8361185960547046, T0),
    (0.02, 0.02, 0.0, 0.0,
     0.8602531202372887, 0.8448036056894033, T0),
]


@pytest.mark.parametrize("r1, r2, theta1, theta2, c, kappa, T", FD_NEWTON_SOLUTIONS)
def test_solve_wave_matches_finite_difference_newton(r1, r2, theta1, theta2, c, kappa, T):
    _, report = solve_wave(PAIR_2_5, ModalParameters(r1, r2, theta1, theta2), T0)
    assert report.converged
    assert report.c == pytest.approx(c, rel=1e-9, abs=0.0)
    assert report.kappa == pytest.approx(kappa, rel=1e-9, abs=0.0)
    assert report.T == pytest.approx(T, rel=1e-9, abs=0.0)


def test_asymmetric_solve_makes_one_w_solve_per_newton_iterate(monkeypatch):
    # One remainder solve for the start and one per step; a line-search
    # halving, which follows a trial that raised, adds one more.  A
    # finite-difference Jacobian would add one per parameter and step.
    # The symmetric Newton-fallback requests count the same: the choice
    # to skip the fixed point is made inside solve_w, where the
    # benchmark's tracer sees every remainder solve.
    from capwhitham import waves

    calls = {"all": 0, "raised": 0}
    real_solve_w = waves.solve_w

    def counting_solve_w(*args, **kwargs):
        calls["all"] += 1
        try:
            return real_solve_w(*args, **kwargs)
        except (ConvergenceError, DomainError):
            calls["raised"] += 1
            raise

    monkeypatch.setattr(waves, "solve_w", counting_solve_w)
    solves = [
        (partial(solve_wave, PAIR_2_5, ModalParameters(*solution[:4]), T0), "asymmetric")
        for solution in FD_NEWTON_SOLUTIONS[:5]
    ]
    solves += [(partial(_newton_pin_solve, r, K), "symmetric") for r, K, *_ in NEWTON_PINS]
    for solve, mode in solves:
        calls.update(all=0, raised=0)
        _, report = solve()
        assert report.mode == mode
        assert calls["all"] <= report.iterations_newton + 1 + calls["raised"]


@pytest.mark.parametrize(
    "params, equations",
    [
        (ModalParameters(0.01, 0.0), ((0, 0.01),)),
        (ModalParameters(0.01, 0.01, math.pi / 10.0, 0.0), ((0, 0.01), (1, 0.01))),
        (
            ModalParameters(0.01, 0.01, math.pi / 20.0, 0.0),
            ((0, 0.01), (1, 0.01), (2, 0.01**6 * math.sin(10.0 * math.pi / 20.0))),
        ),
    ],
    ids=["unimodal", "symmetric", "asymmetric"],
)
def test_parameter_jacobian_matches_central_differences(params, equations):
    # g is rebuilt from solve_w and inner_products at the bifurcation
    # point, where g is not zero at r = 0.01.  tol_w is a decade above
    # the rounding floor of the Picard iteration (about 1e-19 here).
    # With a relative step of 1e-6 the measured row errors were at most
    # 1.9e-10 of the row scale for the cosine rows and 1.5e-9 for g3,
    # whose division by r^6 amplifies the rounding of the difference.
    from capwhitham.waves import _parameter_jacobian

    settings = SolverSettings(tol_w=1e-18)
    v = synthesize_v(PAIR_2_5, params, settings.K)
    point = _point(T0)
    x0 = np.array([point.c0, point.kappa0, T0])
    n = len(equations)

    def g(x):
        full = (*x, *x0[n:])
        result = solve_w(v, *full, settings)
        profile = assemble_profile(v, result.w, *full)
        projections = inner_products(profile)
        return np.array([projections[i] / d for i, d in equations]), profile, result.ell

    g0, profile, ell = g(x0[:n])
    jac = _parameter_jacobian(profile, equations, ell)
    ref = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = 1e-6 * x0[j]
        ref[:, j] = (g(x0[:n] + step)[0] - g(x0[:n] - step)[0]) / (2.0 * step[j])
    row_error = np.max(np.abs(jac - ref), axis=1) / np.max(np.abs(ref), axis=1)
    tolerance = np.array([1e-9, 1e-9, 1e-8])[:n]
    assert np.all(row_error <= tolerance)


def test_parameter_jacobian_reuses_the_iterate_terms_bitwise(monkeypatch):
    # The Newton passes the ell of the iterate's remainder solve, and the
    # profile keeps the u^2 and m_T of its projections.  Each evaluated
    # iterate computes those J terms once, and they, the ell and the
    # Jacobian equal, bit for bit, what a fresh copy of the profile
    # (dataclasses.replace starts with an empty cache) recomputes, at
    # every step and at the converged wave.
    from capwhitham import waves

    original = waves._parameter_jacobian
    calls = []
    counts = {"terms": 0, "symbol": 0, "solved": 0}

    def recording(profile, equations, ell):
        calls.append((profile, equations, ell))
        return original(profile, equations, ell)

    real_terms = WaveProfile.j_terms.func

    def counting_terms(profile):
        counts["terms"] += 1
        return real_terms(profile)

    counting_property = cached_property(counting_terms)
    counting_property.__set_name__(WaveProfile, "j_terms")
    real_solve_w = waves.solve_w

    def counting_solve_w(*args, **kwargs):
        result = real_solve_w(*args, **kwargs)
        counts["solved"] += 1
        return result

    real_symbol = waves.eval_symbol

    def counting_symbol(*args):
        counts["symbol"] += 1
        return real_symbol(*args)

    monkeypatch.setattr(waves, "_parameter_jacobian", recording)
    monkeypatch.setattr(waves, "eval_symbol", counting_symbol)
    monkeypatch.setattr(waves, "solve_w", counting_solve_w)
    monkeypatch.setattr(WaveProfile, "j_terms", counting_property)
    params = ModalParameters(0.002, 0.0015, 0.35, 0.05).reduced(PAIR_2_5)
    profile, report = solve_wave(PAIR_2_5, params, T0)
    assert report.converged and report.iterations_newton == len(calls) > 1
    # m_T is evaluated only for the J terms, so a bypass of the cache
    # would show in the symbol count as well.
    assert counts["terms"] == counts["symbol"] == counts["solved"] >= len(calls) + 1
    sine = math.sin(10.0 * (params.theta1 - params.theta2))
    equations = ((0, params.r1), (1, params.r2), (2, params.r1**4 * params.r2**2 * sine))
    assert calls[0][1] == equations
    v = synthesize_v(PAIR_2_5, params, profile.K)
    calls.append((profile, equations, real_solve_w(v, profile.c, profile.kappa, profile.T).ell))
    for profile, equations, ell in calls:
        assert "j_terms" in vars(profile)
        fresh = replace(profile)
        assert "j_terms" not in vars(fresh)
        fresh_ell = real_solve_w(v, fresh.c, fresh.kappa, fresh.T).ell
        assert ell.tobytes() == fresh_ell.tobytes()
        for cached, recomputed in zip(profile.j_terms, fresh.j_terms):
            assert cached.tobytes() == recomputed.tobytes()
        reused = original(profile, equations, ell)
        recomputed = original(fresh, equations, fresh_ell)
        assert reused.tobytes() == recomputed.tobytes()


def _former_symbol_rows(kappa, T, K):
    """The kappa and T rows of d(m - c)/dp as the parameter Jacobian once
    wrote them: m_T from eval_symbol, one tanh per mode for both rows."""
    from capwhitham.symbol import _dtanhc, _libm, _tanhc

    k = np.arange(K + 1)
    xi = kappa * k
    m = eval_symbol(T, xi)
    dm = np.zeros((2, K + 1))
    th = _libm(math.tanh, xi)
    tc = _tanhc(xi, th)
    x, dtc = xi[1:], _dtanhc(xi[1:], th[1:])
    dm[0, 1:] = k[1:] * ((2.0 * T * x * tc[1:] + (1.0 + T * x * x) * dtc) / (2.0 * m[1:]))
    dm[1] = xi * xi * tc / (2.0 * m)
    return dm


def test_parameter_jacobian_symbol_rows_keep_their_bits(monkeypatch):
    # The Jacobian takes its kappa and T rows from symbol._symbol_partials;
    # the right-hand side it packs, ell^2 dm u^2, must equal bit for bit
    # the one built from the former hand-written rows, from the series
    # branch of tanhc (kappa below 1e-2) to large kappa k.
    from capwhitham import waves
    from capwhitham.waves import _parameter_jacobian

    packed = []
    real_pack = waves._pack

    def recording_pack(w, index):
        packed.append(w)
        return real_pack(w, index)

    monkeypatch.setattr(waves, "_pack", recording_pack)
    rng = np.random.default_rng(28)
    equations = ((0, 1.0), (1, 1.0), (2, 1.0))
    for K in (12, 33, 64, 150):
        for _ in range(8):
            profile = replace(_random_profile(rng, K), kappa=float(10.0 ** rng.uniform(-3.0, 0.5)))
            ell = 0.1 * rng.standard_normal(K + 1)
            ell[[2, 5]] = 0.0
            packed.clear()
            _parameter_jacobian(profile, equations, ell)
            [rhs] = packed
            dm = np.vstack([np.full(K + 1, -1.0), _former_symbol_rows(profile.kappa, profile.T, K)])
            square = profile.j_terms[0][: K + 1]
            assert rhs.tobytes() == (ell * ell * dm * square).tobytes()


def test_solve_wave_raises_at_a_non_solution(monkeypatch):
    # A Newton tolerance above the starting g (about 8e3 here) stops the
    # parameter Newton at the bifurcation point, which is no wave.
    from capwhitham import waves

    monkeypatch.setattr(waves, "_TOL_NEWTON", 1e4)
    params = ModalParameters(0.00125, 0.00125, theta1=math.pi / 20.0, theta2=0.0)
    with pytest.raises(ConvergenceError) as info:
        solve_wave(PAIR_2_5, params, T0)
    context = info.value.context
    assert context["reason"] == "residuals above tolerance"
    assert 1.0 < context["g_inf"] <= 1e4
    assert context["residual_J_inf"] > 1e-10


def test_solve_wave_converges_at_r_0_006():
    # Past r = 0.005 on the theta1 = pi/20 branch g bottoms out far above
    # the Newton tolerance (about 1e-8 here); the step-size stop still ends at the
    # solution, near T = 0.0687.
    params = ModalParameters(0.006, 0.006, theta1=math.pi / 20.0, theta2=0.0)
    _, report = solve_wave(PAIR_2_5, params, 0.1215)
    assert report.converged
    assert report.mode == "asymmetric"
    assert report.residual_J_inf <= 1e-10
    assert 0.06 < report.T < 0.08


def test_solve_wave_stops_after_a_rounding_size_step():
    from capwhitham import waves

    # The README request: g reaches its rounding floor (about 1e-6 here)
    # within four steps, the last of them at the rounding of (c, kappa, T).
    params = ModalParameters(0.00125, 0.00125, theta1=math.pi / 20.0, theta2=0.0)
    _, report = solve_wave(PAIR_2_5, params, T0)
    assert report.converged
    assert report.g_inf > waves._TOL_NEWTON
    assert report.iterations_newton <= 6


def _newton_exit_request():
    """The README request at the first root T0 that ``phi_root`` finds."""
    params = ModalParameters(0.00125, 0.00125, theta1=math.pi / 20.0, theta2=0.0)
    return PAIR_2_5, params, phi_root(PAIR_2_5)[0].T0


def _failing_solve_w(monkeypatch, fails):
    """Patch ``waves.solve_w`` to raise on the calls n where fails(n)."""
    from capwhitham import waves

    real, calls = waves.solve_w, []

    def solve(*args, **kwargs):
        calls.append(args)
        if fails(len(calls)):
            raise ConvergenceError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(waves, "solve_w", solve)
    return calls


def test_parameter_newton_step_budget(monkeypatch):
    from capwhitham import waves

    request = _newton_exit_request()
    _, report = solve_wave(*request)
    assert report.iterations_newton == 4
    monkeypatch.setattr(waves, "_MAX_ITER_NEWTON", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_wave(*request)
    assert info.value.message == "Newton did not converge within the step budget"
    assert info.value.context["steps"] == 1


def test_parameter_newton_halves_a_step_whose_trial_fails(monkeypatch):
    request = _newton_exit_request()
    _, base = solve_wave(*request)
    _failing_solve_w(monkeypatch, lambda n: n == 2)
    _, report = solve_wave(*request)
    assert report.converged and report.iterations_newton == 5
    assert report.T == pytest.approx(base.T, rel=1e-10)


def test_parameter_newton_leaves_the_evaluable_domain(monkeypatch):
    calls = _failing_solve_w(monkeypatch, lambda n: n > 1)
    with pytest.raises(ConvergenceError) as info:
        solve_wave(*_newton_exit_request())
    assert info.value.message == "Newton step left the evaluable domain"
    assert info.value.context["step"] == 1
    # The starting point, then 11 trials at halving step sizes.
    assert len(calls) == 12


def _singular_solve(*args):
    raise np.linalg.LinAlgError("Singular matrix")


def _w_newton_start():
    """Arguments of a w-Newton stage from w = 0 at r = 0.008, K = 32."""
    from capwhitham.waves import _index_map

    v = synthesize_v(PAIR_2_5, ModalParameters(0.008, 0.008, 0.05, 0.2), K=32)
    point = _point()
    ctx = MultiplierContext(pair=PAIR_2_5, c=point.c0, kappa=point.kappa0, T=0.1215)
    ell = multiplier(ctx, np.arange(33))
    return v.modes, ell, _index_map(PAIR_2_5, 32), np.zeros(33, dtype=complex), SolverSettings()


def test_newton_w_step_reports_a_singular_jacobian(monkeypatch):
    from capwhitham.waves import _newton_w_step

    monkeypatch.setattr(np.linalg, "solve", _singular_solve)
    with pytest.raises(ConvergenceError, match="singular w-Jacobian"):
        _newton_w_step(*_w_newton_start())


def test_newton_w_step_reports_its_iteration_budget(monkeypatch):
    # The stage converges in a few steps; with a budget of one, its first
    # step is taken whole (the line search accepts it, so the residual
    # falls below 3/4 of the start) and the stage ends above tol_w.
    from capwhitham import waves
    from capwhitham.waves import _fixed_point_image, _newton_w_step, _pack

    v_modes, ell, index, w0, settings = start = _w_newton_start()
    _, iterations = _newton_w_step(*start)
    assert iterations > 2
    initial = float(np.abs(_pack(_fixed_point_image(w0, v_modes, ell, index.K), index)).max())
    monkeypatch.setattr(waves, "_MAX_ITER_W_NEWTON", 1)
    with pytest.raises(ConvergenceError, match="w-Newton did not converge") as info:
        _newton_w_step(*start)
    assert settings.tol_w < info.value.context["residual"] <= 0.75 * initial


def test_parameter_newton_reports_a_singular_jacobian(monkeypatch):
    # The remainder of this request solves by Picard, with no linear
    # solve, so the first solve is the parameter Jacobian's.
    request = _newton_exit_request()
    monkeypatch.setattr(np.linalg, "solve", _singular_solve)
    with pytest.raises(ConvergenceError, match="singular parameter Jacobian") as info:
        solve_wave(*request)
    assert info.value.context["step"] == 1


def test_inner_products_need_modal_parameters():
    profile = replace(_random_profile(np.random.default_rng(3)), params=None)
    with pytest.raises(DomainError, match="no modal parameters"):
        inner_products(profile)


def test_variational_identity_random_profiles():
    rng = np.random.default_rng(101)
    for _ in range(25):
        profile = _random_profile(rng)
        inner, scale = variational_identity(profile)
        assert abs(inner) <= 1e-13 * scale


def test_inner_products_match_quadrature():
    # Rebuild J(u) pointwise from public pieces and integrate against the
    # four kernel directions with the (1/2pi) convention.
    rng = np.random.default_rng(55)
    profile = _random_profile(rng, K=24)
    n = 128
    x = 2.0 * np.pi * np.arange(n) / n
    u = profile.sample(n)
    mu = np.zeros(n)
    for k in range(profile.K + 1):
        mk = eval_symbol(profile.T, profile.kappa * k) if k else 1.0
        term = mk * profile.mode(k) * np.exp(1j * k * x)
        mu += (term.real if k == 0 else 2.0 * term.real)
    j = mu - profile.c * u + u * u
    th1, th2 = profile.params.theta1, profile.params.theta2
    refs = (
        np.cos(2 * (x + th1)),
        np.cos(5 * (x + th2)),
        np.sin(2 * (x + th1)),
        np.sin(5 * (x + th2)),
    )
    quads = [float(np.mean(j * ref)) for ref in refs]
    values = inner_products(profile)
    for got, want in zip(values, quads):
        assert got == pytest.approx(want, abs=1e-13)


def test_linear_dependence_residual_for_solved_w():
    # Away from the bifurcation values of (c, kappa), a solved remainder
    # still forces the sine combination to vanish.
    rng = np.random.default_rng(77)
    point = _point()
    for _ in range(5):
        params = ModalParameters(
            float(rng.uniform(0.001, 0.004)),
            float(rng.uniform(0.001, 0.004)),
            float(rng.uniform(0.0, 3.0)),
            float(rng.uniform(0.0, 1.2)),
        )
        c = point.c0 + float(rng.uniform(-0.01, 0.01))
        kappa = point.kappa0 + float(rng.uniform(-0.01, 0.01))
        T = 0.1215 + float(rng.uniform(-0.01, 0.01))
        v = synthesize_v(PAIR_2_5, params, 32)
        result = solve_w(v, c, kappa, T)
        profile = assemble_profile(v, result.w, c, kappa, T)
        assert abs(linear_dependence_residual(profile)) <= 1e-12


def test_solve_wave_asymmetric_small_amplitude():
    h = 0.00125
    params = ModalParameters(h, h, theta1=math.pi / 20.0, theta2=0.0)
    profile, report = solve_wave(PAIR_2_5, params, T0)
    assert report.converged
    assert report.mode == "asymmetric"
    assert report.w_method == "picard"
    assert report.residual_J_inf <= 1e-10
    assert abs(report.residual_orthogonality) <= 1e-12
    assert abs(report.residual_lindep) <= 1e-12
    assert asymmetry_test(PAIR_2_5, profile.params)
    assert abs(report.T - T0) <= 5e-3
    # The report reads the last iterate's cached J terms; a fresh copy of
    # the profile, whose cache is empty, recomputes the same bits.
    assert "j_terms" in vars(profile)
    fresh = replace(profile)
    assert "j_terms" not in vars(fresh)
    assert residual_j_inf(fresh).hex() == report.residual_J_inf.hex()
    assert variational_identity(fresh)[0].hex() == report.residual_orthogonality.hex()
    assert linear_dependence_residual(fresh).hex() == report.residual_lindep.hex()
    # The kernel modes still carry exactly the prescribed (r, theta).
    assert profile.mode(2) == pytest.approx(
        0.5 * h * np.exp(1j * 2 * math.pi / 20.0), rel=1e-12
    )
    assert profile.mode(5) == pytest.approx(0.5 * h, rel=1e-12)


def test_solve_wave_quadratic_parameter_shifts():
    # (c - c0), (kappa - kappa0), (T - T0) all scale like r^2: halving r
    # shrinks each by a factor close to 4.
    point = double_bifurcation(PAIR_2_5, T0)
    shifts = []
    for h in (0.0015, 0.00075):
        params = ModalParameters(h, h, theta1=math.pi / 20.0, theta2=0.0)
        _, report = solve_wave(PAIR_2_5, params, T0)
        assert report.converged
        shifts.append(
            (report.c - point.c0, report.kappa - point.kappa0, report.T - T0)
        )
    for a, b in zip(shifts[0], shifts[1]):
        assert a / b == pytest.approx(4.0, abs=0.8)


def test_solve_wave_trivial_and_symmetric_routing():
    profile, report = solve_wave(PAIR_2_5, ModalParameters(0.0, 0.0), 0.1215)
    assert report.mode == "trivial"
    assert report.converged
    assert np.all(profile.modes == 0.0)
    point = _point()
    assert profile.c == point.c0 and profile.kappa == point.kappa0

    params = ModalParameters(0.002, 0.002, theta1=math.pi / 10.0, theta2=0.0)
    _, report_sym = solve_wave(PAIR_2_5, params, 0.1215)
    assert report_sym.mode == "symmetric"
    assert report_sym.converged
    assert report_sym == symmetric_solve(PAIR_2_5, params, 0.1215)[1]


def test_solve_wave_routes_a_near_lattice_request_to_symmetric_solve():
    # Barely off the symmetric lattice: the sine factor is below the
    # guard, so the request is solved as symmetric.
    dth = math.pi / 10.0 + 5e-12
    params = ModalParameters(0.002, 0.002, theta1=dth, theta2=0.0)
    _, report = solve_wave(PAIR_2_5, params, 0.1215)
    assert report.mode == "symmetric"
    assert report == symmetric_solve(PAIR_2_5, params, 0.1215)[1]


def test_symmetric_solve_takes_the_degenerate_direction():
    dth = math.pi / 10.0 + 5e-12
    params = ModalParameters(0.002, 0.002, theta1=dth, theta2=0.0)
    assert not asymmetry_test(PAIR_2_5, params)
    _, report = symmetric_solve(PAIR_2_5, params, 0.1215)
    assert report.mode == "symmetric"
    assert report.converged
    assert report.residual_J_inf <= 1e-10


def test_solve_wave_literal_overload_raises():
    params = ModalParameters(0.05, 0.05, theta1=math.pi / 20.0, theta2=0.0)
    with pytest.raises(ConvergenceError):
        solve_wave(PAIR_2_5, params, 0.1215)


def test_symmetric_solve_bimodal():
    point = _point()
    params = ModalParameters(0.002, 0.002)
    profile, report = symmetric_solve(PAIR_2_5, params, 0.1215)
    assert report.mode == "symmetric"
    assert report.converged
    assert report.T == 0.1215
    assert abs(report.c - point.c0) <= 1e-3
    assert abs(report.kappa - point.kappa0) <= 1e-2
    # With zero phases the profile is even: all modes real.
    assert float(np.max(np.abs(profile.modes.imag))) <= 1e-14


def test_symmetric_solve_unimodal_quadratic_speed_shift():
    # Unimodal in k1 (projection 0) and in k2 (projection 1).
    point = _point()
    for params_of in (lambda h: ModalParameters(h, 0.0), lambda h: ModalParameters(0.0, h)):
        deviations = []
        for h in (0.002, 0.001):
            profile, report = symmetric_solve(PAIR_2_5, params_of(h), 0.1215)
            assert report.mode == "unimodal"
            assert report.converged
            assert report.kappa == point.kappa0
            deviations.append(report.c - point.c0)
        assert deviations[0] / deviations[1] == pytest.approx(4.0, abs=1.2)


def _richardson(shift, r):
    """(4 q(r/2) - q(r)) / 3 for q(h) = shift(h) / h^2, whose error is even in h."""
    q = [np.asarray(shift(h)) / h**2 for h in (r, r / 2.0)]
    return (4.0 * q[1] - q[0]) / 3.0


_ORACLE_POINT = (0.1215, oracles.C0_2_5_T01215, oracles.KAPPA0_2_5_T01215)


@pytest.mark.parametrize("k", [2, 5])
def test_unimodal_speed_shift_matches_the_closed_form(k):
    # The extrapolated r^2 coefficients of c - c0 from r = 1e-3 and 5e-4
    # were 2.8e-6 (k = 2) and 6e-10 (k = 5) relative from the closed form.
    T, c0, _ = _ORACLE_POINT

    def shift(r):
        params = ModalParameters(r, 0.0) if k == 2 else ModalParameters(0.0, r)
        return symmetric_solve(PAIR_2_5, params, T)[1].c - c0

    c2 = oracles.unimodal_c2(*_ORACLE_POINT, k)
    assert _richardson(shift, 1e-3) == pytest.approx(c2, rel=1e-5)


@pytest.mark.parametrize("theta1", [0.0, math.pi / 5.0])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_bimodal_symmetric_shifts_match_the_closed_form(rho, theta1):
    # At r1 = rho r, r2 = r, extrapolated from r = 1e-3 and 5e-4, the gaps
    # were at most 9.3e-5 relative in c (rho = 2) and 4.6e-6 in kappa
    # (rho = 1); theta1 = pi/5 is the theta1 = 0 wave translated.
    T, c0, kappa0 = _ORACLE_POINT

    def shift(r):
        report = symmetric_solve(PAIR_2_5, ModalParameters(rho * r, r, theta1), T)[1]
        return report.c - c0, report.kappa - kappa0

    c2, kappa2 = _richardson(shift, 1e-3)
    dc, dkappa = oracles.bimodal_shift(*_ORACLE_POINT, 2, 5, rho, 1.0)
    assert c2 == pytest.approx(dc, rel=3e-4)
    assert kappa2 == pytest.approx(dkappa, rel=1.5e-5)


@pytest.mark.parametrize("k2", [2, 3])
def test_bimodal_closed_form_refuses_resonant_pairs(k2):
    with pytest.raises(ValueError, match="resonant"):
        oracles.bimodal_shift(*_ORACLE_POINT, 1, k2, 1.0, 1.0)


def test_symmetric_solve_rejects_asymmetric_parameters():
    params = ModalParameters(0.002, 0.002, theta1=math.pi / 20.0, theta2=0.0)
    with pytest.raises(DomainError):
        symmetric_solve(PAIR_2_5, params, 0.1215)


def test_solve_wave_accepts_plain_tuple_pair():
    _, report = solve_wave((2, 5), ModalParameters(0.0, 0.0), 0.1215)
    assert report.mode == "trivial"
