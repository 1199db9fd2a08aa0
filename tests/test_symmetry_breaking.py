"""Tests for the phi sign function, its roots, limits, and the pair scan."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from capwhitham import (
    ConvergenceError,
    DomainError,
    MultiplierContext,
    NearResonanceError,
    STATUS_ADMITS,
    STATUS_EXCLUDED_DIFFERENCE,
    STATUS_EXCLUDED_DIVISOR,
    STATUS_PASSES,
    STATUS_UNDECIDED,
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    exclusion_check,
    pair_scan,
    phi_curve,
    phi_eval,
    phi_limits,
    phi_root,
)
from capwhitham import coefficients, symbol, symmetry_breaking

PAIR_2_5 = WaveNumberPair(2, 5)


def test_phi_eval_reference_value():
    sample = phi_eval(PAIR_2_5, 0.1215)
    # The 13 monomials cancel from magnitude ~1e7 down to ~76, limiting
    # double-precision agreement with the high-precision value to ~1e-8.
    assert sample.value == pytest.approx(oracles.PHI_2_5_T01215, rel=1e-6)
    assert sample.T == 0.1215
    assert sample.bifurcation.c0 == pytest.approx(oracles.C0_2_5_T01215, rel=1e-13)


def test_phi_sign_flips_across_the_root():
    for T in (0.02, 0.08, 0.12):
        assert phi_eval(PAIR_2_5, T).value < 0.0
    for T in (0.1215, 0.2, 0.3):
        assert phi_eval(PAIR_2_5, T).value > 0.0


def test_phi_eval_warns_and_stays_positive_for_k1_one():
    for T in (0.05, 0.2, 0.3):
        with pytest.warns(UserWarning):
            sample = phi_eval(WaveNumberPair(1, 3), T)
        assert sample.value > 0.0


def test_phi_eval_enforces_positivity_for_k1_one(monkeypatch):
    # phi of a k1 = 1 pair is positive; a non-positive value breaks an
    # invariant of the program, not of the request.
    real = symmetry_breaking._phi_stacks
    monkeypatch.setattr(
        symmetry_breaking, "_phi_stacks", lambda *args: {p: -v for p, v in real(*args).items()}
    )
    with pytest.warns(UserWarning), pytest.raises(AssertionError, match="positivity invariant"):
        phi_eval(WaveNumberPair(1, 3), 0.2)


def test_phi_eval_constant_for_1_2():
    # For (1, 2) the expansion has no multiplier factors at all, so phi
    # is identically N/2^2 = 1/2.
    with pytest.warns(UserWarning):
        assert phi_eval(WaveNumberPair(1, 2), 0.17).value == 0.5


def test_phi_root_unique_and_matches_oracle():
    roots = phi_root(PAIR_2_5)
    assert len(roots) == 1
    root = roots[0]
    assert root.T0 == pytest.approx(oracles.T0_2_5, abs=5e-12)
    assert root.bracket[0] <= root.T0 <= root.bracket[1]
    assert root.slope == pytest.approx(oracles.PHI_SLOPE_AT_T0, rel=1e-3)


def test_phi_root_respects_grid_and_tol_validation():
    with pytest.raises(DomainError):
        phi_root(PAIR_2_5, grid_size=8)
    # Every root is refined to the one fixed tolerance; there is no knob.
    with pytest.raises(TypeError):
        phi_root(PAIR_2_5, xtol=1e-10)


def test_phi_root_empty_for_constant_sign_pairs():
    with pytest.warns(UserWarning):
        assert phi_root(WaveNumberPair(1, 4), grid_size=64) == []
    assert phi_root(WaveNumberPair(4, 5), grid_size=32) == []


def test_phi_root_scan_does_not_overflow_on_huge_phi():
    # max |phi| of (12, 19) on the grid exceeds 1e154, so the product of
    # two neighbouring samples would overflow; the scan compares signs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi_root(WaveNumberPair(12, 19))


def test_phi_curve_grid_shape():
    samples = phi_curve(PAIR_2_5, 24)
    grid = [s.T for s in samples]
    assert len(grid) == 24
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1.0 / 3.0 - 1e-4)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # Endpoint clustering: the first step is smaller than the middle one.
    mid = len(grid) // 2
    assert grid[1] - grid[0] < grid[mid + 1] - grid[mid]
    assert grid[-1] - grid[-2] < grid[mid + 1] - grid[mid]


@pytest.mark.parametrize("grid_size", [0, 1])
def test_phi_curve_needs_two_points(grid_size):
    with pytest.raises(DomainError, match="at least two points"):
        phi_curve(PAIR_2_5, grid_size)


def test_phi_curve_values_match_eval():
    samples = phi_curve(PAIR_2_5, 16)
    for s in samples:
        assert s.value == phi_eval(PAIR_2_5, s.T).value


def test_phi_limits_2_5_frozen_values():
    low, high = phi_limits(PAIR_2_5)
    assert low < 0.0 < high
    assert low == pytest.approx(oracles.PHI_LIMIT_LOW_2_5, rel=1e-10)
    assert high == pytest.approx(oracles.PHI_LIMIT_HIGH_2_5, rel=1e-10)


def test_phi_limits_1_3_frozen_values():
    low, high = phi_limits(WaveNumberPair(1, 3))
    assert low < 0.0 and high < 0.0
    assert low == pytest.approx(oracles.PHI_LIMIT_LOW_1_3, rel=1e-12)
    assert high == pytest.approx(oracles.PHI_LIMIT_HIGH_1_3, rel=1e-12)


def test_normalized_phi_approaches_low_limit():
    # phi(T)/ell(6)^4 approaches the frozen T -> 0 limit along the
    # decades 1e-3, 1e-4, 1e-5; the error decreases monotonically until
    # it reaches the double-precision floor (hit already at T = 1e-4).
    floor = 1e-12 * abs(oracles.PHI_LIMIT_LOW_2_5)
    errors = []
    for T in (1e-3, 1e-4, 1e-5):
        sample = phi_eval(PAIR_2_5, T)
        ctx = MultiplierContext.from_bifurcation(sample.bifurcation)
        normalized = sample.value / ctx.ell(6) ** 4
        errors.append(abs(normalized - oracles.PHI_LIMIT_LOW_2_5))
    for a, b in zip(errors, errors[1:]):
        assert b < a or b <= floor
    assert errors[-1] <= 0.02 * abs(oracles.PHI_LIMIT_LOW_2_5)


def test_exclusion_check_families():
    assert exclusion_check(1, 4) == STATUS_EXCLUDED_DIVISOR
    assert exclusion_check(2, 4) == STATUS_EXCLUDED_DIVISOR
    assert exclusion_check(3, 9) == STATUS_EXCLUDED_DIVISOR
    assert exclusion_check(2, 3) == STATUS_EXCLUDED_DIFFERENCE
    assert exclusion_check(4, 5) == STATUS_EXCLUDED_DIFFERENCE
    assert exclusion_check(4, 6) == STATUS_EXCLUDED_DIFFERENCE
    assert exclusion_check(6, 9) == STATUS_EXCLUDED_DIFFERENCE
    assert exclusion_check(2, 5) == STATUS_PASSES
    assert exclusion_check(3, 5) == STATUS_PASSES
    assert exclusion_check(4, 10) == STATUS_PASSES
    with pytest.raises(DomainError):
        exclusion_check(3, 3)
    with pytest.raises(DomainError):
        exclusion_check(0, 2)


def test_pair_scan_smallest_admitting_pair():
    verdicts = pair_scan(5)
    by_pair = {(v.k1, v.k2): v for v in verdicts}
    assert len(verdicts) == 10
    admits = [v for v in verdicts if v.status == STATUS_ADMITS]
    assert [(v.k1, v.k2) for v in admits] == [(2, 5)]
    v25 = by_pair[(2, 5)]
    assert v25.limit_low < 0.0 < v25.limit_high
    v35 = by_pair[(3, 5)]
    assert v35.status == STATUS_UNDECIDED
    assert v35.limit_low < 0.0 and v35.limit_high < 0.0
    for key in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4)]:
        assert by_pair[key].status == STATUS_EXCLUDED_DIVISOR
    for key in [(2, 3), (3, 4), (4, 5)]:
        assert by_pair[key].status == STATUS_EXCLUDED_DIFFERENCE


def test_pair_scan_is_deterministic():
    assert pair_scan(6) == pair_scan(6)


def test_pair_scan_sorted_output():
    verdicts = pair_scan(7)
    keys = [(v.k1, v.k2) for v in verdicts]
    assert keys == sorted(keys)
    assert len(keys) == 21


def test_pair_scan_records_reduction():
    verdicts = {(v.k1, v.k2): v for v in pair_scan(10)}
    v = verdicts[(4, 10)]
    assert v.reduced.astuple() == (2, 5)
    assert v.status == STATUS_ADMITS
    ref = verdicts[(2, 5)]
    assert v.limit_low == ref.limit_low and v.limit_high == ref.limit_high


def test_pair_scan_refine_scans_undecided_pairs():
    # Refinement targets pairs whose limits share a sign; verdicts that
    # already admit via differing limit signs are left as they are.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        verdicts = {(v.k1, v.k2): v for v in pair_scan(5, refine=True, grid_size=64)}
    v25 = verdicts[(2, 5)]
    assert v25.status == STATUS_ADMITS
    assert v25.roots == ()
    assert verdicts[(3, 5)].status == STATUS_UNDECIDED
    assert verdicts[(3, 5)].roots == ()


def test_excluded_pairs_no_sign_change_on_fine_grid():
    # Exclusion soundness spot check: excluded pairs sample to a single
    # strictly positive sign even on a 512-point grid.
    for k1, k2 in [(2, 3), (4, 5)]:
        values = [s.value for s in phi_curve(WaveNumberPair(k1, k2), 512)]
        assert all(v > 0.0 for v in values)


def test_pair_scan_rejects_small_kmax():
    with pytest.raises(DomainError):
        pair_scan(2)


@pytest.mark.parametrize("jobs", [0, -2])
def test_pair_scan_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="jobs >= 1"):
        pair_scan(6, jobs=jobs)


def test_phi_curve_bitwise_equals_eval():
    # The batched recursion must reproduce the scalar one exactly, also
    # for (1, 2), where phi never applies a multiplier (M = 0).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for pair in (WaveNumberPair(1, 2), WaveNumberPair(7, 10)):
            samples = phi_curve(pair, 32)
            assert len(samples) == 32
            for s in samples:
                scalar = phi_eval(pair, s.T)
                assert s.value == scalar.value
                assert type(s.value) is float
                assert s.bifurcation == scalar.bifurcation


def test_phi_curve_propagates_near_resonance(monkeypatch):
    original = coefficients.multiplier
    grid_T = phi_curve(PAIR_2_5, 16)[5].T

    def resonant(ctx, k):
        # The curve's context holds the whole grid, and k every |k| of the
        # phi path as a column: move the wave speed at the one tension
        # grid_T onto the symbol value of mode 6.
        at = np.asarray(ctx.T) == grid_T
        if np.any(np.asarray(k) == 6) and at.any():
            assert np.count_nonzero(at) == 1
            ctx = replace(ctx, c=np.where(at, eval_symbol(ctx.T, ctx.kappa * 6), ctx.c))
        return original(ctx, k)

    monkeypatch.setattr(coefficients, "multiplier", resonant)
    with pytest.raises(NearResonanceError) as err:
        phi_curve(PAIR_2_5, 16)
    assert err.value.context["k"] == 6
    assert err.value.context["element"] == 5


def test_nonfinite_phi_raises_and_is_recorded():
    # phi(T; 23, 30) overflows to nan next to T = 1/3.
    pair = WaveNumberPair(23, 30)
    T = 1.0 / 3.0 - 1e-4
    with pytest.raises(DomainError) as scalar:
        phi_eval(pair, T)
    assert scalar.value.context["pair"] == (23, 30)
    assert scalar.value.context["T"] == T
    with pytest.raises(DomainError) as batched:
        phi_curve(pair, 2)
    assert batched.value.context["pair"] == (23, 30)
    assert batched.value.context["T"] == pytest.approx(T, abs=1e-15)
    [verdict] = symmetry_breaking._classify_pairs(([(23, 30)], True, 16))
    assert verdict.status == STATUS_UNDECIDED
    assert verdict.error.startswith("DomainError: phi is not finite")
    # The endpoint limits were computed before the root scan failed.
    assert (verdict.limit_low, verdict.limit_high) == phi_limits(pair)
    assert verdict.limit_low == pytest.approx(1.2095079056959491e-45, rel=1e-12)
    assert verdict.limit_high == pytest.approx(6.716036949548955e-26, rel=1e-12)


def test_pair_scan_classifies_each_reduced_pair_once(monkeypatch):
    # Every classified pair enters the limits stage exactly once.
    original = symmetry_breaking._limit_ell
    seen = []

    def counting(pair):
        seen.append(pair.astuple())
        return original(pair)

    monkeypatch.setattr(symmetry_breaking, "_limit_ell", counting)
    verdicts = {(v.k1, v.k2): v for v in pair_scan(10, refine=True, grid_size=64)}
    assert len(seen) == len(set(seen))
    assert all(WaveNumberPair(*p).astuple() == p for p in seen)
    assert (6, 10) not in seen and (3, 5) in seen
    v610, v35 = verdicts[(6, 10)], verdicts[(3, 5)]
    assert (v610.k1, v610.k2) == (6, 10)
    assert replace(v610, k1=3, k2=5) == v35


# --- Stacked tables: one fill per k1 group -----------------------------------


def _surviving(k2_max):
    return [
        WaveNumberPair(k1, k2)
        for k2 in range(2, k2_max + 1)
        for k1 in range(1, k2)
        if math.gcd(k1, k2) == 1 and exclusion_check(k1, k2) == STATUS_PASSES
    ]


def _never_fails(pair, exc):
    raise AssertionError(f"{pair} failed in a stack") from exc


def _one_pair_fill(pair, ell, one):
    """phi from the pair's own table, asking ell once per |k|."""
    alpha, beta = coefficients.phi_target_indices(pair)
    corner = (*alpha, *beta)
    S = coefficients._scaled_u2(corner, oracles.table_ell(pair, corner, ell, one), one)
    return S[corner] / 2.0 ** (pair.k1 + pair.k2 - 1)


@pytest.mark.parametrize("grid_size", [64, 200])
def test_stacked_grid_phi_equals_one_pair_fills(grid_size):
    pairs = _surviving(20)
    T, xi_t = symmetry_breaking._tension_grid(grid_size)
    points = {}
    for pair in pairs:
        c0, kappa0, residual, errors = symbol._solve_bifurcations([pair.astuple()], T, xi_t)
        assert errors == [None]
        points[pair] = c0[0], kappa0[0], residual[0]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = symmetry_breaking._phi_stacks(
            pairs, lambda pair: symmetry_breaking._path_ell(pair, T, points[pair]), _never_fails
        )
        for pair, (c0, kappa0, _) in points.items():
            ctx = MultiplierContext(pair=pair, c=c0, kappa=kappa0, T=T)
            phi = stacked[pair]
            assert phi.tobytes() == _one_pair_fill(pair, ctx.ell, np.ones(grid_size)).tobytes()
    assert max(sum(p.k1 == k1 for p in pairs) for k1 in range(1, 20)) > 5


def test_stacked_limits_equal_one_pair_fills():
    pairs = _surviving(30)
    stacked = symmetry_breaking._phi_stacks(pairs, symmetry_breaking._limit_ell, _never_fails)
    for pair in pairs:
        limits = stacked[pair]
        rho = dict(zip(coefficients._phi_path(pair), symmetry_breaking._limit_ell(pair)))
        assert limits.tobytes() == _one_pair_fill(pair, rho.__getitem__, np.ones(2)).tobytes()


def test_stack_gives_each_pair_its_own_error(monkeypatch):
    # On this grid phi(23, 30) overflows at the last tension, while the
    # other k1 = 23 pairs stay finite; all six limits have one sign, so
    # every pair is in the grid stack.
    T = np.linspace(0.1, 0.3322, 16)
    monkeypatch.setattr(
        symmetry_breaking, "_tension_grid", lambda grid_size: (T, symbol._turning_points(T))
    )
    pairs = [(23, k2) for k2 in range(25, 31)]
    stacked = symmetry_breaking._classify_pairs((pairs, True, 16))
    for pair, verdict in zip(pairs, stacked):
        assert verdict.limit_low * verdict.limit_high > 0.0
        [alone] = symmetry_breaking._classify_pairs(([pair], True, 16))
        assert verdict == alone
        if pair == (23, 30):
            assert verdict.error.startswith("DomainError: phi is not finite")
        else:
            assert verdict.error is None


PAIR_3_7, PAIR_4_7 = WaveNumberPair(3, 7), WaveNumberPair(4, 7)


def _fail_stage(monkeypatch, name, pair, error):
    """Make the scan stage that calls symmetry_breaking.<name> raise error for pair."""
    real = getattr(symmetry_breaking, name)

    def failing(p, *args):
        if p == pair:
            raise error
        return real(p, *args)

    monkeypatch.setattr(symmetry_breaking, name, failing)


def test_pair_scan_records_a_failed_limits_stage(monkeypatch):
    base = pair_scan(10, refine=True, grid_size=64)
    _fail_stage(monkeypatch, "_limit_ell", PAIR_3_7, DomainError("forced failure"))
    verdicts = pair_scan(10, refine=True, grid_size=64)
    assert [v.reduced for v in verdicts if v.error] == [PAIR_3_7]
    for v, b in zip(verdicts, base):
        if v.reduced == PAIR_3_7:
            assert b.limit_low is not None and b.error is None
            error = "DomainError: forced failure"
            assert v == replace(b, limit_low=None, limit_high=None, error=error)
        else:
            assert v == b


def test_pair_scan_records_a_failed_refinement_stage(monkeypatch):
    base = pair_scan(10, refine=True, grid_size=64)
    # (4, 7) has limits of one sign, so the scan refines it.
    [b47] = [b for b in base if b.reduced == PAIR_4_7]
    assert b47.limit_low * b47.limit_high > 0.0
    _fail_stage(monkeypatch, "_phi_roots", PAIR_4_7, ConvergenceError("forced failure"))
    verdicts = pair_scan(10, refine=True, grid_size=64)
    assert [v.reduced for v in verdicts if v.error] == [PAIR_4_7]
    for v, b in zip(verdicts, base):
        if v.reduced == PAIR_4_7:
            assert (v.limit_low, v.limit_high) == (b.limit_low, b.limit_high)
            assert (v.status, v.roots) == (STATUS_UNDECIDED, ())
            assert v.error == "ConvergenceError: forced failure"
        else:
            assert v == b


def test_pair_scan_fills_one_table_per_k1_group(monkeypatch):
    # Every cell sum of a scan is a cell of a group's largest phi box: one
    # box per k1 for the limits and one for the grid, none per pair.
    fill = coefficients._scaled_u2
    cells = []

    def counting(corner, ell, one=1.0, cell_sum=coefficients._sequential_sum):
        def counted(left, right):
            cells.append(corner)
            return cell_sum(left, right)

        return fill(corner, ell, one, counted)

    monkeypatch.setattr(coefficients, "_scaled_u2", counting)
    verdicts = pair_scan(10, refine=True)
    # No pair has a root at kmax 10, so no refinement fill runs.
    assert not any(v.roots for v in verdicts)
    limits = {v.reduced for v in verdicts if v.limit_low is not None}
    grid = {
        v.reduced for v in verdicts
        if v.limit_low is not None and not v.limit_low * v.limit_high < 0.0
    }

    def box_cells(pairs):
        """Cells of order >= 2 in the largest phi box of each k1 group."""
        top = {}
        for p in pairs:
            top[p.k1] = max(top.get(p.k1, 0), p.k2)
        return sum(k2 * (k1 + 1) - 3 for k1, k2 in top.items())

    assert len(cells) == box_cells(limits) + box_cells(grid)
    per_pair = sum(p.k2 * (p.k1 + 1) - 3 for group in (limits, grid) for p in group)
    assert len(cells) < per_pair / 2


def _scanned_alone(verdicts):
    """Each reduced verdict of a scan, with the verdict its pair gets alone."""
    for v in verdicts:
        if (v.k1, v.k2) == v.reduced.astuple() and v.status not in (
            STATUS_EXCLUDED_DIVISOR, STATUS_EXCLUDED_DIFFERENCE
        ):
            [alone] = symmetry_breaking._classify_pairs(([(v.k1, v.k2)], True, 64))
            yield v, alone


def test_pair_scan_maps_failed_grids_to_their_pairs(monkeypatch):
    # A residual tolerance at the median of the pairs' largest grid
    # residuals fails the grid solve of about half the batch.
    base = {(v.k1, v.k2): v for v in pair_scan(12, refine=True, grid_size=64)}
    grid = symmetry_breaking._tension_grid(64)[0]
    worst = {
        pair: max(point.residual for point in symbol.bifurcation_grid(pair, grid))
        for pair, v in base.items()
        if v.limit_low is not None and not v.limit_low * v.limit_high < 0.0
    }
    tol = float(np.median(list(worst.values())))
    failing = {pair for pair, residual in worst.items() if residual > tol}
    assert 0 < len(failing) < len(worst)
    monkeypatch.setattr(symbol, "_RESIDUAL_TOL", tol)
    checked = set()
    for v, alone in _scanned_alone(pair_scan(12, refine=True, grid_size=64)):
        assert v == alone
        pair = (v.k1, v.k2)
        if pair in failing:
            assert v.status == STATUS_UNDECIDED
            assert v.error == "ConvergenceError: bifurcation residual above tolerance"
            assert (v.limit_low, v.limit_high) == (base[pair].limit_low, base[pair].limit_high)
        else:
            assert v == base[pair]
        checked.add(pair)
    assert failing < checked


def test_pair_scan_solves_each_pair_alone_when_the_batch_brent_fails(monkeypatch):
    real = symbol._brentq

    def failing_for_5_9(f, a, b, xtol, fa=None, fb=None, args=()):
        if len(args) == 2 and (args[1] == (5.0, 9.0)).all(axis=1).any():
            raise ConvergenceError("forced failure")
        return real(f, a, b, xtol, fa, fb, args)

    base = {(v.k1, v.k2): v for v in pair_scan(12, refine=True, grid_size=64)}
    grid = symmetry_breaking._tension_grid(64)[0]
    real_solve = symbol._solve_bifurcations
    grid_solves = []

    def counting(pairs, T, xi_t=None):
        if T is grid:
            grid_solves.append(len(pairs))
        return real_solve(pairs, T, xi_t)

    monkeypatch.setattr(symbol, "_brentq", failing_for_5_9)
    monkeypatch.setattr(symbol, "_solve_bifurcations", counting)
    monkeypatch.setattr(symmetry_breaking, "_solve_bifurcations", counting)
    scanned = pair_scan(12, refine=True, grid_size=64)
    # The failed batch of P pairs, then one solve of each pair alone.
    P = grid_solves[0]
    assert P > 1 and grid_solves == [P] + [1] * P
    assert [(v.k1, v.k2) for v in scanned if v.error] == [(5, 9)]
    for v, alone in _scanned_alone(scanned):
        assert v == alone
        if (v.k1, v.k2) == (5, 9):
            assert (v.status, v.error) == (STATUS_UNDECIDED, "ConvergenceError: forced failure")
        else:
            assert v == base[(v.k1, v.k2)]


def test_one_pair_phi_raises_its_batch_error_once(monkeypatch):
    # The batch of one pair is that pair's own solve, so its error is
    # raised as it is, with no second solve chained to it.
    calls = []
    real = symbol._solve_bifurcations

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symbol, "_solve_bifurcations", counting)
    monkeypatch.setattr(symmetry_breaking, "_solve_bifurcations", counting)
    with pytest.raises(DomainError) as info:
        phi_eval(PAIR_2_5, 0.5)
    assert info.value.message == "double bifurcation points exist only for 0 < T < 1/3"
    assert info.value.context == {"T": 0.5}
    assert info.value.__context__ is None
    assert len(calls) == 1


def test_pair_scan_equals_itself_when_every_batched_solve_fails(monkeypatch):
    # Each pair then solves its own grid points, which are the same.  At
    # kmax 12 the grid finds a root of (4, 11), so a dropped pair shows.
    base = pair_scan(12, refine=True, grid_size=64)
    assert any(v.roots for v in base)
    real = symmetry_breaking._solve_bifurcations
    batches = []

    def failing(pairs, *args):
        if len(pairs) > 1:
            batches.append(len(pairs))
            raise ConvergenceError("forced failure")
        return real(pairs, *args)

    monkeypatch.setattr(symmetry_breaking, "_solve_bifurcations", failing)
    assert pair_scan(12, refine=True, grid_size=64) == base
    assert batches


@pytest.mark.parametrize(
    "k_max, refine, jobs",
    [
        (12, False, 2),
        (12, False, 3),
        (12, True, 2),
        (12, True, 3),
        # More workers than reduced pairs.
        (5, True, 8),
        # No pair survives the exclusion criteria.
        (3, True, 2),
    ],
)
def test_pair_scan_pool_equals_serial(k_max, refine, jobs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        serial = pair_scan(k_max, refine=refine, grid_size=64, jobs=1)
    assert pair_scan(k_max, refine=refine, grid_size=64, jobs=jobs) == serial
    if k_max == 3:
        excluded = {STATUS_EXCLUDED_DIVISOR, STATUS_EXCLUDED_DIFFERENCE}
        assert len(serial) == 3 and {v.status for v in serial} <= excluded


# float.hex values printed at commit 88042b7, by the memoized recursion
# that the coefficient table replaced.
_CURVE_PINS = {
    (2, 5): ["-0x1.60f972ab9e416p+26", "-0x1.fc599fcbabab5p+16",
             "0x1.8b4d4bed35e29p+24", "0x1.9ac50381ad085p+102"],
    (7, 12): ["0x1.2f6f8d393ae27p+133", "0x1.bc6d7f58cd55cp+98",
              "0x1.01323d12f249cp+123", "0x1.1a61840ef1e12p+425"],
    (11, 12): ["0x1.7fc5e20d14731p+168", "0x1.fa3be4c5e5d91p+126",
               "0x1.e4f9be251f25dp+156", "0x1.62f95bf3c132ap+532"],
}
_LIMIT_PINS = {
    (2, 5): ("-0x1.b37c6bda956e6p-3", "0x1.3f8ca850c83d4p+9"),
    (7, 12): ("0x1.78258ce95f706p-14", "0x1.8e1b7220d374dp+13"),
}


@pytest.mark.parametrize("pair", sorted(_CURVE_PINS))
def test_phi_curve_bitwise_pins(pair):
    samples = phi_curve(WaveNumberPair(*pair), 200)
    got = [samples[i].value.hex() for i in (0, 57, 123, 199)]
    assert got == _CURVE_PINS[pair]


@pytest.mark.parametrize("pair", sorted(_LIMIT_PINS))
def test_phi_limits_bitwise_pins(pair):
    low, high = phi_limits(WaveNumberPair(*pair))
    assert (low.hex(), high.hex()) == _LIMIT_PINS[pair]


def test_phi_eval_bitwise_pin():
    assert phi_eval(PAIR_2_5, 0.1215).value.hex() == "0x1.2f1cbef6c7000p+6"


# float.hex values printed at commit f5f7174, refined by scipy's brentq.
_ROOT_PINS = {
    (2, 5): ("0x1.f18f28d971105p-4", "0x1.696eb6973c1fep+21"),
    (3, 8): ("0x1.136764cc80263p-2", "0x1.50814e11093f1p+65"),
    (4, 9): ("0x1.383f8cfe29871p-2", "0x1.c20f7f524601cp+104"),
}


@pytest.mark.parametrize("pair", sorted(_ROOT_PINS))
def test_phi_root_bitwise_pins(pair):
    (root,) = phi_root(WaveNumberPair(*pair))
    assert (root.T0.hex(), root.slope.hex()) == _ROOT_PINS[pair]


def test_refined_pair_scan_rejects_small_grid():
    with pytest.raises(DomainError) as err:
        pair_scan(6, refine=True, grid_size=8)
    assert err.value.context == {"grid_size": 8}
    # Without refinement the grid is not used.
    assert pair_scan(6, grid_size=8) == pair_scan(6)
