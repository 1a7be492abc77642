import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midspec.bounds import (
    BoundReport,
    BoundMethod,
    Norm,
    bound_mori_kokame,
    bound_norm_power,
    bound_spectral_radius_curve,
    bound_tissir_hmamed,
    boundary_curve,
    lemma3_analytic_bound,
    log_norm,
    matrix_norm,
)
from midspec import bounds
from midspec.quasipoly import CompanionPair, RetardedSystem, companion, mid_coefficients, normalize
from oracles import (
    chebyshev_eigenvalues,
    feasibility_sup_every_polish,
    feasibility_sup_sound_stop,
    omega_sup_full_grid,
    tissir_hmamed_two_norm,
)


@pytest.fixture(scope="module")
def sweep_values(std_pair):
    """The expensive feasibility sweeps, computed once for this module."""
    return {
        "rho": bound_spectral_radius_curve(std_pair).value,
        ("one", 1): bound_norm_power(std_pair, Norm.ONE, 1).value,
        ("fro", 1): bound_norm_power(std_pair, Norm.FROBENIUS, 1).value,
        ("inf", 1): bound_norm_power(std_pair, Norm.INFINITY, 1).value,
        ("one", 2): bound_norm_power(std_pair, Norm.ONE, 2).value,
        ("fro", 2): bound_norm_power(std_pair, Norm.FROBENIUS, 2).value,
        ("inf", 2): bound_norm_power(std_pair, Norm.INFINITY, 2).value,
    }


# --- logarithmic norm ---------------------------------------------------------


def test_log_norm_closed_forms(std_pair):
    M = -1j * std_pair.A0
    assert log_norm(M, Norm.ONE) == 6.0
    assert abs(log_norm(M, Norm.TWO) - 3.5) < 1e-12
    assert log_norm(M, Norm.INFINITY) == 6.0


def test_log_norm_zero_matrix():
    Z = np.zeros((3, 3))
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        assert log_norm(Z, norm) == 0.0


def test_log_norm_rejects_frobenius():
    with pytest.raises(ValueError):
        log_norm(np.eye(2), Norm.FROBENIUS)


def test_log_norm_matches_limit_definition():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        eps = 1e-7
        fd = (matrix_norm(np.eye(3) + eps * M, norm) - 1.0) / eps
        assert abs(fd - log_norm(M, norm)) < 1e-5


def test_log_norm_subadditive_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        N = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
            assert log_norm(M + N, norm) <= log_norm(M, norm) + log_norm(N, norm) + 1e-12


def test_log_norm_two_against_root_oracle():
    # eigenvalues of the Hermitian part from the characteristic polynomial
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = (M + M.conj().T) / 2.0
        a, b, c, d = H[0, 0].real, H[0, 1], H[1, 0], H[1, 1].real
        lam = np.roots([1.0, -(a + d), a * d - (b * c).real])
        assert abs(log_norm(M, Norm.TWO) - lam.real.max()) < 1e-10


def test_log_norm_takes_one_matrix():
    # a float for one matrix; a stack (..., n, n) is refused, not reduced
    rng = np.random.default_rng(31)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        assert type(log_norm(M, norm)) is float
        with pytest.raises(ValueError, match="one square matrix"):
            log_norm(np.stack([M, M]), norm)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_matrix_norm_stack_matches_numpy(n):
    # a stack (..., n, n) gives each matrix's norm, numpy's per-matrix norm
    # as the oracle; one matrix still gives a float, bitwise its slice of
    # the stack, since the sums of the shared kernel run in order
    rng = np.random.default_rng(40 + n)
    stack = rng.normal(size=(6, 5, n, n)) + 1j * rng.normal(size=(6, 5, n, n))
    for norm, ord_ in ((Norm.ONE, 1), (Norm.TWO, 2), (Norm.FROBENIUS, "fro"),
                       (Norm.INFINITY, np.inf)):
        want = np.array([[np.linalg.norm(M, ord_) for M in row] for row in stack])
        got = matrix_norm(stack, norm)
        assert got.shape == (6, 5)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), norm
        single = matrix_norm(stack[2, 3], norm)
        assert type(single) is float
        assert abs(single - want[2, 3]) <= 1e-12 * want[2, 3], norm
        assert single == got[2, 3], norm


def test_matrix_norm_is_homogeneous_past_the_squares_range():
    # ||2^k M|| = 2^k ||M|| bitwise, also where the squared moduli of 2^k M
    # would overflow (k = 600) or underflow (k = -600): matrix_norm scales
    # each matrix by a power of two before its kernel squares the moduli;
    # the smallest subnormal is its own norm
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    for norm in bounds.SUBMULTIPLICATIVE_NORMS:
        assert matrix_norm([[5e-324]], norm) == 5e-324, norm
        want = matrix_norm(stack, norm)
        for k in (600, -600):
            np.testing.assert_array_equal(matrix_norm(np.ldexp(1.0, k) * stack, norm), np.ldexp(want, k), norm)


def test_log_norm_rejects_non_square():
    for M in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(ValueError):
            log_norm(M, Norm.ONE)


# --- classical bounds -----------------------------------------------------------


def test_mori_kokame_table(std_pair):
    assert bound_mori_kokame(std_pair, Norm.ONE).value == 12.0
    assert abs(bound_mori_kokame(std_pair, Norm.TWO).value - 9.8246) < 1e-3
    assert bound_mori_kokame(std_pair, Norm.INFINITY).value == 14.0


def test_tissir_hmamed_table(std_pair):
    assert abs(bound_tissir_hmamed(std_pair, Norm.ONE).value - 12.0) < 1e-3
    assert abs(bound_tissir_hmamed(std_pair, Norm.TWO).value - 7.6623) < 1e-3
    assert abs(bound_tissir_hmamed(std_pair, Norm.INFINITY).value - 14.0) < 1e-3


def test_induced_norm_required(std_pair):
    for f in (bound_mori_kokame, bound_tissir_hmamed):
        with pytest.raises(ValueError):
            f(std_pair, Norm.FROBENIUS)


def test_tissir_never_exceeds_mori(std_pair):
    # max_theta mu(A1 e^{i theta}) <= ||A1||, so the refined bound is at most MK
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        th = bound_tissir_hmamed(std_pair, norm).value
        mk = bound_mori_kokame(std_pair, norm).value
        assert th <= mk + 1e-9


def _pair(sys_, s0):
    nsys = normalize(sys_, s0)
    return companion(nsys.b, nsys.beta)


def _designed_pair(n):
    return _pair(mid_coefficients(n, -0.4, 2.5), -0.4)


def test_tissir_hmamed_closed_forms():
    # one and infinity norms: |M_ij| does not move with theta and
    # max_theta Re(a e^(i theta)) = |a|, so the theta maximum is ||A1|| and
    # the bound is Mori-Kokame's, bit for bit.  Two-norm: the theta maximum
    # is the numerical radius of A1, against a theta scan of the Hermitian
    # parts' eigenvalues for the rank-one A1 = e_n a^T of a companion pair
    rng = np.random.default_rng(12)
    general = [CompanionPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
               for n in (1, 2, 3, 5) for _ in range(5)]
    designed = [_designed_pair(n) for n in range(1, 9)]
    for pair in general + designed:
        for norm in (Norm.ONE, Norm.INFINITY):
            th = bound_tissir_hmamed(pair, norm).value
            assert th == bound_mori_kokame(pair, norm).value, (pair.n, norm)

    companions = [CompanionPair(np.eye(n, k=1), np.eye(n)[:, [-1]] * rng.normal(size=n))
                  for n in (1, 2, 3, 5) for _ in range(5)]
    for pair in companions + designed:
        want = tissir_hmamed_two_norm(pair.A0, pair.A1)
        assert bound_tissir_hmamed(pair, Norm.TWO).value == pytest.approx(want, rel=1e-12), pair.n

    # the two-norm closed form covers a delayed last row only
    with pytest.raises(ValueError, match="delayed last row"):
        bound_tissir_hmamed(general[-1], Norm.TWO)


# --- feasibility sweeps -----------------------------------------------------------


def test_sweep_reference_values(sweep_values):
    assert abs(sweep_values["rho"] - 5.9763) < 1e-3
    assert abs(sweep_values[("one", 1)] - 10.4520) < 1e-3
    assert abs(sweep_values[("fro", 1)] - 10.6304) < 1e-3
    assert abs(sweep_values[("one", 2)] - 6.4630) < 1e-3
    assert abs(sweep_values[("fro", 2)] - 6.0803) < 1e-3


def test_sweep_ordering(sweep_values):
    # spectral radius <= power-2 norm bound <= power-1 norm bound
    for norm in ("one", "fro"):
        assert sweep_values["rho"] <= sweep_values[(norm, 2)] + 1e-6
        assert sweep_values[(norm, 2)] <= sweep_values[(norm, 1)] + 1e-6


def test_power1_point_is_on_feasibility_boundary(std_pair, sweep_values):
    # at the reported bound the constraint |z| <= ||A0 + A1 e^(-z)|| is active
    # (the sup for this pair is attained on the imaginary axis)
    w = sweep_values[("one", 1)]
    M = std_pair.A0 + std_pair.A1 * np.exp(-1j * w)
    assert abs(matrix_norm(M, Norm.ONE) - w) < 1e-5


def test_power1_against_brute_2d_scan(std_pair, sweep_values):
    # direct dense evaluation of the feasibility region, no residue tricks
    best = 0.0
    sig = np.arange(0.0, 2.0, 0.01)
    om = np.arange(0.0, 13.0, 0.005)
    for s in sig:
        M = std_pair.A0[None] + np.exp(-s - 1j * om)[:, None, None] * std_pair.A1[None]
        h = np.abs(M).sum(axis=1).max(axis=1)
        feas = om[np.hypot(s, om) <= h]
        if feas.size:
            best = max(best, float(feas.max()))
    assert abs(best - sweep_values[("one", 1)]) < 5e-3


def test_sweep_rejects_bad_power(std_pair):
    with pytest.raises(ValueError):
        bound_norm_power(std_pair, Norm.ONE, 0)


def test_sweep_monotone_in_sigma_min(std_pair, sweep_values):
    vals = [sweep_values["rho"]]
    for smin in (0.5, 1.5, 3.0):
        vals.append(bound_spectral_radius_curve(std_pair, smin).value)
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0  # no feasible points remain far right


def test_delay_free_curve_is_spectral_radius_circle():
    # A1 = 0 reduces feasibility to |z| <= rho(A0); sup Im = rho(A0)
    r = 1.7
    pair = CompanionPair(np.array([[0.0, 1.0], [-(r**2), 0.0]]), np.zeros((2, 2)))
    v = bound_spectral_radius_curve(pair).value
    assert abs(v - r) < 1e-4


def test_boundary_curve_export(std_pair):
    data = boundary_curve(std_pair, [0.0, 0.5, 5.0])
    assert data.shape == (3, 2)
    assert abs(data[0, 1] - 5.9763) < 2e-3  # the sup sits at sigma = 0
    assert math.isnan(data[2, 1])  # far right: infeasible


def test_boundary_curve_values_are_feasible(std_pair):
    # every finite omega satisfies |z| <= rho at its own phi = omega mod 2 pi
    # (eigvals, one matrix at a time); at sigma = 2.52..2.68 some phi has
    # rho >= sigma but none has rho >= |z|, and the curve once read 0 there
    sigmas = np.arange(0.0, 3.0, 0.02)
    data = boundary_curve(std_pair, sigmas)
    for sigma, omega in data[np.isfinite(data[:, 1])]:
        rho = _h_oracle(std_pair, "rho", 1, sigma, omega % (2 * math.pi))
        assert rho >= math.hypot(sigma, omega) * (1.0 - 1e-12), (sigma, omega, rho)
    empty = (sigmas > 2.51) & (sigmas < 2.69)
    assert empty.sum() == 9
    assert np.isnan(data[empty, 1]).all()


# --- the stacked kernel ------------------------------------------------------------

_NORM_ORD = {Norm.ONE: 1, Norm.TWO: 2, Norm.FROBENIUS: "fro", Norm.INFINITY: np.inf}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_h_against_per_matrix_oracle(n):
    # the matrix-polynomial kernel against matrix_power / eigvals, one matrix at a time
    rng = np.random.default_rng(20 + n)
    A0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = np.exp(-rng.uniform(-0.5, 2.0, 64) - 1j * rng.uniform(0.0, 2 * math.pi, 64))
    mats = A0 + c[:, None, None] * A1

    got = bounds._stacked_h(bounds._power_coefficients(A0, A1, 1), c, "rho")
    want = [np.abs(np.linalg.eigvals(M)).max() for M in mats]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for p in (1, 2, 3):
        coeffs = bounds._power_coefficients(A0, A1, p)
        for norm, ord_ in _NORM_ORD.items():
            got = bounds._stacked_h(coeffs, c, norm)
            want = [np.linalg.norm(np.linalg.matrix_power(M, p), ord_) ** (1 / p) for M in mats]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{norm} p={p}")


# Values of the per-sigma sweep that the batched one replaced (scalar
# bisection, stacked matrix powers, accumulated sigma steps).
_PINNED_SWEEPS = {
    "rho": 5.976289035451342,
    ("one", 1): 10.451927060626476,
    ("fro", 1): 10.630303124895924,
    ("inf", 1): 11.471994300559466,
    ("one", 2): 6.462900660223043,
    ("fro", 2): 6.080229267503175,
    ("inf", 2): 7.816282902651759,
}
_PINNED_CURVE_RHO = [
    5.976289035451342, 4.963918067150458, 3.1025840144877264, 2.998514190270682,
    2.8793671523458504, 2.739547120409565, 2.5714723282877094, 2.3638262700544903,
    2.0966847219794267, 1.7227897106229115, 0.909066009488907, math.nan, math.nan,
]
_PINNED_CURVE_FRO2 = [
    6.080229267503175, 5.757456627870741, 5.552372873153656, 5.39615282978409,
    5.267179145456862, 5.153736131630891, 5.0471998985194855, 4.940689896062603,
    4.828814591776957, 4.707409509508772, 4.573162899611477, 4.42322207476387,
    4.254829924927313,
]


def test_sweeps_match_pinned_values(sweep_values):
    for key, want in _PINNED_SWEEPS.items():
        assert abs(sweep_values[key] - want) < 1e-9, (key, sweep_values[key], want)


def test_order3_frobenius_square_sweep_pinned(example_system):
    pair = _pair(example_system, -0.5)
    value = bound_norm_power(pair, Norm.FROBENIUS, 2).value
    assert abs(value - 35.42513344194229) < 1e-9


def test_boundary_curve_pinned(std_pair):
    sigmas = np.arange(0.0, 3.0 + 1e-9, 0.25)
    for norm, power, want in ((None, 1, _PINNED_CURVE_RHO), (Norm.FROBENIUS, 2, _PINNED_CURVE_FRO2)):
        data = boundary_curve(std_pair, sigmas, norm, power)
        np.testing.assert_array_equal(data[:, 0], sigmas)
        np.testing.assert_allclose(data[:, 1], want, rtol=0.0, atol=1e-9)  # NaNs must coincide


def test_sweep_stacked_calls_respect_cap(std_pair, monkeypatch):
    calls = []  # (the caller, the points) of each stacked call
    kernel = bounds._stacked_h

    def spy(coeffs, c, norm):
        calls.append((sys._getframe(1).f_code.co_name, c.size))
        return kernel(coeffs, c, norm)

    def half_grid_block(grid):
        return max(1, bounds._MAX_STACK // grid) * (grid // 2 + 1)

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    bound_norm_power(std_pair, Norm.ONE, 2)
    bound_spectral_radius_curve(std_pair)
    sizes = [size for _, size in calls]
    assert max(sizes) <= bounds._MAX_STACK
    # grid blocks evaluate H on phi in [0, pi] only; bisection calls are smaller
    assert max(sizes) <= max(half_grid_block(g) for g in (bounds._COARSE_GRID, bounds._FINE_GRID))

    # a curve makes, per pass of tiles, one call at the tile centres and
    # then its scan calls, each at most a grid block; then one bisection
    # serves every sigma, in at most 50 steps; in all, no more calls than
    # grid blocks plus 50 steps
    calls.clear()
    sigmas = np.arange(0.0, 3.0, 0.02)
    boundary_curve(std_pair, sigmas, Norm.FROBENIUS, 2)
    kinds = "".join({"_cell_bounds": "c", "_scan_cells": "s", "_omega_sup": "b"}[caller] for caller, _ in calls)
    assert re.fullmatch(r"(cs+)+b*", kinds), kinds
    assert all(size <= half_grid_block(bounds._CURVE_GRID) for caller, size in calls if caller != "_omega_sup")
    bisections = [size for caller, size in calls if caller == "_omega_sup"]
    assert len(bisections) <= bounds._BISECTION_STEPS
    assert all(size <= sigmas.size for size in bisections)
    rows = bounds._MAX_STACK // bounds._CURVE_GRID
    blocks = math.ceil(sigmas.size / rows)
    assert len(calls) <= blocks + bounds._BISECTION_STEPS


# --- bisecting only the crossings that can move the result --------------------------

_STANDARD_SWEEPS = (("rho", 1),) + tuple(
    (norm, p) for p in (1, 2) for norm in (Norm.ONE, Norm.FROBENIUS, Norm.INFINITY)
)


def _sweeps(sweep, pair, keys, sigma_min):
    A0, A1 = pair.A0.astype(complex), pair.A1.astype(complex)
    return [sweep(A0, A1, key, power, sigma_min) for key, power in keys]


def _pruned_sup(A0, A1, norm, power, sigma_min):
    return bounds._feasibility_sup(A0, A1, norm, power, sigma_min)[0]


@pytest.mark.parametrize("sigma_min", [-0.5, 0.0, 0.3])
def test_pruned_sweeps_match_every_polish_oracle(sigma_min, std_pair):
    got = _sweeps(_pruned_sup, std_pair, _STANDARD_SWEEPS, sigma_min)
    assert got == _sweeps(feasibility_sup_every_polish, std_pair, _STANDARD_SWEEPS, sigma_min)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_designed_sweeps_match_every_polish_oracle(n):
    # every norm at p = 1..3; rho up to n = 3, where the unpruned oracle's
    # stacked eigvals still take seconds, not tens of them
    pair = _pair(mid_coefficients(n, -0.5, 2.5), -0.5)
    keys = [(norm, p) for norm in bounds.SUBMULTIPLICATIVE_NORMS for p in (1, 2, 3)]
    keys += [("rho", 1)] if n <= 3 else []
    got = _sweeps(_pruned_sup, pair, keys, 0.0)
    want = _sweeps(feasibility_sup_every_polish, pair, keys, 0.0)
    assert got == want, [key for key, g, w in zip(keys, got, want) if g != w]


@pytest.mark.parametrize("sigma_min", [-0.5, 0.0, 0.3])
def test_tail_cut_matches_a_sound_stop(sigma_min, std_pair):
    # the sweep's stop rests on the maximum principle; this oracle's crude
    # stop does not.  It scans on until no point past its sigma can raise
    # the maximum (1 to 760 coarse rows here).  Designs with n >= 3 are left
    # out: at p >= 2 ||A0|| + ||A1|| e^(-sigma) is loose (up to 145,398
    # rows, 0.5-4 s a sweep at n = 4), and the unfloored rho scan runs
    # stacked eigvals (about a minute at n = 3)
    got = [bound_spectral_radius_curve(std_pair, sigma_min).value if key == "rho"
           else bound_norm_power(std_pair, key, power, sigma_min).value for key, power in _STANDARD_SWEEPS]
    assert got == _sweeps(feasibility_sup_sound_stop, std_pair, _STANDARD_SWEEPS, sigma_min)


def test_stop_keeps_a_late_maximum(std_pair, monkeypatch):
    # scripted rows with a sup that rises after the envelope has nearly met
    # the running maximum, which no real pair tested here shows.  The
    # envelope E = hypot(env, min(sigma, 0)) is 1.03 at sigma = -0.5, 0.99 on
    # (-0.5, 0] and 0.95 after; the sup is 0.9 at -0.5 and 0.95 at 0.  E
    # never rises and no sup passes its row's env, as the maximum principle
    # asks.  The proven stop fires only past sigma = 0; a stop at
    # E <= 1.3 max(best, 0), or one that drops the min(sigma, 0) term, fires
    # at -0.49 and returns 0.9
    step = bounds._COARSE_SIGMA_STEP

    def scripted(coeffs, norm, sigmas, grid, floor=-math.inf, graeffe=None):
        sups = np.full(sigmas.size, -math.inf)
        if grid == bounds._FINE_GRID:
            return sups, np.full(sigmas.size, math.inf), 0
        top = np.where(sigmas == -0.5, 1.03, np.where(sigmas < step / 2, 0.99, 0.95))
        env = np.sqrt(top**2 - np.minimum(sigmas, 0.0) ** 2)
        sups[sigmas == -0.5] = 0.9
        sups[np.abs(sigmas) < step / 2] = 0.95
        return sups, env, 0

    monkeypatch.setattr(bounds, "_omega_sup", scripted)
    assert bounds._feasibility_sup(std_pair.A0, std_pair.A1, Norm.ONE, 1, -0.5)[0] == 0.95


@pytest.mark.parametrize("key,power", _STANDARD_SWEEPS)
def test_sweep_with_no_feasible_point_evaluates_only_tile_centres(key, power, std_pair):
    # at sigma_min = 50, H is far below sigma on every tile, so no cell is
    # scanned: the first coarse block's tile centres decide the sweep
    A0, A1 = std_pair.A0.astype(complex), std_pair.A1.astype(complex)
    value, points = bounds._feasibility_sup(A0, A1, key, power, 50.0)
    grid = bounds._COARSE_GRID
    sigmas = 50.0 + np.arange(bounds._MAX_STACK // grid) * bounds._COARSE_SIGMA_STEP
    centres = bounds._sigma_tiles(sigmas, grid).size * bounds._half_grid(grid)[1].first.size
    assert value == 0.0
    assert 0 < points <= centres


def _random_pairs(n):
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0, width=32, allow_subnormal=False))
    return st.builds(CompanionPair, entries, entries)


_MAX_PRINCIPLE_PAIRS = st.one_of(
    st.integers(1, 4).map(lambda n: _pair(mid_coefficients(n, -0.5, 2.5), -0.5)),
    st.integers(1, 4).flatmap(_random_pairs),
)


@settings(max_examples=25, deadline=None)
@given(pair=_MAX_PRINCIPLE_PAIRS, sigma=st.floats(-0.5, 3.0))
def test_envelope_does_not_rise_with_sigma(pair, sigma):
    # the maximum principle the sweeps' stop rests on: ||M(c)^p|| and
    # log rho(M(c)) are subharmonic in c = e^(-sigma - i phi), so the
    # envelope max_phi H falls as |c| = e^(-sigma) does.  H here is numpy's,
    # one matrix at a time, on the 2048-point grid; the float32 entries keep
    # M(c)^3 and its squares clear of underflow
    phis = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)

    def envelopes(s):
        M = pair.A0 + np.exp(-s - 1j * phis)[:, None, None] * pair.A1
        yield np.abs(np.linalg.eigvals(M)).max()
        for p in (1, 2, 3):
            Mp = np.linalg.matrix_power(M, p)
            for ord_ in _NORM_ORD.values():
                yield (np.linalg.norm(Mp, ord_, axis=(-2, -1)) ** (1.0 / p)).max()

    for before, after in zip(envelopes(sigma), envelopes(sigma + 0.05)):
        assert after <= before + 8 * np.spacing(before), (sigma, before, after)


def test_pruned_sweeps_kernel_call_count(std_pair, monkeypatch):
    # the every-polish oracle makes 7,075 calls here, 50 bisection steps per
    # coarse block; the floored sweeps made 797, 652 with tiles of sigma rows
    # and coarse blocks of a tail cut's length, 633 with the tail cut
    # reading the tile bounds (no point per row for the envelope), and 634
    # with the proven stop, whose first block also makes a tile-centre call
    calls = []
    kernel = bounds._stacked_h

    def spy(coeffs, c, norm):
        calls.append(c.size)
        return kernel(coeffs, c, norm)

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    _sweeps(_pruned_sup, std_pair, _STANDARD_SWEEPS, 0.0)
    assert len(calls) <= 650


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_omega_sup_floor_contract(data):
    # above floor the sup is the fully polished one; at or below it, it stays
    # there; the envelope is bounded from above
    n = data.draw(st.sampled_from([1, 2, 3]))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    key, power = data.draw(st.sampled_from(_SWEEP_KEYS))
    sigmas = np.array(data.draw(st.lists(st.floats(-1.0, 4.0), min_size=1, max_size=6)))
    coeffs = _coeffs(pair, power)
    sup, env, _ = bounds._omega_sup(coeffs, key, sigmas, 512)
    finite = sup[sup > -math.inf].tolist()
    floor = data.draw(st.one_of(st.floats(-1.0, 40.0), st.sampled_from(finite or [-math.inf])))
    got, got_env, _ = bounds._omega_sup(coeffs, key, sigmas, 512, floor)
    _assert_floor_contract(sup, env, got, got_env, floor)


def test_tiled_sweep_floor_contract(std_pair):
    # the floor contract where the floored sweep cuts unsorted rows into tiles
    # of several, as in the coarse scan, at floors across the unfloored sups
    # and envelopes (each also one ulp below); bounding W by a tile's largest
    # sigma^2, not its smallest, breaks it here
    sigmas = np.random.default_rng(7).permutation(np.arange(-0.5, 3.0, bounds._COARSE_SIGMA_STEP))
    for key, power in (("rho", 1), (Norm.ONE, 1), (Norm.FROBENIUS, 2)):
        coeffs = _coeffs(std_pair, power)
        sup, env, _ = bounds._omega_sup(coeffs, key, sigmas, bounds._COARSE_GRID)
        levels = np.sort(np.concatenate((sup, env)))
        levels = levels[np.isfinite(levels)]
        for level in levels[::levels.size // 12]:
            for floor in (level, np.nextafter(level, -math.inf)):
                what = f"{key} p={power} floor={floor}"
                got, got_env, _ = bounds._omega_sup(coeffs, key, sigmas, bounds._COARSE_GRID, floor)
                _assert_floor_contract(sup, env, got, got_env, floor, what)


def _assert_floor_contract(sup, env, got, got_env, floor, what=""):
    # a floored sweep's sup is the unfloored one above the floor and stays at
    # or below it elsewhere; its envelope is at or above the unfloored one
    # (nan comparing false where H overflowed)
    above = sup > floor
    np.testing.assert_array_equal(got[above], sup[above], what)
    assert (got[~above] <= floor).all(), what
    assert not (got_env < env).any(), what


def test_norm_sums_do_not_depend_on_the_stack():
    # the entry sums of the norms were once pairwise for a lone matrix and in
    # order for a stack, from eight terms on, so a row polished alone under a
    # floor changed its last bit (6.2604447173799995 against 6.260444717379998)
    pair = CompanionPair(2.0 * np.ones((3, 3)), [[3.5, 0, -1], [-1, -1, -1], [-1, -1, -1]])
    coeffs = _coeffs(pair, 2)
    sigmas = np.array([0.0, 1.0])
    sup, _, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512)
    got, _, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512, 6.0)
    assert sup[0] > 6.0
    assert got[0] == sup[0]
    rng = np.random.default_rng(5)
    c = rng.uniform(0.2, 2.0, 200) * np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    # at n = 1 the complex Horner step once rounded 10 of these points (15 for
    # the two-norm) differently in the stack than alone.  Tiles of sigma rows
    # regroup the points of each call, so every kernel is pinned: the entry
    # sums, the Gram eigenvalues of the two-norm at n = 2, 3, 4, and rho by
    # its closed form (n = 2) or eigvals
    for n in (1, 2, 3, 4, 8):
        pair = CompanionPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        keys = [("rho", 1)] + [(norm, 2) for norm in (Norm.ONE, Norm.INFINITY, Norm.FROBENIUS)]
        keys += [(Norm.TWO, 2)] if n <= 4 else []
        for key, power in keys:
            coeffs = _coeffs(pair, power)
            stacked = bounds._stacked_h(coeffs, c, key)
            alone = [bounds._stacked_h(coeffs, c[i:i + 1], key)[0] for i in range(c.size)]
            np.testing.assert_array_equal(stacked, alone, f"n={n} {key}")


def test_n1_floored_sup_equals_the_unfloored_one():
    # at n = 1 the complex Horner step once rounded a point differently in a
    # stack than alone: row 1 read 13.226358280554047 unfloored and
    # 13.226358280554045 floored
    coeffs = _coeffs(CompanionPair([[3.725218240843976]], [[5.078878971171399]]), 2)
    sigmas = np.array([1.2259678662413322, -0.6877304356954841])
    floor = 9.092710044878068
    sup, _, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512)
    got, _, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512, floor)
    assert sup[1] > floor
    assert got[1] == sup[1]


def test_sweep_rejects_overflowing_sigma_min(std_pair):
    # the values a sweep forms pass the float range well before
    # e^(-sigma_min) does, below about -709
    with pytest.raises(ValueError, match="sigma_min = -800.0 overflows"):
        bound_spectral_radius_curve(std_pair, -800.0)
    with pytest.raises(ValueError, match="sigma_min = -800.0 overflows"):
        bound_norm_power(std_pair, Norm.ONE, 1, -800.0)


def test_sweep_past_every_feasible_point_reads_zero(std_pair):
    # no z with Re z >= 1e200 is feasible, and the stop must fire on the
    # first row although sigma^2 overflows; a tile centre taken as
    # (lo + hi) / 2 would overflow too, make every bound nan and never stop
    for sigma_min in (1e200, 1e308, np.finfo(float).max):
        assert bound_spectral_radius_curve(std_pair, sigma_min).value == 0.0
        assert bound_norm_power(std_pair, Norm.TWO, 2, sigma_min).value == 0.0


def test_sweep_rejects_non_finite_sigma_min(std_pair):
    for sigma_min in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma_min must be finite"):
            bound_spectral_radius_curve(std_pair, sigma_min)
        with pytest.raises(ValueError, match="sigma_min must be finite"):
            bound_norm_power(std_pair, Norm.ONE, 2, sigma_min)


# --- the half grid ------------------------------------------------------------------


def _coeffs(pair, power):
    return bounds._power_coefficients(pair.A0.astype(complex), pair.A1.astype(complex), power)


_SWEEP_KEYS = (("rho", 1), (Norm.ONE, 1), (Norm.TWO, 2), (Norm.FROBENIUS, 2), (Norm.INFINITY, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_h_conjugate_symmetry(n):
    # a real pair has E(conj c) = conj E(c), so H(2 pi - phi) = H(phi)
    rng = np.random.default_rng(40 + n)
    pair = CompanionPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
    c = np.exp(-rng.uniform(-0.5, 2.0, 256) - 1j * rng.uniform(0.0, 2 * math.pi, 256))
    rho = _coeffs(pair, 1)
    np.testing.assert_array_equal(bounds._stacked_h(rho, c, "rho"), bounds._stacked_h(rho, c.conj(), "rho"))
    for p in (1, 2, 3):
        coeffs = _coeffs(pair, p)
        for norm in bounds.SUBMULTIPLICATIVE_NORMS:
            got = bounds._stacked_h(coeffs, c, norm)
            np.testing.assert_array_equal(got, bounds._stacked_h(coeffs, c.conj(), norm), f"{norm} p={p}")


@pytest.mark.parametrize("grid", [bounds._COARSE_GRID, bounds._FINE_GRID, bounds._CURVE_GRID])
def test_half_grid_matches_full_grid_oracle(grid, std_pair, example_system):
    pairs = {
        "standard": (std_pair, np.array([-0.5, 0.0, 0.013, 0.37, 1.0, 2.5, 6.0, 200.0])),
        "order 3": (_pair(example_system, -0.5), np.array([-0.3, 0.0, 0.7, 2.0, 200.0])),
    }
    for name, (pair, sigmas) in pairs.items():
        for key, power in _SWEEP_KEYS:
            what = f"{name} {key} p={power}"
            coeffs = _coeffs(pair, power)
            sup, env, _ = bounds._omega_sup(coeffs, key, sigmas, grid)
            want_sup, want_env = omega_sup_full_grid(coeffs, key, sigmas, grid)
            assert sup[-1] == -math.inf  # the last sigma is infeasible
            np.testing.assert_array_equal(sup, want_sup, what)
            # the envelope is its tile's bound, which holds between grid
            # points too: at or above the oracle's envelope on this grid,
            # and, on the coarse grid, whose envelope the sweeps' stop
            # reads, on one four times as fine (no result reads the
            # envelope on the other grids)
            assert (env >= want_env).all(), what
            if grid == bounds._COARSE_GRID:
                _, finer_env = omega_sup_full_grid(coeffs, key, sigmas, 4 * grid)
                assert (env >= finer_env).all(), what


def test_sweep_rejects_complex_coefficients():
    A0 = np.array([[0.0, 1.0], [-2.0, 1j]])
    coeffs = bounds._power_coefficients(A0, np.eye(2, dtype=complex), 1)
    with pytest.raises(ValueError, match="real"):
        bounds._omega_sup(coeffs, Norm.ONE, np.zeros(1), bounds._COARSE_GRID)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_argmax_bracket_holds_the_last_crossing(data):
    # W(phi) - phi - 2 pi k* is >= 0 at the argmax phi_i and < 0 at every later
    # grid point and at the wrap, so [phi_i, phi_(i+1)] is the last downward crossing
    n = data.draw(st.sampled_from([2, 3]))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    key, power = data.draw(st.sampled_from(_SWEEP_KEYS))
    sigma = data.draw(st.floats(-1.0, 2.0))
    grid = 512
    phis = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    H = bounds._stacked_h(_coeffs(pair, power), np.exp(-sigma - 1j * phis), key)
    W = np.sqrt(np.maximum(H * H - sigma * sigma, 0.0))
    kmax = np.floor((W - phis) / (2 * math.pi))
    omega = np.where(W >= phis, phis + 2 * math.pi * kmax, -math.inf)
    i = int(omega.argmax())
    g = np.append(W, W[0]) - (np.append(phis, 2 * math.pi) + 2 * math.pi * kmax[i])
    assert g[i] >= 0.0
    assert (g[i + 1:] < 0.0).all()


# --- pruning whole cells of the phi grid ---------------------------------------------


def _h_oracle(pair, norm, power, sigma, phi):
    # one matrix at a time: matrix_power and numpy's norms, or eigvals for rho
    M = pair.A0 + np.exp(-sigma - 1j * phi) * pair.A1
    if norm == "rho":
        return np.abs(np.linalg.eigvals(M)).max()
    return np.linalg.norm(np.linalg.matrix_power(M, power), _NORM_ORD[norm]) ** (1 / power)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cell_bound_holds_on_every_cell(data):
    # H_up bounds H at every grid point of a cell, at the ends of the brackets
    # its points own (one step to either side, pi for the last cell), at the
    # mirror images of all of these, and between grid points; for rho, dense
    # pairs exercise Graeffe coefficients of every degree in c
    n = data.draw(st.integers(1, 4))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    norm = data.draw(st.one_of(st.just("rho"), st.sampled_from(bounds.SUBMULTIPLICATIVE_NORMS)))
    power = 1 if norm == "rho" else data.draw(st.integers(1, 3))
    sigma = data.draw(st.floats(-1.0, 4.0))
    grid = data.draw(st.sampled_from([200, 512, 777]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phis_ext = np.append(np.linspace(0.0, 2 * math.pi, grid, endpoint=False), 2 * math.pi)
    cells = bounds._HalfGridCells(grid, phis_ext)
    coeffs = _coeffs(pair, power)
    graeffe = bounds._sweep_graeffe(coeffs, norm)
    h_up = bounds._cell_bounds(coeffs, norm, np.array([sigma]), cells, graeffe, np.arange(1))
    half = grid // 2 + 1
    firsts = range(0, half, bounds._CELL)
    assert h_up.shape == (1, len(firsts))
    for cell, first in enumerate(firsts):
        last = min(first + bounds._CELL, half) - 1
        phi = phis_ext[max(first - 1, 0):min(last + 1, grid // 2) + 1]
        phi = np.concatenate((phi, [math.pi] if last == half - 1 else [], rng.uniform(phi[0], phi[-1], 4)))
        phi = np.concatenate((phi, 2 * math.pi - phi))
        h = [_h_oracle(pair, norm, power, sigma, x) for x in phi]
        h += bounds._stacked_h(coeffs, np.exp(-sigma - 1j * phi), norm).tolist()
        assert max(h) <= h_up[0, cell], (cell, max(h), h_up[0, cell])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tile_bound_holds_on_every_tile(data):
    # the cell bound of a tile of sigma rows holds at random (sigma, phi) in
    # [lo, hi] x each cell's bracket interval and its mirror image, and at the
    # tile's own rows; the sigmas arrive unsorted and close enough together
    # for tiles of several rows
    n = data.draw(st.integers(1, 4))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    norm = data.draw(st.one_of(st.just("rho"), st.sampled_from(bounds.SUBMULTIPLICATIVE_NORMS)))
    power = 1 if norm == "rho" else data.draw(st.integers(1, 3))
    base = data.draw(st.floats(-1.0, 3.5))
    sigmas = base + np.array(data.draw(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=8)))
    grid = data.draw(st.sampled_from([200, 512, 777]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phis_ext = np.append(np.linspace(0.0, 2 * math.pi, grid, endpoint=False), 2 * math.pi)
    cells = bounds._HalfGridCells(grid, phis_ext)
    coeffs = _coeffs(pair, power)
    s = np.sort(sigmas)
    heads = bounds._sigma_tiles(s, grid)
    h_up = bounds._cell_bounds(coeffs, norm, s, cells, bounds._sweep_graeffe(coeffs, norm), heads)
    assert h_up.shape == (heads.size, cells.first.size)
    half = grid // 2 + 1
    for tile, (lo, hi) in enumerate(zip(*bounds._tile_ends(s, heads))):
        assert (hi - lo) / 2 < bounds._TILE_FRACTION * math.pi * bounds._CELL / grid
        rows = s[(s >= lo) & (s <= hi)]
        for cell, first in enumerate(range(0, half, bounds._CELL)):
            last = min(first + bounds._CELL, half) - 1
            phi_lo, phi_hi = phis_ext[max(first - 1, 0)], phis_ext[min(last + 1, grid // 2)]
            if last == half - 1:
                phi_hi = max(phi_hi, math.pi)
            sigma = np.concatenate((rows, rng.uniform(lo, hi, 6)))
            phi = rng.uniform(phi_lo, phi_hi, sigma.size)
            phi = np.concatenate((phi, 2 * math.pi - phi))
            sigma = np.concatenate((sigma, sigma))
            h = [_h_oracle(pair, norm, power, x, y) for x, y in zip(sigma, phi)]
            h += bounds._stacked_h(coeffs, np.exp(-sigma - 1j * phi), norm).tolist()
            assert max(h) <= h_up[tile, cell], (tile, cell, max(h), h_up[tile, cell])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graeffe_coefficients_and_cauchy_radius_against_numpy(n):
    # the pieces of the rho cell bound: G against the characteristic
    # polynomial of M(c)^2 one matrix at a time, and the Cauchy radius
    # against the positive root that numpy's companion eigenvalues give
    rng = np.random.default_rng(60 + n)
    A0, A1 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    G = bounds._graeffe_coefficients(A0, A1)
    for c in np.exp(-rng.uniform(-0.5, 2.0, 8) - 1j * rng.uniform(0.0, 2 * math.pi, 8)):
        M = A0 + c * A1
        want = np.poly(M @ M)[::-1][:n]
        got = np.polynomial.polynomial.polyval(c, G.T)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())
    m = rng.uniform(0.0, 3.0, (n, 6))
    for col, radius in zip(m.T, bounds._cauchy_radius(m)):
        roots = np.roots(np.concatenate(([1.0], -col[::-1])))
        want = roots[np.abs(roots.imag) < 1e-9].real.max()
        assert abs(radius - want) <= 1e-12 * want, (radius, want)


@pytest.mark.parametrize("grid", [bounds._COARSE_GRID, bounds._FINE_GRID, 1000])
def test_floored_sweep_is_exact_above_the_floor(grid, std_pair, example_system):
    # 1000: the half grid, 501 points, is no whole number of cells; at
    # sigma = -400, H overflows (sup inf, envelope nan, as with the full grid)
    pairs = {
        "standard": (std_pair, np.array([-400.0, -0.3, 0.0, 0.013, 0.4, 1.5])),
        "order 3": (_pair(example_system, -0.5), np.array([-0.3, 0.0, 0.7])),
    }
    keys = [("rho", 1)] + [(norm, p) for norm in bounds.SUBMULTIPLICATIVE_NORMS for p in (1, 2)]
    for name, (pair, sigmas) in pairs.items():
        for key, power in keys:
            coeffs = _coeffs(pair, power)
            with np.errstate(over="ignore", invalid="ignore"):
                sup, env, _ = bounds._omega_sup(coeffs, key, sigmas, grid)
            finite = sup[np.isfinite(sup)]
            for floor in (finite.min(), finite.mean(), np.nextafter(finite.max(), -math.inf)):
                what = f"{name} {key} p={power} floor={floor}"
                with np.errstate(over="ignore", invalid="ignore"):
                    got, got_env, _ = bounds._omega_sup(coeffs, key, sigmas, grid, floor)
                _assert_floor_contract(sup, env, got, got_env, floor, what)


def test_pruned_sweeps_kernel_point_budget(std_pair, monkeypatch):
    # every cell evaluated in full, the seven sweeps took 6,760,051 kernel
    # points; pruned norm cells brought them to 1,886,002, pruned rho cells
    # (934,543 -> 156,591) to 1,108,050, and keeping cells for the envelope
    # only where it reaches the floor (none in the fine rescan), with the
    # polish stopped at its fixed point, to 354,082 (rho 43,884); one centre
    # per tile of sigma rows and cell, with coarse blocks of a tail cut's
    # length, to 182,609 (rho 19,761); with the tail cut reading the tile
    # bounds and no cell kept for the envelope, to 123,923 (rho 19,661); and
    # with the proven stop in place of the 100-row tail cut, to 117,884 (rho
    # 19,760: its first block adds 99 tile centres).  A rho tile centre is
    # an evaluation of the Graeffe bound, not of H
    points = []
    kernel, rho_bound = bounds._stacked_h, bounds._rho_cell_bound

    def spy(coeffs, c, norm):
        points.append(c.size)
        return kernel(coeffs, c, norm)

    def rho_spy(*args):
        bound = rho_bound(*args)
        points.append(bound.size)
        return bound

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    monkeypatch.setattr(bounds, "_rho_cell_bound", rho_spy)
    A0, A1 = std_pair.A0.astype(complex), std_pair.A1.astype(complex)
    counted = {}
    for key, power in _STANDARD_SWEEPS:
        points.clear()
        counted[key, power] = bounds._feasibility_sup(A0, A1, key, power, 0.0)[1]
        assert counted[key, power] == sum(points), key
    assert counted["rho", 1] <= 20_000
    assert sum(counted.values()) <= 119_000


def test_standard_pair_kernel_points_pinned(std_pair):
    # the budget above bounds the counts from above only; a change in the
    # scan's bookkeeping that evaluates other cells, or other rows, must show
    want = {("rho", 1): 12_697, (Norm.ONE, 1): 7_491, (Norm.FROBENIUS, 1): 6_498,
            (Norm.INFINITY, 1): 10_245, (Norm.ONE, 2): 10_673, (Norm.FROBENIUS, 2): 10_211,
            (Norm.INFINITY, 2): 11_017}
    got = {(key, power): (bound_spectral_radius_curve(std_pair) if key == "rho"
                          else bound_norm_power(std_pair, key, power)).kernel_points
           for key, power in _STANDARD_SWEEPS}
    assert got == want
    assert sum(got.values()) == 68_832


def test_graeffe_coefficients_once_per_rho_sweep(std_pair, example_system, monkeypatch):
    # the coefficients depend on the pair only: the range check and every
    # block's cell bound share one computation per sweep, and norm sweeps
    # need none
    calls = []
    graeffe = bounds._graeffe_coefficients

    def spy(A0, A1):
        calls.append(A0.shape[0])
        return graeffe(A0, A1)

    monkeypatch.setattr(bounds, "_graeffe_coefficients", spy)
    order3 = _pair(example_system, -0.5)
    for pair in (std_pair, order3):
        calls.clear()
        bound_spectral_radius_curve(pair)
        assert calls == [pair.n]
    calls.clear()
    boundary_curve(std_pair, np.arange(0.0, 1.0, 0.02))
    assert calls == [2]
    calls.clear()
    bound_norm_power(std_pair, Norm.FROBENIUS, 2)
    assert calls == []


def _newton_polished(q, z):
    """z moved by Newton steps on q for as long as each lowers |q(z)|."""
    qp = q.derivative()
    for _ in range(20):
        if qp(z) == 0:
            break
        nxt = z - q(z) / qp(z)
        if not abs(q(nxt)) < abs(q(z)):
            break
        z = nxt
    return z


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_bounds_every_root_of_a_random_system(data):
    # soundness against the spectrum: every characteristic root with
    # Re z >= sigma_min (Chebyshev collocation of the normalized system) has
    # |Im z| within a norm-power bound of its pair and, for n <= 2, within
    # its rho bound (at n = 3 a rho sweep runs stacked eigvals, 0.2-3 s).
    # The sweep samples sigma every 1e-4 near its maximum, so a root on the
    # feasibility boundary may sit above its value by the curve's change
    # over that step: a relative 1e-6 is allowed.  The collocation places a
    # root only to about 1e-13 absolute, so each root near Re z >= sigma_min
    # is polished by Newton on the quasipolynomial before it is judged:
    # b = (4.9e-27, 0), beta = (0, 4.9e-27) has its roots at
    # -2.5e-27 +- 7.02e-14i, which the collocation put at 2e-15 +- 1.2e-13i
    n = data.draw(st.integers(1, 3))
    coefficients = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    sys_ = RetardedSystem(n, data.draw(coefficients), data.draw(coefficients), data.draw(st.floats(0.3, 2.0)))
    nsys = normalize(sys_, data.draw(st.floats(-1.0, 1.0)))
    sigma_min = data.draw(st.floats(-0.5, 0.5))
    roots = chebyshev_eigenvalues(RetardedSystem(n, nsys.b, nsys.beta, 1.0), 60)
    q = nsys.quasipolynomial()
    roots = [_newton_polished(q, z) for z in roots[roots.real >= sigma_min - 1e-6].tolist()]
    roots = [z for z in roots if z.real >= sigma_min]
    pair = companion(nsys.b, nsys.beta)
    norm = data.draw(st.sampled_from(bounds.SUBMULTIPLICATIVE_NORMS))
    power = data.draw(st.integers(1, 3))
    reports = [bound_norm_power(pair, norm, power, sigma_min)]
    reports += [bound_spectral_radius_curve(pair, sigma_min)] if n <= 2 else []
    for report in reports:
        for z in roots:
            assert abs(z.imag) <= report.value * (1.0 + 1e-6), (z, report)


# The rho sweep misses a feasible set thinner than its sigma step: these roots
# lie above the value it returns (0.0 for both pairs).  ROADMAP item 8's
# certified value is to mend it; these markers go when it does.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_rho_sweep_bounds_roots_near_the_axis():
    # roots +-3.16e-8i
    assert bound_spectral_radius_curve(companion([0, 0], [1e-15, 0]), -0.125).value >= 3.16e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_rho_sweep_bounds_roots_of_a_tiny_pair():
    # roots -2.46e-27 +- 7.020996e-14i
    pair = companion([4.93e-27, 0], [0, 4.93e-27])
    assert bound_spectral_radius_curve(pair, -1e-12).value >= 7.020996e-14


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport(BoundMethod.NORM_POWER, Norm.ONE, 1, 0.0, -1.0)


# --- the analytic chain ------------------------------------------------------------


def test_frobenius_square_expansion_identity(std_pair):
    # ||(A0 + A1 w)^2||_F^2 equals the explicit four-term expansion
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(0, 2), rng.uniform(-7, 7))
        w = np.exp(-z)
        M = std_pair.A0 + w * std_pair.A1
        lhs = (np.abs(M @ M) ** 2).sum()
        rhs = (
            36 * abs(w - 1) ** 2
            + 4 * abs(w + 2) ** 2
            + 144 * abs(w - 1) ** 2 * abs(w + 2) ** 2
            + abs((2 * w + 4) ** 2 + 6 * w - 6) ** 2
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_expansion_as_quadratic_in_cosine(std_pair):
    # the same expansion rewritten in e^(-sigma) cos(omega)
    rng = np.random.default_rng(4)
    for _ in range(20):
        sigma, omega = rng.uniform(0, 3), rng.uniform(-7, 7)
        w = np.exp(-complex(sigma, omega))
        M = std_pair.A0 + w * std_pair.A1
        lhs = (np.abs(M @ M) ** 2).sum()
        u = math.exp(-2 * sigma)
        c = math.exp(-sigma) * math.cos(omega)
        rhs = -992 * u * math.cos(omega) ** 2 + (464 * u - 192) * c \
            + 728 + 1164 * u + 160 * u * u
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_lemma3_chain(std_pair):
    rep = lemma3_analytic_bound(std_pair)
    assert abs(rep.coarse - (64190.0 / 31.0) ** 0.25) < 1e-12
    assert rep.coarse < 6.75
    assert abs(rep.refined - 1532.94**0.25) < 1e-4
    assert rep.refined < 2 * math.pi
    assert rep.excluded_interval == (2 * math.pi, rep.coarse)
    assert rep.certified == 2 * math.pi


def test_lemma3_rejects_other_pairs():
    pair = CompanionPair(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lemma3_analytic_bound(pair)
