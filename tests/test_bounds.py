import math

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
from midspec.quasipoly import mid_coefficients, normalize
from midspec.spectral import CompanionPair, companion_pair
from oracles import feasibility_sup_every_polish, omega_sup_full_grid


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_log_norm_stack_matches_loop(n):
    # the Tissir-Hmamed theta scan as one stacked call and as one call per theta
    rng = np.random.default_rng(30 + n)
    A1 = rng.normal(size=(n, n))
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    stack = A1 * np.exp(1j * thetas)[:, None, None]
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        loop = [log_norm(A1 * np.exp(1j * t), norm) for t in thetas]
        assert all(type(v) is float for v in loop)
        got = log_norm(stack, norm)
        assert got.shape == thetas.shape
        assert np.array_equal(got, loop), norm
        assert np.array_equal(log_norm(stack.reshape(8, 90, n, n), norm), got.reshape(8, 90))


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


def _designed_pair(n):
    return companion_pair(normalize(mid_coefficients(n, -0.4, 2.5), -0.4))


def test_tissir_hmamed_closed_forms():
    # one and infinity norms: |M_ij| does not move with theta and
    # max_theta Re(a e^(i theta)) = |a|, so the theta maximum is ||A1|| and
    # the bound is Mori-Kokame's.  Two-norm: the theta maximum is the
    # numerical radius, for the rank-one A1 = e_n a^T of a companion pair
    # (|a_n| + ||a||_2) / 2
    rng = np.random.default_rng(12)
    general = [CompanionPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
               for n in (1, 2, 3, 5) for _ in range(5)]
    designed = [_designed_pair(n) for n in range(1, 9)]
    for pair in general + designed:
        for norm in (Norm.ONE, Norm.INFINITY):
            th = bound_tissir_hmamed(pair, norm).value
            mk = bound_mori_kokame(pair, norm).value
            assert th == pytest.approx(mk, rel=1e-12), (pair.n, norm)

    companions = [CompanionPair(np.eye(n, k=1), np.eye(n)[:, [-1]] * rng.normal(size=n))
                  for n in (1, 2, 3, 5) for _ in range(5)]
    for pair in companions + designed:
        a = pair.A1[-1]
        radius = (abs(a[-1]) + np.linalg.norm(a)) / 2.0
        want = log_norm(-1j * pair.A0, Norm.TWO) + radius
        assert bound_tissir_hmamed(pair, Norm.TWO).value == pytest.approx(want, rel=1e-12), pair.n


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
    pair = companion_pair(normalize(example_system, -0.5))
    value = bound_norm_power(pair, Norm.FROBENIUS, 2).value
    assert abs(value - 35.42513344194229) < 1e-9


def test_boundary_curve_pinned(std_pair):
    sigmas = np.arange(0.0, 3.0 + 1e-9, 0.25)
    for norm, power, want in ((None, 1, _PINNED_CURVE_RHO), (Norm.FROBENIUS, 2, _PINNED_CURVE_FRO2)):
        data = boundary_curve(std_pair, sigmas, norm, power)
        np.testing.assert_array_equal(data[:, 0], sigmas)
        np.testing.assert_allclose(data[:, 1], want, rtol=0.0, atol=1e-9)  # NaNs must coincide


def test_sweep_stacked_calls_respect_cap(std_pair, monkeypatch):
    sizes = []
    kernel = bounds._stacked_h

    def spy(coeffs, c, norm):
        sizes.append(c.size)
        return kernel(coeffs, c, norm)

    def half_grid_block(grid):
        return max(1, bounds._MAX_STACK // grid) * (grid // 2 + 1)

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    bound_norm_power(std_pair, Norm.ONE, 2)
    bound_spectral_radius_curve(std_pair)
    assert max(sizes) <= bounds._MAX_STACK
    # grid blocks evaluate H on phi in [0, pi] only; bisection calls are smaller
    assert max(sizes) <= max(half_grid_block(g) for g in (bounds._COARSE_GRID, bounds._FINE_GRID))

    # one bisection serves every sigma of a call: grid blocks plus 50 steps
    sizes.clear()
    sigmas = np.arange(0.0, 3.0, 0.02)
    boundary_curve(std_pair, sigmas, Norm.FROBENIUS, 2)
    assert max(sizes) <= bounds._MAX_STACK
    rows = bounds._MAX_STACK // bounds._CURVE_GRID
    blocks = math.ceil(sigmas.size / rows)
    assert len(sizes) <= blocks + bounds._BISECTION_STEPS
    assert all(size <= half_grid_block(bounds._CURVE_GRID) for size in sizes[:blocks])
    assert all(size <= sigmas.size for size in sizes[blocks:])


# --- bisecting only the crossings that can move the result --------------------------

_STANDARD_SWEEPS = (("rho", 1),) + tuple(
    (norm, p) for p in (1, 2) for norm in (Norm.ONE, Norm.FROBENIUS, Norm.INFINITY)
)


def _sweeps(sweep, pair, keys, sigma_min):
    A0, A1 = pair.A0.astype(complex), pair.A1.astype(complex)
    return [sweep(A0, A1, key, power, sigma_min) for key, power in keys]


@pytest.mark.parametrize("sigma_min", [-0.5, 0.0, 0.3])
def test_pruned_sweeps_match_every_polish_oracle(sigma_min, std_pair):
    got = _sweeps(bounds._feasibility_sup, std_pair, _STANDARD_SWEEPS, sigma_min)
    assert got == _sweeps(feasibility_sup_every_polish, std_pair, _STANDARD_SWEEPS, sigma_min)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_designed_sweeps_match_every_polish_oracle(n):
    # every norm at p = 1..3; the stacked-eigvals rho sweep only where it is cheap
    pair = companion_pair(normalize(mid_coefficients(n, -0.5, 2.5), -0.5))
    keys = [(norm, p) for norm in bounds.SUBMULTIPLICATIVE_NORMS for p in (1, 2, 3)]
    keys += [("rho", 1)] if n <= 2 else []
    got = _sweeps(bounds._feasibility_sup, pair, keys, 0.0)
    want = _sweeps(feasibility_sup_every_polish, pair, keys, 0.0)
    assert got == want, [key for key, g, w in zip(keys, got, want) if g != w]


def test_pruned_sweeps_kernel_call_count(std_pair, monkeypatch):
    # the every-polish oracle makes 7,075 calls here, 50 bisection steps per coarse block
    calls = []
    kernel = bounds._stacked_h

    def spy(coeffs, c, norm):
        calls.append(c.size)
        return kernel(coeffs, c, norm)

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    _sweeps(bounds._feasibility_sup, std_pair, _STANDARD_SWEEPS, 0.0)
    assert len(calls) <= 1600


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_omega_sup_floor_contract(data):
    # above floor the sup is the fully polished one; at or below it, it stays there
    n = data.draw(st.sampled_from([2, 3]))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    key, power = data.draw(st.sampled_from(_SWEEP_KEYS))
    sigmas = np.array(data.draw(st.lists(st.floats(-1.0, 4.0), min_size=1, max_size=6)))
    coeffs = _coeffs(pair, power)
    sup, env = bounds._omega_sup(coeffs, key, sigmas, 512)
    finite = sup[sup > -math.inf].tolist()
    floor = data.draw(st.one_of(st.floats(-1.0, 40.0), st.sampled_from(finite or [-math.inf])))
    got, got_env = bounds._omega_sup(coeffs, key, sigmas, 512, floor)
    above = sup > floor
    np.testing.assert_array_equal(got[above], sup[above])
    assert (got[~above] <= floor).all()
    np.testing.assert_array_equal(got_env, env)


def test_norm_sums_do_not_depend_on_the_stack():
    # the entry sums of the norms were once pairwise for a lone matrix and in
    # order for a stack, from eight terms on, so a row polished alone under a
    # floor changed its last bit (6.2604447173799995 against 6.260444717379998)
    pair = CompanionPair(2.0 * np.ones((3, 3)), [[3.5, 0, -1], [-1, -1, -1], [-1, -1, -1]])
    coeffs = _coeffs(pair, 2)
    sigmas = np.array([0.0, 1.0])
    sup, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512)
    got, _ = bounds._omega_sup(coeffs, Norm.FROBENIUS, sigmas, 512, 6.0)
    assert sup[0] > 6.0
    assert got[0] == sup[0]
    rng = np.random.default_rng(5)
    c = rng.uniform(0.2, 2.0, 200) * np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    for n in (3, 8):
        pair = CompanionPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        coeffs = _coeffs(pair, 2)
        for norm in (Norm.ONE, Norm.INFINITY, Norm.FROBENIUS):
            stacked = bounds._stacked_h(coeffs, c, norm)
            alone = [bounds._stacked_h(coeffs, c[i:i + 1], norm)[0] for i in range(c.size)]
            np.testing.assert_array_equal(stacked, alone, f"n={n} {norm.value}")


def test_sweep_rejects_overflowing_sigma_min(std_pair):
    # e^(-sigma_min) in the sweep's sigma cap overflows a float below about -709
    with pytest.raises(ValueError, match="sigma_min = -800.0 overflows"):
        bound_spectral_radius_curve(std_pair, -800.0)
    with pytest.raises(ValueError, match="sigma_min = -800.0 overflows"):
        bound_norm_power(std_pair, Norm.ONE, 1, -800.0)


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
        "order 3": (companion_pair(normalize(example_system, -0.5)), np.array([-0.3, 0.0, 0.7, 2.0, 200.0])),
    }
    for name, (pair, sigmas) in pairs.items():
        for key, power in _SWEEP_KEYS:
            coeffs = _coeffs(pair, power)
            sup, env = bounds._omega_sup(coeffs, key, sigmas, grid)
            want_sup, want_env = omega_sup_full_grid(coeffs, key, sigmas, grid)
            assert sup[-1] == -math.inf  # the last sigma is infeasible
            np.testing.assert_array_equal(sup, want_sup, f"{name} {key} p={power}")
            # the envelope's maximum is H at phi_j on the half grid; the oracle
            # also evaluates phi_(grid-j), whose last bit may differ
            np.testing.assert_allclose(env, want_env, rtol=2 * np.finfo(float).eps, atol=0.0)


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
    M = pair.A0 + np.exp(-sigma - 1j * phi) * pair.A1
    return np.linalg.norm(np.linalg.matrix_power(M, power), _NORM_ORD[norm]) ** (1 / power)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cell_bound_holds_on_every_cell(data):
    # H_up bounds H at every grid point of a cell, at the ends of the brackets
    # its points own (one step to either side, pi for the last cell), at the
    # mirror images of all of these, and between grid points
    n = data.draw(st.integers(1, 4))
    entries = arrays(np.float64, (n, n), elements=st.floats(-8.0, 8.0))
    pair = CompanionPair(data.draw(entries), data.draw(entries))
    norm = data.draw(st.sampled_from(bounds.SUBMULTIPLICATIVE_NORMS))
    power = data.draw(st.integers(1, 3))
    sigma = data.draw(st.floats(-1.0, 4.0))
    grid = data.draw(st.sampled_from([200, 512, 777]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phis_ext = np.append(np.linspace(0.0, 2 * math.pi, grid, endpoint=False), 2 * math.pi)
    cells = bounds._HalfGridCells(grid, phis_ext)
    _, h_up = bounds._cell_bounds(_coeffs(pair, power), norm, np.array([sigma]), cells)
    half = grid // 2 + 1
    firsts = range(0, half, bounds._CELL)
    assert h_up.shape == (1, len(firsts))
    for cell, first in enumerate(firsts):
        last = min(first + bounds._CELL, half) - 1
        phi = phis_ext[max(first - 1, 0):min(last + 1, grid // 2) + 1]
        phi = np.concatenate((phi, [math.pi] if last == half - 1 else [], rng.uniform(phi[0], phi[-1], 4)))
        h = [_h_oracle(pair, norm, power, sigma, x) for x in np.concatenate((phi, 2 * math.pi - phi))]
        assert max(h) <= h_up[0, cell], (cell, max(h), h_up[0, cell])


@pytest.mark.parametrize("grid", [bounds._COARSE_GRID, bounds._FINE_GRID, 1000])
def test_floored_sweep_is_exact_above_the_floor(grid, std_pair, example_system):
    # 1000: the half grid, 501 points, is no whole number of cells; at
    # sigma = -400, H overflows (sup inf, envelope nan, as with the full grid)
    pairs = {
        "standard": (std_pair, np.array([-400.0, -0.3, 0.0, 0.013, 0.4, 1.5])),
        "order 3": (companion_pair(normalize(example_system, -0.5)), np.array([-0.3, 0.0, 0.7])),
    }
    keys = [("rho", 1)] + [(norm, p) for norm in bounds.SUBMULTIPLICATIVE_NORMS for p in (1, 2)]
    for name, (pair, sigmas) in pairs.items():
        for key, power in keys:
            coeffs = _coeffs(pair, power)
            with np.errstate(over="ignore", invalid="ignore"):
                sup, env = bounds._omega_sup(coeffs, key, sigmas, grid)
            finite = sup[np.isfinite(sup)]
            for floor in (finite.min(), finite.mean(), np.nextafter(finite.max(), -math.inf)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, got_env = bounds._omega_sup(coeffs, key, sigmas, grid, floor)
                what = f"{name} {key} p={power} floor={floor}"
                above = sup > floor
                np.testing.assert_array_equal(got[above], sup[above], what)
                assert (got[~above] <= floor).all(), what
                np.testing.assert_array_equal(got_env, env, what)


def test_pruned_sweeps_kernel_point_budget(std_pair, monkeypatch):
    # every cell evaluated in full, the seven sweeps took 6,760,051 kernel
    # points; pruned cells bring them to 1,886,002
    points = []
    kernel = bounds._stacked_h

    def spy(coeffs, c, norm):
        points.append(c.size)
        return kernel(coeffs, c, norm)

    monkeypatch.setattr(bounds, "_stacked_h", spy)
    _sweeps(bounds._feasibility_sup, std_pair, _STANDARD_SWEEPS, 0.0)
    assert sum(points) <= 2_450_000


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
