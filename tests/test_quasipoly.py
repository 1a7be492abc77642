import cmath
import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from midspec import bounds, quasipoly, sim, spectral
from midspec.quasipoly import (
    MID_MATCH_TOL,
    LocalizationError,
    NormalizedSystem,
    Polynomial,
    Quasipolynomial,
    RetardedSystem,
    denormalize,
    dominant_root_from_trace,
    factorization_residual,
    mid_coefficients,
    mid_deviation,
    mid_disc_certificate,
    mid_normalized,
    multiplicity_at,
    normalize,
)
from oracles import mid_double_sum, mid_order2


def rel_close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# --- construction and evaluation ------------------------------------------------


def test_two_term_structure():
    sys_ = RetardedSystem(2, (6.0, -4.0), (-6.0, -2.0), 1.0)
    q = sys_.quasipolynomial()
    assert [lam for lam, _ in q.terms] == [0.0, 1.0]
    assert q.terms[0][1].coefficients == (6.0, -4.0, 1.0)
    assert q.terms[1][1].coefficients == (-6.0, -2.0)
    assert q.degree == 4


def test_zero_delayed_part_dropped():
    q = RetardedSystem(1, (0.0,), (0.0,), 1.0).quasipolynomial()
    assert len(q.terms) == 1
    assert q.degree == 1


def test_degree_tracks_trailing_nonzeros():
    # alpha_top = 0 lowers the delayed degree and hence D
    q = RetardedSystem(2, (1.0, 1.0), (3.0, 0.0), 1.0).quasipolynomial()
    assert q.degree == 2 + 1 + 0


def test_example_system_degree(example_system):
    assert example_system.quasipolynomial().degree == 6


def test_evaluate_quartic(qhat):
    assert qhat(0.0) == 0.0
    assert abs(qhat(1.0) - (3.0 - 8.0 * math.exp(-1.0))) < 1e-14


def test_evaluate_single_term_is_plain_polynomial():
    q = Quasipolynomial([(0.0, Polynomial([1.0, 2.0, 3.0]))])
    for s in (0.3, -1.0 + 2.0j, 4.0j):
        assert q(s) == 1.0 + 2.0 * s + 3.0 * s * s


def test_evaluate_array_matches_scalar(qhat):
    z = np.array([0.3 + 1j, -2.0, 5.0 - 3.0j])
    v = qhat.eval_array(z)
    for zi, vi in zip(z, v):
        assert abs(vi - qhat(complex(zi))) < 1e-13 * max(1.0, abs(vi))


def test_magnitude_scale_array_matches_scalar(example_system):
    q = example_system.quasipolynomial()
    z = np.array([0.3 + 1j, -2.0, 5.0 - 3.0j, 0.0])
    scale = q.magnitude_scale_array(z)
    for zi, si in zip(z, scale):
        assert abs(si - q.magnitude_scale(complex(zi))) <= 1e-15 * si


def test_conjugate_symmetry_random():
    rng = random.Random(1)
    for _ in range(20):
        terms = [
            (rng.uniform(0, 2), Polynomial([rng.uniform(-2, 2) for _ in range(3)])),
            (0.0, Polynomial([rng.uniform(-2, 2) for _ in range(2)])),
        ]
        q = Quasipolynomial(terms)
        s = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        assert abs(q(s.conjugate()) - q(s).conjugate()) < 1e-12 * max(1.0, abs(q(s)))


def test_duplicate_delays_rejected():
    with pytest.raises(ValueError):
        Quasipolynomial([(1.0, Polynomial([1.0])), (1.0, Polynomial([2.0]))])


# --- derivatives ---------------------------------------------------------------


def test_derivative_rule_and_values(qhat):
    # first and third derivatives vanish at the quadruple root, fourth does not
    assert abs(qhat.derivative(1)(0.0)) < 1e-14
    assert abs(qhat.derivative(3)(0.0)) < 1e-14
    assert abs(qhat.derivative(4)(0.0) - 2.0) < 1e-13


def test_derivative_preserves_delayed_term_count(qhat):
    q = qhat
    for _ in range(6):
        q = q.derivative()
        delayed = [lam for lam, _ in q.terms if lam != 0.0]
        assert delayed == [1.0]


def test_derivative_finite_difference():
    sys_ = mid_coefficients(3, -0.5, 2.5)
    q = sys_.quasipolynomial()
    qp = q.derivative()
    h = 1e-6
    for s in (0.2, -1.0 + 0.7j):
        fd = (q(s + h) - q(s - h)) / (2 * h)
        assert abs(fd - qp(s)) < 1e-7 * max(1.0, abs(qp(s)))


# --- coefficient assignment -----------------------------------------------------


def test_mid_n2_exact():
    sys_ = mid_coefficients(2, 0.0, 1.0)
    assert sys_.a == (6.0, -4.0)
    assert sys_.alpha == (-6.0, -2.0)


def test_mid_n3_example_values(example_system):
    a0, a1, a2 = example_system.a
    assert rel_close(a0, -1.735, 1e-12)
    assert rel_close(a1, 2.91, 1e-12)
    assert rel_close(a2, -2.1, 1e-12)
    for got, want in zip(example_system.alpha, (1.736219, 1.443984, 0.3438058)):
        assert abs(got - want) < 5e-7


def test_mid_n1():
    sys_ = mid_coefficients(1, 0.0, 1.0)
    assert sys_.a == (-1.0,) and sys_.alpha == (1.0,)
    q = sys_.quasipolynomial()
    assert abs(q(0.0)) < 1e-15
    assert abs(q.derivative(1)(0.0)) < 1e-15
    assert abs(q.derivative(2)(0.0) - 1.0) < 1e-15


def test_mid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mid_coefficients(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        mid_coefficients(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mid_coefficients(2, 0.0, -1.0)
    with pytest.raises(ValueError):
        mid_normalized(0)


def test_mid_equals_double_sum_bitwise():
    # the denormalized integer design reproduces the direct double sum in
    # every bit, so designs written by any earlier version stay unchanged
    rng = random.Random(2024)
    cases = [
        (n, s0, tau)
        for n in range(1, 11)
        for s0 in (-3.0, -1.0, -0.6173964613908675, -0.5, 0.0, 0.4, 2.0)
        for tau in (0.01, 0.5, 1.0, 2.5, 10.0)
    ]
    cases += [(rng.randint(1, 10), rng.uniform(-3, 2), rng.uniform(0.01, 10)) for _ in range(500)]
    for n, s0, tau in cases:
        got = mid_coefficients(n, s0, tau)
        want = mid_double_sum(n, s0, tau)
        assert got.a == want.a and got.alpha == want.alpha, (n, s0, tau)


@pytest.mark.parametrize("n", range(1, 13))
def test_mid_normalized_is_exact_2n_fold_root(n):
    # z^n + sum b_k z^k + e^(-z) sum beta_k z^k in exact rationals: every
    # Taylor coefficient below z^(2n) vanishes and the z^(2n) one does not
    ns = mid_normalized(n)
    assert all(type(c) is int for c in ns.b + ns.beta)
    poly = list(ns.b) + [1] + [0] * n
    e = [Fraction((-1) ** j, math.factorial(j)) for j in range(2 * n + 1)]  # e^(-z)
    taylor = [
        poly[j] + sum(ns.beta[k] * e[j - k] for k in range(min(j, n - 1) + 1))
        for j in range(2 * n + 1)
    ]
    assert taylor[: 2 * n] == [0] * (2 * n)
    assert taylor[2 * n] != 0


@pytest.mark.parametrize("s0,tau", [(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (0.37, 0.61), (-0.3, 2.5)])
def test_order2_closed_form_agrees(s0, tau):
    general = mid_coefficients(2, s0, tau)
    direct = mid_order2(s0, tau)
    for x, y in zip(general.a + general.alpha, direct.a + direct.alpha):
        assert abs(x - y) <= 1e-14 * max(abs(x), abs(y), 1e-300)


def test_order2_example_values():
    sys_ = mid_order2(0.0, 2.0)
    assert rel_close(sys_.a[1], -2.0, 1e-14)
    assert rel_close(sys_.a[0], 1.5, 1e-14)
    assert rel_close(sys_.alpha[1], -1.0, 1e-14)
    assert rel_close(sys_.alpha[0], -1.5, 1e-14)

    sys_ = mid_order2(-1.0, 1.0)
    e = math.exp(-1.0)
    assert rel_close(sys_.a[1], -2.0, 1e-14)
    assert rel_close(sys_.a[0], 3.0, 1e-14)
    assert rel_close(sys_.alpha[1], -2.0 * e, 1e-14)
    assert rel_close(sys_.alpha[0], -8.0 * e, 1e-14)


# --- normalization ---------------------------------------------------------------


def test_normalize_identity_when_unit():
    sys_ = mid_coefficients(2, 0.0, 1.0)
    ns = normalize(sys_, 0.0)
    assert ns.b == sys_.a and ns.beta == sys_.alpha


@pytest.mark.parametrize("s0,tau", [(0.3, 0.7), (-0.5, 2.5), (-1.0, 1.3)])
def test_normalized_mid_is_universal(s0, tau):
    ns = normalize(mid_coefficients(2, s0, tau), s0)
    assert np.allclose(ns.b, (6.0, -4.0), rtol=1e-10)
    assert np.allclose(ns.beta, (-6.0, -2.0), rtol=1e-10)


@pytest.mark.parametrize("s0", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_shift(s0, example_system):
    with pytest.raises(ValueError, match="s0 must be finite"):
        normalize(example_system, s0)


def test_normalize_example_system(example_system):
    ns = normalize(example_system, -0.5)
    ref = mid_coefficients(3, 0.0, 1.0)
    for x, y in zip(ns.b + ns.beta, ref.a + ref.alpha):
        assert rel_close(x, y, 1e-10)


def test_normalize_spectrum_scaling(example_system):
    ns = normalize(example_system, -0.5)
    qn = ns.quasipolynomial()
    q = example_system.quasipolynomial()
    tau = example_system.tau
    for z in (0.3 + 1.0j, -2.0 + 0.5j, 5.0 - 3.0j):
        rhs = tau**3 * q(-0.5 + z / tau)
        assert abs(qn(z) - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_normalize_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        sys_ = RetardedSystem(
            n,
            [rng.uniform(-3, 3) for _ in range(n)],
            [rng.uniform(-3, 3) for _ in range(n)],
            rng.uniform(0.2, 3.0),
        )
        s0 = rng.uniform(-1.5, 1.5)
        back = denormalize(normalize(sys_, s0), s0, sys_.tau)
        for x, y in zip(back.a + back.alpha, sys_.a + sys_.alpha):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


def test_normalize_round_trip_short_delay():
    sys_ = mid_coefficients(3, -0.2, 0.05)
    back = denormalize(normalize(sys_, -0.2), -0.2, 0.05)
    for x, y in zip(back.a + back.alpha, sys_.a + sys_.alpha):
        assert rel_close(x, y, 1e-11)


@pytest.mark.parametrize(
    "s0,tau,message",
    [
        (math.nan, 2.5, "shift s0 must be finite, got nan"),
        (math.inf, 2.5, "shift s0 must be finite, got inf"),
        (-math.inf, 2.5, "shift s0 must be finite, got -inf"),
        (-0.5, math.inf, "delay tau must be finite, got inf"),
    ],
)
def test_denormalize_rejects_non_finite_input(s0, tau, message):
    with pytest.raises(ValueError, match=message):
        denormalize(mid_normalized(3), s0, tau)


# --- multiplicity -----------------------------------------------------------------


def test_multiplicity_quartic(qhat):
    assert multiplicity_at(qhat, 0.0) == 4


def test_multiplicity_polynomial_case():
    cubed = Quasipolynomial([(0.0, Polynomial([-1.0, 3.0, -3.0, 1.0]))])  # (z-1)^3
    assert multiplicity_at(cubed, 1.0) == 3


def test_multiplicity_simple_transcendental():
    q = Quasipolynomial([(0.0, Polynomial([-1.0, 1.0])), (1.0, Polynomial([1.0]))])
    assert multiplicity_at(q, 0.0) == 2


def test_multiplicity_grid_full():
    for n in range(1, 7):
        for s0 in (-1.0, 0.0, 0.5):
            for tau in (0.5, 1.0, 2.5):
                sys_ = mid_coefficients(n, s0, tau)
                q = sys_.quasipolynomial()
                assert multiplicity_at(q, s0) == 2 * n, (n, s0, tau)
                # the next derivative is genuinely nonzero
                d = q.derivative(2 * n)
                r = max(1.0, abs(s0))
                scale = sum(
                    p.abs_value_at(r) * math.exp(-lam * s0) for lam, p in d.terms
                )
                assert abs(d(s0)) > 1e-6 * scale


def test_multiplicity_short_delay():
    # the scale-relative residual makes the test delay-invariant: the raw
    # quasipolynomial (coefficients ~ tau^-2n) and the delay-1 rescaled form
    # agree even for very short delays
    sys_ = mid_coefficients(2, 0.0, 0.05)
    assert multiplicity_at(sys_.quasipolynomial(), 0.0) == 4
    assert multiplicity_at(normalize(sys_, 0.0).quasipolynomial(), 0.0) == 4


def test_multiplicity_never_exceeds_degree():
    rng = random.Random(11)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = round(rng.uniform(0, 3), 3)
            deg = rng.randint(0, 3)
            terms[lam] = Polynomial([rng.uniform(-2, 2) for _ in range(deg + 1)])
        q = Quasipolynomial(list(terms.items()))
        if q.is_zero:
            continue
        for s0 in (0.0, 1.0, -0.5 + 0.3j):
            assert multiplicity_at(q, s0) <= q.degree


# --- trace formula ---------------------------------------------------------------


def test_trace_formula_examples():
    assert abs(dominant_root_from_trace(3, -2.1, 2.5) + 0.5) < 1e-12
    assert dominant_root_from_trace(2, -4.0, 1.0) == 0.0
    assert dominant_root_from_trace(1, -1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        dominant_root_from_trace(2, 1.0, 0.0)


def test_trace_identity_across_grid():
    for n in range(1, 7):
        for s0 in (-1.0, 0.0, 0.5):
            for tau in (0.5, 1.0, 2.5):
                sys_ = mid_coefficients(n, s0, tau)
                ident = s0 + sys_.a[-1] / n + n / tau
                assert abs(ident) <= 1e-12 * max(1.0, abs(s0))


# --- integral factorization -------------------------------------------------------


def test_factorization_residual_pointwise():
    assert factorization_residual(2, 1.0) < 1e-10
    assert factorization_residual(2, 2j * math.pi) < 1e-10


def test_factorization_residual_matches_fresh_quadrature():
    # the shared nodes give bit for bit the residual of a rule built per call
    t, w = quasipoly._unit_gauss_legendre.__wrapped__(64)
    for n in range(1, 9):
        q = mid_normalized(n).quasipolynomial()
        for z in (1.0 + 0j, 2j * math.pi, 0.7 - 0.3j, -1.5 + 2.0j):
            integral = 0.5 * sum(
                wj * tj ** (n - 1) * (1.0 - tj) ** n * cmath.exp(-z * tj) for tj, wj in zip(t, w)
            )
            rhs = z ** (2 * n) / math.factorial(n - 1) * integral
            want = abs(q(z) - rhs) / q.magnitude_scale(z)
            assert factorization_residual(n, z) == want, (n, z)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 69, 153])
def test_gauss_legendre_rule_matches_numpy(m):
    # 69 and 153 are the certificate's rules at n = 4 and n = 8; the end
    # nodes and the middle one also against mpmath at 40 digits
    t, w = quasipoly._unit_gauss_legendre(m)
    x, want = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(t, 0.5 * (x + 1.0), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, want, rtol=0.0, atol=1e-14)
    with mpmath.workdps(40):
        for i in {0, m // 2, m - 1}:
            node = 2 * mpmath.mpf(t[i]) - 1
            for _ in range(4):  # Newton, from an error of about 1e-16
                p, p1 = mpmath.legendre(m, node), mpmath.legendre(m - 1, node)
                slope = m * (node * p - p1) / (node**2 - 1) if m > 1 else mpmath.mpf(1)
                node -= p / slope
            assert abs(t[i] - (node + 1) / 2) <= 1e-15
            assert abs(w[i] - 2 / ((1 - node**2) * slope**2)) <= 1e-15


def test_factorization_zero_rejected():
    with pytest.raises(ValueError):
        factorization_residual(2, 0.0)


def test_factorization_limit_identity(qhat):
    moment, _ = quad(lambda t: t * (1.0 - t) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert abs(moment - 1.0 / 12.0) < 1e-14
    d4 = qhat.derivative(4)(0.0).real
    assert abs(moment - d4 / math.factorial(4)) < 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_factorization_against_hypergeometric_oracle(n):
    # integral_0^1 t^(n-1) (1-t)^n e^(-z t) dt = B(n, n+1) 1F1(n; 2n+1; -z), so
    # the mpmath right-hand side must match the direct evaluation of the
    # design, and the quadrature residual must then be small as well
    q = mid_coefficients(n, 0.0, 1.0).quasipolynomial()
    for z in (1.0, 2j * math.pi, 0.7 - 0.3j, -1.5 + 2.0j, 3.0 - 4.0j):
        with mpmath.workdps(40):
            w = mpmath.mpc(z)
            rhs = (
                w ** (2 * n) / mpmath.factorial(n - 1)
                * mpmath.beta(n, n + 1) * mpmath.hyp1f1(n, 2 * n + 1, -w)
            )
        scale = q.magnitude_scale(z)
        assert abs(q(z) - complex(rhs)) / scale < 1e-12, (n, z)
        assert factorization_residual(n, z) < 1e-12, (n, z)


# --- disc certificate of the exact design ------------------------------------------


def _f_derivatives(n, c, order):
    """F_n^(k)(c) = (-1)^k (n)_k/(2n+1)_k 1F1(n+k; 2n+1+k; -c), k < order, by
    mpmath at 30 digits."""
    with mpmath.workdps(30):
        z = -mpmath.mpc(c)
        return [(-1) ** k * mpmath.rf(n, k) / mpmath.rf(2 * n + 1, k)
                * mpmath.hyp1f1(n + k, 2 * n + 1 + k, z) for k in range(order)]


@pytest.mark.parametrize("n", range(1, 9))
def test_disc_certificate_holds_with_mpmath_values(n):
    # every disc at n <= 4, every 4th above: the disc inequality holds with
    # the mpmath derivatives, and each quadrature value is within the error
    # bound the certificate allows it
    cert = mid_disc_certificate(n)
    assert cert.winding == 0 and cert.re_min == -1.0
    order = quasipoly._DISC_ORDER
    rule = quasipoly._mid_kernel_rule(n, cert.nodes)
    for c, r in cert.discs[:: 1 if n <= 4 else 4]:
        exact = _f_derivatives(n, c, order + 1)
        with mpmath.workdps(30):
            moments = [mpmath.rf(n, k) / mpmath.rf(2 * n + 1, k) for k in range(order + 1)]
            reach = sum(abs(exact[k]) * mpmath.mpf(r) ** k / mpmath.factorial(k)
                        for k in range(1, order))
            reach += (moments[order] * mpmath.exp(max(0.0, r - c.real))
                      * mpmath.mpf(r) ** order / mpmath.factorial(order))
            assert abs(exact[0]) > reach, (c, r)
        got, moduli = quasipoly._mid_taylor(c, rule)
        allowed = quasipoly._ROUNDING_UNITS * (cert.nodes + abs(c)) * sys.float_info.epsilon * moduli
        for k in range(order):
            assert abs(got[k] - complex(exact[k])) <= allowed, (c, k)


def test_disc_certificate_box_holds_the_modulus_cut():
    # any root with Re z >= -1 has |z| <= R, the box reaches R + 0.1, and
    # the discs cover the upper half of its boundary without gaps
    for n in range(1, 9):
        cert = mid_disc_certificate(n)
        nsys = mid_normalized(n)
        with mpmath.workdps(30):
            weights = [abs(b) + mpmath.e * abs(be) for b, be in zip(nsys.b, nsys.beta)]
            outer = mpmath.findroot(
                lambda r: r**n - sum(wk * r**k for k, wk in enumerate(weights)), 2.0 * cert.re_max
            )
        assert cert.re_max == cert.im_max >= float(outer) + 0.1
        path = 2.0 * cert.im_max + cert.re_max - cert.re_min
        assert math.isclose(sum(2.0 * r for _, r in cert.discs), path, rel_tol=1e-12)
        for (a, ra), (b, rb) in zip(cert.discs, cert.discs[1:]):
            assert abs(b - a) <= (ra + rb) * (1.0 + 1e-12)


def test_disc_certificate_counts_zeros_past_the_left_edge():
    # F_1's rightmost zeros are -2.0888 +/- 7.4615i: a box reaching past them
    # counts the pair, and an edge through one is inconclusive, not a count
    with mpmath.workdps(30):
        zero = mpmath.findroot(lambda z: mpmath.hyp1f1(1, 3, -z), mpmath.mpc(-2.09, 7.46))
    assert abs(complex(zero) - (-2.0888 + 7.4615j)) < 1e-4
    assert mid_disc_certificate(1, -2.5).winding == 2
    with pytest.raises(LocalizationError, match="disc at .* of radius"):
        mid_disc_certificate(1, float(zero.real))


def test_disc_certificate_is_inconclusive_past_binary64():
    # at n = 11 |F| at the top left of the box falls below the rounding of
    # its quadrature; the discs nearest that corner go first, so this is quick
    with pytest.raises(LocalizationError, match="F_11 disc certificate inconclusive"):
        mid_disc_certificate(11)
    assert mid_disc_certificate(10).winding == 0


def test_mid_deviation_matches_the_design():
    assert mid_deviation(mid_normalized(5)) == 0.0
    nsys = normalize(mid_coefficients(4, -0.3, 1.7), -0.3)
    assert mid_deviation(nsys) < MID_MATCH_TOL
    b = list(nsys.b)
    b[0] *= 1.0 + 1e-8
    assert mid_deviation(NormalizedSystem(4, b, nsys.beta)) > MID_MATCH_TOL


# --- serialization ----------------------------------------------------------------


def test_json_round_trip(example_system):
    doc = json.loads(example_system.to_json())
    assert set(doc) == {"n", "a", "alpha", "tau"}
    assert doc["n"] == 3 and doc["tau"] == 2.5
    back = RetardedSystem.from_json(example_system.to_json())
    assert back == example_system


def test_system_validation():
    with pytest.raises(ValueError):
        RetardedSystem(2, (1.0,), (1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        RetardedSystem(2, (1.0, 2.0), (1.0, 2.0), -1.0)
    with pytest.raises(ValueError):
        NormalizedSystem(2, (1.0,), (1.0, 2.0))


# --- value types ------------------------------------------------------------------


def _one_root():
    return spectral.Root(-0.5 + 0j, 6, 1e-15)


# (make one instance, a field, a new value for it) for every value type; the
# arrays of CompanionPair and Trajectory are 1 x 1, so their == is one bool
VALUE_TYPES = {
    "Polynomial": (lambda: Polynomial([1.0, 2.0]), "coefficients", (3.0,)),
    "Quasipolynomial": (
        lambda: Quasipolynomial([(0.0, Polynomial([1.0])), (1.0, Polynomial([2.0]))]),
        "terms", ((2.0, Polynomial([5.0])),),
    ),
    "RetardedSystem": (lambda: RetardedSystem(1, [1.0], [2.0], 1.5), "tau", 2.0),
    "NormalizedSystem": (lambda: NormalizedSystem(1, [1.0], [2.0]), "beta", (3.0,)),
    "DiscCertificate": (
        lambda: quasipoly.DiscCertificate(1, -1.0, 2.0, 2.0, 34, ((1 + 1j, 0.5),), 0),
        "winding", 2,
    ),
    "CompanionPair": (
        lambda: spectral.CompanionPair([[1.0]], [[2.0]]), "A1", np.array([[3.0]]),
    ),
    "Rectangle": (lambda: spectral.Rectangle(0.0, 1.0, -1.0, 1.0), "im_max", 2.0),
    "Root": (_one_root, "multiplicity", 4),
    "SpectrumReport": (
        lambda: spectral.SpectrumReport(
            (_one_root(),), spectral.Rectangle(-1.0, 0.0, -1.0, 1.0), -0.5, _one_root(), True
        ),
        "gap", 0.4,
    ),
    "HistoryFunction": (lambda: sim.constant(1.0), "parameters", (2.0,)),
    "Trajectory": (lambda: sim.Trajectory([0.0], [[1.0]], 0.1, 2.5), "step", 0.2),
    "BoundReport": (
        lambda: bounds.BoundReport(bounds.BoundMethod.NORM_POWER, bounds.Norm.ONE, 2, 0.0, 3.5),
        "value", 4.0,
    ),
    "Lemma3Report": (
        lambda: bounds.Lemma3Report(7.0, 2401.0, 6.0, 1296.0, (2 * math.pi, 7.0), 2 * math.pi),
        "certified", 6.5,
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_records(name):
    make, field, new = VALUE_TYPES[name]
    a, b = make(), make()
    fields = list(type(a).__annotations__)  # the field list, in order
    assert type(a).__name__ == name and field in fields
    with pytest.raises(AttributeError):
        setattr(a, field, new)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == b and not a != b and a is not b
    if name in ("CompanionPair", "Trajectory"):
        with pytest.raises(TypeError):  # an array field is unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{name}(" + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    c = a.replace(**{field: new})
    assert type(c) is type(a) and repr(getattr(c, field)) == repr(new)
    assert c != a and repr(a) == repr(b)
    for f in fields:
        if f != field:
            assert repr(getattr(c, f)) == repr(getattr(a, f)), f
