import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from midspec import spectral
from midspec.quasipoly import (
    MID_MATCH_TOL,
    CompanionPair,
    Polynomial,
    Quasipolynomial,
    RetardedSystem,
    companion,
    mid_coefficients,
    mid_deviation,
    mid_normalized,
    multiplicity_at,
    normalize,
)
from midspec.spectral import (
    LocalizationError,
    Rectangle,
    Root,
    SpectrumReport,
    certify_dominance,
    count_roots,
    find_roots,
    mid_disc_certificate,
    roots_to_csv,
)
from oracles import char_value, single_delay_derivative


# --- companion pairs -------------------------------------------------------------


def test_standard_pair_matrices(std_pair):
    assert np.array_equal(std_pair.A0, [[0.0, 1.0], [-6.0, 4.0]])
    assert np.array_equal(std_pair.A1, [[0.0, 0.0], [6.0, 2.0]])


def test_n1_pair():
    ns = normalize(mid_coefficients(1, 0.0, 1.0), 0.0)
    pair = companion(ns.b, ns.beta)
    assert np.array_equal(pair.A0, [[1.0]])
    assert np.array_equal(pair.A1, [[-1.0]])
    # det(z - 1 + e^(-z))
    assert abs(char_value(pair, 0.3) - (0.3 - 1.0 + math.exp(-0.3))) < 1e-14


def test_delay_free_pair_reduces_to_companion():
    sys_ = RetardedSystem(3, (1.0, 2.0, 3.0), (0.0, 0.0, 0.0), 1.0)
    ns = normalize(sys_, 0.0)
    pair = companion(ns.b, ns.beta)
    assert np.all(pair.A1 == 0.0)
    assert np.array_equal(pair.A0[:-1, 1:], np.eye(2))


@pytest.mark.parametrize("n,s0,tau", [(1, 0.0, 1.0), (2, -0.4, 1.7), (3, -0.5, 2.5)])
def test_determinant_identity_random_points(n, s0, tau):
    ns = normalize(mid_coefficients(n, s0, tau), s0)
    pair = companion(ns.b, ns.beta)
    q = ns.quasipolynomial()
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(-5, 5))
        lhs = char_value(pair, z)
        rhs = q(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_pair_shape_validation():
    with pytest.raises(ValueError):
        CompanionPair(np.zeros((2, 2)), np.zeros((3, 3)))


# --- rectangles --------------------------------------------------------------------


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 2.0, 2.0)


# --- counting ----------------------------------------------------------------------


def test_count_quartic(qhat):
    assert count_roots(qhat, Rectangle(-1, 1, -1, 1)) == 4


def test_count_simple_polynomial():
    q = Quasipolynomial(Polynomial([1.0, 0.0, 1.0]))  # z^2 + 1
    assert count_roots(q, Rectangle(-0.5, 0.5, 0.5, 1.5)) == 1


def test_count_empty_right_of_origin(qhat):
    assert count_roots(qhat, Rectangle(0.1, 1.0, 0.0, 1.0)) == 0


def test_count_with_root_on_boundary_inflates(qhat):
    # the quadruple root at 0 sits exactly on the edge; inflation pulls it inside
    assert count_roots(qhat, Rectangle(-1.0, 0.0, -1.0, 1.0)) == 4


def test_count_additivity_random():
    rng = np.random.default_rng(42)
    sys_ = mid_coefficients(2, -0.3, 1.3)
    q = sys_.quasipolynomial()
    for _ in range(10):
        cx, cy = rng.uniform(-2, 0.5), rng.uniform(-3, 3)
        w, h = rng.uniform(1, 3), rng.uniform(1, 3)
        rect = Rectangle(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2)
        total = count_roots(q, rect)
        xm = cx + rng.uniform(-0.2, 0.2)
        ym = cy + rng.uniform(-0.2, 0.2)
        quads = [
            Rectangle(rect.re_min, xm, rect.im_min, ym),
            Rectangle(xm, rect.re_max, rect.im_min, ym),
            Rectangle(rect.re_min, xm, ym, rect.im_max),
            Rectangle(xm, rect.re_max, ym, rect.im_max),
        ]
        assert total == sum(count_roots(q, r) for r in quads)


def test_vertical_strip_count_stabilizes(qhat):
    # roots of the quartic design near the strip Re in [-2.3, -1.3]:
    # a conjugate pair at -1.73 +/- 10.16i and one at -2.18 +/- 16.74i
    strip = lambda K: Rectangle(-2.3, -1.3, -K, K)
    counts = [count_roots(qhat, strip(K)) for K in (12.0, 18.0, 25.0, 40.0)]
    assert counts[0] == 2
    assert counts[1] == 4
    assert counts[2] == counts[3] == 4


# --- root finding ------------------------------------------------------------------


def test_find_quartic_root(qhat):
    roots = find_roots(qhat, Rectangle(-1, 1, -1, 1))
    assert len(roots) == 1
    r = roots[0]
    assert r.multiplicity == 4
    assert abs(r.location) < 1e-9
    assert r.location.imag == 0.0


def test_find_conjugate_pair():
    q = Quasipolynomial(Polynomial([1.0, 0.0, 1.0]))
    roots = find_roots(q, Rectangle(-2, 2, -2, 2))
    assert len(roots) == 2
    assert abs(roots[0].location - 1j) < 1e-12 or abs(roots[0].location + 1j) < 1e-12
    assert roots[0].location == roots[1].location.conjugate()
    assert all(r.multiplicity == 1 for r in roots)


def test_find_example_region(example_system):
    roots = find_roots(example_system.quasipolynomial(), Rectangle(-5, 1, -30, 30))
    dominant = [r for r in roots if r.location.real >= -0.5 - 1e-9]
    assert len(dominant) == 1
    assert dominant[0].multiplicity == 6
    assert abs(dominant[0].location + 0.5) < 1e-9
    others = [r for r in roots if r is not dominant[0]]
    assert others and all(r.location.real < -0.5 for r in others)
    # conjugate symmetry of the reported set
    ups = sorted((r.location for r in roots if r.location.imag > 0), key=lambda z: z.imag)
    downs = sorted(
        (r.location.conjugate() for r in roots if r.location.imag < 0), key=lambda z: z.imag
    )
    assert len(ups) == len(downs)
    assert all(a == b for a, b in zip(ups, downs))


def test_find_roots_eval_budget(example_system, monkeypatch):
    # the default spectrum region of the showcase; walking each box edge by
    # edge took 2,198 eval_array calls here, one closed boundary walk 858,
    # and dropping the stencil descent and the square nudges 442
    calls = []
    evaluate = Quasipolynomial.eval_array

    def spy(self, z):
        calls.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(Quasipolynomial, "eval_array", spy)
    roots = find_roots(example_system.quasipolynomial(), Rectangle(-5.5, 0.5, -30, 30))
    assert sum(r.multiplicity for r in roots) > 6
    assert len(calls) <= 500


def test_find_agrees_with_derivative_multiplicity():
    designs = [(1, -0.3, 0.8), (2, 0.2, 1.5), (3, -0.5, 2.5), (4, -0.5, 2.5), (4, 0.3, 2.5),
               (5, -0.5, 2.5), (5, -1.0, 2.5)]
    for n, s0, tau in designs:
        sys_ = mid_coefficients(n, s0, tau)
        q = sys_.quasipolynomial()
        rect = Rectangle(s0 - 0.6, s0 + 0.6, -0.7, 0.7)
        roots = find_roots(q, rect)
        assert len(roots) == 1
        assert roots[0].multiplicity == 2 * n
        assert multiplicity_at(q, roots[0].location) == 2 * n
        # the polish on q^(2n-1) locates the designed root to rounding
        assert abs(roots[0].location - s0) <= 1e-12 * max(1.0, abs(s0)), (n, s0, tau)


def test_multiple_root_polish_reaches_the_root_from_a_plateau():
    # the stored order-4 design at s0 = 0, tau = 0.5 has integer coefficients,
    # and its Taylor coefficients at 0 vanish through order 7 (mpmath), so its
    # 8-fold root is 0.  The Newton phase stalls near -0.1044, where |q| is
    # at rounding level; the q/q' step on q^(7) jumped from there out of its
    # square and the polish was dropped, while plain Newton steps, right for
    # the simple zero of q^(7), reach 0
    sys_ = mid_coefficients(4, 0.0, 0.5)
    with mpmath.workdps(100):
        q = lambda z: (z**4 + sum(c * z**k for k, c in enumerate(sys_.a))
                       + mpmath.exp(-sys_.tau * z) * sum(c * z**k for k, c in enumerate(sys_.alpha)))
        taylor = mpmath.taylor(q, 0, 8)
        assert all(abs(c) < mpmath.mpf(10) ** -80 for c in taylor[:8]) and taylor[8] != 0
    roots = find_roots(sys_.quasipolynomial(), Rectangle(-5.0, 1.0, -30.0, 30.0))
    assert roots[0].multiplicity == 8
    assert abs(roots[0].location) <= 1e-12


def test_residuals_below_threshold(example_system):
    q = example_system.quasipolynomial()
    for r in find_roots(q, Rectangle(-5, 1, -30, 30)):
        z = r.location
        scale = q.magnitude_scale(z)
        assert r.residual <= 1e-8 * scale


def test_find_roots_matches_chebyshev_collocation():
    # 20 random systems without clustered roots: the collocated generator's
    # eigenvalues bracket the count and sit on every located root
    from oracles import chebyshev_eigenvalues

    rng = np.random.default_rng(2005)
    rect = Rectangle(-3.0, 1.0, -10.0, 10.0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sys_ = RetardedSystem(n, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                              rng.uniform(0.3, 2.0))
        ev = chebyshev_eigenvalues(sys_, 60)
        roots = find_roots(sys_.quasipolynomial(), rect)

        def inside(slack):
            return sum(rect.contains(complex(z), slack=slack) for z in ev)

        total = sum(r.multiplicity for r in roots)
        assert inside(-1e-3) <= total <= inside(1e-3), sys_
        for r in roots:
            z = r.location
            assert np.min(np.abs(ev - z)) <= 1e-9 * (1.0 + abs(z)), (sys_, z)


# --- spectral abscissa ----------------------------------------------------------------


def _abscissa(q, region):
    return SpectrumReport.from_roots(find_roots(q, region), region).spectral_abscissa


def test_abscissa_quartic(qhat):
    assert abs(_abscissa(qhat, Rectangle(-1, 1, -8, 8))) < 1e-9


def test_abscissa_polynomial():
    q = Quasipolynomial(Polynomial([-6.0, 1.0, 1.0]))  # (z-2)(z+3)
    assert abs(_abscissa(q, Rectangle(-4, 3, -1, 1)) - 2.0) < 1e-12


def test_abscissa_example(example_system):
    v = _abscissa(example_system.quasipolynomial(), Rectangle(-5, 1, -30, 30))
    assert abs(v + 0.5) < 1e-9


def test_abscissa_empty_region(qhat):
    # no root, no abscissa: the report reads -inf (spectrum refuses the region)
    assert _abscissa(qhat, Rectangle(0.5, 1.0, 0.1, 0.6)) == -math.inf


# --- dominance certification -----------------------------------------------------------


def _fro2_bound(pair):
    from midspec.bounds import Norm, bound_norm_power

    return bound_norm_power(pair, Norm.FROBENIUS, 2, sigma_min=0.0)


@pytest.mark.parametrize(
    "n,s0,tau",
    [
        (2, 0.0, 1.0),
        (2, -0.7, 0.6),
        (2, 0.3, 2.2),
        # rounded designs on which a stencil descent over the cancellation
        # plateau of the 2n-fold root once reported a root 0.065-0.225 away
        (4, -0.6173964613908675, 2.5),
        (4, -0.4840237680943267, 2.5),
        (4, -0.46350621634761957, 2.5),
        (3, -0.36339567170469833, 2.5),
        (3, -0.12085334731606379, 2.5),
        (3, -0.5861231348536904, 2.5),
    ],
)
def test_certify_mid(n, s0, tau):
    cert = certify_dominance(mid_coefficients(n, s0, tau), s0)
    assert cert is not None and cert.n == n and cert.winding == 0


def _modulus_cut_box(nsys):
    """A normalized box that holds every root with Re z >= 0: any such root
    has |z| <= R, R the modulus cut with weights |b_k| + |beta_k|."""
    radius = spectral._modulus_growth_radius(nsys.n, [abs(b) + abs(be) for b, be in zip(nsys.b, nsys.beta)])
    return Rectangle(-0.25, max(radius, 1.0) + 0.1, -radius - 0.1, radius + 0.1)


@pytest.mark.parametrize(
    "n,s0",
    [
        (4, -0.6173964613908675),
        (4, -0.4840237680943267),
        (4, -0.46350621634761957),
        (3, -0.36339567170469833),
        (3, -0.12085334731606379),
        (3, -0.5861231348536904),
    ],
)
def test_find_roots_on_rounded_designs(n, s0):
    # the rounded designs of test_certify_mid take the disc certificate;
    # find_roots on a box that holds every root with Re z >= 0 still sees
    # only the 2n-fold root at the origin there
    nsys = normalize(mid_coefficients(n, s0, 2.5), s0)
    roots = find_roots(nsys.quasipolynomial(), _modulus_cut_box(nsys))
    right = [r for r in roots if r.location.real >= -1e-6]
    assert len(right) == 1, right
    assert abs(right[0].location) <= 1e-6 and right[0].multiplicity == 2 * n


# (discs, quadrature nodes, re_max = im_max) of mid_disc_certificate(n)
CERTIFICATE_PINS = {
    1: (9, 37, 4.068281828459045),
    2: (21, 44, 11.744498899789267),
    3: (37, 55, 22.524189003807237),
    4: (59, 69, 36.295085787666196),
    5: (87, 86, 53.01379346832872),
    6: (117, 105, 72.65862261909649),
    7: (259, 128, 95.21718573930079),
    8: (369, 153, 120.6817803933017),
    9: (764, 182, 149.04732136879898),
    10: (1255, 213, 180.31029666975118),
}


@pytest.mark.parametrize("n", CERTIFICATE_PINS)
def test_disc_certificate_pinned_per_order(n):
    # exact values: a change to the box, the rule or the disc test shows here
    discs, nodes, top = CERTIFICATE_PINS[n]
    cert = mid_disc_certificate(n)
    assert cert.winding == 0 and cert.n == n and cert.re_min == -1.0
    assert (len(cert.discs), cert.nodes, cert.re_max, cert.im_max) == (discs, nodes, top, top)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 69, 153])
def test_gauss_legendre_rule_matches_numpy(m):
    # 69 and 153 are the certificate's rules at n = 4 and n = 8; the end
    # nodes and the middle one also against mpmath at 40 digits
    t, w = spectral._unit_gauss_legendre(m)
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


def test_modulus_cut_beyond_1e12_raises():
    # r^1 > w exactly from r = w on, so the cut of (1, [w]) is w
    assert 1e11 < spectral._modulus_growth_radius(1, [1e11]) <= 1e11 + 0.5
    for w in (1e13, 1e20):
        with pytest.raises(ValueError, match="modulus cut of the order-1 .* exceeds 1e12"):
            spectral._modulus_growth_radius(1, [w])
    # at order 100 r^n overflows near r = 1.2e3, long before the 1e12 stop,
    # and once escaped as OverflowError
    with pytest.raises(ValueError, match=r"order-100 .* exceeds 1.02e\+03, where r\^100 leaves"):
        spectral._modulus_growth_radius(100, [1e10] * 100)


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
    order = spectral._DISC_ORDER
    rule = spectral._mid_kernel_rule(n, cert.nodes)
    for c, r in cert.discs[:: 1 if n <= 4 else 4]:
        exact = _f_derivatives(n, c, order + 1)
        with mpmath.workdps(30):
            moments = [mpmath.rf(n, k) / mpmath.rf(2 * n + 1, k) for k in range(order + 1)]
            reach = sum(abs(exact[k]) * mpmath.mpf(r) ** k / mpmath.factorial(k)
                        for k in range(1, order))
            reach += (moments[order] * mpmath.exp(max(0.0, r - c.real))
                      * mpmath.mpf(r) ** order / mpmath.factorial(order))
            assert abs(exact[0]) > reach, (c, r)
        got, moduli = spectral._mid_taylor(c, rule)
        allowed = spectral._ROUNDING_UNITS * (cert.nodes + abs(c)) * sys.float_info.epsilon * moduli
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
    with pytest.raises(LocalizationError, match="F_11 disc certificate: the disc at "):
        mid_disc_certificate(11)
    assert mid_disc_certificate(10).winding == 0


def test_certify_dominance_passes_the_certificate_message_unchanged():
    # the outcome is said once, where it is known: no layer adds a prefix
    with pytest.raises(LocalizationError) as cert:
        mid_disc_certificate(11)
    with pytest.raises(LocalizationError) as certified:
        certify_dominance(mid_coefficients(11, -0.5, 2.5), -0.5)
    assert str(certified.value) == str(cert.value)


def test_certify_takes_the_disc_certificate_only_for_the_design(monkeypatch):
    # the MID design gets the exact design's certificate without a root
    # search; a perturbation beyond MID_MATCH_TOL gets None without one either
    calls = []
    search = spectral.find_roots

    def spy(q, rect):
        calls.append(rect)
        return search(q, rect)

    monkeypatch.setattr(spectral, "find_roots", spy)
    sys_ = mid_coefficients(3, -0.5, 2.5)
    assert certify_dominance(sys_, -0.5) is mid_disc_certificate(3)
    assert calls == []

    a = list(sys_.a)
    a[0] *= 1.0 + 1e-6
    assert certify_dominance(RetardedSystem(3, a, sys_.alpha, 2.5), -0.5) is None
    assert calls == []


def test_certify_judges_the_trace_identity():
    # 1e-11 right of the order-3 design's root the normalized form matches
    # the MID design to 2.5e-11, below MID_MATCH_TOL, but the trace identity
    # s0 + a[n-1]/n + n/tau is off by 1e-11: s0 is no 6-fold root
    sys_ = mid_coefficients(3, -0.5, 2.5)
    assert mid_deviation(normalize(sys_, -0.49999999999)) < MID_MATCH_TOL
    assert certify_dominance(sys_, -0.49999999999) is None


_NEWTON_OVERFLOW = RetardedSystem(1, (2.7935980368783637,), (0.9364441314744818,), 3.6268159453484077)


def test_certify_reaches_a_verdict_where_newton_would_overflow():
    # no root search runs: the system is not the MID design at -1
    assert certify_dominance(_NEWTON_OVERFLOW, -1.0) is None


def test_find_roots_confines_newton_where_it_would_overflow():
    # Newton from a box centre here jumps far left of the region, where
    # e^(-tau z) overflows; confined to its box it splits the box instead.
    # The rightmost pair is -0.284551239427708 +/- 0.7828i, as the Chebyshev
    # collocation oracle also gives to 1e-14.
    tau = _NEWTON_OVERFLOW.tau
    nsys = normalize(_NEWTON_OVERFLOW, -1.0)
    roots = find_roots(nsys.quasipolynomial(), _modulus_cut_box(nsys))
    assert roots and abs(-1.0 + roots[0].location.real / tau + 0.284551239427708) < 1e-9


def test_certify_example(example_system):
    cert = certify_dominance(example_system, -0.5)
    assert cert is not None and cert.winding == 0


def test_certify_rejects_false_claim():
    # delay-free y' - y = 0 has the root +1; a claim of dominance at 0 (no
    # root at all) gets no certificate, and no root is located
    assert certify_dominance(RetardedSystem(1, (-1.0,), (0.0,), 1.0), 0.0) is None


def test_certify_empty_region_is_not_strict():
    # y' + y = 0 has its only root at -1; nothing lies right of the claim 5,
    # but 5 is no root, so the theorem certifies nothing
    assert certify_dominance(RetardedSystem(1, (1.0,), (0.0,), 1.0), 5.0) is None


def _rightmost_taylor_roots(sys_, s0, radius):
    """Roots within radius of s0 of the degree-(2n + 10) Taylor polynomial of
    the characteristic function at s0, rightmost first: its coefficients by
    the 50-digit Leibniz oracle, its roots by mpmath."""
    undelayed = list(sys_.a) + [1.0]
    order = 2 * sys_.n + 10
    coeffs = [single_delay_derivative(undelayed, list(sys_.alpha), sys_.tau, k, s0)[0].real
              / math.factorial(k) for k in range(order + 1)]
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=200)
    return sorted((s0 + complex(h) for h in roots if abs(h) < radius), key=lambda s: -s.real)


def test_certify_says_no_where_a_root_lies_right_of_s0():
    # the order-2 design with a[0] scaled by 1 + 1e-6: its four roots near s0
    # split, and two of them, -0.47894 +/- 0.0213i, lie right of s0.  A
    # root search once called it strictly dominant; it gets no certificate.
    design = mid_coefficients(2, -0.5, 2.5)
    a = list(design.a)
    a[0] *= 1.0 + 1e-6
    sys_ = RetardedSystem(2, a, design.alpha, 2.5)
    near = _rightmost_taylor_roots(sys_, -0.5, 0.2)
    assert len(near) == 4
    assert abs(near[0].real + 0.47894) < 1e-5 and abs(abs(near[0].imag) - 0.0213) < 1e-4
    assert certify_dominance(sys_, -0.5) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certify_off_the_design_is_no_without_a_root_search(data):
    # a relative perturbation of one coefficient that leaves MID_MATCH_TOL
    # behind has no root of multiplicity 2n at s0, so no certificate, and
    # the verdict needs no root search
    n = data.draw(st.integers(1, 4), label="n")
    s0 = data.draw(st.floats(-1.0, 0.5), label="s0")
    tau = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="tau")
    which = data.draw(st.sampled_from(["a", "alpha"]), label="which")
    k = data.draw(st.integers(0, n - 1), label="k")
    eps = data.draw(st.floats(1e-9, 1e-2), label="eps") * data.draw(st.sampled_from([-1, 1]))
    design = mid_coefficients(n, s0, tau)
    coeffs = {"a": list(design.a), "alpha": list(design.alpha)}
    coeffs[which][k] *= 1.0 + eps
    sys_ = RetardedSystem(n, coeffs["a"], coeffs["alpha"], tau)
    assume(not mid_deviation(normalize(sys_, s0)) < MID_MATCH_TOL)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "find_roots", lambda *args: calls.append(args))
        cert = certify_dominance(sys_, s0)
    assert calls == []
    assert cert is None


def test_certify_raises_when_the_certificate_counts_zeros(monkeypatch):
    # no order reaches this: every certificate up to n = 10 has winding 0
    cert = mid_disc_certificate(3)
    monkeypatch.setattr(spectral, "mid_disc_certificate", lambda n: cert.replace(winding=2))
    box = f"[-1, {cert.re_max:.9g}] x [-{cert.im_max:.9g}, {cert.im_max:.9g}]"
    with pytest.raises(LocalizationError) as exc:
        certify_dominance(mid_coefficients(3, -0.5, 2.5), -0.5)
    assert str(exc.value) == f"F_3 disc certificate: 2 zeros of F_3 in the box {box}"


def test_certify_agrees_with_modulus_scan():
    # brute scan of the normalized right half strip, grid 0.01: the only root
    # with Re >= 0 must be the assigned one at the origin
    from oracles import scan_roots

    for n, s0, tau in [(1, -0.4, 1.2), (2, -0.5, 1.0), (3, -0.5, 2.5)]:
        sys_ = mid_coefficients(n, s0, tau)
        ns = normalize(sys_, s0)
        q = ns.quasipolynomial()
        bound = _fro2_bound(companion(ns.b, ns.beta))
        cert = certify_dominance(sys_, s0)
        assert cert is not None and cert.winding == 0

        B = bound.value
        radius = 1.0 + max(abs(b) + abs(be) for b, be in zip(ns.b, ns.beta))
        strip = Rectangle(-0.015, radius, -max(B, 0.01), max(B, 0.01))
        located = scan_roots(q, strip)
        assert len(located) == 1, (n, s0, tau, located)
        z, m = located[0]
        assert abs(z) < 1e-9 and m == 2 * n


# --- reports and export -------------------------------------------------------------


def test_report_from_roots_strict():
    roots = [Root(-1.0 + 0j, 2, 0.0), Root(-2.0 + 1j, 1, 0.0), Root(-2.0 - 1j, 1, 0.0)]
    rep = SpectrumReport.from_roots(roots, Rectangle(-3, 0, -2, 2))
    assert rep.spectral_abscissa == -1.0
    assert rep.strictly_dominant
    assert rep.dominant.location == -1.0 + 0j


def test_report_tie_is_not_strict():
    roots = [Root(-1.0 + 1j, 1, 0.0), Root(-1.0 - 1j, 1, 0.0)]
    rep = SpectrumReport.from_roots(roots, Rectangle(-3, 0, -2, 2))
    assert not rep.strictly_dominant
    assert rep.dominant is None


def test_report_from_no_roots():
    rep = SpectrumReport.from_roots([], Rectangle(-3, 0, -2, 2))
    assert rep.spectral_abscissa == -math.inf
    assert rep.dominant is None
    assert not rep.strictly_dominant


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_without_roots_writes_strict_json():
    # the abscissa of an empty region is -inf, which JSON has no word for
    rep = SpectrumReport.from_roots([], Rectangle(-3, 0, -2, 2))
    assert rep.spectral_abscissa == -math.inf
    doc = json.loads(rep.to_json(), parse_constant=_refuse_constant)
    assert doc["spectral_abscissa"] is None and doc["region"]["re_min"] == -3


def test_report_json_fields(example_system):
    region = Rectangle(-5, 1, -30, 30)
    rep = SpectrumReport.from_roots(find_roots(example_system.quasipolynomial(), region), region)
    doc = rep.to_json_dict()
    assert set(doc) == {"roots", "region", "spectral_abscissa", "dominant", "strictly_dominant"}
    assert doc["strictly_dominant"] is True
    assert {"re", "im", "multiplicity", "residual"} == set(doc["roots"][0])


def test_roots_csv_format():
    roots = [Root(-2.0 + 1j, 1, 1e-13), Root(-1.0 + 0j, 4, 0.0), Root(-2.0 - 1j, 1, 1e-13)]
    text = roots_to_csv(roots)
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,multiplicity,residual"
    assert lines[1].startswith("-1,0,4,")
    assert lines[2].startswith("-2,-1,1,")
    assert lines[3].startswith("-2,1,1,")
