import cmath
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from midspec import bounds, quasipoly, sim, spectral
from midspec.quasipoly import (
    MID_MATCH_TOL,
    NormalizedSystem,
    Polynomial,
    Quasipolynomial,
    RetardedSystem,
    denormalize,
    dominant_root_from_trace,
    mid_coefficients,
    mid_deviation,
    mid_normalized,
    multiplicity_at,
    normalize,
)
from oracles import factorization_rhs, mid_double_sum, mid_order2, single_delay_derivative


def rel_close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# --- construction and evaluation ------------------------------------------------


def test_two_term_structure():
    sys_ = RetardedSystem(2, (6.0, -4.0), (-6.0, -2.0), 1.0)
    q = sys_.quasipolynomial()
    assert q.delay == 1.0
    assert q.undelayed.coefficients == (6.0, -4.0, 1.0)
    assert q.delayed.coefficients == (-6.0, -2.0)
    assert q.degree == 4


def test_zero_delayed_part_dropped():
    q = RetardedSystem(1, (0.0,), (0.0,), 1.0).quasipolynomial()
    assert q.delayed.is_zero and not q.undelayed.is_zero
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
    q = Quasipolynomial(Polynomial([1.0, 2.0, 3.0]))
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
        q = Quasipolynomial(
            Polynomial([rng.uniform(-2, 2) for _ in range(2)]),
            Polynomial([rng.uniform(-2, 2) for _ in range(3)]),
            rng.uniform(0.01, 2),
        )
        s = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        assert abs(q(s.conjugate()) - q(s).conjugate()) < 1e-12 * max(1.0, abs(q(s)))


@pytest.mark.parametrize(
    "delayed, delay",
    [
        ([2.0], 0.0),
        ([2.0], -1.0),
        ([], -1.0),
        ([2.0], math.inf),
        ([], math.nan),
    ],
)
def test_delay_validated(delayed, delay):
    # finite and >= 0, and > 0 under a nonzero delayed part
    with pytest.raises(ValueError, match="delay must be finite and >= 0"):
        Quasipolynomial(Polynomial([1.0]), Polynomial(delayed), delay)


def test_delay_zero_allowed_without_delayed_part():
    q = Quasipolynomial(Polynomial([1.0, 1.0]), delay=0.0)
    assert q.delayed.is_zero and q.degree == 1 and q(2.0) == 3.0


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
        assert q.delay == 1.0 and not q.delayed.is_zero


def test_derivative_finite_difference():
    sys_ = mid_coefficients(3, -0.5, 2.5)
    q = sys_.quasipolynomial()
    qp = q.derivative()
    h = 1e-6
    for s in (0.2, -1.0 + 0.7j):
        fd = (q(s + h) - q(s - h)) / (2 * h)
        assert abs(fd - qp(s)) < 1e-7 * max(1.0, abs(qp(s)))


def _assert_matches_leibniz_oracle(q, orders, points):
    # the error of the float derivative coefficients and of Horner's rule is
    # relative to the moduli of the monomials the derivative adds up; the
    # derivative's own magnitude_scale can be far smaller, since its
    # coefficients cancel (3.5e-7 relative error against it at n = 8, tau = 0.5)
    for k in orders:
        d = q.derivative(k)
        for s in points:
            want, scale = single_delay_derivative(
                q.undelayed.coefficients, q.delayed.coefficients, q.delay, k, s
            )
            assert abs(d(s) - want) <= 1e-14 * scale, (k, s)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("tau", [0.5, 2.5])
def test_derivatives_match_leibniz_oracle_on_designs(n, tau):
    s0 = -0.5
    q = mid_coefficients(n, s0, tau).quasipolynomial()
    points = (s0, s0 + 0.25 + 0.5j, -2.0 + 3.0j, 0.4 - 1.1j)
    _assert_matches_leibniz_oracle(q, range(2 * n + 1), points)


def test_derivatives_match_leibniz_oracle_on_random_draws():
    rng = random.Random(35)
    for _ in range(25):
        q = Quasipolynomial(
            Polynomial([rng.uniform(-3, 3) for _ in range(rng.randint(1, 5))]),
            Polynomial([rng.uniform(-3, 3) for _ in range(rng.randint(1, 5))]),
            rng.uniform(0.05, 3.0),
        )
        points = [complex(rng.uniform(-3, 3), rng.uniform(-4, 4)) for _ in range(3)]
        _assert_matches_leibniz_oracle(q, range(q.degree + 1), points)


def test_zero_delayed_part_never_evaluated():
    # e^(2.5 * 800) is past the float range: a zero delayed part must not
    # reach an exponential (an overflow, or inf * 0 = nan with a warning)
    q = Quasipolynomial(Polynomial([1.0, 2.0]), Polynomial([]), 2.5)
    s = -800.0 + 3.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [q(s), q.derivative(2)(s), q.magnitude_scale(s),
                  q.eval_array(np.array([s]))[0], q.magnitude_scale_array(np.array([s]))[0]]
        assert multiplicity_at(q, s) == 0
    assert all(cmath.isfinite(v) for v in values)
    assert q(s) == 1.0 + 2.0 * s


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
    cubed = Quasipolynomial(Polynomial([-1.0, 3.0, -3.0, 1.0]))  # (z-1)^3
    assert multiplicity_at(cubed, 1.0) == 3


def test_multiplicity_simple_transcendental():
    q = Quasipolynomial(Polynomial([-1.0, 1.0]), Polynomial([1.0]), 1.0)
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
                scale = d.undelayed.abs_value_at(r) + d.delayed.abs_value_at(r) * math.exp(
                    -d.delay * s0
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
        undelayed, delayed = (
            Polynomial([rng.uniform(-2, 2) for _ in range(rng.randint(0, 3) + 1)])
            if rng.random() < 0.75 else Polynomial([])
            for _ in range(2)
        )
        q = Quasipolynomial(undelayed, delayed, round(rng.uniform(0.001, 3), 3))
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


def test_factorization_limit_identity(qhat):
    moment, _ = quad(lambda t: t * (1.0 - t) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert abs(moment - 1.0 / 12.0) < 1e-14
    d4 = qhat.derivative(4)(0.0).real
    assert abs(moment - d4 / math.factorial(4)) < 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_factorization_against_hypergeometric_oracle(n):
    # the mpmath right-hand side must match the direct evaluation of the design
    q = mid_coefficients(n, 0.0, 1.0).quasipolynomial()
    for z in (1.0, 2j * math.pi, 0.7 - 0.3j, -1.5 + 2.0j, 3.0 - 4.0j):
        assert abs(q(z) - factorization_rhs(n, z)) / q.magnitude_scale(z) < 1e-12, (n, z)


# --- matching the design -------------------------------------------------------------


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
        lambda: Quasipolynomial(Polynomial([1.0]), Polynomial([2.0]), 1.0),
        "delay", 2.0,
    ),
    "RetardedSystem": (lambda: RetardedSystem(1, [1.0], [2.0], 1.5), "tau", 2.0),
    "NormalizedSystem": (lambda: NormalizedSystem(1, [1.0], [2.0]), "beta", (3.0,)),
    "DiscCertificate": (
        lambda: spectral.DiscCertificate(1, -1.0, 2.0, 2.0, 34, ((1 + 1j, 0.5),), 0),
        "winding", 2,
    ),
    "CompanionPair": (
        lambda: quasipoly.CompanionPair([[1.0]], [[2.0]]), "A1", np.array([[3.0]]),
    ),
    "Rectangle": (lambda: spectral.Rectangle(0.0, 1.0, -1.0, 1.0), "im_max", 2.0),
    "Root": (_one_root, "multiplicity", 4),
    "SpectrumReport": (
        lambda: spectral.SpectrumReport(
            (_one_root(),), spectral.Rectangle(-1.0, 0.0, -1.0, 1.0), -0.5, _one_root(), True
        ),
        "spectral_abscissa", -0.25,
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
