"""Quasipolynomials of single-delay retarded equations.

A quasipolynomial here is a finite sum  sum_k p_k(s) exp(-lambda_k s)
with real polynomials p_k and pairwise distinct real delays lambda_k.
The characteristic function of

    y^(n)(t) + sum a_k y^(k)(t) + sum alpha_k y^(k)(t - tau) = 0

is the two-term case:  Delta(s) = s^n + sum a_k s^k + e^(-s tau) sum alpha_k s^k.

This module holds the representation, evaluation and differentiation,
the closed-form coefficient assignment that places a real root of
maximal multiplicity 2n, the scale-aware numerical multiplicity test, and
the companion matrices of the first-order form.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "Quasipolynomial",
    "RetardedSystem",
    "NormalizedSystem",
    "mid_coefficients",
    "mid_coefficients_order2",
    "normalize",
    "denormalize",
    "multiplicity_at",
    "dominant_root_from_trace",
    "factorization_residual",
    "companion",
    "standard_quartic_quasipolynomial",
]


def _trim(coefficients) -> tuple[float, ...]:
    coeffs = [float(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients[j] multiplying s**j, trailing zeros stripped.

    The zero polynomial is represented by an empty coefficient tuple and
    reports degree -1.
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Sequence[float]):
        object.__setattr__(self, "coefficients", _trim(coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, s: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * s + c
        return acc

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(z, dtype=complex)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def deriv(self) -> "Polynomial":
        return Polynomial([j * c for j, c in enumerate(self.coefficients)][1:])

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial([factor * c for c in self.coefficients])

    def minus(self, other: "Polynomial") -> "Polynomial":
        m = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [0.0] * (m - len(self.coefficients))
        b = list(other.coefficients) + [0.0] * (m - len(other.coefficients))
        return Polynomial([x - y for x, y in zip(a, b)])

    def abs_value_at(self, z: complex) -> float:
        """Sum of monomial magnitudes |c_j| |z|^j, the natural evaluation scale;
        elementwise on arrays."""
        r = abs(z)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * r + abs(c)
        return acc


@dataclass(frozen=True)
class Quasipolynomial:
    """Finite sum of (delay, polynomial) terms with pairwise distinct delays.

    terms are kept sorted by delay and identically-zero polynomials are
    dropped, so the degree bookkeeping D = l + sum d_k always refers to
    the actual trailing-nonzero polynomials.
    """

    terms: tuple[tuple[float, Polynomial], ...]

    def __init__(self, terms: Sequence[tuple[float, Polynomial]]):
        cleaned = sorted(
            ((float(lam), p) for lam, p in terms if not p.is_zero),
            key=lambda t: t[0],
        )
        delays = [lam for lam, _ in cleaned]
        if len(set(delays)) != len(delays):
            raise ValueError("delays must be pairwise distinct")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def degree(self) -> int:
        """D = l + sum of polynomial degrees, with l = number of terms - 1.

        Any root of the quasipolynomial has multiplicity at most D.
        """
        if not self.terms:
            return -1
        return len(self.terms) - 1 + sum(p.degree for _, p in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, s: complex) -> complex:
        acc = 0.0 + 0.0j
        for lam, p in self.terms:
            acc += p(s) * cmath.exp(-lam * s)
        return acc

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for lam, p in self.terms:
            acc += p.eval_array(z) * np.exp(-lam * z)
        return acc

    def derivative(self, order: int = 1) -> "Quasipolynomial":
        """Derivative of the given order; (lambda, p) maps to (lambda, p' - lambda p)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        q = self
        for _ in range(order):
            q = Quasipolynomial(
                [(lam, p.deriv().minus(p.scaled(lam))) for lam, p in q.terms]
            )
        return q

    def magnitude_scale(self, s: complex) -> float:
        """Sum of absolute monomial/exponential contributions at s.

        Used as the reference scale for residual tests: a value of the
        quasipolynomial much smaller than this scale reflects genuine
        cancellation rather than small inputs.
        """
        sigma = complex(s).real
        acc = 0.0
        for lam, p in self.terms:
            acc += p.abs_value_at(s) * math.exp(-lam * sigma)
        return acc

    def magnitude_scale_array(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=float)
        for lam, p in self.terms:
            acc += p.abs_value_at(z) * np.exp(-lam * z.real)
        return acc


@dataclass(frozen=True)
class RetardedSystem:
    """Data of a single-delay retarded equation of order n.

    a[k] and alpha[k] multiply the k-th derivative of the non-delayed and
    delayed state respectively; tau > 0 is the delay.
    """

    n: int
    a: tuple[float, ...]
    alpha: tuple[float, ...]
    tau: float

    def __init__(self, n: int, a: Sequence[float], alpha: Sequence[float], tau: float):
        n = int(n)
        if n < 1:
            raise ValueError("order n must be >= 1")
        a = tuple(float(x) for x in a)
        alpha = tuple(float(x) for x in alpha)
        if len(a) != n or len(alpha) != n:
            raise ValueError("coefficient lists must have exactly n entries")
        tau = float(tau)
        if not tau > 0:
            raise ValueError("delay tau must be positive")
        if not all(math.isfinite(x) for x in a + alpha + (tau,)):
            raise ValueError("coefficients and delay must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)

    def quasipolynomial(self) -> Quasipolynomial:
        """Characteristic function s^n + sum a_k s^k + e^(-s tau) sum alpha_k s^k."""
        return Quasipolynomial(
            [
                (0.0, Polynomial(list(self.a) + [1.0])),
                (self.tau, Polynomial(self.alpha)),
            ]
        )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "a": list(self.a), "alpha": list(self.alpha), "tau": self.tau}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(doc: dict) -> "RetardedSystem":
        return RetardedSystem(doc["n"], doc["a"], doc["alpha"], doc["tau"])

    @staticmethod
    def from_json(text: str) -> "RetardedSystem":
        return RetardedSystem.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class NormalizedSystem:
    """Delay-1, shift-0 form of a retarded system.

    Normalizing a system at a point s0 rescales the spectrum by z = tau (s - s0);
    the quasipolynomial becomes z^n + sum b_k z^k + e^(-z) sum beta_k z^k.
    """

    n: int
    b: tuple[float, ...]
    beta: tuple[float, ...]

    def __init__(self, n: int, b: Sequence[float], beta: Sequence[float]):
        n = int(n)
        if n < 1:
            raise ValueError("order n must be >= 1")
        b = tuple(float(x) for x in b)
        beta = tuple(float(x) for x in beta)
        if len(b) != n or len(beta) != n:
            raise ValueError("coefficient lists must have exactly n entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "beta", beta)

    def quasipolynomial(self) -> Quasipolynomial:
        return Quasipolynomial(
            [
                (0.0, Polynomial(list(self.b) + [1.0])),
                (1.0, Polynomial(self.beta)),
            ]
        )


def mid_coefficients(n: int, s0: float, tau: float) -> RetardedSystem:
    """Coefficients making s0 a root of maximal multiplicity 2n.

    The assignment is, for k = 0..n-1,

        a_k = C(n,k) (-s0)^(n-k)
              + (-1)^(n-k) n! sum_{j=k}^{n-1} C(j,k) C(2n-j-1,n-1) s0^(j-k) / (j! tau^(n-j))
        alpha_k = (-1)^(n-1) e^(s0 tau)
              sum_{j=k}^{n-1} (-1)^(j-k) (2n-j-1)! / (k! (j-k)! (n-j-1)!) s0^(j-k) / tau^(n-j)

    The combinatorial factors are accumulated in exact rational arithmetic
    and converted to float only when multiplied by the s0/tau powers, which
    avoids cancellation between the large alternating terms.
    """
    n = int(n)
    if n < 1:
        raise ValueError("order n must be >= 1")
    tau = float(tau)
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    s0 = float(s0)

    a = []
    alpha = []
    exp_s0tau = math.exp(s0 * tau)
    for k in range(n):
        acc = math.comb(n, k) * (-s0) ** (n - k)
        sign = (-1) ** (n - k)
        for j in range(k, n):
            frac = Fraction(
                math.factorial(n) * math.comb(j, k) * math.comb(2 * n - j - 1, n - 1),
                math.factorial(j),
            )
            acc += sign * float(frac) * s0 ** (j - k) * tau ** (j - n)
        a.append(acc)

        acc = 0.0
        for j in range(k, n):
            frac = Fraction(
                math.factorial(2 * n - j - 1),
                math.factorial(k) * math.factorial(j - k) * math.factorial(n - j - 1),
            )
            acc += (-1) ** (j - k) * float(frac) * s0 ** (j - k) * tau ** (j - n)
        alpha.append((-1) ** (n - 1) * exp_s0tau * acc)

    return RetardedSystem(n, a, alpha, tau)


def mid_coefficients_order2(s0: float, tau: float) -> RetardedSystem:
    """Closed-form n = 2 assignment; independent cross-check of mid_coefficients.

    a_1 = -4/tau - 2 s0,  a_0 = 6/tau^2 + 4 s0/tau + s0^2,
    alpha_1 = -(2/tau) e^(s0 tau),  alpha_0 = (2/tau) e^(s0 tau) (s0 - 3/tau).
    """
    tau = float(tau)
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    s0 = float(s0)
    e = math.exp(s0 * tau)
    a1 = -4.0 / tau - 2.0 * s0
    a0 = 6.0 / tau**2 + 4.0 * s0 / tau + s0**2
    al1 = -2.0 / tau * e
    al0 = 2.0 / tau * e * (s0 - 3.0 / tau)
    return RetardedSystem(2, (a0, a1), (al0, al1), tau)


def _shifted_scaled_coeffs(coeffs, s0: float, tau: float, n: int) -> list[float]:
    """Coefficients of tau^n * p(s0 + z/tau) given those of p.

    Entry m of the result is tau^(n-m) sum_{j>=m} C(j,m) c_j s0^(j-m).
    """
    d = len(coeffs) - 1
    out = []
    for m in range(d + 1):
        acc = 0.0
        for j in range(m, d + 1):
            acc += math.comb(j, m) * coeffs[j] * s0 ** (j - m)
        out.append(acc * tau ** (n - m))
    return out


def normalize(sys: RetardedSystem, s0: float) -> NormalizedSystem:
    """Delay-1 form at shift s0: coefficients of tau^n Delta(s0 + z/tau).

    The non-delayed part stays monic; the delayed part picks up the factor
    e^(-s0 tau) coming from e^(-(s0 + z/tau) tau) = e^(-s0 tau) e^(-z).
    """
    s0 = float(s0)
    n, tau = sys.n, sys.tau
    poly = list(sys.a) + [1.0]
    b = _shifted_scaled_coeffs(poly, s0, tau, n)[:n]
    beta = _shifted_scaled_coeffs(list(sys.alpha), s0, tau, n)
    beta += [0.0] * (n - len(beta))
    scale = math.exp(-s0 * tau)
    beta = [x * scale for x in beta]
    return NormalizedSystem(n, b, beta)


def denormalize(nsys: NormalizedSystem, s0: float, tau: float) -> RetardedSystem:
    """Inverse of normalize: recover the system with delay tau and shift s0."""
    tau = float(tau)
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    s0 = float(s0)
    n = nsys.n
    # Delta(s) = tau^(-n) DeltaTilde(tau (s - s0)); reuse the same affine
    # substitution with scale 1/tau and shift -s0*tau.
    poly = list(nsys.b) + [1.0]
    a = _shifted_scaled_coeffs(poly, -s0 * tau, 1.0 / tau, n)[:n]
    alpha = _shifted_scaled_coeffs(list(nsys.beta), -s0 * tau, 1.0 / tau, n)
    alpha += [0.0] * (n - len(alpha))
    scale = math.exp(s0 * tau)
    alpha = [x * scale for x in alpha]
    return RetardedSystem(n, a, alpha, tau)


def multiplicity_at(q: Quasipolynomial, s0: complex, tol: float = 1e-9) -> int:
    """Numerical root multiplicity of q at s0.

    Counts how many successive derivatives vanish relative to the sum of
    absolute term magnitudes at s0 (so the test is invariant under scaling
    of q and meaningful for coefficients of any size).  The monomial radius
    is floored at 1 so that cancellation noise in low-order coefficients is
    still judged against the size of the coefficients that produced it.
    The result never exceeds the degree D of q.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if q.is_zero:
        raise ValueError("multiplicity of the zero quasipolynomial is undefined")
    s0 = complex(s0)
    r = max(1.0, abs(s0))
    cap = q.degree
    deriv = q
    m = 0
    while m < cap:
        scale = 0.0
        for lam, p in deriv.terms:
            scale += p.abs_value_at(r) * math.exp(-lam * s0.real)
        if abs(deriv(s0)) > tol * scale:
            break
        m += 1
        deriv = deriv.derivative()
    return m


def dominant_root_from_trace(n: int, a_top: float, tau: float) -> float:
    """Location of the assigned root from the top coefficient alone:
    s0 = -a_(n-1)/n - n/tau."""
    n = int(n)
    if n < 1:
        raise ValueError("order n must be >= 1")
    tau = float(tau)
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    return -float(a_top) / n - n / tau


def standard_quartic_quasipolynomial() -> Quasipolynomial:
    """z^2 - 4z + 6 - e^(-z)(2z + 6): the normalized n = 2 design with its
    quadruple root at the origin."""
    return mid_coefficients(2, 0.0, 1.0).quasipolynomial()


def factorization_residual(n: int, z: complex) -> float:
    """Relative residual of the integral factorization of the normalized
    order-n design q (root of multiplicity 2n at the origin, delay 1):

        q(z) = z^(2n)/(n-1)! * integral_0^1 t^(n-1) (1-t)^n e^(-z t) dt.

    The integral is evaluated by 64-node Gauss-Legendre quadrature and the
    difference is measured against q.magnitude_scale(z), so the residual
    stays comparable across orders whose terms grow like |z|^n.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 excluded; compare against the moment identity instead")
    n = int(n)
    q = mid_coefficients(n, 0.0, 1.0).quasipolynomial()
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (x + 1.0)
    integral = 0.5 * np.sum(w * t ** (n - 1) * (1.0 - t) ** n * np.exp(-z * t))
    rhs = z ** (2 * n) / math.factorial(n - 1) * integral
    return abs(q(z) - rhs) / q.magnitude_scale(z)


def companion(b: Sequence[float], beta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Companion matrices (A0, A1) of y^(n) + sum b_k y^(k) + sum beta_k y^(k)(t - delay):
    ones on the superdiagonal of A0, last rows -b and -beta.

    The sign on the last rows is what makes det(zI - A0 - A1 e^(-z delay))
    equal z^n + sum b_k z^k + e^(-z delay) sum beta_k z^k.
    """
    n = len(b)
    A0 = np.zeros((n, n))
    A1 = np.zeros((n, n))
    A0[np.arange(n - 1), np.arange(1, n)] = 1.0
    A0[-1, :] = np.negative(b)
    A1[-1, :] = np.negative(beta)
    return A0, A1
