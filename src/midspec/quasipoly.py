"""Quasipolynomials of single-delay retarded equations.

A quasipolynomial here is a finite sum  sum_k p_k(s) exp(-lambda_k s)
with real polynomials p_k and pairwise distinct real delays lambda_k.
The characteristic function of

    y^(n)(t) + sum a_k y^(k)(t) + sum alpha_k y^(k)(t - tau) = 0

is the two-term case:  Delta(s) = s^n + sum a_k s^k + e^(-s tau) sum alpha_k s^k.

This module holds the representation, evaluation and differentiation,
the exact integer design that places a real root of maximal multiplicity
2n, the scale-aware numerical multiplicity test, the disc certificate that
the design's other roots lie left of Re z = -1, and the companion matrices
of the first-order form.

numpy is imported inside the functions that take or return arrays, so the
design and its certificate run on the standard library alone.  The value
types of every module are immutable records on _Record, whose classes cost
next to nothing to build when a command starts.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from sys import float_info
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Polynomial",
    "Quasipolynomial",
    "RetardedSystem",
    "NormalizedSystem",
    "mid_normalized",
    "MID_MATCH_TOL",
    "mid_deviation",
    "mid_coefficients",
    "normalize",
    "denormalize",
    "multiplicity_at",
    "dominant_root_from_trace",
    "LocalizationError",
    "DiscCertificate",
    "mid_disc_certificate",
    "CompanionPair",
    "companion",
]


class _Record:
    """Base of the immutable value types.

    The class annotations, in order, are the fields, and a class-level value
    is a field's default.  A subclass without its own __init__ takes the
    fields by position or keyword and then runs __post_init__.  Fields are
    set once, through object.__setattr__; assigning or deleting an
    attribute afterwards raises AttributeError.  ==, hash and repr go by
    the field values.  Instances keep a __dict__ for what a type holds
    outside its fields.  Building such a class takes no generated code, so
    a command starts without the standard library's inspect, ast and dis.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        # object.__setattr__ rather than writes to __dict__: it keeps the
        # attribute storage that makes reading a field fast
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif hasattr(type(self), name):
                object.__setattr__(self, name, getattr(type(self), name))
            else:
                raise TypeError(f"{type(self).__name__} misses field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated fields {list(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed, built through __init__."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


def _trim(coefficients) -> tuple[float, ...]:
    coeffs = [float(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return tuple(coeffs)


class Polynomial(_Record):
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

    def delayed_derivative(self, lam: float) -> "Polynomial":
        """p' - lam p, the polynomial factor of the derivative of p(s) e^(-lam s)."""
        c = self.coefficients + (0.0,)
        return Polynomial([(j + 1) * c[j + 1] - lam * c[j] for j in range(len(c) - 1)])

    def abs_value_at(self, z: complex) -> float:
        """Sum of monomial magnitudes |c_j| |z|^j, the natural evaluation scale;
        elementwise on arrays."""
        r = abs(z)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * r + abs(c)
        return acc


class Quasipolynomial(_Record):
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
        import numpy as np

        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for lam, p in self.terms:
            acc += p(z) * np.exp(-lam * z)
        return acc

    def derivative(self, order: int = 1) -> "Quasipolynomial":
        """Derivative of the given order; (lambda, p) maps to (lambda, p' - lambda p)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        q = self
        for _ in range(order):
            q = Quasipolynomial([(lam, p.delayed_derivative(lam)) for lam, p in q.terms])
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
        import numpy as np

        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=float)
        for lam, p in self.terms:
            acc += p.abs_value_at(z) * np.exp(-lam * z.real)
        return acc


class RetardedSystem(_Record):
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


class NormalizedSystem(_Record):
    """Delay-1, shift-0 form of a retarded system.

    Normalizing a system at a point s0 rescales the spectrum by z = tau (s - s0);
    the quasipolynomial becomes z^n + sum b_k z^k + e^(-z) sum beta_k z^k.
    Coefficients are kept as given, so an exact integer design stays exact.
    """

    n: int
    b: tuple[float, ...]
    beta: tuple[float, ...]

    def __init__(self, n: int, b: Sequence[float], beta: Sequence[float]):
        n = int(n)
        if n < 1:
            raise ValueError("order n must be >= 1")
        b, beta = tuple(b), tuple(beta)
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


def mid_normalized(n: int) -> NormalizedSystem:
    """The maximal-multiplicity design at shift 0 and delay 1, in exact integers.

    With r_k = (2n-k-1)!/(n-1)!, for k = 0..n-1,

        b_k = (-1)^(n-k) C(n,k) r_k,    beta_k = (-1)^(n-1) C(n-1,k) r_k,

    the coefficients of a scaled Pade remainder of e^(-z).  The design at
    any s0 and tau is the denormalized form of this one.
    """
    n = int(n)
    if n < 1:
        raise ValueError("order n must be >= 1")
    r = [math.perm(2 * n - k - 1, n - k) for k in range(n)]
    b = [(-1) ** (n - k) * math.comb(n, k) * r[k] for k in range(n)]
    beta = [(-1) ** (n - 1) * math.comb(n - 1, k) * r[k] for k in range(n)]
    return NormalizedSystem(n, b, beta)


#: A normalized system whose mid_deviation is below this counts as the MID design.
MID_MATCH_TOL = 1e-10


def mid_deviation(nsys: NormalizedSystem) -> float:
    """Largest |x - y| / max(1, |y|) of a coefficient x of nsys against the
    same coefficient y of mid_normalized(nsys.n)."""
    ref = mid_normalized(nsys.n)
    return max(
        abs(x - y) / max(1.0, abs(y)) for x, y in zip(nsys.b + nsys.beta, ref.b + ref.beta)
    )


def mid_coefficients(n: int, s0: float, tau: float) -> RetardedSystem:
    """Coefficients making s0 a root of maximal multiplicity 2n."""
    return denormalize(mid_normalized(n), s0, tau)


def normalize(sys: RetardedSystem, s0: float) -> NormalizedSystem:
    """Delay-1 form at shift s0: coefficients of tau^n Delta(s0 + z/tau).

    The non-delayed part stays monic; the delayed part picks up the factor
    e^(-s0 tau) coming from e^(-(s0 + z/tau) tau) = e^(-s0 tau) e^(-z).
    """
    s0 = float(s0)
    if not math.isfinite(s0):
        raise ValueError(f"shift s0 must be finite, got {s0}")
    n, tau = sys.n, sys.tau

    def shifted(coeffs):
        # entry m is tau^(n-m) sum_{j>=m} C(j,m) c_j s0^(j-m)
        out = []
        for m in range(len(coeffs)):
            acc = 0.0
            for j in range(m, len(coeffs)):
                acc += math.comb(j, m) * coeffs[j] * s0 ** (j - m)
            out.append(acc * tau ** (n - m))
        return out

    try:
        b = shifted(list(sys.a) + [1.0])[:n]
        beta = shifted(sys.alpha)
        scale = math.exp(-s0 * tau)
    except OverflowError:
        raise ValueError(f"normalizing at s0 = {s0} with tau = {tau} overflows") from None
    return NormalizedSystem(n, b, [x * scale for x in beta])


def denormalize(nsys: NormalizedSystem, s0: float, tau: float) -> RetardedSystem:
    """Inverse of normalize: recover the system with delay tau and shift s0.

    Delta(s) = tau^(-n) DeltaTilde(tau (s - s0)), so coefficient m is
    sum_j C(j,m) c_j (-s0)^(j-m) tau^(j-n), summed with the monic term
    c_n = 1 first and then j = m..n-1; the delayed part is then scaled by
    e^(s0 tau).  Integer c_j enter every product exactly.  Keep this order:
    it reproduces the direct double-sum design bit for bit, and the
    dominance certification of a rounded design reacts to its last bits.
    """
    tau = float(tau)
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    if not math.isfinite(tau):
        raise ValueError(f"delay tau must be finite, got {tau}")
    s0 = float(s0)
    if not math.isfinite(s0):
        raise ValueError(f"shift s0 must be finite, got {s0}")
    n = nsys.n

    def shifted(coeffs, m, acc):
        for j in range(m, n):
            acc += math.comb(j, m) * coeffs[j] * (-s0) ** (j - m) * tau ** (j - n)
        return acc

    try:
        a = [shifted(nsys.b, m, math.comb(n, m) * (-s0) ** (n - m)) for m in range(n)]
        scale = math.exp(s0 * tau)
        alpha = [shifted(nsys.beta, m, 0.0) * scale for m in range(n)]
    except OverflowError:
        raise ValueError(f"the order-{n} design at s0 = {s0}, tau = {tau} overflows") from None
    return RetardedSystem(n, a, alpha, tau)


# vanishing threshold of the multiplicity test, relative to the term magnitudes
_MULTIPLICITY_TOL = 1e-9


def multiplicity_at(q: Quasipolynomial, s0: complex) -> int:
    """Numerical root multiplicity of q at s0.

    Counts how many successive derivatives vanish relative to the sum of
    absolute term magnitudes at s0 (so the test is invariant under scaling
    of q and meaningful for coefficients of any size).  The monomial radius
    is floored at 1 so that cancellation noise in low-order coefficients is
    still judged against the size of the coefficients that produced it.
    The result never exceeds the degree D of q.
    """
    if q.is_zero:
        raise ValueError("multiplicity of the zero quasipolynomial is undefined")
    point, s0 = s0, complex(s0)
    r = max(1.0, abs(s0))
    cap = q.degree
    deriv = q
    m = 0
    try:
        while m < cap:
            scale = 0.0
            for lam, p in deriv.terms:
                scale += p.abs_value_at(r) * math.exp(-lam * s0.real)
            if abs(deriv(s0)) > _MULTIPLICITY_TOL * scale:
                break
            m += 1
            deriv = deriv.derivative()
    except OverflowError:
        raise ValueError(f"the quasipolynomial overflows at s0 = {point}") from None
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


@functools.cache
def _unit_gauss_legendre(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(t, w): the m Gauss-Legendre nodes mapped to [0, 1], ascending, and
    their weights on [-1, 1], built once per process and m.

    Each positive node of P_m is the limit of Newton's method on the
    three-term recurrence from Tricomi's estimate, and the negative ones
    mirror them; the weight is 2 / ((1 - x^2) P_m'(x)^2) at each node.
    """
    def legendre(x: float) -> tuple[float, float]:
        p0, p1 = 1.0, x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, m * (x * p1 - p0) / (x * x - 1.0)

    half = []
    for i in range(m // 2, 0, -1):  # ascending positive nodes
        x = (1.0 - (m - 1) / (8.0 * m**3)) * math.cos(math.pi * (4 * i - 1) / (4 * m + 2))
        for _ in range(100):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) <= 1e-15:  # the error is now about its square
                break
        half.append(x)
    half = [(x, 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)) for x in half]
    middle = [(0.0, 2.0 / legendre(0.0)[1] ** 2)] if m % 2 else []
    rule = [(-x, w) for x, w in reversed(half)] + middle + half
    return tuple(0.5 * (x + 1.0) for x, _ in rule), tuple(w for _, w in rule)


def _modulus_growth_radius(n: int, weights: list[float]) -> float:
    """Smallest R with r^n > sum_k weights[k] r^k for every r >= R.

    Any root z with the corresponding coefficient weights satisfies
    |z|^n <= sum weights[k] |z|^k, so no root has modulus beyond R.  The gap
    polynomial has a single sign change, located by doubling and bisection.

    The doubling raises ValueError once R passes 1e12, or sooner where r^n
    leaves the float range first (possible from order 26 on).  These stops
    only keep the search finite: how wide a box may be is decided by
    spectral._winding, which refuses a contour of more than a million
    samples, as a box around any cut above about 3e5 needs.
    """
    def gap(r: float) -> float:
        return r**n - sum(w * r**k for k, w in enumerate(weights))

    hi = 1.0
    try:
        while gap(hi) <= 0.0:
            if hi > 1e12:
                raise ValueError(
                    f"the modulus cut of the order-{n} coefficients exceeds 1e12, "
                    f"where its doubling search stops"
                )
            hi *= 2.0
    except OverflowError:
        raise ValueError(
            f"the modulus cut of the order-{n} coefficients exceeds {hi / 2.0:.3g}, "
            f"where r^{n} leaves the float range"
        ) from None
    lo = hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return hi + 0.25


class LocalizationError(RuntimeError):
    """Raised when counting, refinement, or certification cannot conclude."""


# Taylor order K, initial disc diameter and halving depth of the disc certificate
_DISC_ORDER = 8
_DISC_WIDTH = 2.0
_DISC_DEPTH = 8
# The float error of a quadrature value F^(k)(c) with m nodes is at most
# (m + 2|c| + K + 10) eps S_k, S_k the sum of the moduli of its m terms: each
# term is off by |c t| eps in its phase and a few eps otherwise, and the sum
# adds (m - 1) eps.  As t <= 1, S_k <= S_0.  The certificate allows
# 8 (m + |c|) eps S_0, at least four times that bound once m >= K + 10.
# Truncation is far smaller: ceil(B) + 32 nodes, B the box height, are about
# twice what 1e-15 accuracy needs at |Im c| = B (measured against mpmath).
_ROUNDING_UNITS = 8.0


class DiscCertificate(_Record):
    """Zero count of F_n(z) = 1F1(n; 2n+1; -z) in the box
    [re_min, re_max] x [-im_max, im_max], from discs along its upper half.

    discs holds (centre, radius) in path order, from (re_max, 0) up, across
    the top and down to (re_min, 0).  F_n has no zero on any disc, and the
    box holds winding zeros of F_n.  With re_max = im_max = R + 0.1, R the
    modulus cut at Re z >= re_min, every zero with Re z >= re_min lies in
    the box.
    """

    n: int
    re_min: float
    re_max: float
    im_max: float
    nodes: int  # of the quadrature rule
    discs: tuple[tuple[complex, float], ...]
    winding: int


def _mid_kernel_rule(n: int, m: int) -> tuple[list[float], list[float]]:
    """(-t, v): m Gauss-Legendre nodes t on [0, 1], negated, and weights v
    with F_n's kernel (2n)!/((n-1)! n!) t^(n-1) (1-t)^n folded in."""
    t, w = _unit_gauss_legendre(m)
    scale = 0.5 * math.factorial(2 * n) / (math.factorial(n - 1) * math.factorial(n))
    return [-x for x in t], [scale * wj * x ** (n - 1) * (1.0 - x) ** n for x, wj in zip(t, w)]


def _mid_taylor(c: complex, rule) -> tuple[list[complex], float]:
    """F_n^(k)(c) for k < _DISC_ORDER by quadrature of

        F^(k)(z) = (2n)!/((n-1)! n!) int_0^1 (-t)^k t^(n-1) (1-t)^n e^(-z t) dt

    (DLMF 13.4.1), rule being _mid_kernel_rule(n, m), and the sum of the
    moduli of the k = 0 terms, which bounds that of every k."""
    minus_t, kernel = rule
    terms = list(map(operator.mul, kernel, map(cmath.exp, [c * x for x in minus_t])))
    moduli = sum(map(abs, terms))
    out = [sum(terms)]
    for _ in range(1, _DISC_ORDER):
        terms = list(map(operator.mul, terms, minus_t))
        out.append(sum(terms))
    return out, moduli


@functools.cache
def mid_disc_certificate(n: int, re_min: float = -1.0) -> DiscCertificate:
    """Count the zeros of F_n with Re z >= re_min by Taylor discs, numpy-free.

    The normalized design is q(z) = n!/(2n)! z^(2n) F_n(z), so its roots
    other than the 2n-fold one at 0 are the zeros of F_n.  Those with
    Re z >= re_min obey the modulus cut R of the exact integers with
    weights |b_k| + e^(-re_min) |beta_k|; the box reaches R + 0.1.  As
    F_n > 0 on the real axis and F_n(conj z) = conj F_n(z), the upper half
    of the boundary suffices.  It is cut into segments of length at most
    _DISC_WIDTH, each the diameter of a disc of centre c and radius r that
    passes when

        |F(c)| > sum_(1<=k<K) |F^(k)(c)| r^k/k!
                 + (n)_K/(2n+1)_K e^(max(0, r - Re c)) r^K/K!,

    each quadrature value widened by its error bound (_ROUNDING_UNITS).  On a
    passing disc F has no zero and |arg F(z)/F(c)| < pi/2, so the principal
    arguments of F at consecutive centres add up to the continuous change
    along the path, and that change over pi is the winding number.  A disc
    that fails is halved; one that still fails after _DISC_DEPTH halvings
    makes the count inconclusive (LocalizationError).
    """
    n, re_min = int(n), float(re_min)
    nsys = mid_normalized(n)
    weights = [abs(b) + math.exp(-re_min) * abs(be) for b, be in zip(nsys.b, nsys.beta)]
    top = _modulus_growth_radius(n, weights) + 0.1
    nodes = math.ceil(top) + 32
    rule = _mid_kernel_rule(n, nodes)
    # |F^(K)| <= (n)_K/(2n+1)_K e^(max(0, -Re z)), the K-th moment of the kernel
    moment = math.prod((n + k) / (2 * n + 1 + k) for k in range(_DISC_ORDER))

    def cover(a: complex, b: complex, depth: int = 0) -> list[tuple[complex, float, complex]]:
        """(centre, radius, F(centre)) of passing discs covering [a, b], in order."""
        c, r = 0.5 * (a + b), 0.5 * abs(b - a)
        d, moduli = _mid_taylor(c, rule)
        slack = _ROUNDING_UNITS * (nodes + abs(c)) * float_info.epsilon * moduli
        reach = moment * math.exp(max(0.0, r - c.real)) * r**_DISC_ORDER
        reach /= math.factorial(_DISC_ORDER)
        for k in range(1, _DISC_ORDER):
            reach += (abs(d[k]) + slack) * r**k / math.factorial(k)
        if abs(d[0]) - slack > reach:
            return [(c, r, d[0])]
        if depth < _DISC_DEPTH:
            return cover(a, c, depth + 1) + cover(c, b, depth + 1)
        raise LocalizationError(
            f"F_{n} disc certificate inconclusive: the disc at {c:.9g} of radius {r:.3g} "
            f"fails after {_DISC_DEPTH} halvings"
        )

    corners = [complex(top, 0.0), complex(top, top), complex(re_min, top), complex(re_min, 0.0)]
    segments = []
    for a, b in zip(corners, corners[1:]):
        m = math.ceil(abs(b - a) / _DISC_WIDTH)
        segments += [(a + (b - a) * i / m, a + (b - a) * (i + 1) / m) for i in range(m)]
    # nearest the top left corner first, where |F| is smallest against the
    # rounding of its quadrature: an order too high to certify in binary64
    # fails there before the rest of the path is paid for
    covered = {}
    for i in sorted(range(len(segments)), key=lambda i: abs(segments[i][0] - corners[2])):
        covered[i] = cover(*segments[i])
    pieces = [piece for i in range(len(segments)) for piece in covered[i]]
    discs = [(c, r) for c, r, _ in pieces]
    values = [v for _, _, v in pieces]
    # F is positive at both ends of the path
    turn = cmath.phase(values[0]) - cmath.phase(values[-1])
    turn += sum(cmath.phase(v * u.conjugate()) for u, v in zip(values, values[1:]))
    winding = turn / math.pi
    if abs(winding - round(winding)) > 1e-6:
        raise LocalizationError(f"F_{n} disc certificate: winding number {winding:.9f} is no integer")
    return DiscCertificate(n, re_min, top, top, nodes, tuple(discs), round(winding))


class CompanionPair(_Record):
    """Matrices A0 (companion form) and A1 (delayed last row) with
    det(zI - A0 - A1 e^(-z delay)) equal to the quasipolynomial."""

    A0: np.ndarray
    A1: np.ndarray

    def __post_init__(self):
        import numpy as np

        A0 = np.asarray(self.A0, dtype=float)
        A1 = np.asarray(self.A1, dtype=float)
        if A0.shape != A1.shape or A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ValueError("A0 and A1 must be square matrices of equal size")
        A0.setflags(write=False)
        A1.setflags(write=False)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)

    @property
    def n(self) -> int:
        return self.A0.shape[0]


def companion(b: Sequence[float], beta: Sequence[float]) -> CompanionPair:
    """Companion pair of y^(n) + sum b_k y^(k) + sum beta_k y^(k)(t - delay):
    ones on the superdiagonal of A0, last rows -b and -beta.

    The sign on the last rows is what makes det(zI - A0 - A1 e^(-z delay))
    equal z^n + sum b_k z^k + e^(-z delay) sum beta_k z^k.
    """
    import numpy as np

    n = len(b)
    A0 = np.zeros((n, n))
    A1 = np.zeros((n, n))
    A0[np.arange(n - 1), np.arange(1, n)] = 1.0
    A0[-1, :] = np.negative(b)
    A1[-1, :] = np.negative(beta)
    return CompanionPair(A0, A1)
