"""Quasipolynomials of single-delay retarded equations.

A quasipolynomial here has the single-delay form  p(s) + e^(-tau s) q(s)
with real polynomials p (undelayed) and q (delayed) and one delay tau >= 0.
The characteristic function of

    y^(n)(t) + sum a_k y^(k)(t) + sum alpha_k y^(k)(t - tau) = 0

is  Delta(s) = s^n + sum a_k s^k + e^(-s tau) sum alpha_k s^k.

This module holds the representation, evaluation and differentiation,
the exact integer design that places a real root of maximal multiplicity
2n, the scale-aware numerical multiplicity test, and the companion matrices
of the first-order form.  Counting zeros, the design's disc certificate
included, is the business of spectral.

numpy is imported inside the functions that take or return arrays, so the
design runs on the standard library alone.  The value types of every module
are immutable records on _Record, whose classes cost next to nothing to
build when a command starts.
"""

from __future__ import annotations

import cmath
import json
import math
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
    """undelayed(s) + e^(-delay s) delayed(s), with real polynomials and a delay >= 0.

    The exponential of a zero delayed part is never taken, so its delay
    cannot overflow; a nonzero delayed part needs a positive delay.
    """

    undelayed: Polynomial
    delayed: Polynomial = Polynomial(())
    delay: float = 0.0

    def __post_init__(self):
        delay = float(self.delay)
        if not 0.0 <= delay < math.inf or (delay == 0.0 and not self.delayed.is_zero):
            raise ValueError(f"delay must be finite and >= 0, and > 0 under a delayed part; got {delay}")
        object.__setattr__(self, "delay", delay)

    @property
    def degree(self) -> int:
        """D = deg undelayed + deg delayed + 1, the degree of the one nonzero
        part (a zero part has degree -1).  Any root has multiplicity at most D."""
        return self.undelayed.degree + self.delayed.degree + 1

    @property
    def is_zero(self) -> bool:
        return self.undelayed.is_zero and self.delayed.is_zero

    def __call__(self, s: complex) -> complex:
        return self._combine(0.0 + 0.0j, self.undelayed(s), self.delayed(s), cmath.exp, s)

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        import numpy as np

        z = np.asarray(z, dtype=complex)
        return self._combine(np.zeros_like(z), self.undelayed(z), self.delayed(z), np.exp, z)

    def derivative(self, order: int = 1) -> "Quasipolynomial":
        """Derivative of the given order: undelayed -> undelayed' and
        delayed -> delayed' - delay delayed."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        q = self
        for _ in range(order):
            q = Quasipolynomial(q.undelayed.delayed_derivative(0.0),
                                q.delayed.delayed_derivative(q.delay), q.delay)
        return q

    def magnitude_scale(self, s: complex) -> float:
        """Sum of absolute monomial/exponential contributions at s.

        Used as the reference scale for residual tests: a value of the
        quasipolynomial much smaller than this scale reflects genuine
        cancellation rather than small inputs.
        """
        return self._combine(0.0, self.undelayed.abs_value_at(s), self.delayed.abs_value_at(s),
                             math.exp, complex(s).real)

    def magnitude_scale_array(self, z: np.ndarray) -> np.ndarray:
        import numpy as np

        z = np.asarray(z, dtype=complex)
        return self._combine(np.zeros(z.shape), self.undelayed.abs_value_at(z),
                             self.delayed.abs_value_at(z), np.exp, z.real)

    def _combine(self, zero, undelayed, delayed, exp, s):
        """zero + undelayed + delayed exp(-delay s), for values or magnitudes
        of the two parts.  Starting from zero turns a -0 component into +0;
        a zero delayed part never reaches exp, which could overflow."""
        acc = zero + undelayed
        if not self.delayed.is_zero:
            acc += delayed * exp(-self.delay * s)
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
        super().__init__(n, a, alpha, tau)

    def quasipolynomial(self) -> Quasipolynomial:
        """Characteristic function s^n + sum a_k s^k + e^(-s tau) sum alpha_k s^k."""
        return Quasipolynomial(Polynomial(self.a + (1.0,)), Polynomial(self.alpha), self.tau)

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
        super().__init__(n, b, beta)

    def quasipolynomial(self) -> Quasipolynomial:
        return Quasipolynomial(Polynomial(self.b + (1.0,)), Polynomial(self.beta), 1.0)


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
    it reproduces the direct double-sum design bit for bit, and verify's
    multiplicity check and spectrum's root cluster at s0 react to its last bits.
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
    of q).  The monomial radius is floored at 1.  The result never exceeds
    the degree D of q.

    The scale is taken after the float derivative chain (delayed' - delay *
    delayed, k times) has cancelled, not from the terms that made the noise,
    so the design at n = 8, tau = 0.5, s0 = -0.5 counts 9, not 16.  A correct
    scale would count 16 on that stored system, which grows at +0.51, so the
    fix waits for ROADMAP items 3 and 17.
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
            scale = deriv._combine(0.0, deriv.undelayed.abs_value_at(r),
                                   deriv.delayed.abs_value_at(r), math.exp, s0.real)
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
