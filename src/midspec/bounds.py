"""A priori bounds on imaginary parts of right-half-plane characteristic roots.

Every root z of det(zI - A0 - A1 e^(-z)) is an eigenvalue of A0 + A1 e^(-z),
so |z| <= rho(A0 + A1 e^(-z)) and, through Gelfand's formula, also
|z|^p <= ||(A0 + A1 e^(-z))^p|| for any submultiplicative norm and power p.
Sweeping these feasibility inequalities over the half-plane Re z >= sigma_min
yields computable bounds on |Im z|.  Alongside these, the module implements
the classical logarithmic-norm bounds mu(-iA0) + ||A1|| and the refined
variant with max_theta mu(A1 e^(i theta)), plus the analytic Frobenius
power-2 chain that certifies |Im z| < 2 pi for the standard normalized
quartic design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import CompanionPair

__all__ = [
    "Norm",
    "BoundMethod",
    "BoundReport",
    "Lemma3Report",
    "log_norm",
    "matrix_norm",
    "bound_mori_kokame",
    "bound_tissir_hmamed",
    "bound_norm_power",
    "bound_spectral_radius_curve",
    "boundary_curve",
    "lemma3_analytic_bound",
]


class Norm(str, Enum):
    ONE = "one"
    TWO = "two"
    FROBENIUS = "frobenius"
    INFINITY = "infinity"
    NONE = "none"


class BoundMethod(str, Enum):
    SPECTRAL_RADIUS_CURVE = "rho"
    NORM_POWER = "norm-power"
    MORI_KOKAME = "mori-kokame"
    TISSIR_HMAMED = "tissir-hmamed"
    LEMMA3_ANALYTIC = "lemma3"


#: Norms induced by a vector norm; the logarithmic norm is defined for these.
INDUCED_NORMS = (Norm.ONE, Norm.TWO, Norm.INFINITY)

#: Submultiplicative matrix norms usable in the Gelfand power inequality.
SUBMULTIPLICATIVE_NORMS = (Norm.ONE, Norm.TWO, Norm.FROBENIUS, Norm.INFINITY)


@dataclass(frozen=True)
class BoundReport:
    """One computed bound on |Im z| over {Re z >= sigma_min}."""

    method: BoundMethod
    norm: Norm
    power: int
    sigma_min: float
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bound value must be nonnegative")


@dataclass(frozen=True)
class Lemma3Report:
    """Pieces of the analytic Frobenius power-2 chain for the standard pair.

    coarse. . . . . . . . .  fourth root of the discriminant-step constant
    refined . . . . . . . .  fourth root of the contradiction-step constant,
                             valid on |omega| in the excluded interval
    excluded_interval . . .  (2 pi, coarse): refined < 2 pi rules it out
    certified . . . . . . .  the resulting bound, 2 pi
    """

    coarse: float
    coarse_fourth_power: float
    refined: float
    refined_fourth_power: float
    excluded_interval: tuple[float, float]
    certified: float


def _check_square(M: np.ndarray, stacked: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if not (M.ndim == 2 or stacked and M.ndim > 2) or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix")
    return M


def log_norm(M: np.ndarray, norm: Norm) -> float | np.ndarray:
    """Logarithmic norm mu(M) = lim_{eps->0+} (||I + eps M|| - 1)/eps.

    Closed forms: column sums of off-diagonal moduli plus diagonal real part
    (one norm), the same over rows (infinity norm), and the largest eigenvalue
    of the Hermitian part (two norm).  M may be a stack of shape (..., n, n);
    the result is then an array of shape (...), and a float for one matrix.
    """
    M = _check_square(M, stacked=True)
    norm = Norm(norm)
    if norm in (Norm.ONE, Norm.INFINITY):
        absM = np.abs(M)
        sums = absM.sum(axis=-2 if norm == Norm.ONE else -1)  # columns or rows
        mu = (M.real.diagonal(0, -2, -1) + sums - absM.diagonal(0, -2, -1)).max(axis=-1)
    elif norm == Norm.TWO:
        herm = (M + np.swapaxes(M.conj(), -1, -2)) / 2.0
        mu = np.linalg.eigvalsh(herm).max(axis=-1)
    else:
        raise ValueError(f"logarithmic norm undefined for the {norm.value} norm")
    return float(mu) if M.ndim == 2 else mu


def matrix_norm(M: np.ndarray, norm: Norm) -> float:
    M = _check_square(M)
    norm = Norm(norm)
    if norm == Norm.ONE:
        return float(np.abs(M).sum(axis=0).max())
    if norm == Norm.INFINITY:
        return float(np.abs(M).sum(axis=1).max())
    if norm == Norm.FROBENIUS:
        return float(np.sqrt((np.abs(M) ** 2).sum()))
    if norm == Norm.TWO:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    raise ValueError(f"unsupported matrix norm: {norm.value}")


def bound_mori_kokame(pair: CompanionPair, norm: Norm) -> BoundReport:
    """|Im z| <= mu(-i A0) + ||A1|| for roots with Re z >= 0 (induced norms only)."""
    norm = Norm(norm)
    if norm not in INDUCED_NORMS:
        raise ValueError("bound requires a norm induced by a vector norm")
    value = log_norm(-1j * pair.A0, norm) + matrix_norm(pair.A1, norm)
    return BoundReport(BoundMethod.MORI_KOKAME, norm, 1, 0.0, value)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal-enough f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def bound_tissir_hmamed(pair: CompanionPair, norm: Norm) -> BoundReport:
    """|Im z| <= mu(-i A0) + max_theta mu(A1 e^(i theta)) (induced norms only).

    The theta maximum is located on a 720-point grid and polished by
    golden-section search to 1e-8.
    """
    norm = Norm(norm)
    if norm not in INDUCED_NORMS:
        raise ValueError("bound requires a norm induced by a vector norm")
    A1 = pair.A1

    def f(theta: float) -> float:
        return log_norm(A1 * np.exp(1j * theta), norm)

    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    values = log_norm(A1 * np.exp(1j * thetas)[:, None, None], norm)
    i = int(np.argmax(values))
    step = thetas[1] - thetas[0]
    best = _golden_max(f, thetas[i] - step, thetas[i] + step, 1e-8)
    best = max(best, float(values[i]))
    value = log_norm(-1j * pair.A0, norm) + best
    return BoundReport(BoundMethod.TISSIR_HMAMED, norm, 1, 0.0, value)


# --- feasibility sweeps -----------------------------------------------------
#
# For fixed sigma = Re z the function H(phi) = ||(A0 + A1 e^(-sigma) e^(-i phi))^p||^(1/p)
# depends on omega = Im z only through phi = omega mod 2 pi.  A point is
# feasible iff sigma^2 + omega^2 <= H(phi)^2, so the largest feasible omega in
# the residue class of phi is phi + 2 pi floor((W(phi) - phi)/(2 pi)) with
# W = sqrt(H^2 - sigma^2).  Maximizing over classes on a fine phi grid and
# bisecting the active crossing W(phi) = phi + 2 pi k gives sup |Im z| at
# that sigma; the bound is the sup over sigma >= sigma_min.
#
# M(c)^p = sum_k c^k S_k is a matrix polynomial in c = e^(-z): H comes from
# the p + 1 coefficients S_k by Horner's rule, entry by entry, with no
# stacked matrix products.  Sigmas travel as arrays: one stacked call covers
# a (sigma x phi) block, and one bisection serves every sigma at once.

_COARSE_SIGMA_STEP = 1e-2
_FINE_SIGMA_STEP = 1e-4
_TAIL_CUT_STEPS = 100
_COARSE_GRID = 2048
_FINE_GRID = 16384
_CURVE_GRID = 8192
_BISECTION_STEPS = 50

#: Most matrices one stacked evaluation holds; caps the sweeps' memory.
_MAX_STACK = 16384


def _power_coefficients(A0: np.ndarray, A1: np.ndarray, power: int) -> np.ndarray:
    """S_0..S_p, shape (p + 1, n, n), with (A0 + c A1)^p = sum_k c^k S_k."""
    S = np.eye(A0.shape[0], dtype=complex)[None]
    for _ in range(power):
        nxt = np.zeros((S.shape[0] + 1,) + A0.shape, dtype=complex)
        nxt[:-1] += S @ A0
        nxt[1:] += S @ A1
        S = nxt
    return S


def _stacked_h(coeffs: np.ndarray, c: np.ndarray, norm) -> np.ndarray:
    """||M(c)^p||^(1/p) for an array of scalars c, given the coefficients of
    M(c)^p from _power_coefficients.

    norm is a Norm member or the string "rho" for the spectral radius of
    M(c) (coefficients built with p = 1).
    """
    power, n = coeffs.shape[0] - 1, coeffs.shape[1]
    E = np.multiply.outer(coeffs[-1], c)  # entries of M(c)^p, shape (n, n, len(c))
    for S in coeffs[-2:0:-1]:
        E += S[:, :, None]
        E *= c
    E += coeffs[0][:, :, None]
    if n == 1 and norm in ("rho", Norm.TWO):
        # of a 1x1 matrix, spectral radius and two-norm are both |E|
        return np.abs(E[0, 0]) ** (1.0 / power)
    if norm == "rho":
        if n == 2:
            # closed forms keep the sweeps cheap for the ubiquitous 2x2 pairs
            tr = E[0, 0] + E[1, 1]
            det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
            disc = np.sqrt(tr * tr - 4.0 * det)
            return np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
        return np.abs(np.linalg.eigvals(np.moveaxis(E, -1, 0))).max(axis=1)
    if norm == Norm.TWO and n != 2:
        return np.linalg.svd(np.moveaxis(E, -1, 0), compute_uv=False)[:, 0] ** (1.0 / power)
    sq = E.real**2 + E.imag**2
    if norm == Norm.ONE:
        h = np.sqrt(sq).sum(axis=0).max(axis=0)
    elif norm == Norm.INFINITY:
        h = np.sqrt(sq).sum(axis=1).max(axis=0)
    elif norm == Norm.FROBENIUS:
        h = np.sqrt(sq.sum(axis=(0, 1)))
    elif norm == Norm.TWO:  # 2x2 closed form
        f2 = sq.sum(axis=(0, 1))
        det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
        det2 = det.real**2 + det.imag**2
        h = np.sqrt((f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * det2, 0.0))) / 2.0)
    else:
        raise ValueError(f"unsupported norm: {norm}")
    return h ** (1.0 / power)


def _omega_sup(coeffs, norm, sigmas: np.ndarray, grid: int, floor: float = -math.inf):
    """(sup, envelope) of |Im z| on each line Re z = sigma, sigma in sigmas.

    sup is over the feasible set { |z|^p <= ||M(z)^p|| } (-inf where empty);
    envelope = max_phi sqrt(H^2 - sigma^2) bounds every feasible omega at any
    sigma' >= sigma with the same H, and drives the scan's tail cut.

    Only rows whose sup could exceed floor are polished: a row whose bracket
    ends at or below floor keeps its grid value, which is then <= floor too.

    The coefficients must be real: then E(conj c) = conj E(c), so
    H(2 pi - phi) = H(phi) and H is evaluated on phi in [0, pi] only.
    """
    if coeffs.imag.any():
        raise ValueError("feasibility sweeps need a real pair (A0, A1)")
    two_pi = 2.0 * math.pi
    phis = np.linspace(0.0, two_pi, grid, endpoint=False)
    phis_ext = np.append(phis, two_pi)
    rot = np.exp(-1j * phis[: grid // 2 + 1])
    fold = np.minimum(np.arange(grid), grid - np.arange(grid))  # phi_(grid-j) mirrors phi_j
    m = sigmas.size
    sup = np.full(m, -math.inf)
    env = np.full(m, -math.inf)
    offset = np.zeros(m)  # 2 pi k* of the winning residue class
    arg = np.zeros(m, dtype=np.intp)  # the bracket [phi_arg, phi_(arg+1)]
    rows = max(1, _MAX_STACK // grid)
    for start in range(0, m, rows):
        blk = slice(start, start + rows)
        s = sigmas[blk, None]
        c = np.exp(-s) * rot
        H = _stacked_h(coeffs, c.ravel(), norm).reshape(c.shape)
        W2 = H * H - s * s
        reach = (W2 >= 0.0).any(axis=1)
        W = np.sqrt(np.maximum(W2, 0.0))[:, fold]
        # W >= 0 = phis[0], so every row has a feasible class once W exists
        kmax = np.floor((W - phis) / two_pi)
        omega = np.where(W >= phis, phis + two_pi * kmax, -math.inf)
        r = np.arange(W.shape[0])
        # the crossing W(phi) = phi + 2 pi k* lies in [phi_i, phi_(i+1)] at the
        # argmax i: a later point (or the wrap) with W >= phi + 2 pi k* would
        # sit in a class k >= k* and so beat omega[i]
        i = omega.argmax(axis=1)
        sup[blk] = np.where(reach, omega[r, i], -math.inf)
        env[blk] = np.where(reach, W.max(axis=1), -math.inf)
        offset[blk] = two_pi * kmax[r, i]
        arg[blk] = i

    # polish the crossings together; the polished sup never passes its
    # bracket's right end, so rows that end at or below floor are skipped
    idx = np.flatnonzero((sup > -math.inf) & (phis_ext[arg + 1] + offset > floor))
    for start in range(0, idx.size, _MAX_STACK):
        sel = idx[start:start + _MAX_STACK]
        s, k2pi, a, b = sigmas[sel], offset[sel], phis_ext[arg[sel]], phis_ext[arg[sel] + 1]
        scale = np.exp(-s)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (a + b)
            h = _stacked_h(coeffs, scale * np.exp(-1j * (mid % two_pi)), norm)
            up = np.sqrt(np.maximum(h * h - s * s, 0.0)) - (mid + k2pi) >= 0.0
            a = np.where(up, mid, a)
            b = np.where(up, b, mid)
        sup[sel] = np.maximum(sup[sel], a + k2pi)
    return sup, env


def _feasibility_sup(A0, A1, norm, power: int, sigma_min: float) -> float:
    """sup |Im z| over the feasible set in {Re z >= sigma_min}.

    Coarse sigma scan (step 1e-2) with the tail cut once the feasibility
    envelope stays below the running maximum for 100 consecutive steps,
    then a fine rescan (step 1e-4, denser phi grid) around the argmax.
    The coarse scan evaluates sigmas a block at a time and replays these
    sequential rules over each block.  Each block, and the fine rescan,
    bisects only the crossings that could raise the running maximum.
    """
    if not math.isfinite(sigma_min):
        raise ValueError(f"sigma_min must be finite, got {sigma_min}")
    # no feasible z beyond sigma_cap: |z| >= sigma there exceeds every
    # attainable ||M^p||^(1/p) <= ||A0|| + ||A1|| e^(-sigma)
    capnorm = Norm.FROBENIUS if (norm == "rho" or norm == Norm.TWO) else norm
    na0 = matrix_norm(A0, capnorm)
    na1 = matrix_norm(A1, capnorm)
    sigma_cap = na0 + na1 * math.exp(-min(0.0, sigma_min)) + 1.0
    coeffs = _power_coefficients(A0, A1, power)

    block = _MAX_STACK // _COARSE_GRID
    best = -math.inf
    best_sigma = sigma_min
    below = 0
    start = 0
    while below < _TAIL_CUT_STEPS:
        sigmas = sigma_min + np.arange(start, start + block) * _COARSE_SIGMA_STEP
        sigmas = sigmas[sigmas <= sigma_cap]
        if not sigmas.size:
            break
        # a row at or below the running maximum cannot pass `v > best`
        sups, envs = _omega_sup(coeffs, norm, sigmas, _COARSE_GRID, best)
        for sigma, v, env in zip(sigmas.tolist(), sups.tolist(), envs.tolist()):
            if v > best:
                best, best_sigma = v, sigma
            if env < best:
                below += 1
                if below >= _TAIL_CUT_STEPS:
                    break
            else:
                below = 0
        start += block
    if best == -math.inf:
        return 0.0
    lo = max(sigma_min, best_sigma - _COARSE_SIGMA_STEP)
    hi = best_sigma + _COARSE_SIGMA_STEP
    fine = np.arange(lo, hi + _FINE_SIGMA_STEP / 2, _FINE_SIGMA_STEP)
    sups, _ = _omega_sup(coeffs, norm, fine, _FINE_GRID, best)
    return float(max(best, sups.max()))


def bound_norm_power(
    pair: CompanionPair, norm: Norm, power: int, sigma_min: float = 0.0
) -> BoundReport:
    """Gelfand-type bound: sup |Im z| subject to |z|^p <= ||(A0 + A1 e^(-z))^p||."""
    norm = Norm(norm)
    if norm not in SUBMULTIPLICATIVE_NORMS:
        raise ValueError(f"norm {norm.value} not usable in the power inequality")
    power = int(power)
    if power < 1:
        raise ValueError("power must be a positive integer")
    value = _feasibility_sup(pair.A0.astype(complex), pair.A1.astype(complex), norm, power, float(sigma_min))
    return BoundReport(BoundMethod.NORM_POWER, norm, power, float(sigma_min), value)


def bound_spectral_radius_curve(pair: CompanionPair, sigma_min: float = 0.0) -> BoundReport:
    """Sharper sweep with the spectral radius in place of a norm:
    sup |Im z| subject to |z| <= rho(A0 + A1 e^(-z))."""
    value = _feasibility_sup(pair.A0.astype(complex), pair.A1.astype(complex), "rho", 1, float(sigma_min))
    return BoundReport(BoundMethod.SPECTRAL_RADIUS_CURVE, Norm.NONE, 1, float(sigma_min), value)


def boundary_curve(
    pair: CompanionPair,
    sigmas,
    norm: Norm | None = None,
    power: int = 1,
) -> np.ndarray:
    """Feasibility-boundary samples (sigma, omega_sup) for curve plots.

    norm=None selects the spectral-radius curve (power is then ignored).
    Infeasible sigmas yield NaN.
    """
    key, power = ("rho", 1) if norm is None else (Norm(norm), int(power))
    coeffs = _power_coefficients(pair.A0.astype(complex), pair.A1.astype(complex), power)
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    sups, _ = _omega_sup(coeffs, key, sigmas, _CURVE_GRID)
    return np.column_stack((sigmas, np.where(sups > -math.inf, sups, math.nan)))


# --- the analytic chain for the standard pair -------------------------------

_COS_FLOOR = 0.893  # floor of cos(omega) for omega in [2 pi, 6.75]


def lemma3_analytic_bound(pair: CompanionPair) -> Lemma3Report:
    """Certified |Im z| < 2 pi for right-half-plane roots of the standard
    normalized quartic design, via the Frobenius norm of the squared matrix.

    Chain: omega^4 <= ||(A0 + A1 e^(-z))^2||_F^2 expands to a quadratic in
    e^(-sigma) cos(omega) with negative leading coefficient; nonnegativity of
    its discriminant gives the coarse constant 64190/31, so |omega| < 6.75.
    On [2 pi, 6.75] one has cos(omega) > 0.893, and re-instating that floor in
    the quadratic caps omega^4 at 1000 + (1164 - 992 * 0.893^2) + 160, whose
    fourth root lies below 2 pi - a contradiction that excludes [2 pi, 6.75]
    entirely and certifies the 2 pi bound.
    """
    A0_ref = np.array([[0.0, 1.0], [-6.0, 4.0]])
    A1_ref = np.array([[0.0, 0.0], [6.0, 2.0]])
    if not (
        pair.A0.shape == (2, 2)
        and np.allclose(pair.A0, A0_ref, rtol=0.0, atol=1e-12)
        and np.allclose(pair.A1, A1_ref, rtol=0.0, atol=1e-12)
    ):
        raise ValueError("analytic chain applies only to the standard normalized pair")

    # 728 + 1164 + 160 + (464 - 192)^2 / (4 * 992) over one integer denominator
    num, den = (728 + 1164 + 160) * 4 * 992 + (464 - 192) ** 2, 4 * 992
    assert num * 31 == 64190 * den
    coarse4 = num / den
    coarse = coarse4**0.25

    # validity of the cosine floor on the excluded interval
    assert math.cos(6.75 - 2.0 * math.pi) > _COS_FLOOR

    refined4 = (272 + 728) + (1164 - 992 * _COS_FLOOR**2) + 160
    refined = refined4**0.25

    two_pi = 2.0 * math.pi
    if not refined < two_pi:  # pragma: no cover - fixed constants
        raise ArithmeticError("contradiction step failed; chain constants inconsistent")
    return Lemma3Report(
        coarse=coarse,
        coarse_fourth_power=coarse4,
        refined=refined,
        refined_fourth_power=float(refined4),
        excluded_interval=(two_pi, coarse),
        certified=two_pi,
    )
