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

import functools
import math
from enum import Enum

import numpy as np

from .quasipoly import _Record
from .spectral import CompanionPair, standard_pair

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


class BoundReport(_Record):
    """One computed bound on |Im z| over {Re z >= sigma_min}, and the number
    of H evaluations its feasibility sweep made (0 for a closed form)."""

    method: BoundMethod
    norm: Norm
    power: int
    sigma_min: float
    value: float
    kernel_points: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bound value must be nonnegative")


class Lemma3Report(_Record):
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
# many (sigma, phi) points, and one bisection serves every sigma at once.
#
# The phi grid is worked a cell of _CELL points at a time.  Once the scan
# has a running maximum (the floor), a norm sweep evaluates H at the cell
# centres first and bounds H over each cell by a Lipschitz bound in phi
# (Piyavskii-Shubert): with r = e^(-sigma),
#     H(phi)^p <= H(phi_c)^p + |phi - phi_c| ||L||,  L = sum_k k r^k |S_k|,
# entrywise, the norms being monotone in the entry moduli (the two-norm
# through ||.||_F).  A cell is evaluated in full only if its bound lets it
# yield a value above the floor, or reach the row's largest centre value;
# the rest of the row cannot pass the floor, so every sup above the floor,
# and every envelope, is exactly that of the full grid.
#
# The spectral radius goes through the same pruning with a Graeffe-Cauchy
# bound.  q(w) = det(wI - (A0 + c A1)^2), one Graeffe step of the
# characteristic polynomial, has the squared eigenvalues for roots, and its
# coefficients q_k(c) are polynomials in c with the same Lipschitz bound in
# phi as the S_k: |q_k(c)| <= |q_k(c_c)| + |phi - phi_c| sum_j j r^j |q_kj|.
# Every root of q then lies in |w| <= R, the positive root of
# x^n = sum_k m_k x^k with m_k these moduli bounds (Cauchy), so rho <= sqrt(R)
# on the whole cell.

_COARSE_SIGMA_STEP = 1e-2
_FINE_SIGMA_STEP = 1e-4
_TAIL_CUT_STEPS = 100
_COARSE_GRID = 2048
_FINE_GRID = 16384
_CURVE_GRID = 8192
_BISECTION_STEPS = 50

#: Most matrices one stacked evaluation holds; caps the sweeps' memory.
_MAX_STACK = 16384

#: Points per cell of the half phi grid, the unit the floored sweeps prune.
_CELL = 32
#: Relative slack that covers rounding in the cell bounds.
_CELL_SLACK = 1e-10


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
    if n == 1:
        # every norm of a 1x1 matrix, and its spectral radius, is |e|; Horner
        # in real arithmetic gives a point the same value alone as in a stack,
        # which numpy's complex multiply does not
        s = coeffs[:, 0, 0]
        re, im = np.full(c.shape, s[-1].real), np.full(c.shape, s[-1].imag)
        for sk in s[-2::-1]:
            re, im = re * c.real - im * c.imag + sk.real, re * c.imag + im * c.real + sk.imag
        return np.hypot(re, im) ** (1.0 / power)
    E = np.multiply.outer(coeffs[-1], c)  # entries of M(c)^p, shape (n, n, len(c))
    for S in coeffs[-2:0:-1]:
        E += S[:, :, None]
        E *= c
    E += coeffs[0][:, :, None]
    if norm == "rho":
        if n == 2:
            # closed forms keep the sweeps cheap for the ubiquitous 2x2 pairs:
            # the eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2, formed in place
            # so that a call holds few len(c) temporaries at once
            tr = E[0, 0] + E[1, 1]
            det = E[0, 0] * E[1, 1]
            det -= E[0, 1] * E[1, 0]
            det *= 4.0
            disc = tr * tr
            disc -= det
            del det
            np.sqrt(disc, out=disc)
            lam = tr + disc
            lam /= 2.0
            tr -= disc
            tr /= 2.0
            return np.maximum(np.abs(lam), np.abs(tr))
        return np.abs(np.linalg.eigvals(np.moveaxis(E, -1, 0))).max(axis=1)
    if norm == Norm.TWO and n != 2:
        # sigma_max^2 is the top eigenvalue of the Gram matrix E^H E
        M = np.moveaxis(E, -1, 0)
        gram = np.linalg.eigvalsh(np.swapaxes(M.conj(), -1, -2) @ M)[:, -1]
        return np.sqrt(np.maximum(gram, 0.0)) ** (1.0 / power)
    sq = E.real**2
    sq += E.imag**2  # in place: one n x n x len(c) temporary, not three
    if norm == Norm.ONE:
        h = _ordered_sum(np.sqrt(sq, out=sq)).max(axis=0)
    elif norm == Norm.INFINITY:
        h = _ordered_sum(np.sqrt(sq, out=sq).swapaxes(0, 1)).max(axis=0)
    elif norm == Norm.FROBENIUS:
        h = np.sqrt(_ordered_sum(sq.reshape(-1, *sq.shape[2:])))
    elif norm == Norm.TWO:  # 2x2 closed form
        f2 = _ordered_sum(sq.reshape(-1, *sq.shape[2:]))
        det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
        det2 = det.real**2 + det.imag**2
        h = np.sqrt((f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * det2, 0.0))) / 2.0)
    else:
        raise ValueError(f"unsupported norm: {norm}")
    return h ** (1.0 / power)


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis one slice at a time, in order, so a matrix
    gets the same sum in a stack of any size (numpy's reduction of eight or
    more terms can switch to pairwise summation when the stack holds one)."""
    total = a[0].copy()
    for part in a[1:]:
        total += part
    return total


class _HalfGridCells:
    """The half grid phi_0 .. phi_(grid//2) cut into cells of _CELL points
    (the last may be shorter), the unit of work of _omega_sup.

    Per cell:
    first, size . . . . . .  its points first .. first + size - 1
    rot_centre  . . . . . .  e^(-i phi) at a point near the cell's middle
    delta . . . . . . . . .  the largest distance from the centre within the
                             phi interval that holds every bracket the cell's
                             points own; the mirrored point phi_(grid-q) owns
                             [phi_(grid-q), phi_(grid-q+1)], the mirror image
                             of [phi_(q-1), phi_q], so the interval starts one
                             step before the cell
    span, mirror_span . . .  (lo, hi) phi range of the full-grid brackets its
                             direct points and its mirrored points own
    mirrors . . . . . . . .  whether it has mirrored points at all
    and per cell and column, each cell padded to _CELL columns by repeating
    its last point:
    rot, phi  . . . . . . .  e^(-i phi) and phi at the point
    mirror_phi  . . . . . .  phi_(grid-q) of the mirrored point, in reversed
                             column order (q = 0 and q = grid/2 map onto
                             themselves, and repeat their direct point)
    real  . . . . . . . . .  whether the column is a point of the cell's own
    """

    def __init__(self, grid: int, phis_ext: np.ndarray):
        self.grid = grid
        half = grid // 2 + 1
        rot = np.exp(-1j * phis_ext[:half])
        self.first = first = np.arange(0, half, _CELL)
        self.size = size = np.minimum(_CELL, half - first)
        left = np.maximum(first - 1, 0)
        right = np.minimum(first + size, grid / 2.0)  # the last cell runs to pi
        centre = np.clip(np.round((left + right) / 2.0).astype(np.intp), first, first + size - 1)
        self.rot_centre = rot[centre]
        self.delta = np.maximum(centre - left, right - centre) * (2.0 * math.pi / grid)
        self.span = phis_ext[first], phis_ext[first + size]
        # the mirrored points are q with 0 < q < grid - q, so phi_(grid-q) > pi
        q_lo = np.maximum(first, 1)
        q_hi = np.minimum(first + size - 1, (grid - 1) // 2)
        self.mirrors = q_lo <= q_hi
        self.mirror_span = phis_ext[grid - q_hi], phis_ext[grid - q_lo + 1]
        cols = np.arange(_CELL)
        self.real = cols < size[:, None]
        pts = first[:, None] + np.minimum(cols, size[:, None] - 1)
        self.rot = rot[pts]
        self.phi = phis_ext[pts]
        self.mirror_phi = np.ascontiguousarray(phis_ext[(grid - pts) % grid][:, ::-1])


@functools.lru_cache(maxsize=8)
def _half_grid(grid: int) -> tuple[np.ndarray, _HalfGridCells]:
    """phi_0 .. phi_grid = 2 pi and their _HalfGridCells, built once per grid
    and shared by every sweep on it, which only reads them."""
    phis_ext = np.append(np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False), 2.0 * math.pi)
    return phis_ext, _HalfGridCells(grid, phis_ext)


def _cell_bounds(coeffs, norm, s: np.ndarray, cells: _HalfGridCells, graeffe=None):
    """(H at the cell centres, an upper bound on H over each cell), both of
    shape (sigmas x cells), from

        H(phi)^p <= H(phi_c)^p + |phi - phi_c| ||L||,  L = sum_k k r^k |S_k|,

    valid on the whole cell: E(phi) = sum_k S_k r^k e^(-i k phi), with
    r = e^(-sigma), moves entrywise by at most |phi - phi_c| L, and the norms
    are monotone in the entry moduli (the two-norm through ||.||_F).  For
    "rho" the bound is _rho_cell_bound's, from the sweep's graeffe
    coefficients (computed here if not given).
    """
    power = coeffs.shape[0] - 1
    r = np.exp(-s)
    hc = _stacked_h(coeffs, (r[:, None] * cells.rot_centre).ravel(), norm).reshape(s.size, -1)
    if norm == "rho":
        if graeffe is None:
            graeffe = _sweep_graeffe(coeffs, norm)
        return hc, _rho_cell_bound(graeffe, r, cells)
    rk = r[:, None] ** np.arange(power + 1)
    mods = np.abs(coeffs)
    lip = _monotone_norm(np.tensordot(rk * np.arange(power + 1), mods, 1), norm)
    # rounding in H is relative to sum_k r^k |S_k|, whose norm bounds every
    # ||E||, and absolute where squared moduli underflow: each |E_ij| may
    # then lose up to 2 sqrt(2 tiny)
    slack = _CELL_SLACK * _monotone_norm(np.tensordot(rk, mods, 1), norm)
    slack += 4.0 * coeffs.shape[1] * math.sqrt(np.finfo(float).tiny)
    return hc, (hc**power + cells.delta * lip[:, None] + slack[:, None]) ** (1.0 / power)


def _sweep_graeffe(coeffs, norm) -> np.ndarray | None:
    """The Graeffe coefficients of a rho sweep's pair, computed once per
    sweep and passed down; None for a norm sweep."""
    return _graeffe_coefficients(coeffs[0].real, coeffs[1].real) if norm == "rho" else None


def _graeffe_coefficients(A0: np.ndarray, A1: np.ndarray) -> np.ndarray:
    """G, shape (n, 2n + 1), with
    det(wI - (A0 + c A1)^2) = w^n + sum_k w^k sum_j G[k, j] c^j.

    A float is a dyadic rational, so D (A0, A1) is an integer pair for D the
    largest denominator of the real entries.  Faddeev-LeVerrier on the
    matrix polynomial (D (A0 + c A1))^2 = S_0 + c S_1 + c^2 S_2 then runs
    exactly in integers, and each coefficient is rounded once.
    """
    n = A0.shape[0]
    ratios = [x.as_integer_ratio() for x in np.concatenate((A0.ravel(), A1.ravel())).tolist()]
    den = max(d for _, d in ratios)
    B = np.array([num * (den // d) for num, d in ratios], dtype=object).reshape(2, n, n)
    S = (B[0] @ B[0], B[0] @ B[1] + B[1] @ B[0], B[1] @ B[1])
    eye = np.eye(n, dtype=int).astype(object)
    coef = np.zeros(2 * n + 1, dtype=object)  # the current coefficient, a polynomial in c
    coef[0] = 1
    SM = np.zeros((2 * n + 1, n, n), dtype=object)  # S(c) M_(k-1)(c), S(c) M_0 = 0
    G = np.empty((n, 2 * n + 1))
    for k in range(1, n + 1):
        M = SM + coef[:, None, None] * eye
        SM = np.zeros_like(M)
        for i, Si in enumerate(S):
            SM[i:] += Si @ M[:M.shape[0] - i]  # degrees past 2n are zero
        coef = -np.trace(SM, axis1=1, axis2=2) // k  # exact: an integer polynomial
        G[n - k] = [_int_ratio(v, den ** (2 * k)) for v in coef]
    return G


def _int_ratio(num: int, den: int) -> float:
    """num / den correctly rounded, +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.copysign(math.inf, num)


def _rho_cell_bound(G: np.ndarray, r: np.ndarray, cells: _HalfGridCells) -> np.ndarray:
    """An upper bound on rho(A0 + c A1), c = r e^(-i phi), over each cell
    (sigmas x cells): sqrt of the Cauchy radius of det(wI - (A0 + c A1)^2)
    with the coefficient moduli bounded over the cell by
    |q_k(c)| <= |q_k(c_c)| + delta sum_j j r^j |G_kj|, G the pair's
    _graeffe_coefficients.

    Rounding in q_k is relative to sum_j r^j |G_kj|; rounding in the radius
    is relative.  Where products underflow, each m_k may lose up to tiny,
    which the radius, subadditive in m, turns into at most 2 tiny^(1/n).
    """
    n, deg = G.shape[0], G.shape[1] - 1
    c = r[:, None] * cells.rot_centre
    q = np.broadcast_to(G[:, deg, None, None], (n,) + c.shape).astype(complex)
    for j in range(deg - 1, -1, -1):
        q *= c
        q += G[:, j, None, None]
    rj = r[:, None] ** np.arange(deg + 1)
    mods = np.abs(G).T
    lip, scale = (rj * np.arange(deg + 1)) @ mods, rj @ mods
    m = np.abs(q) + cells.delta * lip.T[:, :, None] + _CELL_SLACK * scale.T[:, :, None]
    tiny = np.finfo(float).tiny
    return np.sqrt(_cauchy_radius(m)) * (1.0 + _CELL_SLACK) + 2.0 * tiny ** (0.5 / n)


def _cauchy_radius(m: np.ndarray) -> np.ndarray:
    """The positive root R of x^n = sum_k m[k] x^k, m >= 0 of shape (n, ...):
    every root of a monic polynomial with coefficient moduli m lies in
    |x| <= R (Cauchy), and R grows with each m[k].

    With mu = max_k m[k]^(1/(n-k)), x = mu y gives y^n = sum_k w_k y^k with
    w_k <= 1 and max 1, whose root lies in [1, min(2, sum_k w_k)].  Above
    its root f(y) = y^n - sum_k w_k y^k is increasing and convex, so Newton
    from that upper end decreases to the root and every iterate bounds it.
    """
    n = m.shape[0]
    k = np.arange(n).reshape((n,) + (1,) * (m.ndim - 1))
    t = m ** (1.0 / (n - k))
    mu = t.max(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(mu > 0.0, t / mu, 0.0) ** (n - k)
    y = np.clip(w.sum(axis=0), 1.0, 2.0)
    for _ in range(64):
        f, df = np.ones_like(y), np.zeros_like(y)
        for wk in w[::-1]:  # Horner for f and f'
            df = df * y + f
            f = f * y - wk
        step = f / df
        y = y - step
        if not (step > 4.0 * np.finfo(float).eps * y).any():
            break
    return mu * y


def _cell_keep(coeffs, norm, s: np.ndarray, cells: _HalfGridCells, floor: float,
               graeffe=None) -> np.ndarray:
    """Which cells (sigmas x cells) could raise their row above floor, or
    hold the row's largest H."""
    two_pi = 2.0 * math.pi
    hc, h_up = _cell_bounds(coeffs, norm, s, cells, graeffe)
    w_up = np.sqrt(np.maximum(h_up * h_up - (s * s)[:, None], 0.0))

    def top(lo, hi):
        # a grid value phi + 2 pi k, or a polished crossing, from a bracket in
        # [lo, hi] has W <= w_up, so k <= floor((w_up - lo) / 2 pi)
        return np.minimum(w_up, hi + two_pi * np.floor((w_up - lo) / two_pi))

    u = np.maximum(top(*cells.span), np.where(cells.mirrors, top(*cells.mirror_span), -math.inf))
    keep = (u + _CELL_SLACK * np.abs(u) > floor) | (h_up >= hc.max(axis=1, keepdims=True))
    keep |= ~np.isfinite(h_up).all(axis=1, keepdims=True)  # overflow: no bound, keep the row
    return keep


def _monotone_norm(M: np.ndarray, norm) -> np.ndarray:
    """Norms of a stack of entrywise nonnegative matrices, the Frobenius norm
    standing in for the two-norm (it bounds the two-norm of every matrix with
    these moduli)."""
    if norm == Norm.ONE:
        return M.sum(axis=-2).max(axis=-1)
    if norm == Norm.INFINITY:
        return M.sum(axis=-1).max(axis=-1)
    return np.sqrt((M * M).sum(axis=(-2, -1)))


def _scan_cells(coeffs, norm, cells: _HalfGridCells, kc: np.ndarray, scale: np.ndarray, s2: np.ndarray):
    """H on every point of the cells kc, each on its own sigma row
    (e^(-sigma) = scale, sigma^2 = s2), in one stacked call.

    Per cell: the largest W^2 = H^2 - sigma^2, and for its direct points
    phi_q and its mirrored points phi_(grid-q), the largest grid value
    phi + 2 pi k and its full-grid index (the smallest on ties).
    """
    two_pi = 2.0 * math.pi
    n = cells.size[kc]
    real = cells.real[kc]
    h = _stacked_h(coeffs, (cells.rot[kc] * scale[:, None])[real], norm)
    # a padding column gets H = 0, so W and both values there are at most
    # those of the point it repeats, which wins ties in either order
    # (both are -inf unless phi = 0)
    W2 = np.zeros(real.shape)
    W2[real] = h
    W2 *= W2
    W2 -= s2[:, None]
    W = np.maximum(W2, 0.0)
    np.sqrt(W, out=W)
    rows = np.arange(kc.size)
    val, k = np.empty((kc.size, 2)), np.empty((kc.size, 2))
    col = np.empty((kc.size, 2), dtype=np.intp)
    for side, (phi, w) in enumerate(((cells.phi[kc], W), (cells.mirror_phi[kc], W[:, ::-1]))):
        kmax = np.floor((w - phi) / two_pi)
        omega = np.where(w >= phi, phi + two_pi * kmax, -math.inf)
        # the first column: the smallest index, as the mirror runs backwards
        i = omega.argmax(axis=1)
        val[:, side], k[:, side], col[:, side] = omega[rows, i], kmax[rows, i], i
    col[:, 1] = _CELL - 1 - col[:, 1]
    q = cells.first[kc, None] + np.minimum(col, n[:, None] - 1)
    q[:, 1] = (cells.grid - q[:, 1]) % cells.grid
    return W2[rows, W2.argmax(axis=1)], val, k, q


def _omega_sup(coeffs, norm, sigmas: np.ndarray, grid: int, floor: float = -math.inf,
               graeffe=None):
    """(sup, envelope, points) of |Im z| on each line Re z = sigma, sigma
    in sigmas; points counts the H evaluations made.  graeffe is the rho
    sweep's _sweep_graeffe, if the caller holds it.

    sup is over the feasible set { |z|^p <= ||M(z)^p|| } (-inf where empty);
    envelope = max_phi sqrt(H^2 - sigma^2) bounds every feasible omega at any
    sigma' >= sigma with the same H, and drives the scan's tail cut.

    The coefficients must be real: then E(conj c) = conj E(c), so
    H(2 pi - phi) = H(phi) and H is evaluated on phi in [0, pi] only.

    The half grid is cut into cells (_HalfGridCells), the unit of work.
    With a finite floor, H is first evaluated at the cell centres only, and
    a cell is evaluated in full only if _cell_keep finds that it could yield
    a value above floor, or that its bound on H reaches the row's largest
    centre value (so the envelope and reachability are exact).  For every
    norm and for rho (the Graeffe-Cauchy bound) the bound holds on the cell.
    A row whose sup exceeds floor keeps its grid argmax, which is then also
    the first argmax of the kept points; a row whose argmax is pruned ends at
    or below floor, since a bracket in class k that is not the argmax
    polishes to at most phi_(i+1) + 2 pi k, no more than the argmax's grid
    value.  So every sup above floor, and every envelope, is that of the
    full grid.

    Only rows whose sup could exceed floor are polished: a row whose bracket
    ends at or below floor keeps its grid value, which is then <= floor too.
    """
    if coeffs.imag.any():
        raise ValueError("feasibility sweeps need a real pair (A0, A1)")
    two_pi = 2.0 * math.pi
    phis_ext, cells = _half_grid(grid)
    m = sigmas.size
    sup = np.full(m, -math.inf)
    env = np.full(m, -math.inf)
    offset = np.zeros(m)  # 2 pi k* of the winning residue class
    arg = np.zeros(m, dtype=np.intp)  # the bracket [phi_arg, phi_(arg+1)]
    block = max(1, _MAX_STACK // grid)  # the rows one stacked call could hold in full
    cap = block * (grid // 2 + 1)  # points in one stacked call
    prune = floor > -math.inf
    points = 0
    # about as many cells per pass as points per call, in whole blocks
    rows = block * max(1, cap // (block * cells.first.size))
    for start in range(0, m, rows):
        blk = slice(start, start + rows)
        s = sigmas[blk]
        if prune:
            keep = _cell_keep(coeffs, norm, s, cells, floor, graeffe)
            points += keep.size
        else:
            keep = np.ones((s.size, cells.first.size), dtype=bool)
        krow, kcell = np.nonzero(keep)
        scale, s2 = np.exp(-s), s * s
        ends = np.cumsum(cells.size[kcell])
        points += int(cells.size[kcell].sum())
        w2 = np.empty(kcell.size)
        val, k = np.empty((kcell.size, 2)), np.empty((kcell.size, 2))
        at = np.empty((kcell.size, 2), dtype=np.intp)
        lo = 0
        while lo < kcell.size:
            # kept cells in stacked calls of at most cap points
            hi = int(np.searchsorted(ends, ends[lo] - cells.size[kcell[lo]] + cap, side="right"))
            r = krow[lo:hi]
            w2[lo:hi], val[lo:hi], k[lo:hi], at[lo:hi] = _scan_cells(
                coeffs, norm, cells, kcell[lo:hi], scale[r], s2[r]
            )
            lo = hi
        # per row over its kept cells and both sides: the first argmax in
        # full-grid order, and a nan envelope if H overflowed anywhere
        counts = keep.sum(axis=1)
        heads = np.cumsum(counts) - counts
        w2 = np.maximum.reduceat(w2, heads)
        val, k, at = val.ravel(), k.ravel(), at.ravel()
        best = np.maximum.reduceat(val, 2 * heads)
        ties = val == np.repeat(best, 2 * counts)
        i = np.minimum.reduceat(np.where(ties, at, grid), 2 * heads)
        # the class of point i, met on both sides when q = 0 or q = grid/2
        winner = ties & (at == np.repeat(i, 2 * counts))
        kstar = np.maximum.reduceat(np.where(winner, k, -math.inf), 2 * heads)
        reach = ~(w2 < 0.0)
        sup[blk] = np.where(reach, best, -math.inf)
        env[blk] = np.where(reach, np.sqrt(np.maximum(w2, 0.0)), -math.inf)
        offset[blk] = two_pi * kstar
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
    points += idx.size * _BISECTION_STEPS
    return sup, env, points


#: Natural log of the largest value a sweep may form: a factor 16 below the
#: largest float, for the small terms added to the bounded ones.
_LOG_RANGE = math.log(np.finfo(float).max / 16.0)


def _check_range(coeffs, norm, sigma_min: float, graeffe=None) -> None:
    """Refuse, with a ValueError, a sweep on Re z >= sigma_min whose
    arithmetic would overflow, judged from the coefficient moduli alone (O(1)
    in the sweep's size).  With r = e^(-sigma_min), a norm sweep forms the
    entries of M(c)^p, each at most U = sum_k r^k max|S_k|, and sums up to
    n^2 of their squared moduli (the 2x2 two-norm squares that sum again);
    the rho sweep forms r^j and sum_j j r^j |G_kj| for j <= 2n, which bound
    rho^2 too (G = graeffe, the sweep's _sweep_graeffe).
    """
    n = coeffs.shape[1]
    log_r = max(0.0, -sigma_min)
    with np.errstate(divide="ignore"):  # log 0 = -inf drops a zero term
        if norm == "rho":
            G = np.log(np.abs(graeffe))
            deg = G.shape[1] - 1
            terms = np.logaddexp.reduce(G + log_r * np.arange(deg + 1), axis=1).max()
            log_big = max(deg * log_r, math.log(deg) + terms)
            method, label, power = BoundMethod.SPECTRAL_RADIUS_CURVE.value, Norm.NONE.value, 1
        else:
            power = coeffs.shape[0] - 1
            moduli = np.log(np.abs(coeffs).max(axis=(1, 2)))
            log_u = np.logaddexp.reduce(moduli + log_r * np.arange(power + 1))
            squares = 4 if norm == Norm.TWO and n == 2 else 2
            log_big = squares * (math.log(n) + log_u)
            method, label = BoundMethod.NORM_POWER.value, Norm(norm).value
    if not log_big <= _LOG_RANGE:
        raise ValueError(
            f"sigma_min = {sigma_min} overflows the {method} sweep (norm {label}, "
            f"power {power}): the values it forms reach about e^{log_big:.0f}, past the float range"
        )


def _feasibility_sup(A0, A1, norm, power: int, sigma_min: float) -> tuple[float, int]:
    """sup |Im z| over the feasible set in {Re z >= sigma_min}, and the
    number of H evaluations made.

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
    try:
        sigma_cap = na0 + na1 * math.exp(-min(0.0, sigma_min)) + 1.0
    except OverflowError:
        raise ValueError(f"sigma_min = {sigma_min} overflows e^(-sigma_min)") from None
    coeffs = _power_coefficients(A0, A1, power)
    graeffe = _sweep_graeffe(coeffs, norm)
    _check_range(coeffs, norm, sigma_min, graeffe)

    block = _MAX_STACK // _COARSE_GRID
    best = -math.inf
    best_sigma = sigma_min
    below = 0
    start = 0
    points = 0
    while below < _TAIL_CUT_STEPS:
        sigmas = sigma_min + np.arange(start, start + block) * _COARSE_SIGMA_STEP
        sigmas = sigmas[sigmas <= sigma_cap]
        if not sigmas.size:
            break
        # a row at or below the running maximum cannot pass `v > best`
        sups, envs, evals = _omega_sup(coeffs, norm, sigmas, _COARSE_GRID, best, graeffe)
        points += evals
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
        return 0.0, points
    lo = max(sigma_min, best_sigma - _COARSE_SIGMA_STEP)
    hi = best_sigma + _COARSE_SIGMA_STEP
    fine = np.arange(lo, hi + _FINE_SIGMA_STEP / 2, _FINE_SIGMA_STEP)
    sups, _, evals = _omega_sup(coeffs, norm, fine, _FINE_GRID, best, graeffe)
    return float(max(best, sups.max())), points + evals


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
    value, points = _feasibility_sup(pair.A0.astype(complex), pair.A1.astype(complex), norm, power, float(sigma_min))
    return BoundReport(BoundMethod.NORM_POWER, norm, power, float(sigma_min), value, points)


def bound_spectral_radius_curve(pair: CompanionPair, sigma_min: float = 0.0) -> BoundReport:
    """Sharper sweep with the spectral radius in place of a norm:
    sup |Im z| subject to |z| <= rho(A0 + A1 e^(-z))."""
    value, points = _feasibility_sup(pair.A0.astype(complex), pair.A1.astype(complex), "rho", 1, float(sigma_min))
    return BoundReport(BoundMethod.SPECTRAL_RADIUS_CURVE, Norm.NONE, 1, float(sigma_min), value, points)


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
    if sigmas.size:
        _check_range(coeffs, key, float(sigmas.min()), _sweep_graeffe(coeffs, key))
    sups, _, _ = _omega_sup(coeffs, key, sigmas, _CURVE_GRID)
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
    ref = standard_pair()
    if not (
        pair.A0.shape == (2, 2)
        and np.allclose(pair.A0, ref.A0, rtol=0.0, atol=1e-12)
        and np.allclose(pair.A1, ref.A1, rtol=0.0, atol=1e-12)
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
