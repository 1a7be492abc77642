"""A priori bounds on imaginary parts of right-half-plane characteristic roots.

Every root z of det(zI - A0 - A1 e^(-z)) is an eigenvalue of A0 + A1 e^(-z),
so |z| <= rho(A0 + A1 e^(-z)) and, through Gelfand's formula, also
|z|^p <= ||(A0 + A1 e^(-z))^p|| for any submultiplicative norm and power p.
Sweeping these feasibility inequalities over the half-plane Re z >= sigma_min
yields computable bounds on |Im z|.  Alongside these, the module implements
the classical logarithmic-norm bounds mu(-iA0) + ||A1|| and the refined
variant with max_theta mu(A1 e^(i theta)), whose theta maximum is ||A1|| in
the one and infinity norms (so it equals the former there) and the
numerical radius of the delayed row in the two-norm, plus the analytic
Frobenius power-2 chain that certifies |Im z| < 2 pi for the standard
normalized quartic design.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .quasipoly import CompanionPair, _Record, companion, mid_normalized

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
    "standard_pair",
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
    of H evaluations its feasibility sweep made (0 for a closed form); a
    rho sweep's tile centre counts as one, an evaluation of the Graeffe
    bound (_rho_cell_bound) in place of H."""

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


def _check_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix")
    return M


def log_norm(M: np.ndarray, norm: Norm) -> float:
    """Logarithmic norm mu(M) = lim_{eps->0+} (||I + eps M|| - 1)/eps of one
    square matrix.

    Closed forms: column sums of off-diagonal moduli plus diagonal real part
    (one norm), the same over rows (infinity norm), and the largest eigenvalue
    of the Hermitian part (two norm).
    """
    M = _check_square(M)
    if M.ndim != 2:
        raise ValueError("expected one square matrix")
    norm = Norm(norm)
    if norm in (Norm.ONE, Norm.INFINITY):
        absM = np.abs(M)
        sums = absM.sum(axis=0 if norm == Norm.ONE else 1)  # columns or rows
        return float((M.real.diagonal() + sums - absM.diagonal()).max())
    if norm == Norm.TWO:
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0).max())
    raise ValueError(f"logarithmic norm undefined for the {norm.value} norm")


def matrix_norm(M: np.ndarray, norm: Norm) -> float | np.ndarray:
    """The one, two, Frobenius or infinity norm of M.  M may be a stack of
    shape (..., n, n); the result is then an array of shape (...), and a
    float for one matrix.  It runs on the sweeps' kernel (_entry_norm), so
    a matrix has the same norm alone as in a stack of any size."""
    M = _check_square(M)
    # each matrix scaled by a power of two, exactly, so that its squared moduli
    # neither overflow nor underflow; e >= -1000 keeps 2^-e finite
    e = np.maximum(np.frexp(np.abs(M).max(axis=(-2, -1)))[1], -1000)
    E = np.moveaxis(M * np.ldexp(1.0, -e)[..., None, None], (-2, -1), (0, 1))
    value = np.ldexp(_entry_norm(E, Norm(norm)), e)
    return float(value) if M.ndim == 2 else value


def bound_mori_kokame(pair: CompanionPair, norm: Norm) -> BoundReport:
    """|Im z| <= mu(-i A0) + ||A1|| for roots with Re z >= 0 (induced norms only)."""
    norm = Norm(norm)
    if norm not in INDUCED_NORMS:
        raise ValueError("bound requires a norm induced by a vector norm")
    value = log_norm(-1j * pair.A0, norm) + matrix_norm(pair.A1, norm)
    return BoundReport(BoundMethod.MORI_KOKAME, norm, 1, 0.0, value)


def bound_tissir_hmamed(pair: CompanionPair, norm: Norm) -> BoundReport:
    """|Im z| <= mu(-i A0) + max_theta mu(A1 e^(i theta)) (induced norms only).

    The theta maximum has a closed form.  In the one and infinity norms it is
    ||A1||: the moduli do not move with theta and max_theta Re(a e^(i theta))
    = |a|, so the bound is Mori-Kokame's.  In the two-norm it is the
    numerical radius of A1, (|a[-1]| + ||a||_2)/2 for the delayed last row
    A1 = e_n a^T of a companion pair; any other A1 is refused.
    """
    norm = Norm(norm)
    if norm != Norm.TWO:
        return bound_mori_kokame(pair, norm).replace(method=BoundMethod.TISSIR_HMAMED)
    A1 = pair.A1
    if A1[:-1].any():
        raise ValueError("the two-norm Tissir-Hmamed bound needs A1 to be a delayed last "
                         "row e_n a^T, as in a companion pair; this A1 has a nonzero row "
                         "above its last")
    a = A1[-1]
    value = log_norm(-1j * pair.A0, norm) + float(abs(a[-1]) + np.linalg.norm(a)) / 2.0
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
# The phi grid is worked a cell of _CELL points at a time.  A norm sweep
# evaluates H at the cell centres first and bounds H over each cell by a
# Lipschitz bound in phi (Piyavskii-Shubert): with r = e^(-sigma),
#     H(phi)^p <= H(phi_c)^p + |phi - phi_c| ||L||,  L = sum_k k r^k |S_k|,
# entrywise, the norms being monotone in the entry moduli (the two-norm
# through ||.||_F).  Once the scan has a running maximum (the floor), a
# cell is evaluated in full only if its bound lets it yield a value above
# the floor; the rest of the row cannot pass the floor, so every sup above
# the floor is exactly that of the full grid.  Through
# W^2 <= H_up^2 - sigma^2 the same bounds also bound the envelope max_phi W,
# on the whole phi range, that the scan's stop reads.
#
# The spectral radius goes through the same pruning with a Graeffe-Cauchy
# bound.  q(w) = det(wI - (A0 + c A1)^2), one Graeffe step of the
# characteristic polynomial, has the squared eigenvalues for roots, and its
# coefficients q_k(c) are polynomials in c with the same Lipschitz bound in
# phi as the S_k: |q_k(c)| <= |q_k(c_c)| + |phi - phi_c| sum_j j r^j |q_kj|.
# Every root of q then lies in |w| <= R, the positive root of
# x^n = sum_k m_k x^k with m_k these moduli bounds (Cauchy), so rho <= sqrt(R)
# on the whole cell.
#
# The same bound serves a block of sigma rows.  E = sum_k S_k r^k e^(-i k phi)
# also has |dE/dsigma| <= sum_k k r^k |S_k| = L(sigma) entrywise, and L falls
# as sigma grows, so over a tile [sigma_lo, sigma_hi] x cell, with one
# evaluation at its centre (sigma_c, phi_c),
#     H(sigma, phi)^p <= H(sigma_c, phi_c)^p
#                        + (|phi - phi_c| + |sigma - sigma_c|) ||L(sigma_lo)||,
# the q_k of the Graeffe bound likewise, and W^2 <= H^2 - sigma^2 with the
# tile's smallest sigma^2.  A row joins a tile while the tile's sigma
# half-extent stays below _TILE_FRACTION of a cell's phi half-width, so the
# bound loosens by at most that fraction of its phi term, and every row of a
# tile that survives is scanned; a one-row tile is the cell bound above.
# One centre per tile and cell replaces one centre per row and cell.
#
# The coarse scan's seed row, sigma_min evaluated in full, sets the floor;
# after it the scan takes _COARSE_BLOCK sigmas per block, floored, in a few
# stacked calls per block.  A pruned row ends at or below the floor, which
# never exceeds the running maximum, so it cannot raise the maximum.  The
# scan stops at the first row whose tile bound proves that no later row
# can raise it (_feasibility_sup): max_phi H does not rise with sigma.

_COARSE_SIGMA_STEP = 1e-2
_FINE_SIGMA_STEP = 1e-4
_COARSE_BLOCK = 100
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
#: Largest sigma half-extent of a tile, as a fraction of a cell's phi half-width.
_TILE_FRACTION = 0.25


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
    M(c)^p from _power_coefficients: its entries by _horner, their norm by _entry_norm.

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
    E = _horner(coeffs, c)  # entries of M(c)^p, shape (n, n, len(c))
    if norm != "rho":
        return _entry_norm(E, norm) ** (1.0 / power)
    if n == 2:
        # closed forms keep the sweeps cheap for the ubiquitous 2x2 pairs:
        # the eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2
        tr = E[0, 0] + E[1, 1]
        disc = np.sqrt(tr * tr - 4.0 * (E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]))
        return np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
    return np.abs(np.linalg.eigvals(np.moveaxis(E, -1, 0))).max(axis=1)


def _horner(coeffs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] c^k by Horner's rule in complex arithmetic, for
    coefficients of shape (d + 1,) + shape, d >= 1, and an array c; the
    result has shape shape + c.shape."""
    lift = (Ellipsis,) + (None,) * c.ndim
    out = np.multiply.outer(coeffs[-1], c)
    for a in coeffs[-2:0:-1]:
        out += a[lift]
        out *= c
    out += coeffs[0][lift]
    return out


def _entry_norm(E: np.ndarray, norm: Norm) -> np.ndarray:
    """The one, two, Frobenius or infinity norm of each matrix of E, of shape
    (n, n, ...), every sum in order (_ordered_sum), so a matrix gets the same
    norm in a stack of any size; the two-norm through the Gram matrix E^H E."""
    if norm == Norm.TWO:
        M = np.moveaxis(E, (0, 1), (-2, -1))
        gram = np.linalg.eigvalsh(np.swapaxes(M.conj(), -1, -2) @ M)[..., -1]
        return np.sqrt(np.maximum(gram, 0.0))
    sq = E.real**2
    sq += E.imag**2  # in place: one temporary of E's size, not three
    if norm in (Norm.ONE, Norm.INFINITY):  # column or row sums of the moduli
        mods = np.sqrt(sq, out=sq)
        return _ordered_sum(mods if norm == Norm.ONE else mods.swapaxes(0, 1)).max(axis=0)
    if norm == Norm.FROBENIUS:
        return np.sqrt(_ordered_sum(sq.reshape(-1, *sq.shape[2:])))
    raise ValueError(f"unsupported matrix norm: {Norm(norm).value}")


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis one slice at a time, in order, so a matrix
    gets the same sum in a stack of any size (numpy's reduction of eight or
    more terms can switch to pairwise summation when the stack holds one)."""
    return functools.reduce(np.add, a)


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
    and per cell one row of 2 _CELL columns: its direct points phi_q, padded
    to _CELL columns by repeating its last point, then its mirrored points
    phi_(grid-q) in reversed column order:
    rot, real . . . . . . .  e^(-i phi) at each direct column, and whether
                             the column is a point of the cell's own
    index, phi  . . . . . .  full-grid index and phi of every column.  The
                             indices never fall along a row but at the last
                             column of the first cell, the self-mirror q = 0
                             of its column 0; a padding column and the
                             self-mirror q = grid/2 repeat their neighbour's
    """

    def __init__(self, grid: int, phis_ext: np.ndarray):
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
        self.index = np.concatenate((pts, (grid - pts[:, ::-1]) % grid), axis=1)
        self.phi = phis_ext[self.index]


@functools.lru_cache(maxsize=8)
def _half_grid(grid: int) -> tuple[np.ndarray, _HalfGridCells]:
    """phi_0 .. phi_grid = 2 pi and their _HalfGridCells, built once per grid
    and shared by every sweep on it, which only reads them."""
    phis_ext = np.append(np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False), 2.0 * math.pi)
    return phis_ext, _HalfGridCells(grid, phis_ext)


def _cell_bounds(coeffs, norm, s: np.ndarray, cells: _HalfGridCells, graeffe, heads):
    """An upper bound on H over each tile, of shape (tiles x cells).  The
    ascending sigmas s are cut into tiles at heads (_sigma_tiles), and each
    tile [lo, hi] x cell is bounded from one evaluation at its centre
    (s_c, phi_c), s_c = (lo + hi) / 2, with spread = hi - s_c, by one
    Piyavskii-Shubert bound:

        H(sigma, phi)^p <= H(s_c, phi_c)^p + (|phi - phi_c| + spread) ||L||,
        L = sum_k k r_lo^k |S_k|,  r_lo = e^(-lo)  (_tile_moduli),

    valid on the whole tile: E = sum_k S_k r^k e^(-i k phi), with
    r = e^(-sigma), has both |dE/dphi| and |dE/dsigma| at most
    sum_k k r^k |S_k| <= L entrywise, so it moves entrywise by at most
    (|phi - phi_c| + |sigma - s_c|) L, and the norms are monotone in the
    entry moduli (the two-norm through ||.||_F), so matrix_norm reduces L.
    A one-row tile has spread 0 and the phi bound alone.  For "rho" the
    same bound holds for the Graeffe coefficients of the sweep's
    _sweep_graeffe, each reduced by a Cauchy radius (_rho_cell_bound).
    """
    lo, hi = _tile_ends(s, heads)
    s = lo / 2.0 + hi / 2.0  # a one-row tile's own sigma; (lo + hi) / 2 without overflow
    spread = np.maximum(s - lo, hi - s)
    r = np.exp(-s)
    r_lo = np.exp(-lo)
    reach = cells.delta + spread[:, None]
    if norm == "rho":
        return _rho_cell_bound(graeffe, r, cells, r_lo, reach)
    power = coeffs.shape[0] - 1
    hc = _stacked_h(coeffs, (r[:, None] * cells.rot_centre).ravel(), norm).reshape(s.size, -1)
    # the Frobenius norm bounds the two-norm of every matrix with these moduli
    bound_norm = Norm.FROBENIUS if norm == Norm.TWO else norm
    lip, scale = (matrix_norm(L, bound_norm) for L in _tile_moduli(coeffs, r_lo))
    # rounding in H is relative to sum_k r^k |S_k|, whose norm bounds every
    # ||E|| on the tile, and absolute where squared moduli underflow: each
    # |E_ij| may then lose up to 2 sqrt(2 tiny)
    slack = _CELL_SLACK * scale + 4.0 * coeffs.shape[1] * math.sqrt(np.finfo(float).tiny)
    return (hc**power + reach * lip[:, None] + slack[:, None]) ** (1.0 / power)


def _tile_moduli(coeffs: np.ndarray, r_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k k r^k |c_k|, sum_k r^k |c_k|) for each r of r_lo, coefficients
    c_k of shape (d + 1,) + shape: the Lipschitz bound of a tile and the
    scale of its rounding, each of shape (r_lo.size,) + shape."""
    k = np.arange(coeffs.shape[0])
    rk = r_lo[:, None] ** k
    mods = np.abs(coeffs)
    return np.tensordot(rk * k, mods, 1), np.tensordot(rk, mods, 1)


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
        return math.inf if num > 0 else -math.inf


def _rho_cell_bound(G: np.ndarray, r: np.ndarray, cells: _HalfGridCells, r_lo: np.ndarray,
                    reach: np.ndarray) -> np.ndarray:
    """An upper bound on rho(A0 + c A1), c = r' e^(-i phi), over each tile
    (tiles x cells): sqrt of the Cauchy radius of det(wI - (A0 + c A1)^2)
    with the coefficient moduli bounded over the tile by _cell_bounds'
    Piyavskii-Shubert bound, |q_k(c)| <= |q_k(c_c)| + reach sum_j j r_lo^j |G_kj|
    (_tile_moduli), G the pair's _graeffe_coefficients, q_k(c_c) by _horner
    at the tile's centre c_c = r e^(-i phi_c), r_lo the tile's largest r'
    and reach its |phi - phi_c| + |sigma - sigma_c|.

    Rounding in q_k is relative to sum_j r_lo^j |G_kj|; rounding in the
    radius is relative.  Where products underflow, each m_k may lose up to
    tiny, which the radius, subadditive in m, turns into at most
    2 tiny^(1/n).
    """
    q = _horner(G.T, r[:, None] * cells.rot_centre)
    lip, scale = _tile_moduli(G.T, r_lo)
    m = np.abs(q) + reach * lip.T[:, :, None] + _CELL_SLACK * scale.T[:, :, None]
    return np.sqrt(_cauchy_radius(m)) * (1.0 + _CELL_SLACK) + 2.0 * np.finfo(float).tiny ** (0.5 / G.shape[0])


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


def _sigma_tiles(s: np.ndarray, grid: int) -> np.ndarray:
    """The first index of each tile of the ascending sigmas s: a row joins
    the tile while the tile's sigma half-extent stays below _TILE_FRACTION
    of a cell's phi half-width (pi _CELL / grid), and while the tile holds
    fewer rows than a row has cells, so that a call of a tile's rows is no
    larger than its call of centres."""
    rows = np.arange(s.size)
    most = -(-(grid // 2 + 1) // _CELL)  # cells per row
    width = 2.0 * _TILE_FRACTION * math.pi * _CELL / grid
    # the head of the tile that would start at each row
    after = np.clip(np.searchsorted(s, s + width), rows + 1, rows + most).tolist()
    heads, i = [], 0
    while i < s.size:
        heads.append(i)
        i = after[i]
    return np.array(heads, dtype=np.intp)


def _tile_ends(s: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and largest sigma of each tile of the ascending s."""
    return s[heads], s[np.append(heads[1:], s.size) - 1]


def _cell_keep(coeffs, norm, s: np.ndarray, heads: np.ndarray, cells: _HalfGridCells, floor: float,
               graeffe) -> tuple[np.ndarray, np.ndarray, int]:
    """(keep, bound, points): which cells (tiles x cells) could raise a row
    of their tile above floor (for a floor of -inf, every cell whose bound
    on H reaches the tile's smallest |sigma|, below which no point is
    feasible); per tile, an upper bound on sqrt(H^2 - sigma^2) at every
    sigma of the tile and every phi, not only the grid's; and the number of
    tile centres evaluated, each an H evaluation, or for rho one of the
    Graeffe bound's.  s holds the rows' sigmas in ascending order, and each
    tile runs from one of heads to the next."""
    two_pi = 2.0 * math.pi
    h_up = _cell_bounds(coeffs, norm, s, cells, graeffe, heads)
    lo, hi = _tile_ends(s, heads)
    with np.errstate(over="ignore"):  # sigma^2 = inf: nothing is feasible
        s2 = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    w_up = np.sqrt(np.maximum(h_up * h_up - s2[:, None], 0.0))

    def top(lo, hi):
        # a grid value phi + 2 pi k, or a polished crossing, from a bracket in
        # [lo, hi] has W <= w_up, so k <= floor((w_up - lo) / 2 pi)
        return np.minimum(w_up, hi + two_pi * np.floor((w_up - lo) / two_pi))

    u = np.maximum(top(*cells.span), np.where(cells.mirrors, top(*cells.mirror_span), -math.inf))
    keep = u + _CELL_SLACK * np.abs(u) > floor
    keep &= h_up * h_up >= s2[:, None]  # H < |sigma| on the whole tile: nothing is feasible
    keep |= ~np.isfinite(h_up).all(axis=1, keepdims=True)  # overflow: no bound, keep the tile
    return keep, w_up.max(axis=1), h_up.size


def _scan_cells(coeffs, norm, cells: _HalfGridCells, kc: np.ndarray, scale: np.ndarray, s2: np.ndarray):
    """H on every point of the cells kc, each on its own sigma row
    (e^(-sigma) = scale, sigma^2 = s2), in one stacked call.

    Per cell, over its row of direct and mirrored columns (_HalfGridCells):
    the largest grid value phi + 2 pi k, with W = sqrt(H^2 - sigma^2) >=
    phi + 2 pi k (a point where H < |sigma| is reached by no omega), its
    class k and its full-grid index.  The mirrored columns read the direct
    columns' W backwards, since H(2 pi - phi) = H(phi); a padding column
    gets H = 0, and with phi > 0 there a value of -inf.  The first argmax
    has the smallest index, as the indices fall along the row only at the
    self-mirror q = 0, which repeats column 0 and its value.
    """
    two_pi = 2.0 * math.pi
    real = cells.real[kc]
    h = _stacked_h(coeffs, (cells.rot[kc] * scale[:, None])[real], norm)
    W2 = np.zeros(real.shape)
    W2[real] = h
    W2 *= W2
    W2 -= s2[:, None]
    W = np.sqrt(np.maximum(W2, 0.0))
    W[W2 < 0.0] = -math.inf
    W = np.concatenate((W, W[:, ::-1]), axis=1)
    phi = cells.phi[kc]
    kmax = np.floor((W - phi) / two_pi)
    omega = np.where(W >= phi, phi + two_pi * kmax, -math.inf)
    i = omega.argmax(axis=1)
    rows = np.arange(kc.size)
    return omega[rows, i], kmax[rows, i], cells.index[kc, i]


def _omega_sup(coeffs, norm, sigmas: np.ndarray, grid: int, floor: float = -math.inf,
               graeffe=None):
    """(sup, env, points) of |Im z| on each line Re z = sigma, sigma in
    sigmas; points counts the H evaluations made.  graeffe is the rho
    sweep's _sweep_graeffe, if the caller holds it.

    sup is over the feasible set { |z|^p <= ||M(z)^p|| } (-inf where empty).
    env is the bound of the row's tile on sqrt(H^2 - sigma^2) (_cell_keep):
    it bounds max_phi sqrt(H^2 - sigma^2) over the whole phi range, not only
    the grid, at every sigma of the tile, and is inf or nan where H or its
    bound overflowed.

    The coefficients must be real: then E(conj c) = conj E(c), so
    H(2 pi - phi) = H(phi) and H is evaluated on phi in [0, pi] only.

    The half grid is cut into cells (_HalfGridCells), the unit of work.  The
    sigmas, in any order, are sorted and cut into tiles of rows
    (_sigma_tiles), and H is first evaluated at the centre of each tile and
    cell only (_cell_bounds: the phi term of the bound plus the tile's sigma
    half-extent, with the Lipschitz constant at the tile's smallest sigma).
    A cell is evaluated in full, on every row of the tile, only if
    _cell_keep finds that it could yield a value above floor on some row; a
    floor of -inf keeps every cell that could hold a feasible point.  For
    every norm and for rho (the Graeffe-Cauchy bound) the bound holds on
    the whole tile, so what follows holds row by row.  A row whose sup
    exceeds floor keeps its grid argmax, which is then also the first
    argmax of the kept points; a row whose argmax is pruned ends at or
    below floor, since a bracket in class k that is not the argmax
    polishes to at most phi_(i+1) + 2 pi k, no more than the argmax's grid
    value.  So every sup above floor is that of the full
    grid, and every other sup stays at or below floor (-inf for a row with
    no cell kept).

    The kept cells go to _scan_cells cap // _CELL at a time, so a call holds
    at most cap points, and each returns the first argmax of its columns.
    One lexsort by (row, -value, index) then gives each row its largest
    value and, on ties, the smallest full-grid index: the row's value,
    class and bracket are those of its first argmax in full-grid order.

    Only rows whose sup could exceed floor are polished: a row whose bracket
    ends at or below floor keeps its grid value, which is then <= floor too.
    The bisection stops once a step moves no bracket, since every later step
    would repeat it.
    """
    if coeffs.imag.any():
        raise ValueError("feasibility sweeps need a real pair (A0, A1)")
    if graeffe is None:
        graeffe = _sweep_graeffe(coeffs, norm)
    two_pi = 2.0 * math.pi
    phis_ext, cells = _half_grid(grid)
    m = sigmas.size
    sup = np.full(m, -math.inf)
    env = np.empty(m)
    offset = np.zeros(m)  # 2 pi k* of the winning residue class
    arg = np.zeros(m, dtype=np.intp)  # the bracket [phi_arg, phi_(arg+1)]
    block = max(1, _MAX_STACK // grid)  # the rows one stacked call could hold in full
    cap = block * (grid // 2 + 1)  # points in one stacked call
    points = 0
    order = np.argsort(sigmas, kind="stable")
    heads = _sigma_tiles(sigmas[order], grid)
    # about as many tile centres per pass as points per call, in whole
    # blocks; a pass's rows then fit in one call too
    most = block * max(1, cap // (block * cells.first.size))
    edges = np.append(heads, m)
    passes = [(edges[t], edges[min(t + most, heads.size)], heads[t:t + most] - heads[t])
              for t in range(0, heads.size, most)]
    for start, stop, tiles in passes:
        s = sigmas[order[start:stop]]
        keep, bound, evals = _cell_keep(coeffs, norm, s, tiles, cells, floor, graeffe)
        rows = np.diff(np.append(tiles, s.size))
        keep = np.repeat(keep, rows, axis=0)  # per row
        env[order[start:stop]] = np.repeat(bound, rows)
        krow, kcell = np.nonzero(keep)
        with np.errstate(over="ignore"):  # sigma^2 = inf: nothing is feasible
            scale, s2 = np.exp(-s)[krow], (s * s)[krow]
        points += evals + int(cells.size[kcell].sum())
        val, k = np.empty(kcell.size), np.empty(kcell.size)
        at = np.empty(kcell.size, dtype=np.intp)
        chunk = cap // _CELL  # kept cells per stacked call: at most cap points
        for lo in range(0, kcell.size, chunk):
            c = slice(lo, lo + chunk)
            val[c], k[c], at[c] = _scan_cells(coeffs, norm, cells, kcell[c], scale[c], s2[c])
        # per row over its kept cells: the largest value, on ties the
        # smallest full-grid index; a row with no cell kept keeps sup = -inf
        pick = np.lexsort((at, -val, krow))
        pick = pick[np.flatnonzero(np.diff(krow[pick], prepend=-1))]
        rows_at = order[start:stop][krow[pick]]
        sup[rows_at] = val[pick]
        offset[rows_at] = two_pi * k[pick]
        arg[rows_at] = at[pick]

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
            points += sel.size
            up = np.sqrt(np.maximum(h * h - s * s, 0.0)) - (mid + k2pi) >= 0.0
            a_next = np.where(up, mid, a)
            b_next = np.where(up, b, mid)
            if np.array_equal(a_next, a) and np.array_equal(b_next, b):
                break  # a fixed point: every later step would repeat this one
            a, b = a_next, b_next
        sup[sel] = np.maximum(sup[sel], a + k2pi)
    return sup, env, points


#: Natural log of the largest value a sweep may form: a factor 16 below the
#: largest float, for the small terms added to the bounded ones.
_LOG_RANGE = math.log(np.finfo(float).max / 16.0)


def _check_range(coeffs, norm, sigma_min: float, graeffe) -> None:
    """Refuse, with a ValueError, a sweep on Re z >= sigma_min whose
    arithmetic would overflow, judged from the coefficient moduli alone (O(1)
    in the sweep's size).  With r = e^(-sigma_min), a norm sweep forms the
    entries of M(c)^p, each at most U = sum_k r^k max|S_k|, and sums up to
    n^2 of their squared moduli; the rho sweep forms r^j and
    sum_j j r^j |G_kj| for j <= 2n, which bound rho^2 too (G = graeffe, the
    sweep's _sweep_graeffe).
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
            log_big = 2.0 * (math.log(n) + log_u)
            method, label = BoundMethod.NORM_POWER.value, Norm(norm).value
    if not log_big <= _LOG_RANGE:
        raise ValueError(
            f"sigma_min = {sigma_min} overflows the {method} sweep (norm {label}, "
            f"power {power}): the values it forms reach about e^{log_big:.0f}, past the float range"
        )


def _feasibility_sup(A0, A1, norm, power: int, sigma_min: float) -> tuple[float, int]:
    """sup |Im z| over the feasible set in {Re z >= sigma_min}, and the
    number of H evaluations made.

    Coarse sigma scan (step 1e-2) up to a proven stop, then a fine rescan
    (step 1e-4, denser phi grid) around the argmax.  The coarse scan
    evaluates sigmas a block at a time: the seed row sigma_min, unfloored,
    sets the running maximum best, and the rest come _COARSE_BLOCK at a
    time, floored by it.  Each block, and the fine rescan, bisects only the
    crossings that could raise the running maximum.

    The scan stops at the first row where
    env^2 + sigma^2 - max(sigma, 0)^2 <= max(best, 0)^2, env being the
    row's tile bound (_omega_sup); the left side is env^2 + min(sigma, 0)^2,
    compared by its root.  This is a proof: env^2 + sigma^2 bounds
    H^2 on the row's tile, and the envelope E(sigma) = max_phi H(sigma, phi)
    does not increase with sigma, because ||M(c)^p|| and log rho(M(c)) are
    subharmonic in c = e^(-sigma - i phi) (Vesentini, 1968), so their
    maximum over the circle |c| = e^(-sigma) shrinks with it.  A feasible
    point at sigma' >= sigma has sigma'^2 + omega^2 <= E(sigma)^2 and
    sigma'^2 >= max(sigma, 0)^2, so |omega| <= max(best, 0).  It fires at
    the latest where a tile's smallest sigma passes the tile's bound on H
    (env = 0 there), so the scan ends.
    """
    if not math.isfinite(sigma_min):
        raise ValueError(f"sigma_min must be finite, got {sigma_min}")
    coeffs = _power_coefficients(A0, A1, power)
    graeffe = _sweep_graeffe(coeffs, norm)
    _check_range(coeffs, norm, sigma_min, graeffe)

    block = 1  # the seed row; then _COARSE_BLOCK
    best = -math.inf
    best_sigma = sigma_min
    start = 0
    points = 0
    stop = False
    while not stop:
        sigmas = sigma_min + np.arange(start, start + block) * _COARSE_SIGMA_STEP
        # a row at or below the running maximum cannot pass `v > best`
        sups, envs, evals = _omega_sup(coeffs, norm, sigmas, _COARSE_GRID, best, graeffe)
        points += evals
        for sigma, v, env in zip(sigmas.tolist(), sups.tolist(), envs.tolist()):
            if v > best:
                best, best_sigma = v, sigma
            stop = math.hypot(env, min(sigma, 0.0)) <= max(best, 0.0)
            if stop:
                break
        start += block
        block = _COARSE_BLOCK
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
    value, points = _feasibility_sup(pair.A0, pair.A1, norm, power, float(sigma_min))
    return BoundReport(BoundMethod.NORM_POWER, norm, power, float(sigma_min), value, points)


def bound_spectral_radius_curve(pair: CompanionPair, sigma_min: float = 0.0) -> BoundReport:
    """Sharper sweep with the spectral radius in place of a norm:
    sup |Im z| subject to |z| <= rho(A0 + A1 e^(-z))."""
    value, points = _feasibility_sup(pair.A0, pair.A1, "rho", 1, float(sigma_min))
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
    coeffs = _power_coefficients(pair.A0, pair.A1, power)
    graeffe = _sweep_graeffe(coeffs, key)
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    if sigmas.size:
        _check_range(coeffs, key, float(sigmas.min()), graeffe)
    sups, _, _ = _omega_sup(coeffs, key, sigmas, _CURVE_GRID, graeffe=graeffe)
    return np.column_stack((sigmas, np.where(sups > -math.inf, sups, math.nan)))


# --- the analytic chain for the standard pair -------------------------------

_COS_FLOOR = 0.893  # floor of cos(omega) for omega in [2 pi, 6.75]


def standard_pair() -> CompanionPair:
    """Companion pair of the normalized quartic design (n = 2, shift 0, delay 1)."""
    nsys = mid_normalized(2)
    return companion(nsys.b, nsys.beta)


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
