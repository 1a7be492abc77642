"""Argument-principle root localization and dominance certification.

Root counts inside rectangles come from the winding number of the
quasipolynomial around the boundary, evaluated by adaptive phase
continuation: boundary samples are refined until consecutive phase
increments are small, so the summed increments telescope to the exact
continuous argument change.  Rectangles are quadrisected until each leaf
carries a single root location, which is then polished by a Newton
iteration on q/q' (quadratic also at multiple roots) and assigned its
multiplicity m by re-counting on shrinking squares around it; plain Newton
steps on q^(m-1), where the root is simple, give the final polish.

Dominance is never searched for.  By the paper's theorem s0 is a root of
multiplicity 2n exactly when the system normalized at s0 is the MID design,
which makes it strictly dominant.  certify_dominance alone judges that, by
the trace identity and the match to MID_MATCH_TOL, and returns None for any
other system, of whose dominance the theorem says nothing.  For the design
it returns mid_disc_certificate, which counts the zeros of the design's
factor F_n by Taylor discs along a box that the modulus cut of its
coefficients sizes.
SpectrumReport describes located roots only.  numpy is imported inside the
functions that use arrays, so certifying runs on the standard library alone.

A contour whose count cannot be trusted is moved: inflated, shrunk no
further, or split along the next line.  LocalizationError is raised once,
where a count is known to be inconclusive, naming its rectangle or disc.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from sys import float_info
from typing import TYPE_CHECKING, Iterable

from . import LocalizationError
from .quasipoly import (
    MID_MATCH_TOL,
    Quasipolynomial,
    RetardedSystem,
    _Record,
    mid_deviation,
    mid_normalized,
    normalize,
    trace_residual,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Rectangle",
    "Root",
    "SpectrumReport",
    "LocalizationError",
    "count_roots",
    "find_roots",
    "certify_dominance",
    "DiscCertificate",
    "mid_disc_certificate",
    "roots_to_csv",
]


class _UntrustedContour(Exception):
    """Internal: a contour's winding count cannot be trusted; move the contour."""


# relative |q| floor below which a boundary sample counts as "on a root"
_BOUNDARY_FLOOR = 1e-12
# phase increment threshold for contour refinement (radians)
_PHASE_STEP = 0.8
# |q| acceptance threshold for refined roots, relative to the local scale
_RESIDUAL_REL = 1e-8
# box diameter below which quadrisection stops
_DIAMETER_FLOOR = 1e-9
# most initial samples of one contour; a taller region is refused unsampled
_MAX_CONTOUR_SAMPLES = 1_000_000


class Rectangle(_Record):
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"rectangle bounds must be finite, got {bounds}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle bounds must satisfy min < max")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def inflated(self, delta: float) -> "Rectangle":
        return Rectangle(
            self.re_min - delta, self.re_max + delta, self.im_min - delta, self.im_max + delta
        )

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (
            self.re_min - slack <= z.real <= self.re_max + slack
            and self.im_min - slack <= z.imag <= self.im_max + slack
        )

    def corners(self) -> list[complex]:
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class Root(_Record):
    location: complex
    multiplicity: int
    residual: float

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


class SpectrumReport(_Record):
    """The roots located in a region, their spectral abscissa, the root that
    attains it alone (None on a tie) and whether that root is real; see
    from_roots."""

    roots: tuple[Root, ...]
    region: Rectangle
    spectral_abscissa: float
    dominant: Root | None
    strictly_dominant: bool

    @staticmethod
    def from_roots(roots: Iterable[Root], region: Rectangle) -> "SpectrumReport":
        """Generic report: strict dominance means a unique real root attains
        the maximal real part (ties closer than 1e-9 count as non-strict).
        An empty root set gives abscissa -inf and no dominant root."""
        roots = tuple(sorted(roots, key=lambda r: (-r.location.real, r.location.imag)))
        gamma0 = max((r.location.real for r in roots), default=-math.inf)
        tie = 1e-9 * (1.0 + abs(gamma0))
        attaining = [r for r in roots if r.location.real >= gamma0 - tie]
        dominant = attaining[0] if len(attaining) == 1 else None
        strictly = dominant is not None and dominant.location.imag == 0.0
        return SpectrumReport(roots, region, gamma0, dominant, strictly)

    def to_json_dict(self) -> dict:
        def root_doc(r: Root) -> dict:
            return {
                "re": r.location.real,
                "im": r.location.imag,
                "multiplicity": r.multiplicity,
                "residual": r.residual,
            }

        return {
            "roots": [root_doc(r) for r in self.roots],
            "region": self.region.to_json_dict(),
            # -inf for an empty region, which JSON cannot hold
            "spectral_abscissa": self.spectral_abscissa if math.isfinite(self.spectral_abscissa) else None,
            "dominant": root_doc(self.dominant) if self.dominant else None,
            "strictly_dominant": self.strictly_dominant,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def roots_to_csv(roots: Iterable[Root]) -> str:
    """CSV table `re,im,multiplicity,residual`, descending re then ascending im."""
    lines = ["re,im,multiplicity,residual"]
    for r in sorted(roots, key=lambda r: (-r.location.real, r.location.imag)):
        lines.append(
            f"{r.location.real:.15g},{r.location.imag:.15g},{r.multiplicity},{r.residual:.6g}"
        )
    return "\n".join(lines) + "\n"


# --- winding number by phase continuation ------------------------------------


def _winding(q: Quasipolynomial, rect: Rectangle) -> int:
    """Winding number of q around the rectangle boundary, traversed
    counterclockwise.  A sample on a root (|q| below _BOUNDARY_FLOOR of its
    scale), refinement that does not converge in 48 rounds and a sum more
    than 0.1 from an integer all raise _UntrustedContour: the caller moves
    the contour.

    The boundary is walked as one closed polyline through the corners.
    Samples are refined until (i) every observed phase increment is below
    _PHASE_STEP and (ii) the local phase-speed budget |dz| |q'/q| is small.
    The second criterion matters: |d arg q / dz| <= |q'/q|, so it rules out
    aliasing by full turns near high-multiplicity roots that the
    principal-branch increments alone cannot see.  A rectangle whose walk
    would start with more than _MAX_CONTOUR_SAMPLES samples is refused with
    ValueError before any is allocated.
    """
    import numpy as np

    delay = 0.0 if q.delayed.is_zero else q.delay
    qp = q.derivative()

    def probe(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = q.eval_array(z)
        av = np.abs(v)
        if np.any(av <= _BOUNDARY_FLOOR * q.magnitude_scale_array(z)):
            raise _UntrustedContour
        return v / av, np.abs(qp.eval_array(z)) / av

    corners = rect.corners()
    ends = list(zip(corners, corners[1:] + corners[:1]))
    # initial samples per edge, from the phase the delay and the degree turn
    counts = [17 + (delay * abs((b - a).imag) + math.pi * max(q.degree, 1)) / 1.2
              for a, b in ends]
    if not sum(counts) <= _MAX_CONTOUR_SAMPLES:
        raise ValueError(f"the contour of {rect} needs about {sum(counts):.3g} samples, "
                         f"more than {_MAX_CONTOUR_SAMPLES:.0e}: the region is too tall")
    z = np.concatenate([a + np.linspace(0.0, 1.0, int(k))[:-1] * (b - a)
                        for (a, b), k in zip(ends, counts)])
    u, g = probe(z)
    # close the walk: the last sample is the first corner again
    z, u, g = np.append(z, z[0]), np.append(u, u[0]), np.append(g, g[0])
    for _ in range(48):
        dphi = np.angle(u[1:] * np.conj(u[:-1]))
        speed = 0.5 * (g[1:] + g[:-1]) * np.abs(np.diff(z))
        bad = (np.abs(dphi) > _PHASE_STEP) | (speed > 2.0)
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        zm = 0.5 * (z[idx] + z[idx + 1])
        um, gm = probe(zm)
        z = np.insert(z, idx + 1, zm)
        u = np.insert(u, idx + 1, um)
        g = np.insert(g, idx + 1, gm)
    w = float(dphi.sum()) / (2.0 * math.pi)
    if bad.any() or abs(w - round(w)) > 0.1:  # bad: the 48 rounds ran out
        raise _UntrustedContour
    return int(round(w))


def _inflated_count(q: Quasipolynomial, rect: Rectangle) -> tuple[Rectangle, int]:
    """Winding count of q around rect, inflated outward while its contour
    cannot be trusted (a root sits, numerically, on the boundary); returns
    the rectangle counted and its count.  A contour still untrusted after the
    last inflation makes the count inconclusive (LocalizationError).

    The inflation starts at 1e-6 and grows tenfold per retry, at most 5
    times, because around a root of multiplicity m the evaluation-cancellation
    floor is only cleared at distance ~(1e-12)^(1/m), far beyond 1e-6 for m >= 2.
    A rect on which q overflows, or too tall to sample, is rejected with
    ValueError.
    """
    # e^(-lam Re z), lam >= 0, peaks on the left edge, and |z| at its corners
    try:
        scale = max(q.magnitude_scale(complex(rect.re_min, y)) for y in (rect.im_min, rect.im_max))
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the quasipolynomial overflows at the left edge Re z = {rect.re_min:g}")
    delta = 0.0
    for k in range(6):
        attempt = rect.inflated(delta)
        try:
            return attempt, _winding(q, attempt)
        except _UntrustedContour:
            delta += 1e-6 * 10.0**k
    raise LocalizationError(f"a root remains on the boundary of {rect} after 5 inflation retries")


def count_roots(q: Quasipolynomial, rect: Rectangle) -> int:
    """Number of roots of q inside rect, counted with multiplicity.

    If a root sits (numerically) on the boundary the rectangle is inflated
    outward and the count retried, at most 5 times.
    """
    if q.is_zero:
        raise ValueError("cannot count roots of the zero quasipolynomial")
    return _inflated_count(q, rect)[1]


# --- refinement ---------------------------------------------------------------


def _newton_u_step(f: complex, fp: complex, fpp: complex) -> complex:
    """Newton step on u = q/q' from the values of q, q', q'' at a point:
    u / (1 - q q''/q'^2), damped to u/2 when the denominator degenerates."""
    u = f / fp
    denom = 1.0 - f * fpp / (fp * fp)
    return u / denom if abs(denom) > 1e-3 else 0.5 * u


def _refine_newton(
    q: Quasipolynomial,
    qp: Quasipolynomial,
    qpp: Quasipolynomial | None,
    z0: complex,
    home: Rectangle,
) -> tuple[complex, bool]:
    """Polish a root starting from z0 by Newton iteration on q/q'.

    q/q' has a simple zero at any root of q regardless of multiplicity, so
    the iteration z <- z - (q/q') / (1 - q q''/q'^2) is quadratic there;
    a damped plain Newton step stands in when the denominator degenerates.
    Without q'' (qpp None) the steps are plain Newton steps q/q', for a
    zero known to be simple.
    An iterate that leaves home ends the iteration unconverged.  One that
    stalls returns its best iterate, converged only if that point's residual
    passes _RESIDUAL_REL.  Either way the caller splits the box.
    """
    z = best = complex(z0)
    best_res = math.inf
    stale = 0
    for _ in range(100):
        f = q(z)
        rel = abs(f) / max(q.magnitude_scale(z), 1e-300)
        if rel < best_res:
            best, best_res = z, rel
            stale = 0
        else:
            stale += 1
        if rel < 1e-16:
            return z, True
        fp = qp(z)
        if fp == 0:
            z = z + 1e-9 * (1.0 + abs(z))
            continue
        step = f / fp if qpp is None else _newton_u_step(f, fp, qpp(z))
        z = z - step
        if not home.contains(z):
            return z, False
        if abs(step) <= 5e-16 * (1.0 + abs(z)):
            return z, True
        if stale > 12:
            break
    return best, best_res <= _RESIDUAL_REL


def _stable_count_around(q: Quasipolynomial, z: complex, h: float) -> int:
    """Multiplicity of the root at z by counting on shrinking squares.

    Accepts once two consecutive shrink levels agree on a positive count.
    Shrinking stops at the first square whose contour cannot be trusted (it
    grazes a root or falls into cancellation territory, where phases carry
    no information), keeping the last count (0 if no square was counted); a
    count that disagrees with the box's makes the caller split.
    """
    prev = 0
    for _ in range(9):
        try:
            count = _winding(q, Rectangle(z.real - h, z.real + h, z.imag - h, z.imag + h))
        except _UntrustedContour:
            break
        if count == prev and count > 0:
            return count
        prev = count
        h /= 5.0
        if h < 1e3 * float_info.epsilon * (1.0 + abs(z)):
            break
    return prev


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.58, 0.42, 0.64, 0.36, 0.31, 0.69, 0.72, 0.28)


def _ranked_splits(q: Quasipolynomial, lo: float, hi: float, fixed_lo: float, fixed_hi: float,
                   vertical: bool) -> list[float]:
    """Candidate split coordinates in (lo, hi), best boundary clearance first.

    Clearance is the minimal |q|/scale along the would-be grid line; the
    actual arbiter is the subsequent child count, which rejects lines that
    still graze a root.
    """
    import numpy as np

    t = np.linspace(fixed_lo, fixed_hi, 65)
    x = lo + np.array(_SPLIT_FRACTIONS)[:, None] * (hi - lo)
    z = (x + 1j * t) if vertical else (t + 1j * x)
    clear = (np.abs(q.eval_array(z)) / np.maximum(q.magnitude_scale_array(z), 1e-300)).min(axis=1)
    return x[np.argsort(-clear, kind="stable"), 0].tolist()


def _split_and_count(
    q: Quasipolynomial, box: Rectangle, m: int
) -> list[tuple[Rectangle, int]]:
    """Quadrisect box along root-free grid lines; children tile box exactly
    and their counts add up to m.  Candidate lines are tried in clearance
    order until the four child counts succeed and are additive."""
    xs = _ranked_splits(q, box.re_min, box.re_max, box.im_min, box.im_max, vertical=True)
    ys = _ranked_splits(q, box.im_min, box.im_max, box.re_min, box.re_max, vertical=False)
    for xm, ym in zip(xs, ys):
        children = [
            Rectangle(box.re_min, xm, box.im_min, ym),
            Rectangle(xm, box.re_max, box.im_min, ym),
            Rectangle(box.re_min, xm, ym, box.im_max),
            Rectangle(xm, box.re_max, ym, box.im_max),
        ]
        try:
            counts = [_winding(q, c) for c in children]
        except _UntrustedContour:
            continue
        if sum(counts) == m:
            return list(zip(children, counts))
    raise LocalizationError(f"could not quadrisect {box} along root-free lines")


def find_roots(q: Quasipolynomial, rect: Rectangle) -> list[Root]:
    """All roots of q in rect with multiplicities, by recursive quadrisection.

    Boxes are split until they carry a single root location; a box whose
    contour count matches the stabilized shrinking-square count at its
    Newton-refined point is accepted without further splitting, so multiple
    roots do not force subdivision down to the diameter floor.  Splitting is
    the one recovery: a Newton start that stalls or leaves its box, or a
    square count that disagrees with the box's, splits the box.  The returned
    multiplicities always sum to the total contour count of rect.
    """
    if q.is_zero:
        raise ValueError("cannot locate roots of the zero quasipolynomial")

    region, total = _inflated_count(q, rect)
    if total == 0:
        return []

    qp = q.derivative()
    qpp = qp.derivative()
    derivs = [q, qp, qpp]
    roots: list[Root] = []
    stack: list[tuple[Rectangle, int]] = [(region, total)]
    floor = 1e3 * float_info.epsilon

    def finish(z: complex, mult: int) -> Root:
        if mult > 1:
            # a root of multiplicity m is a simple zero of q^(m-1), where the
            # iteration is free of the eps^(1/m) accuracy ceiling of q itself;
            # its result is kept if it stays near z and does not raise |q^(m-1)|;
            # the zero is simple there, so the steps are plain Newton steps (a
            # q/q' step can jump from a cancellation plateau out of the square)
            while len(derivs) < mult + 1:
                derivs.append(derivs[-1].derivative())
            f = derivs[mult - 1]
            h = 0.1 * (1.0 + abs(z))
            square = Rectangle(z.real - h, z.real + h, z.imag - h, z.imag + h)
            zp, _ = _refine_newton(f, derivs[mult], None, z, square)
            if square.contains(zp) and abs(f(zp)) <= abs(f(z)):
                z = zp
        return Root(z, mult, abs(q(z)))

    while stack:
        box, m = stack.pop()
        z0, converged = _refine_newton(q, qp, qpp, box.center, box)
        # strict containment: boxes tile the search region with root-free
        # boundaries, so each box's roots lie strictly inside it and a
        # refined point outside means Newton escaped to a neighbor's root
        if converged and box.contains(z0, slack=1e-12 * (1.0 + box.diameter)):
            h0 = max(0.45 * min(box.width, box.height), 64.0 * floor * (1.0 + abs(z0)))
            if _stable_count_around(q, z0, h0) == m:
                roots.append(finish(z0, m))
                continue
        if box.diameter < max(_DIAMETER_FLOOR, floor * (1.0 + abs(box.center))):
            # diameter floor: keep the best available point for the whole count
            if not converged:
                raise LocalizationError(f"Newton refinement failed in the terminal box {box}")
            roots.append(finish(z0, m))
            continue
        stack.extend((c, k) for c, k in _split_and_count(q, box, m) if k > 0)

    roots = _symmetrize_conjugates(roots)
    if (located := sum(r.multiplicity for r in roots)) != total:
        raise LocalizationError(f"the roots located in {region} have total multiplicity "
                                f"{located}, its contour count is {total}")
    return sorted(roots, key=lambda r: (-r.location.real, r.location.imag))


def _symmetrize_conjugates(roots: list[Root]) -> list[Root]:
    """Snap near-real roots onto the axis and average conjugate pairs.

    Real-coefficient quasipolynomials have conjugate-symmetric spectra; the
    refined locations are made to honor that exactly.
    """
    out: list[Root] = []
    unpaired = list(roots)
    while unpaired:
        r = unpaired.pop(0)
        z = r.location
        if abs(z.imag) <= 1e-10 * (1.0 + abs(z)):
            out.append(Root(complex(z.real, 0.0), r.multiplicity, r.residual))
            continue
        j = next((j for j, w in enumerate(unpaired)
                  if abs(w.location - z.conjugate()) <= 1e-7 * (1.0 + abs(z))), None)
        if j is None:
            out.append(r)
            continue
        partner = unpaired.pop(j)
        mean = 0.5 * (z + partner.location.conjugate())
        out.append(Root(mean, r.multiplicity, r.residual))
        out.append(Root(mean.conjugate(), partner.multiplicity, partner.residual))
    return out


# --- disc certificate of the exact design -------------------------------------


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
    only keep the search finite.
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
        raise LocalizationError(f"F_{n} disc certificate: the disc at {c:.9g} of radius {r:.3g} "
                                f"fails after {_DISC_DEPTH} halvings")

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
        raise LocalizationError(f"F_{n} disc certificate: the winding number {winding:.9f} around the "
                                f"box [{re_min:.9g}, {top:.9g}] x [-{top:.9g}, {top:.9g}] is no integer")
    return DiscCertificate(n, re_min, top, top, nodes, tuple(discs), round(winding))


def certify_dominance(sys: RetardedSystem, s0: float) -> DiscCertificate | None:
    """The certificate that s0 is the strictly dominant root of the system,
    or None where the paper's theorem does not give one.

    The one judge of whether (sys, s0) is the exact MID design.  By the
    paper's theorem s0 is a root of multiplicity 2n exactly when the delay-1
    form normalized at s0 is the MID design, and such a root is strictly
    dominant; no root is searched for.  The system is the design where the
    trace identity |s0 + a[n-1]/n + n/tau| <= 1e-12 max(1, |s0|) holds and
    the normalized form is within MID_MATCH_TOL of mid_normalized(n).  It
    then gets the exact design's mid_disc_certificate(n): q(z) = n!/(2n)!
    z^(2n) F_n(z), so z = 0 is a root of multiplicity 2n, and the
    certificate finds no zero of F_n with Re z >= re_min, so every other
    root has Re s <= s0 + re_min/tau.  A certificate that counts zeros of
    F_n there raises LocalizationError.  Any other (sys, s0) gets None: s0 is no root
    of multiplicity 2n, and the theorem says nothing about its dominance.
    """
    s0 = float(s0)
    nsys = normalize(sys, s0)
    if not (abs(trace_residual(sys, s0)) <= 1e-12 * max(1.0, abs(s0))
            and mid_deviation(nsys) < MID_MATCH_TOL):
        return None
    cert = mid_disc_certificate(nsys.n)
    if cert.winding != 0:
        raise LocalizationError(f"F_{nsys.n} disc certificate: {cert.winding} zeros of F_{nsys.n} in the box "
                                f"[{cert.re_min:.9g}, {cert.re_max:.9g}] x [-{cert.im_max:.9g}, "
                                f"{cert.im_max:.9g}]")
    return cert
