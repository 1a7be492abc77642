"""Argument-principle root localization and dominance certification.

Root counts inside rectangles come from the winding number of the
quasipolynomial around the boundary, evaluated by adaptive phase
continuation: boundary samples are refined until consecutive phase
increments are small, so the summed increments telescope to the exact
continuous argument change.  Rectangles are quadrisected until each leaf
carries a single root location, which is then polished by a Newton
iteration on q/q' (quadratic also at multiple roots) and assigned its
multiplicity by re-counting on shrinking squares around it.

Dominance of the MID design itself is not searched for: it is the disc
certificate of quasipoly.mid_disc_certificate.  numpy is imported inside the
functions that use arrays, so certifying a design runs on the standard
library alone.
"""

from __future__ import annotations

import json
import math
from sys import float_info
from typing import TYPE_CHECKING, Iterable

from .quasipoly import (
    MID_MATCH_TOL,
    LocalizationError,
    NormalizedSystem,
    Quasipolynomial,
    RetardedSystem,
    _Record,
    _modulus_growth_radius,
    companion,
    mid_deviation,
    mid_disc_certificate,
    mid_normalized,
    normalize,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CompanionPair",
    "Rectangle",
    "Root",
    "SpectrumReport",
    "LocalizationError",
    "companion_pair",
    "standard_pair",
    "count_roots",
    "find_roots",
    "spectral_abscissa",
    "certify_dominance",
    "roots_to_csv",
]


class _BoundaryProximity(Exception):
    """Internal: a contour sample sits too close to a root."""


# relative |q| floor below which a boundary sample counts as "on a root"
_BOUNDARY_FLOOR = 1e-12
# phase increment threshold for contour refinement (radians)
_PHASE_STEP = 0.8
# |q| acceptance threshold for refined roots, relative to the local scale
_RESIDUAL_REL = 1e-8
# box diameter below which quadrisection stops
_DIAMETER_FLOOR = 1e-9


class CompanionPair(_Record):
    """Matrices A0 (companion form) and A1 (delayed last row) with
    det(zI - A0 - A1 e^(-z)) equal to the delay-1 quasipolynomial."""

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

    def char_value(self, z: complex) -> complex:
        """det(zI - A0 - A1 e^(-z))."""
        import numpy as np

        z = complex(z)
        M = z * np.eye(self.n) - self.A0 - self.A1 * np.exp(-z)
        return complex(np.linalg.det(M))


def companion_pair(nsys: NormalizedSystem) -> CompanionPair:
    """Companion pair of a delay-1 system (see quasipoly.companion)."""
    return CompanionPair(*companion(nsys.b, nsys.beta))


def standard_pair() -> CompanionPair:
    """Companion pair of the normalized quartic design (n = 2, shift 0, delay 1)."""
    return companion_pair(mid_normalized(2))


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
        return {
            "re_min": self.re_min,
            "re_max": self.re_max,
            "im_min": self.im_min,
            "im_max": self.im_max,
        }


class Root(_Record):
    location: complex
    multiplicity: int
    residual: float

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


class SpectrumReport(_Record):
    """Located roots and the dominance verdict.  gap and discs are set when
    the verdict is the disc certificate of the exact MID design: every root
    other than the dominant one has Re s <= spectral_abscissa - gap, and
    discs counts the certificate's discs."""

    roots: tuple[Root, ...]
    region: Rectangle
    spectral_abscissa: float
    dominant: Root | None
    strictly_dominant: bool
    gap: float | None = None
    discs: int = 0

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
            "spectral_abscissa": self.spectral_abscissa,
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
    counterclockwise; raises if it fails to come out close to an integer.

    The boundary is walked as one closed polyline through the corners.
    Samples are refined until (i) every observed phase increment is below
    _PHASE_STEP and (ii) the local phase-speed budget |dz| |q'/q| is small.
    The second criterion matters: |d arg q / dz| <= |q'/q|, so it rules out
    aliasing by full turns near high-multiplicity roots that the
    principal-branch increments alone cannot see.
    """
    import numpy as np

    delays_max = max((abs(lam) for lam, _ in q.terms), default=0.0)
    qp = q.derivative()

    def probe(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = q.eval_array(z)
        av = np.abs(v)
        if np.any(av <= _BOUNDARY_FLOOR * q.magnitude_scale_array(z)):
            raise _BoundaryProximity
        return v / av, np.abs(qp.eval_array(z)) / av

    corners = rect.corners()
    edges = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        budget = delays_max * abs((b - a).imag) + math.pi * max(q.degree, 1)
        edges.append(a + np.linspace(0.0, 1.0, 17 + int(budget / 1.2))[:-1] * (b - a))
    z = np.concatenate(edges)
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
    else:
        raise LocalizationError("contour refinement did not converge (root on boundary?)")
    w = float(dphi.sum()) / (2.0 * math.pi)
    if abs(w - round(w)) > 0.1:
        raise LocalizationError(f"winding number {w:.4f} is not close to an integer")
    return int(round(w))


def _inflated_count(q: Quasipolynomial, rect: Rectangle) -> tuple[Rectangle, int]:
    """Winding count of q around rect, inflated outward while a root sits
    (numerically) on the boundary; returns the rectangle counted and its count.

    The inflation starts at 1e-6 and grows tenfold per retry, at most 5
    times, because around a root of multiplicity m the evaluation-cancellation
    floor is only cleared at distance ~(1e-12)^(1/m), far beyond 1e-6 for m >= 2.
    A rect on which q overflows is rejected with ValueError.
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
        except _BoundaryProximity:
            delta += 1e-6 * 10.0**k
    raise LocalizationError("root remains on the boundary after 5 inflation retries")


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
    qpp: Quasipolynomial,
    z0: complex,
    home: Rectangle,
) -> tuple[complex, bool]:
    """Polish a root starting from z0 by Newton iteration on q/q'.

    q/q' has a simple zero at any root of q regardless of multiplicity, so
    the iteration z <- z - (q/q') / (1 - q q''/q'^2) is quadratic there;
    a damped plain Newton step stands in when the denominator degenerates.
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
        step = _newton_u_step(f, fp, qpp(z))
        z = z - step
        if not home.contains(z):
            return z, False
        if abs(step) <= 5e-16 * (1.0 + abs(z)):
            return z, True
        if stale > 12:
            break
    return best, best_res <= _RESIDUAL_REL


def _polish_multiple(derivs: list[Quasipolynomial], z: complex, mult: int, radius: float) -> complex:
    """Final polish of a root of known multiplicity.

    A root of multiplicity m is a simple zero of the (m-1)-th derivative,
    where plain Newton is quadratic and free of the epsilon^(1/m) accuracy
    ceiling that limits refinement through q itself.
    """
    while len(derivs) < mult + 1:
        derivs.append(derivs[-1].derivative())
    f, fp = derivs[mult - 1], derivs[mult]
    zk = complex(z)
    for _ in range(60):
        v = f(zk)
        d = fp(zk)
        if d == 0:
            break
        step = v / d
        zk = zk - step
        if abs(zk - z) > radius:
            return z
        if abs(step) <= 5e-16 * (1.0 + abs(zk)):
            break
    return zk if abs(f(zk)) <= abs(f(z)) else z


def _stable_count_around(q: Quasipolynomial, z: complex, h0: float) -> int:
    """Multiplicity of the root at z by counting on shrinking squares.

    Accepts once two consecutive shrink levels agree on a positive count.
    Shrinking stops at the first square that grazes a root or falls into
    cancellation territory (where phases carry no information), keeping the
    last count; a count that disagrees with the box's makes the caller split.
    """
    h = h0
    prev = -1
    for _ in range(9):
        try:
            count = _winding(q, Rectangle(z.real - h, z.real + h, z.imag - h, z.imag + h))
        except _BoundaryProximity:
            break
        if count == prev and count > 0:
            return count
        prev = count
        h /= 5.0
        if h < 1e3 * float_info.epsilon * (1.0 + abs(z)):
            break
    if prev > 0:
        return prev
    raise LocalizationError(f"could not stabilize a multiplicity count around {z}")


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
        except (_BoundaryProximity, LocalizationError):
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
            z = _polish_multiple(derivs, z, mult, radius=0.1 * (1.0 + abs(z)))
        return Root(z, mult, abs(q(z)))

    while stack:
        box, m = stack.pop()
        if m == 0:
            continue
        z0, converged = _refine_newton(q, qp, qpp, box.center, box)
        # strict containment: boxes tile the search region with root-free
        # boundaries, so each box's roots lie strictly inside it and a
        # refined point outside means Newton escaped to a neighbor's root
        if converged and box.contains(z0, slack=1e-12 * (1.0 + box.diameter)):
            h0 = max(0.45 * min(box.width, box.height), 64.0 * floor * (1.0 + abs(z0)))
            try:
                mult = _stable_count_around(q, z0, h0)
            except LocalizationError:
                mult = -1
            if mult == m:
                roots.append(finish(z0, m))
                continue
        if box.diameter < max(_DIAMETER_FLOOR, floor * (1.0 + abs(box.center))):
            # diameter floor: keep the best available point for the whole count
            if not converged:
                raise LocalizationError(
                    f"Newton refinement failed in a terminal box at {box.center}"
                )
            roots.append(finish(z0, m))
            continue
        stack.extend((c, k) for c, k in _split_and_count(q, box, m) if k > 0)

    roots = _symmetrize_conjugates(roots)
    if sum(r.multiplicity for r in roots) != total:
        raise LocalizationError("assembled multiplicities do not match the total count")
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


def spectral_abscissa(q: Quasipolynomial, region: Rectangle) -> float:
    """Largest real part among the roots of q inside region."""
    roots = find_roots(q, region)
    if not roots:
        raise LocalizationError("no roots in region")
    return max(r.location.real for r in roots)


def _dominance_box(nsys: NormalizedSystem) -> Rectangle:
    """The normalized box that holds every root with Re z >= 0: a Cauchy-type
    modulus cut confines such roots to |z| <= R, where R is the largest root
    of r^n = sum (|b_k| + |beta_k|) r^k, hence to Re z <= R and |Im z| <= R."""
    radius = _modulus_growth_radius(
        nsys.n, [abs(b) + abs(be) for b, be in zip(nsys.b, nsys.beta)]
    )
    B = radius + 0.1
    return Rectangle(-0.25, max(radius, 1.0) + 0.1, -B, B)


def certify_dominance(sys: RetardedSystem, s0: float) -> SpectrumReport:
    """Certify that s0 is the strictly dominant root of the system.

    Works on the delay-1 normalized form at s0, where roots s with
    Re s >= s0 map to Re z >= 0.  A system whose normalized coefficients are
    the MID design's to within MID_MATCH_TOL gets the verdict of the exact
    design: q(z) = n!/(2n)! z^(2n) F_n(z), so z = 0 is a root of
    multiplicity 2n, and when the disc certificate finds no zero of F_n with
    Re z >= -1, every other root has Re s <= s0 - 1/tau (the reported gap).
    Any other system has every root in _dominance_box located: strict
    dominance holds iff the only root with Re z >= 0 is z = 0 with the full
    multiplicity 2n.
    """
    s0 = float(s0)
    tau = sys.tau
    nsys = normalize(sys, s0)
    q_orig = sys.quasipolynomial()

    def denormalized(rect: Rectangle) -> Rectangle:
        return Rectangle(s0 + rect.re_min / tau, s0 + rect.re_max / tau,
                         rect.im_min / tau, rect.im_max / tau)

    try:
        if mid_deviation(nsys) < MID_MATCH_TOL:
            cert = mid_disc_certificate(nsys.n)
            if cert.winding == 0:  # else the zeros in the box are located below
                root = Root(complex(s0), 2 * sys.n, abs(q_orig(s0)))
                box = Rectangle(cert.re_min, cert.re_max, -cert.im_max, cert.im_max)
                return SpectrumReport((root,), denormalized(box), s0, root, True,
                                      gap=-cert.re_min / tau, discs=len(cert.discs))
        region_n = _dominance_box(nsys)
        roots_n = find_roots(nsys.quasipolynomial(), region_n)
    except LocalizationError as exc:
        raise LocalizationError(f"dominance certification inconclusive: {exc}") from exc

    roots = [
        Root(s0 + r.location / tau, r.multiplicity, abs(q_orig(s0 + r.location / tau)))
        for r in roots_n
    ]
    report = SpectrumReport.from_roots(roots, denormalized(region_n))

    zero_tol = 1e-6
    right = [r for r in roots_n if r.location.real >= -zero_tol]
    strictly = (
        report.dominant is not None
        and len(right) == 1
        and abs(right[0].location) <= zero_tol
        and right[0].multiplicity == 2 * sys.n
    )
    return report.replace(strictly_dominant=strictly)
