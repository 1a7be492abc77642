"""Independent oracles: reference formulas for the MID design, brute-force
checks for the contour machinery, and for the method-of-steps integrator.

The design oracles are the direct double-sum assignment in exact rational
arithmetic, the closed-form order-2 assignment, and the right side of the
design's integral factorization through mpmath's confluent hypergeometric
function.

Root locations come from a dense modulus scan (grid points where |q| falls
below the term-magnitude scale) polished by a plain Newton iteration on q/q';
a modulus scan can pin a root of multiplicity m only to within the
cancellation plateau (~1e-16)^(1/m), so each polished cluster is resolved by
trying candidate multiplicities: refine on the (m-1)-th derivative, then
confirm with the derivative-based multiplicity test.  Independently of
both, a Chebyshev collocation of the delay equation's infinitesimal generator
gives the characteristic roots as matrix eigenvalues.  None of this shares
code with the argument-principle path it validates.  A companion pair's
characteristic function is a dense determinant.

The integrator oracles are a stagewise RK4 loop (four stages per step, each
a pair of matvecs; in float, or in np.longdouble as an extended-precision
reference) and a delay-equation residual from finite differences; the
decay-rate envelope is taken again with a full-length mask per delay window.

The Tissir-Hmamed oracle takes the theta maximum of the refined two-norm
bound by a scan of theta polished by golden-section search, on the
eigenvalues of Hermitian parts rather than through midspec's log_norm.

The feasibility-sweep oracles evaluate H on the whole phi grid, without the
conjugate symmetry, and bracket the active crossing by the last downward
crossing of W(phi) = phi + 2 pi k* over [0, 2 pi]; run the sigma sweep
with every reachable crossing polished, not only those that could raise the
running maximum, and with a 100-row tail cut in place of the sweep's stop;
and run it with a crude sound stop that rests on no maximum principle.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from midspec.bounds import (
    _BISECTION_STEPS,
    _COARSE_GRID,
    _COARSE_SIGMA_STEP,
    _FINE_GRID,
    _FINE_SIGMA_STEP,
    _MAX_STACK,
    Norm,
    _omega_sup,
    _power_coefficients,
    _stacked_h,
    matrix_norm,
)
from midspec.quasipoly import RetardedSystem, companion, multiplicity_at


# --- the MID design ---------------------------------------------------------------


def mid_double_sum(n, s0, tau):
    """Coefficients making s0 a root of maximal multiplicity 2n, for k = 0..n-1:

        a_k = C(n,k) (-s0)^(n-k)
              + (-1)^(n-k) n! sum_{j=k}^{n-1} C(j,k) C(2n-j-1,n-1) s0^(j-k) / (j! tau^(n-j))
        alpha_k = (-1)^(n-1) e^(s0 tau)
              sum_{j=k}^{n-1} (-1)^(j-k) (2n-j-1)! / (k! (j-k)! (n-j-1)!) s0^(j-k) / tau^(n-j)

    The combinatorial factors are exact rationals, converted to float only
    when multiplied by the s0/tau powers.
    """
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


def mid_order2(s0, tau):
    """Closed-form n = 2 assignment:

    a_1 = -4/tau - 2 s0,  a_0 = 6/tau^2 + 4 s0/tau + s0^2,
    alpha_1 = -(2/tau) e^(s0 tau),  alpha_0 = (2/tau) e^(s0 tau) (s0 - 3/tau).
    """
    e = math.exp(s0 * tau)
    a1 = -4.0 / tau - 2.0 * s0
    a0 = 6.0 / tau**2 + 4.0 * s0 / tau + s0**2
    al1 = -2.0 / tau * e
    al0 = 2.0 / tau * e * (s0 - 3.0 / tau)
    return RetardedSystem(2, (a0, a1), (al0, al1), tau)


def factorization_rhs(n, z):
    """z^(2n)/(n-1)! int_0^1 t^(n-1) (1-t)^n e^(-z t) dt, which the normalized
    order-n design equals at every z; the integral is B(n, n+1) 1F1(n; 2n+1; -z),
    evaluated by mpmath at 40 digits."""
    with mpmath.workdps(40):
        w = mpmath.mpc(z)
        return complex(
            w ** (2 * n) / mpmath.factorial(n - 1)
            * mpmath.beta(n, n + 1) * mpmath.hyp1f1(n, 2 * n + 1, -w)
        )


def single_delay_derivative(undelayed, delayed, delay, k, s):
    """d^k/ds^k [P(s) + e^(-delay s) Q(s)] at s, for coefficient lists P and Q
    (entry j multiplying s^j), by mpmath at 50 digits through the Leibniz rule
    d^k [e^(-delay s) Q] = e^(-delay s) sum_j C(k, j) (-delay)^(k-j) Q^(j).

    Returns the value and the sum of the moduli of the monomials it adds up,
    the scale that rounding in the float coefficients of a k-th derivative
    is relative to."""

    def poly_derivative(coeffs, j, w):
        # sum_i i (i-1) ... (i-j+1) c_i w^(i-j), every factor exact
        return mpmath.fsum(
            mpmath.ff(i, j) * mpmath.mpf(c) * w ** (i - j)
            for i, c in enumerate(coeffs) if i >= j
        )

    def leibniz(coeffs, lam, w):
        return mpmath.fsum(
            math.comb(k, j) * lam ** (k - j) * poly_derivative(coeffs, j, w)
            for j in range(k + 1)
        )

    with mpmath.workdps(50):
        w, lam = mpmath.mpc(s), mpmath.mpf(delay)
        shift = mpmath.exp(-lam * w)
        value = poly_derivative(undelayed, k, w) + shift * leibniz(delayed, -lam, w)
        r = abs(w)
        scale = (poly_derivative([abs(c) for c in undelayed], k, r)
                 + abs(shift) * leibniz([abs(c) for c in delayed], lam, r))
        return complex(value), float(scale)


# --- root localization ------------------------------------------------------------


def newton_on_ratio(q, qp, qpp, z0, steps=80, leash=2.0):
    """Newton iteration on q/q' (simple zero at any root of q)."""
    z = complex(z0)
    for _ in range(steps):
        f = q(z)
        fp = qp(z)
        if fp == 0:
            break
        u = f / fp
        d = 1.0 - f * qpp(z) / (fp * fp)
        step = u / d if abs(d) > 1e-3 else u
        z = z - step
        if abs(z - z0) > leash * (1.0 + abs(z0)):
            return complex(np.inf)
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def _plain_newton(f, fp, z0, steps=60, leash=1.0):
    z = complex(z0)
    for _ in range(steps):
        d = fp(z)
        if d == 0:
            break
        step = f(z) / d
        z = z - step
        if abs(z - z0) > leash:
            return complex(np.inf)
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def resolve_root(q, z0, wander=0.3):
    """(location, multiplicity) of the root of q near z0, or None.

    Tries multiplicities from the degree down: a root of multiplicity m is a
    simple zero of the (m-1)-th derivative, so refining there and confirming
    with multiplicity_at pins both the location and the order.
    """
    derivs = [q]
    for _ in range(max(q.degree, 1)):
        derivs.append(derivs[-1].derivative())
    leash = wander * (1.0 + abs(z0))
    for m in range(q.degree, 0, -1):
        z = _plain_newton(derivs[m - 1], derivs[m], z0, leash=leash)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            continue
        if multiplicity_at(q, z) == m:
            return z, m
    return None


def scan_roots(q, rect, grid=0.01, rel_cut=1e-2, cluster=0.05):
    """Distinct (location, multiplicity) pairs of the roots of q in rect."""
    qp = q.derivative()
    qpp = qp.derivative()
    xs = np.arange(rect.re_min, rect.re_max + grid / 2.0, grid)
    ys = np.arange(rect.im_min, rect.im_max + grid / 2.0, grid)

    seeds = {}
    block = max(1, int(4.0e5 / max(ys.size, 1)))
    for lo in range(0, xs.size, block):
        X = xs[lo : lo + block]
        Z = X[None, :] + 1j * ys[:, None]
        rel = np.abs(q.eval_array(Z)) / np.maximum(q.magnitude_scale_array(Z), 1e-300)
        hits = Z[rel < rel_cut]
        for z in hits:
            key = (round(z.real / cluster), round(z.imag / cluster))
            seeds.setdefault(key, complex(z))

    polished = []
    for z0 in seeds.values():
        z = newton_on_ratio(q, qp, qpp, z0)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            continue
        if abs(q(z)) <= 1e-10 * q.magnitude_scale(z):
            polished.append(z)

    # merge the cancellation-plateau cloud around each root
    reps = []
    for z in sorted(polished, key=lambda w: (w.real, w.imag)):
        if all(abs(z - r) > cluster for r in reps):
            reps.append(z)

    roots = {}
    for z0 in reps:
        resolved = resolve_root(q, z0)
        if resolved is None:
            continue
        z, m = resolved
        if not (rect.re_min < z.real < rect.re_max and rect.im_min < z.imag < rect.im_max):
            continue
        roots[(round(z.real, 6), round(z.imag, 6))] = (z, m)
    return list(roots.values())


def scan_count(q, rect, grid=0.01):
    """Brute-force root count with multiplicity inside rect."""
    return sum(m for _, m in scan_roots(q, rect, grid=grid))


def char_value(pair, z):
    """det(zI - A0 - A1 e^(-z)), the delay-1 characteristic function of a
    companion pair."""
    z = complex(z)
    M = z * np.eye(pair.n) - pair.A0 - pair.A1 * np.exp(-z)
    return complex(np.linalg.det(M))


def chebyshev_eigenvalues(sys, N):
    """Eigenvalues of the Chebyshev collocation of the delay equation's
    infinitesimal generator on [-tau, 0] (Breda, Maset and Vermiglio, SIAM J.
    Sci. Comput. 27, 2005), with N + 1 Chebyshev extremal nodes.

    The state is x' = A0 x + A1 x(t - tau) with (A0, A1) the companion pair of
    (a, alpha).  The generator differentiates on the nodes theta_j =
    tau (cos(j pi / N) - 1) / 2 and its domain condition phi'(0) = A0 phi(0) +
    A1 phi(-tau) replaces the theta = 0 block row.  The rightmost eigenvalues
    converge spectrally in N to characteristic roots; a root of multiplicity
    m is resolved only to about eps^(1/m), so this oracle suits systems
    without clustered roots.
    """
    n = sys.n
    pair = companion(sys.a, sys.alpha)
    A0, A1 = pair.A0, pair.A1
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[[0, N]] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    G = np.kron(D * (2.0 / sys.tau), np.eye(n))
    G[:n, :] = 0.0
    G[:n, :n] = A0
    G[:n, -n:] = A1
    return np.linalg.eigvals(G)


# --- method-of-steps integration ---------------------------------------------------


def _cubic_midpoints(grid):
    """Values halfway between consecutive grid rows: 4-point cubic
    interpolation, one-sided at the ends, linear for windows under 3 steps."""
    m = grid.shape[0] - 1
    if m < 3:
        return 0.5 * (grid[:-1] + grid[1:])
    mid = np.empty_like(grid[:-1])
    mid[1:-1] = (-grid[:-3] + 9.0 * grid[1:-2] + 9.0 * grid[2:-1] - grid[3:]) / 16.0
    mid[0] = (5.0 * grid[0] + 15.0 * grid[1] - 5.0 * grid[2] + grid[3]) / 16.0
    mid[-1] = (grid[-4] - 5.0 * grid[-3] + 15.0 * grid[-2] + 5.0 * grid[-1]) / 16.0
    return mid


def rk4_stagewise(sys, history, t_end, step, dtype=float):
    """(times, states) of classic RK4 by the method of steps, stage by stage.

    Same grid, delayed data and stage scheme as midspec.sim.simulate, with
    every stage evaluated as A0 @ x + A1 @ x(t - tau) in its own arithmetic.
    The stages run in dtype (np.longdouble for an extended-precision
    reference) on the float coefficients, step and history values; the times
    stay float.
    """
    tau, n = sys.tau, sys.n
    m = int(math.ceil(tau / step - 1e-12))
    h = tau / m
    hs = dtype(h)
    pair = companion(sys.a, sys.alpha)
    A0, A1 = pair.A0.astype(dtype), pair.A1.astype(dtype)
    windows = int(math.ceil(t_end / tau - 1e-12))

    nodes = history.state_values(np.linspace(-tau, 0.0, m + 1), n).astype(dtype)
    mids = history.state_values(np.linspace(-tau + h / 2.0, -h / 2.0, m), n).astype(dtype)
    times, states = [np.array([0.0])], [nodes[-1:].copy()]
    x = nodes[-1].copy()
    t0 = 0.0
    for k in range(windows):
        if k > 0:
            mids = _cubic_midpoints(nodes)
        cur = np.empty((m + 1, n), dtype)
        cur[0] = x
        for i in range(m):
            k1 = A0 @ x + A1 @ nodes[i]
            k2 = A0 @ (x + 0.5 * hs * k1) + A1 @ mids[i]
            k3 = A0 @ (x + 0.5 * hs * k2) + A1 @ mids[i]
            k4 = A0 @ (x + hs * k3) + A1 @ nodes[i + 1]
            x = x + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            cur[i + 1] = x
        times.append(t0 + h * np.arange(1, m + 1))
        states.append(cur[1:])
        nodes = cur
        t0 += tau
    t_all, x_all = np.concatenate(times), np.concatenate(states)
    keep = t_all <= t_end + 1e-9 * max(1.0, t_end)
    return t_all[keep], x_all[keep]


def delay_residual(sys, times, states):
    """Largest relative residual of y^(n) + a.x(t) + alpha.x(t - tau) = 0.

    y^(n) is the central difference of the last state column; rows run from
    the second delay window on (the delayed state is read from the grid, tau
    being a whole number of steps) and skip the two nodes next to every
    window end, where the derivatives have kinks.  Each residual is relative
    to the sum of the magnitudes of the terms it cancels.
    """
    n = sys.n
    h = times[1] - times[0]
    m = int(round(sys.tau / h))
    i = np.arange(m + 1, times.size - 1)
    i = i[(i % m > 1) & (i % m < m - 1)]
    top = (states[i + 1, n - 1] - states[i - 1, n - 1]) / (2.0 * h)
    terms = np.column_stack(
        [top, states[i] * np.asarray(sys.a), states[i - m] * np.asarray(sys.alpha)]
    )
    scale = np.maximum(np.abs(terms).sum(axis=1), 1e-300)
    return float(np.max(np.abs(terms.sum(axis=1)) / scale))


def delay_envelope_masked(traj, t_start):
    """(argmax time, max |y|) of every delay interval inside [t_start, end],
    each interval's nodes selected by two full-length comparisons."""
    tau, t_last = traj.tau, traj.times[-1]
    env_t, env_v = [], []
    k = max(0, int(math.floor(t_start / tau - 1e-9)))
    while (k + 1) * tau <= t_last + 1e-9:
        lo, hi = k * tau, (k + 1) * tau
        k += 1
        if lo < t_start - 1e-9:
            continue
        mask = (traj.times >= lo - 1e-12) & (traj.times <= hi + 1e-12)
        if not mask.any():
            continue
        seg = np.abs(traj.y[mask])
        i = int(np.argmax(seg))
        env_t.append(float(traj.times[mask][i]))
        env_v.append(float(seg[i]))
    return np.array(env_t), np.array(env_v)


# --- the Tissir-Hmamed refinement ---------------------------------------------------


def _hermitian_top(M):
    """Largest eigenvalue of the Hermitian part of each matrix of a stack."""
    return np.linalg.eigvalsh((M + np.swapaxes(M.conj(), -1, -2)) / 2.0)[..., -1]


def tissir_hmamed_two_norm(A0, A1, grid=720, tol=1e-8):
    """mu_2(-i A0) + max_theta mu_2(A1 e^(i theta)), each mu_2 the largest
    eigenvalue of a Hermitian part.  The theta maximum, the numerical radius
    of A1, is scanned on a grid of theta and its best cell polished by
    golden-section search to tol."""
    A1 = np.asarray(A1, dtype=complex)

    def top(theta):
        return _hermitian_top(A1 * np.exp(1j * np.asarray(theta))[..., None, None])

    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    values = top(thetas)
    i = int(np.argmax(values))
    lo, hi = thetas[i] - thetas[1], thetas[i] + thetas[1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = top(x1), top(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = top(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = top(x1)
    radius = max(float(f1), float(f2), float(values[i]))
    return float(_hermitian_top(-1j * np.asarray(A0, dtype=complex))) + radius


# --- feasibility sweeps -------------------------------------------------------------


def omega_sup_full_grid(coeffs, norm, sigmas, grid):
    """(sup, envelope) of |Im z| on each line Re z = sigma, as midspec.bounds
    computes them, with H evaluated at every one of the grid phis; a phi
    where H < |sigma| is feasible for no omega of its class."""
    two_pi = 2.0 * math.pi
    phis = np.linspace(0.0, two_pi, grid, endpoint=False)
    phis_ext = np.append(phis, two_pi)
    rot = np.exp(-1j * phis)
    m = sigmas.size
    sup = np.full(m, -math.inf)
    env = np.full(m, -math.inf)
    offset = np.zeros(m)
    lo = np.zeros(m)
    hi = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    rows = max(1, _MAX_STACK // grid)
    for start in range(0, m, rows):
        blk = slice(start, start + rows)
        s = sigmas[blk, None]
        c = np.exp(-s) * rot
        H = _stacked_h(coeffs, c.ravel(), norm).reshape(c.shape)
        W2 = H * H - s * s
        W = np.sqrt(np.maximum(W2, 0.0))
        W[W2 < 0.0] = -math.inf
        kmax = np.floor((W - phis) / two_pi)
        omega = np.where(W >= phis, phis + two_pi * kmax, -math.inf)
        r = np.arange(W.shape[0])
        i = omega.argmax(axis=1)
        feasible = omega[r, i] > -math.inf
        k2pi = two_pi * np.where(feasible, kmax[r, i], 0.0)  # kmax is -inf on an empty row
        g = np.concatenate((W, W[:, :1]), axis=1) - (phis_ext + k2pi[:, None])
        cross = (g[:, :-1] >= 0.0) & (g[:, 1:] < 0.0)
        j = grid - 1 - cross[:, ::-1].argmax(axis=1)
        sup[blk] = omega[r, i]
        env[blk] = W.max(axis=1)
        offset[blk] = k2pi
        lo[blk] = phis_ext[j]
        hi[blk] = phis_ext[j + 1]
        active[blk] = feasible & cross.any(axis=1)

    idx = np.flatnonzero(active)
    for start in range(0, idx.size, _MAX_STACK):
        sel = idx[start:start + _MAX_STACK]
        s, k2pi, a, b = sigmas[sel], offset[sel], lo[sel], hi[sel]
        scale = np.exp(-s)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (a + b)
            h = _stacked_h(coeffs, scale * np.exp(-1j * (mid % two_pi)), norm)
            up = np.sqrt(np.maximum(h * h - s * s, 0.0)) - (mid + k2pi) >= 0.0
            a = np.where(up, mid, a)
            b = np.where(up, b, mid)
        sup[sel] = np.maximum(sup[sel], a + k2pi)
    return sup, env


#: The every-polish reference's stopping rule, independent of the sweep's
#: proven stop: its scan ends once the envelope _omega_sup reports has
#: stayed below the running maximum for this many rows.
_TAIL_CUT_STEPS = 100


def _cap_norms(A0, A1, norm):
    """||A0|| and ||A1|| in a norm that bounds H: the sweep's own, or the
    Frobenius norm for the two-norm and rho."""
    capnorm = Norm.FROBENIUS if (norm == "rho" or norm == Norm.TWO) else norm
    return matrix_norm(A0, capnorm), matrix_norm(A1, capnorm)


def _fine_rescan(coeffs, norm, sigma_min, best, best_sigma):
    """The sweep's result from its coarse maximum: the unfloored rescan on
    the fine grid around best_sigma."""
    if best == -math.inf:
        return 0.0
    lo = max(sigma_min, best_sigma - _COARSE_SIGMA_STEP)
    hi = best_sigma + _COARSE_SIGMA_STEP
    fine = np.arange(lo, hi + _FINE_SIGMA_STEP / 2, _FINE_SIGMA_STEP)
    sups, _, _ = _omega_sup(coeffs, norm, fine, _FINE_GRID)
    return float(max(best, sups.max()))


def feasibility_sup_every_polish(A0, A1, norm, power, sigma_min):
    """sup |Im z| over the feasible set in {Re z >= sigma_min}, as
    midspec.bounds computes it, with the crossing of every reachable sigma
    bisected (no floor passed to _omega_sup), and the tail cut of
    _TAIL_CUT_STEPS rows, capped at the sigma past which no point is
    feasible, in place of the sweep's proven stop.  _omega_sup reports tile
    bounds for the envelope, so the cut fires later than on exact
    envelopes; any later row it scans cannot raise the maximum."""
    na0, na1 = _cap_norms(A0, A1, norm)
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
        sups, envs, _ = _omega_sup(coeffs, norm, sigmas, _COARSE_GRID)
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
    return _fine_rescan(coeffs, norm, sigma_min, best, best_sigma)


def feasibility_sup_sound_stop(A0, A1, norm, power, sigma_min):
    """sup |Im z| over the feasible set in {Re z >= sigma_min}, as
    midspec.bounds computes it, with the coarse scan run without a tail cut
    up to the first sigma where ||A0|| + ||A1|| e^(-sigma) <=
    |(max(sigma, 0), max(best, 0))|.  H <= ||M|| <= ||A0|| + ||A1|| e^(-sigma')
    on Re z = sigma' >= sigma (rho <= ||M||_F and ||M||_2 <= ||M||_F), and
    every point there has |z| >= |(max(sigma, 0), |Im z|)|, so no feasible
    point past that sigma has |Im z| > best."""
    na0, na1 = _cap_norms(A0, A1, norm)
    coeffs = _power_coefficients(A0, A1, power)
    best = -math.inf
    best_sigma = sigma_min
    start = 0
    while True:
        sigmas = sigma_min + np.arange(start, start + _TAIL_CUT_STEPS) * _COARSE_SIGMA_STEP
        sups, _, _ = _omega_sup(coeffs, norm, sigmas, _COARSE_GRID)
        for sigma, v in zip(sigmas.tolist(), sups.tolist()):
            if na0 + na1 * math.exp(-sigma) <= math.hypot(max(sigma, 0.0), max(best, 0.0)):
                return _fine_rescan(coeffs, norm, sigma_min, best, best_sigma)
            if v > best:
                best, best_sigma = v, sigma
        start += _TAIL_CUT_STEPS
