"""Independent brute-force oracles: for the contour machinery, and for the
method-of-steps integrator.

Root locations come from a dense modulus scan (grid points where |q| falls
below the term-magnitude scale) polished by a plain Newton iteration on q/q';
a modulus scan can pin a root of multiplicity m only to within the
cancellation plateau (~1e-16)^(1/m), so each polished cluster is resolved by
trying candidate multiplicities: refine on the (m-1)-th derivative, then
confirm with the derivative-based multiplicity test.  None of this shares
code with the argument-principle path it validates.

The integrator oracles are a stagewise RK4 loop (four stages per step, each
a pair of matvecs) and a delay-equation residual from finite differences.
"""

import math

import numpy as np

from midspec.quasipoly import companion, multiplicity_at


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


# --- method-of-steps integration ---------------------------------------------------


def _cubic_midpoints(grid):
    """Values halfway between consecutive grid rows: 4-point cubic
    interpolation, one-sided at the ends, linear for windows under 3 steps."""
    m = grid.shape[0] - 1
    if m < 3:
        return 0.5 * (grid[:-1] + grid[1:])
    mid = np.empty((m,) + grid.shape[1:])
    mid[1:-1] = (-grid[:-3] + 9.0 * grid[1:-2] + 9.0 * grid[2:-1] - grid[3:]) / 16.0
    mid[0] = (5.0 * grid[0] + 15.0 * grid[1] - 5.0 * grid[2] + grid[3]) / 16.0
    mid[-1] = (grid[-4] - 5.0 * grid[-3] + 15.0 * grid[-2] + 5.0 * grid[-1]) / 16.0
    return mid


def rk4_stagewise(sys, history, t_end, step):
    """(times, states) of classic RK4 by the method of steps, stage by stage.

    Same grid, delayed data and stage scheme as midspec.sim.simulate, with
    every stage evaluated as A0 @ x + A1 @ x(t - tau) in its own arithmetic.
    """
    tau, n = sys.tau, sys.n
    m = int(math.ceil(tau / step - 1e-12))
    h = tau / m
    A0, A1 = companion(sys.a, sys.alpha)
    windows = int(math.ceil(t_end / tau - 1e-12))

    nodes = history.state_values(np.linspace(-tau, 0.0, m + 1), n)
    mids = history.state_values(np.linspace(-tau + h / 2.0, -h / 2.0, m), n)
    times, states = [np.array([0.0])], [nodes[-1:].copy()]
    x = nodes[-1].copy()
    t0 = 0.0
    for k in range(windows):
        if k > 0:
            mids = _cubic_midpoints(nodes)
        cur = np.empty((m + 1, n))
        cur[0] = x
        for i in range(m):
            k1 = A0 @ x + A1 @ nodes[i]
            k2 = A0 @ (x + 0.5 * h * k1) + A1 @ mids[i]
            k3 = A0 @ (x + 0.5 * h * k2) + A1 @ mids[i]
            k4 = A0 @ (x + h * k3) + A1 @ nodes[i + 1]
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
