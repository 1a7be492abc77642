"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import quad

from midspec.bounds import (
    Norm,
    bound_mori_kokame,
    bound_norm_power,
    bound_spectral_radius_curve,
    bound_tissir_hmamed,
    lemma3_analytic_bound,
)
from midspec.quasipoly import mid_coefficients, multiplicity_at
from midspec.sim import builtin_history, decay_rate, simulate
from midspec.spectral import (
    Rectangle,
    certify_dominance,
    count_roots,
    find_roots,
)

from oracles import factorization_rhs, scan_count


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def tables(std_pair):
    """All table bounds with per-call wall times (criteria 5-7, 13)."""
    out = {}

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out[key] = fn(*args).value
        out[key, "t"] = time.perf_counter() - t0

    timed("rho", bound_spectral_radius_curve, std_pair)
    for norm in (Norm.ONE, Norm.FROBENIUS, Norm.INFINITY):
        timed(("p1", norm.value), bound_norm_power, std_pair, norm, 1)
    for norm in (Norm.ONE, Norm.FROBENIUS, Norm.INFINITY):
        timed(("p2", norm.value), bound_norm_power, std_pair, norm, 2)
    for norm in (Norm.ONE, Norm.TWO, Norm.INFINITY):
        timed(("mk", norm.value), bound_mori_kokame, std_pair, norm)
        timed(("th", norm.value), bound_tissir_hmamed, std_pair, norm)
    return out


def test_criterion_01_mid_synthesis_n2():
    sys_ = mid_coefficients(2, 0.0, 1.0)
    exact = sys_.a == (6.0, -4.0) and sys_.alpha == (-6.0, -2.0)
    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        mid_coefficients(2, 0.0, 1.0)
        best = min(best, time.perf_counter() - t0)
    report(
        1,
        exact and best < 1e-3,
        f"order-2 coefficients (-4, 6, -2, -6) exact, runtime {best * 1e6:.0f} us < 1 ms",
    )


def test_criterion_02_mid_synthesis_n3(example_system):
    a_ok = all(
        abs(x - y) <= 1e-12 * max(1.0, abs(y))
        for x, y in zip(example_system.a, (-1.735, 2.91, -2.1))
    )
    alpha_ok = all(
        abs(x - y) < 5e-7
        for x, y in zip(example_system.alpha, (1.736219, 1.443984, 0.3438058))
    )
    report(2, a_ok and alpha_ok, "order-3 example coefficients match to stated precision")


def test_criterion_03_maximal_multiplicity_grid():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for s0 in (-1.0, 0.0, 0.5):
            for tau in (0.5, 1.0, 2.5):
                q = mid_coefficients(n, s0, tau).quasipolynomial()
                ok = ok and multiplicity_at(q, s0) == 2 * n
    dt = time.perf_counter() - t0
    report(3, ok and dt < 10.0, f"multiplicity exactly 2n over the 54-system grid, {dt:.2f}s < 10s")


def test_criterion_04_trace_identity_grid():
    worst = 0.0
    for n in range(1, 7):
        for s0 in (-1.0, 0.0, 0.5):
            for tau in (0.5, 1.0, 2.5):
                sys_ = mid_coefficients(n, s0, tau)
                worst = max(worst, abs(s0 + sys_.a[-1] / n + n / tau) / max(1.0, abs(s0)))
    report(4, worst < 1e-12, f"s0 + a[n-1]/n + n/tau = 0 to {worst:.2e} relative")


def test_criterion_05_table_one(tables):
    want = {"rho": 5.9763, ("p1", "one"): 10.4520, ("p1", "frobenius"): 10.6304,
            ("p1", "infinity"): 11.4720}
    ok = all(abs(tables[k] - v) < 1e-3 for k, v in want.items())
    dt = tables["rho", "t"] + sum(tables[("p1", n), "t"] for n in ("one", "frobenius", "infinity"))
    report(5, ok and dt < 30.0, f"curve/norm bounds 5.9763, 10.4520, 10.6304, 11.4720; {dt:.1f}s < 30s")


def test_criterion_06_table_two(tables):
    want = {("p2", "one"): 6.4630, ("p2", "frobenius"): 6.0803, ("p2", "infinity"): 7.8163}
    ok = all(abs(tables[k] - v) < 1e-3 for k, v in want.items())
    report(6, ok, "power-2 bounds 6.4630, 6.0803, 7.8163 within 1e-3")


def test_criterion_07_table_three(tables):
    ok = (
        tables["mk", "one"] == 12.0
        and abs(tables["mk", "two"] - 9.8246) < 1e-3
        and tables["mk", "infinity"] == 14.0
        and abs(tables["th", "one"] - 12.0) < 1e-3
        and abs(tables["th", "two"] - 7.6623) < 1e-3
        and abs(tables["th", "infinity"] - 14.0) < 1e-3
    )
    report(7, ok, "logarithmic-norm bounds 12/9.8246/14 and 12/7.6623/14")


def test_criterion_08_analytic_chain(std_pair):
    rep = lemma3_analytic_bound(std_pair)
    ok = (
        abs(rep.coarse - (64190.0 / 31.0) ** 0.25) < 1e-4
        and rep.coarse < 6.75
        and abs(rep.refined - 1532.94**0.25) < 1e-4
        and rep.refined < 2 * math.pi
        and rep.certified == 2 * math.pi
    )
    report(8, ok, f"chain constants {rep.coarse:.4f} < 6.75 and {rep.refined:.4f} < 2pi, bound 2pi")


def test_criterion_09_dominance_certification(example_system):
    t0 = time.perf_counter()
    roots = find_roots(example_system.quasipolynomial(), Rectangle(-5, 1, -30, 30))
    right = [r for r in roots if r.location.real >= -0.5 - 1e-9]
    cert = certify_dominance(example_system, -0.5)
    dt = time.perf_counter() - t0
    ok = (
        len(right) == 1
        and abs(right[0].location + 0.5) < 1e-9
        and right[0].multiplicity == 6
        and cert.strictly_dominant
        and dt < 60.0
    )
    report(9, ok, f"only root right of -0.5 is -0.5 with multiplicity 6, certified; {dt:.1f}s < 60s")


def test_criterion_10_argument_principle_soundness():
    rng = random.Random(23)
    cases = []
    for n in (1, 2, 3):
        s0 = rng.uniform(-0.8, 0.3)
        cases.append((mid_coefficients(n, s0, rng.uniform(0.6, 2.5)), s0))

    def clear_of_root(x, s0):
        # grid lines within the multiple root's cancellation floor would
        # violate the boundary precondition of the contour count
        return abs(x - s0) > 0.05

    checked = 0
    ok = True
    while checked < 20:
        sys_, s0 = cases[checked % 3]
        q = sys_.quasipolynomial()
        cx = rng.uniform(-2.0, 0.6)
        cy = rng.uniform(-3.0, 3.0)
        w, h = rng.uniform(1.2, 2.6), rng.uniform(1.2, 2.6)
        edges_x = (cx - w / 2, cx + w / 2)
        edges_y = (cy - h / 2, cy + h / 2)
        if not all(clear_of_root(x, s0) for x in edges_x):
            continue
        if not all(clear_of_root(y, 0.0) for y in edges_y):
            continue
        rect = Rectangle(edges_x[0], edges_x[1], edges_y[0], edges_y[1])
        xm = cx + rng.uniform(-0.2, 0.2)
        ym = cy + rng.uniform(-0.2, 0.2)
        if not (clear_of_root(xm, s0) and clear_of_root(ym, 0.0)):
            continue
        total = count_roots(q, rect)
        quads = [
            Rectangle(rect.re_min, xm, rect.im_min, ym),
            Rectangle(xm, rect.re_max, rect.im_min, ym),
            Rectangle(rect.re_min, xm, ym, rect.im_max),
            Rectangle(xm, rect.re_max, ym, rect.im_max),
        ]
        ok = ok and total == sum(count_roots(q, r) for r in quads)
        ok = ok and total == scan_count(q, rect)
        checked += 1
    report(10, ok, "counts additive under quadrisection and equal to modulus-scan counts (20 rects)")


def test_criterion_11_factorization_oracle(qhat):
    rng = random.Random(5)
    worst = 0.0
    done = 0
    while done < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2 * math.pi, 2 * math.pi))
        if z == 0:
            continue
        worst = max(worst, abs(qhat(z) - factorization_rhs(2, z)) / qhat.magnitude_scale(z))
        done += 1
    moment, _ = quad(lambda t: t * (1.0 - t) ** 2, 0.0, 1.0, epsabs=1e-14)
    d4 = qhat.derivative(4)(0.0).real
    ok = worst < 1e-10 and abs(moment - 1.0 / 12.0) < 1e-13 and abs(moment - d4 / 24.0) < 1e-13
    report(11, ok, f"residual against mpmath 1F1 < 1e-10 at 50 points (worst {worst:.2e}); "
           "moment identity 1/12")


def test_criterion_12_simulation_decay(example_system):
    rates = {}
    for name in ("y01", "y02", "y03", "y04"):
        traj = simulate(example_system, builtin_history(name), 40.0)
        rates[name] = decay_rate(traj, 10.0)
    rates_ok = all(-0.55 <= r <= -0.45 for r in rates.values())

    ref = simulate(example_system, builtin_history("y01"), 10.0, step=example_system.tau / 4000)
    errs = []
    for m in (125, 250, 500):
        t = simulate(example_system, builtin_history("y01"), 10.0, step=example_system.tau / m)
        errs.append(abs(t.y[-1] - ref.y[-1]))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order_ok = all(o >= 3.5 for o in orders)
    shown = ", ".join(f"{k}={v:+.3f}" for k, v in rates.items())
    report(12, rates_ok and order_ok, f"decay rates {shown} in [-0.55,-0.45]; order {min(orders):.2f} >= 3.5")


def test_criterion_13_bound_soundness(qhat, tables):
    all_bounds = [tables["rho"]] + [
        tables[k]
        for k in tables
        if isinstance(k, tuple) and len(k) == 2 and k[1] in ("one", "two", "frobenius", "infinity")
    ]
    # search the whole closed-right-half-plane root region of the quartic design
    region = Rectangle(-0.05, 14.0, -13.0, 13.0)
    roots = find_roots(qhat, region)
    right = [r for r in roots if r.location.real >= 0.0]
    ok = len(right) == 1 and abs(right[0].location) < 1e-9 and right[0].multiplicity == 4
    for r in right:
        ok = ok and all(abs(r.location.imag) < b for b in all_bounds)
        ok = ok and abs(r.location.imag) < 2 * math.pi
    report(13, ok, "only right-half-plane root is 0 (mult 4); |Im| below every bound and 2pi")
