"""Output oracles for the benchmark's CLI invocations.

Every oracle reads only the files and stdout an invocation produced and
judges them against mathematics that does not go through `midspec`: mpmath
derivatives of the characteristic function, the delay equation itself, and
the published bound tables.  Each returns None when the output is right and a
one-line reason otherwise.  They run outside the timed interval.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np

# Paper Tables 1-3 for the standard normalized quartic design, keyed by the
# (method, norm, power) columns of bounds.csv; values within 1e-3.
TABLE_VALUES = {
    ("rho", "none", 1): 5.9763,
    ("norm-power", "one", 1): 10.4520,
    ("norm-power", "frobenius", 1): 10.6304,
    ("norm-power", "infinity", 1): 11.4720,
    ("norm-power", "one", 2): 6.4630,
    ("norm-power", "frobenius", 2): 6.0803,
    ("norm-power", "infinity", 2): 7.8163,
    ("mori-kokame", "one", 1): 12.0,
    ("mori-kokame", "two", 1): 9.8246,
    ("mori-kokame", "infinity", 1): 14.0,
    ("tissir-hmamed", "one", 1): 12.0,
    ("tissir-hmamed", "two", 1): 7.6623,
    ("tissir-hmamed", "infinity", 1): 14.0,
}
# Constants of the analytic Frobenius power-2 chain (Lemma 3); within 1e-4.
LEMMA3_VALUES = {
    ("lemma3-coarse", "frobenius", 2): (64190.0 / 31.0) ** 0.25,
    ("lemma3-refined", "frobenius", 2): 1532.94**0.25,
    ("lemma3-certified", "frobenius", 2): 2.0 * math.pi,
}

# A derivative "vanishes" when it is this small against the sum of the
# magnitudes of the terms that make it up; the first non-vanishing one must
# stand clear of the rounding of double-precision coefficients.
_VANISH_REL = 1e-9
_NONZERO_REL = 1e-6
# Largest admissible residual of the delay equation on the exported grid,
# relative to the magnitude of its terms.
_DDE_REL = 1e-5
# Tolerance of acceptance criterion 12 on a measured decay rate.
DECAY_TOL = 0.05


def _derivative_ratios(doc: dict, s0: float) -> list[float]:
    """|Delta^(j)(s0)| / (term scale) for j = 0..2n, in 50-digit arithmetic.

    Delta(s) = P(s) + e^(-tau s) A(s) with P = s^n + sum a_k s^k and
    A = sum alpha_k s^k, so Delta^(j) = P^(j) + e^(-tau s) sum_i C(j,i)
    (-tau)^(j-i) A^(i).  The scale sums the magnitudes of those pieces with
    |s| floored at 1, so that a root near 0 is judged against the size of
    the coefficients rather than against vanishing powers of s0.
    """
    n = doc["n"]
    with mpmath.workdps(50):
        s = mpmath.mpf(s0)
        tau = mpmath.mpf(doc["tau"])
        r = max(mpmath.mpf(1), abs(s))
        poly = [mpmath.mpf(c) for c in doc["a"]] + [mpmath.mpf(1)]
        delayed = [mpmath.mpf(c) for c in doc["alpha"]]
        e = mpmath.exp(-tau * s)
        ratios = []
        for j in range(2 * n + 1):
            value = mpmath.mpf(0)
            scale = mpmath.mpf(0)
            for k in range(j, len(poly)):
                f = poly[k] * mpmath.ff(k, j)
                value += f * s ** (k - j)
                scale += abs(f) * r ** (k - j)
            for i in range(j + 1):
                w = mpmath.binomial(j, i) * (-tau) ** (j - i)
                for k in range(i, len(delayed)):
                    f = w * delayed[k] * mpmath.ff(k, i) * e
                    value += f * s ** (k - i)
                    scale += abs(f) * r ** (k - i)
            ratios.append(float(abs(value) / scale))
    return ratios


def check_design(out: Path, n: int, s0: float, tau: float) -> str | None:
    """system.json places s0 as a root of multiplicity exactly 2n."""
    try:
        doc = json.loads((out / "system.json").read_text())
    except (OSError, ValueError) as exc:
        return f"system.json unreadable: {exc}"
    if doc.get("n") != n or doc.get("tau") != tau:
        return f"system.json has n={doc.get('n')}, tau={doc.get('tau')}"
    if len(doc.get("a", ())) != n or len(doc.get("alpha", ())) != n:
        return "system.json coefficient lists do not have n entries"
    ratios = _derivative_ratios(doc, s0)
    worst = max(ratios[: 2 * n])
    if worst > _VANISH_REL:
        return f"a derivative of order < 2n is {worst:.2e} of its term scale"
    if ratios[2 * n] < _NONZERO_REL:
        return f"the derivative of order 2n is only {ratios[2 * n]:.2e} of its term scale"
    return None


def check_spectrum(out: Path, n: int, s0: float) -> str | None:
    """roots.csv leads with s0 of multiplicity 2n, every other root lies
    strictly left of it, and spectrum.json reports strict dominance."""
    try:
        with open(out / "roots.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = json.loads((out / "spectrum.json").read_text())
    except (OSError, ValueError) as exc:
        return f"spectrum output unreadable: {exc}"
    if not rows:
        return "roots.csv has no roots"
    top = rows[0]
    re, im, mult = float(top["re"]), float(top["im"]), int(top["multiplicity"])
    if abs(re - s0) > 1e-6 * max(1.0, abs(s0)) or abs(im) > 1e-6 or mult != 2 * n:
        return f"top root {re}{im:+}i x{mult}, want {s0} x{2 * n}"
    rival = max((float(r["re"]) for r in rows[1:]), default=-math.inf)
    if rival >= s0:
        return f"another root has real part {rival} >= s0"
    if report.get("strictly_dominant") is not True:
        return "spectrum.json does not report strict dominance"
    return None


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _dde_residual(doc: dict, t: np.ndarray, x: np.ndarray) -> float:
    """Largest relative residual of the delay equation on the grid.

    x holds y, y', ..., y^(n-1) per row; y^(n) comes from central differences
    of the last column.  Rows are checked from the second delay window on, so
    the delayed state is read from the grid itself (tau is a whole number of
    steps), and away from the window ends where the derivative has kinks.
    """
    n = doc["n"]
    tau = doc["tau"]
    h = t[1] - t[0]
    m = int(round(tau / h))
    if abs(m * h - tau) > 1e-9 * tau or x.shape[0] < 2 * m + 2:
        return math.inf
    i = np.arange(m + 1, x.shape[0] - 1)
    i = i[(i % m > 1) & (i % m < m - 1)]
    top = (x[i + 1, n - 1] - x[i - 1, n - 1]) / (2.0 * h)
    terms = [top]
    terms += [doc["a"][k] * x[i, k] for k in range(n)]
    terms += [doc["alpha"][k] * x[i - m, k] for k in range(n)]
    terms = np.array(terms)
    residual = np.abs(terms.sum(axis=0))
    scale = np.abs(terms).sum(axis=0)
    return float((residual / np.maximum(scale, 1e-300)).max())


def envelope_rate(t: np.ndarray, y: np.ndarray, tau: float, t_start: float) -> float:
    """Exponential rate of |y| on [t_start, end]: least squares of
    log(max |y| per whole delay window) on (1, t, log t)."""
    env_t, env_v = [], []
    w = math.ceil(t_start / tau - 1e-9)
    while (w + 1) * tau <= t[-1] + 1e-9:
        sel = (t >= w * tau - 1e-9) & (t <= (w + 1) * tau + 1e-9)
        j = int(np.argmax(np.abs(y[sel])))
        env_t.append(t[sel][j])
        env_v.append(abs(y[sel][j]))
        w += 1
    env_t, env_v = np.array(env_t), np.array(env_v)
    cols = [np.ones_like(env_t), env_t]
    if env_t.size >= 3:  # the log t regressor needs a third point
        cols.append(np.log(env_t))
    X = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(X, np.log(env_v), rcond=None)
    return float(coef[1])


def check_simulate(
    out: Path, stdout: str, system: Path, histories: tuple[str, ...], t_end: float
) -> tuple[str | None, list[float]]:
    """Every trajectory solves the delay equation, reaches t_end on the
    grid, and its reported decay rate agrees with an envelope fit of the
    exported solution.

    Returns the verdict and each history's reported rate, so the caller can
    report how far the rates are from s0 (see DECAY_TOL).
    """
    try:
        doc = json.loads(system.read_text())
    except (OSError, ValueError) as exc:
        return f"system file unreadable: {exc}", []
    reported = {}
    for line in stdout.splitlines():
        if line.startswith("history ") and " = " in line:
            name = line.split()[1].rstrip(":")
            try:
                reported[name] = float(line.rsplit(" = ", 1)[1])
            except ValueError:
                return f"history {name}: no decay rate ({line.strip()})", []
    rates = []
    for name in histories:
        if name not in reported:
            return f"history {name}: decay rate not reported", []
        try:
            sol_head, sol = _read_table(out / f"sol_{name}.csv")
            traj_head, traj = _read_table(out / f"traj_{name}.csv")
        except (OSError, ValueError) as exc:
            return f"history {name}: output unreadable: {exc}", []
        if sol_head != ["t", "y"] or len(traj_head) != doc["n"] + 1:
            return f"history {name}: unexpected CSV header", []
        t = traj[:, 0]
        if abs(t[-1] - t_end) > 1e-9 * t_end or not np.array_equal(sol[:, 0], t):
            return f"history {name}: grid ends at {t[-1]}, want {t_end}", []
        if not np.all(np.isfinite(traj)):
            return f"history {name}: non-finite state", []
        worst = _dde_residual(doc, t, traj[:, 1:])
        if not worst <= _DDE_REL:
            return f"history {name}: delay-equation residual {worst:.2e}", []
        fit = envelope_rate(t, sol[:, 1], doc["tau"], 10.0)
        if abs(fit - reported[name]) > 1e-3:
            return f"history {name}: reported rate {reported[name]} but envelope fit {fit:.6f}", []
        rates.append(reported[name])
    return None, rates


def check_bounds(out: Path) -> str | None:
    """bounds.csv reproduces Tables 1-3 within 1e-3 and the Lemma 3
    constants within 1e-4."""
    try:
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return f"bounds.csv unreadable: {exc}"
    got = {(r["method"], r["norm"], int(r["power"])): float(r["value"]) for r in rows}
    for want, tol in ((TABLE_VALUES, 1e-3), (LEMMA3_VALUES, 1e-4)):
        for key, value in want.items():
            if key not in got:
                return f"bounds.csv lacks row {key}"
            if abs(got[key] - value) >= tol:
                return f"{key}: {got[key]} differs from {value:.4f}"
    return None


def check_verify(stdout: str) -> str | None:
    """Exit 0 is checked by the caller; here every check line says PASS and
    multiplicity and dominance are among them."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines or lines[-1] != "verdict: all checks passed":
        return f"verdict line is {lines[-1] if lines else 'missing'!r}"
    checks = lines[:-1]
    failed = [ln for ln in checks if not ln.startswith("PASS ")]
    if failed:
        return f"check failed: {failed[0]}"
    names = {ln.split()[1].rstrip(":") for ln in checks}
    if not {"multiplicity", "dominance"} <= names:
        return f"checks {sorted(names)} lack multiplicity or dominance"
    return None
