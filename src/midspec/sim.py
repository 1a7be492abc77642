"""Method-of-steps simulation of single-delay retarded equations.

The scalar equation is rewritten as the first-order system
x'(t) = A0 x(t) + A1 x(t - tau) on the state x = (y, y', ..., y^(n-1)) and
integrated window by window over [k tau, (k+1) tau] with classic 4-stage
Runge-Kutta.  Within a window the delayed state is known data: exact values
from the history on the first window, stored grid values afterwards, with
midpoint stage values reconstructed by 4-point cubic interpolation.  Window
boundaries coincide with grid nodes, so the derivative jumps that the method
of steps propagates never fall inside an integration step.

For constant coefficients one RK4 step is an affine map, built once per call:
x <- x + (D x + Q0 d0 + Qm dm + Q1 d1), with d0, dm, d1 the delayed state at
the step start, midpoint and end.  Each window's delayed forcing is one array
expression and the step loop is one matvec.  The increment stays apart from x:
folding I + D into one matrix would round away the low bits of every O(h)
increment, which the 2n-fold root then amplifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quasipoly import RetardedSystem, companion

__all__ = [
    "HistoryKind",
    "HistoryFunction",
    "Trajectory",
    "SimulationError",
    "constant",
    "linear",
    "quadratic",
    "sinusoid",
    "sampled",
    "builtin_history",
    "BUILTIN_HISTORY_NAMES",
    "simulate",
    "decay_rate",
]


class SimulationError(RuntimeError):
    pass


class HistoryKind(str, Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    SINUSOID = "sinusoid"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class HistoryFunction:
    """Initial function on [-tau, 0] with analytically known derivatives.

    parameters by kind:
      CONSTANT   (value,)
      LINEAR     (slope, intercept)
      QUADRATIC  (c2, c1, c0) for c2 t^2 + c1 t + c0
      SINUSOID   (amplitude, omega, phase) for A sin(omega t + phase)
      SAMPLED    () with times/values arrays; a cubic spline supplies values
                 and derivatives
    """

    kind: HistoryKind
    parameters: tuple[float, ...] = ()
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == HistoryKind.SAMPLED:
            from scipy.interpolate import CubicSpline  # heavy import, sampled histories only

            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 4:
                raise ValueError("sampled history needs matching 1-d arrays, >= 4 points")
            if not np.all(np.diff(t) > 0):
                raise ValueError("sampled history times must be strictly increasing")
            t.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "_spline", CubicSpline(t, v))

    def derivative_values(self, t, order: int):
        """order-th derivative of the history at times t (array-valued)."""
        t = np.asarray(t, dtype=float)
        p = self.parameters
        if self.kind == HistoryKind.CONSTANT:
            return np.full_like(t, p[0]) if order == 0 else np.zeros_like(t)
        if self.kind == HistoryKind.LINEAR:
            if order == 0:
                return p[0] * t + p[1]
            return np.full_like(t, p[0]) if order == 1 else np.zeros_like(t)
        if self.kind == HistoryKind.QUADRATIC:
            c2, c1, c0 = p
            if order == 0:
                return c2 * t * t + c1 * t + c0
            if order == 1:
                return 2.0 * c2 * t + c1
            return np.full_like(t, 2.0 * c2) if order == 2 else np.zeros_like(t)
        if self.kind == HistoryKind.SINUSOID:
            amp, om, ph = p
            return amp * om**order * np.sin(om * t + ph + order * math.pi / 2.0)
        spline = getattr(self, "_spline")
        return spline(t, nu=order) if order <= 3 else np.zeros_like(t)

    def state_values(self, t, n: int) -> np.ndarray:
        """Stacked (len(t), n) array of (y, y', ..., y^(n-1)) at times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([self.derivative_values(t, k) for k in range(n)], axis=-1)

    def covers(self, tau: float) -> bool:
        if self.kind != HistoryKind.SAMPLED:
            return True
        return self.times[0] <= -tau + 1e-12 and self.times[-1] >= -1e-12

    def scaled(self, factor: float) -> "HistoryFunction":
        factor = float(factor)
        if self.kind == HistoryKind.SAMPLED:
            return HistoryFunction(self.kind, (), self.times, factor * self.values)
        if self.kind == HistoryKind.SINUSOID:
            amp, om, ph = self.parameters
            return HistoryFunction(self.kind, (factor * amp, om, ph))
        return HistoryFunction(self.kind, tuple(factor * x for x in self.parameters))


def constant(value: float) -> HistoryFunction:
    return HistoryFunction(HistoryKind.CONSTANT, (float(value),))


def linear(slope: float, intercept: float = 0.0) -> HistoryFunction:
    return HistoryFunction(HistoryKind.LINEAR, (float(slope), float(intercept)))


def quadratic(c2: float, c1: float = 0.0, c0: float = 0.0) -> HistoryFunction:
    return HistoryFunction(HistoryKind.QUADRATIC, (float(c2), float(c1), float(c0)))


def sinusoid(amplitude: float, omega: float, phase: float = 0.0) -> HistoryFunction:
    return HistoryFunction(HistoryKind.SINUSOID, (float(amplitude), float(omega), float(phase)))


def sampled(times, values) -> HistoryFunction:
    return HistoryFunction(HistoryKind.SAMPLED, (), np.asarray(times), np.asarray(values))


_OMEGA_DEMO = 2.0 * math.pi

#: The four bundled demonstration initial conditions: a unit constant, the
#: ramp -t, the parabola -t^2/4, and a small sinusoid -sin(2 pi t)/(6 (2 pi)^2).
_BUILTINS = {
    "y01": lambda: constant(1.0),
    "y02": lambda: linear(-1.0),
    "y03": lambda: quadratic(-0.25),
    "y04": lambda: sinusoid(-1.0 / (6.0 * _OMEGA_DEMO**2), _OMEGA_DEMO),
}

BUILTIN_HISTORY_NAMES = tuple(_BUILTINS)


def builtin_history(name: str) -> HistoryFunction:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin history {name!r}") from None


@dataclass(frozen=True)
class Trajectory:
    """Simulation output: uniform time grid and the state (y and its n-1
    derivatives) at each node."""

    times: np.ndarray
    states: np.ndarray
    step: float
    tau: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if x.ndim != 2 or t.ndim != 1 or x.shape[0] != t.shape[0]:
            raise ValueError("times and states must be matching arrays")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def order(self) -> int:
        return self.states.shape[1]

    def to_csv(self) -> str:
        header = ["t", "y"] + [f"y{k}" for k in range(1, self.order)]
        return _table_csv(header, self.times, self.states)

    def plot_csv(self) -> str:
        """Two-column t,y export for solution plots."""
        return _table_csv(["t", "y"], self.times, self.y)


#: Rows formatted per block; bounds the transient Python floats of a table.
_CSV_BLOCK_ROWS = 4096


def _table_csv(header: list[str], times: np.ndarray, cols: np.ndarray) -> str:
    """CSV text of times and cols (one column or a 2-d array), every value as %.12g."""
    table = np.column_stack([times, cols])
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[lo : lo + _CSV_BLOCK_ROWS]
        parts.append((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _midpoints(grid: np.ndarray) -> np.ndarray:
    """Values halfway between consecutive rows of a uniform grid, by 4-point
    cubic interpolation (one-sided stencils at the ends)."""
    m = grid.shape[0] - 1
    mid = np.empty((m,) + grid.shape[1:])
    if m >= 3:
        mid[1:-1] = (-grid[:-3] + 9.0 * grid[1:-2] + 9.0 * grid[2:-1] - grid[3:]) / 16.0
        mid[0] = (5.0 * grid[0] + 15.0 * grid[1] - 5.0 * grid[2] + grid[3]) / 16.0
        mid[-1] = (grid[-4] - 5.0 * grid[-3] + 15.0 * grid[-2] + 5.0 * grid[-1]) / 16.0
    else:  # degenerate short windows: linear fallback
        mid[:] = 0.5 * (grid[:-1] + grid[1:])
    return mid


def _rk4_increment(A0: np.ndarray, A1: np.ndarray, h: float) -> list[np.ndarray]:
    """Matrices [D, Q0, Qm, Q1] of one classic RK4 step of x' = A0 x + A1 d(t).

    With d0, dm, d1 the delayed state at the step start, midpoint and end, the
    step is exactly x <- x + (D x + Q0 d0 + Qm dm + Q1 d1); the four stages
    are run once on the block identities of (x, d0, dm, d1).
    """
    n = A0.shape[0]
    x, d0, dm, d1 = (np.eye(n, 4 * n, k=j * n) for j in range(4))
    k1 = A0 @ x + A1 @ d0
    k2 = A0 @ (x + 0.5 * h * k1) + A1 @ dm
    k3 = A0 @ (x + 0.5 * h * k2) + A1 @ dm
    k4 = A0 @ (x + h * k3) + A1 @ d1
    return np.hsplit((h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 4)


def simulate(
    sys: RetardedSystem,
    history: HistoryFunction,
    t_end: float,
    step: float | None = None,
) -> Trajectory:
    """Integrate the system from the given history up to t_end.

    The step is adjusted downward so that it divides tau exactly; the default
    is tau/500.  Raises SimulationError if the state stops being finite.
    """
    tau = sys.tau
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if step is None:
        step = tau / 500.0
    if not step > 0:
        raise ValueError("step must be positive")
    if not history.covers(tau):
        raise ValueError("sampled history grid does not cover [-tau, 0]")
    m = int(math.ceil(tau / step - 1e-12))
    h = tau / m
    if h < 1e-9:
        raise ValueError("adjusted step fell below 1e-9")

    n = sys.n
    D, Q0, Qm, Q1 = _rk4_increment(*companion(sys.a, sys.alpha), h)
    windows = int(math.ceil(t_end / tau - 1e-12))

    # first window reads the history exactly, at nodes and stage midpoints
    delayed = history.state_values(np.linspace(-tau, 0.0, m + 1), n)
    delayed_mids = history.state_values(np.linspace(-tau + h / 2.0, -h / 2.0, m), n)

    states = np.empty((windows * m + 1, n))
    states[0] = x = delayed[-1]
    for k in range(windows):
        if k > 0:
            delayed = states[(k - 1) * m : k * m + 1]
            delayed_mids = _midpoints(delayed)
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = delayed[:-1] @ Q0.T + delayed_mids @ Qm.T + delayed[1:] @ Q1.T
            for row, f in enumerate(forcing, k * m + 1):
                x = x + (D @ x + f)
                states[row] = x
        if not np.all(np.isfinite(states[k * m : (k + 1) * m + 1])):
            raise SimulationError(f"state became non-finite in window {k}")

    starts = np.cumsum(np.concatenate(([0.0], np.full(windows - 1, tau))))
    times = np.concatenate(([0.0], (starts[:, None] + h * np.arange(1, m + 1)).ravel()))
    keep = times <= t_end + 1e-9 * max(1.0, t_end)
    return Trajectory(times[keep], states[keep], h, tau)


def decay_rate(traj: Trajectory, t_start: float) -> float:
    """Exponential rate of the trajectory tail from its per-delay-interval
    envelope.

    The envelope points (argmax time, max |y|) of every delay interval inside
    [t_start, end] are fitted by least squares with log v = c + m t + j log t;
    the log-time regressor absorbs the polynomial-in-t factor that a root of
    multiplicity > 1 contributes, so m estimates the root's real part rather
    than an average contaminated by the algebraic growth.  Pure exponentials
    are fitted exactly (j = 0).
    """
    tau = traj.tau
    t_last = traj.times[-1]
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
    env_t = np.array(env_t)
    env_v = np.array(env_v)
    if env_v.size == 0 or np.all(env_v == 0.0):
        raise ValueError("trajectory is identically zero beyond t_start")
    pos = env_v > 0.0
    env_t, env_v = env_t[pos], env_v[pos]
    if env_t.size < 2:
        raise ValueError("not enough nonzero envelope points to fit a rate")
    logv = np.log(env_v)
    cols = [np.ones_like(env_t), env_t]
    if env_t.size >= 3 and np.all(env_t > 0.0):
        cols.append(np.log(env_t))
    X = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(X, logv, rcond=None)
    return float(coef[1])
