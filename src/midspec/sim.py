"""Method-of-steps simulation of single-delay retarded equations.

The scalar equation is rewritten as the first-order system
x'(t) = A0 x(t) + A1 x(t - tau) on the state x = (y, y', ..., y^(n-1)) and
integrated window by window over [k tau, (k+1) tau] with classic 4-stage
Runge-Kutta.  Within a window the delayed state is known data: exact values
from the history on the first window, stored grid values afterwards, with
midpoint stage values reconstructed by 4-point cubic interpolation.  Window
boundaries coincide with grid nodes, so the derivative jumps that the method
of steps propagates never fall inside an integration step.
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
        n = self.order
        header = "t," + ",".join(["y"] + [f"y{k}" for k in range(1, n)])
        lines = [header]
        for t, row in zip(self.times, self.states):
            lines.append(",".join(f"{v:.12g}" for v in (t, *row)))
        return "\n".join(lines) + "\n"

    def plot_csv(self) -> str:
        """Two-column t,y export for solution plots."""
        lines = ["t,y"]
        for t, yv in zip(self.times, self.y):
            lines.append(f"{t:.12g},{yv:.12g}")
        return "\n".join(lines) + "\n"


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
    A0, A1 = companion(sys.a, sys.alpha)
    windows = int(math.ceil(t_end / tau - 1e-12))

    # first window reads the history exactly, at nodes and stage midpoints
    hist_nodes = history.state_values(np.linspace(-tau, 0.0, m + 1), n)
    hist_mids = history.state_values(np.linspace(-tau + h / 2.0, -h / 2.0, m), n)

    times = [np.array([0.0])]
    states = [hist_nodes[-1:].copy()]
    prev_nodes = hist_nodes
    delayed_nodes, delayed_mids = hist_nodes, hist_mids

    t0 = 0.0
    x = hist_nodes[-1].copy()
    for k in range(windows):
        if k > 0:
            delayed_nodes = prev_nodes
            delayed_mids = _midpoints(prev_nodes)
        cur = np.empty((m + 1, n))
        cur[0] = x
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(m):
                xd0 = delayed_nodes[i]
                xdm = delayed_mids[i]
                xd1 = delayed_nodes[i + 1]
                k1 = A0 @ x + A1 @ xd0
                k2 = A0 @ (x + 0.5 * h * k1) + A1 @ xdm
                k3 = A0 @ (x + 0.5 * h * k2) + A1 @ xdm
                k4 = A0 @ (x + h * k3) + A1 @ xd1
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                cur[i + 1] = x
        if not np.all(np.isfinite(cur)):
            raise SimulationError(f"state became non-finite in window {k}")
        times.append(t0 + h * np.arange(1, m + 1))
        states.append(cur[1:])
        prev_nodes = cur
        t0 += tau

    t_all = np.concatenate(times)
    x_all = np.concatenate(states)
    keep = t_all <= t_end + 1e-9 * max(1.0, t_end)
    return Trajectory(t_all[keep], x_all[keep], h, tau)


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
