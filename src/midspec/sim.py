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
x <- x + (D x + f), with f = Q0 d0 + Qm dm + Q1 d1 and d0, dm, d1 the delayed
state at the step start, midpoint and end.  Each window's delayed forcing is
one array expression, and its steps are taken b at a time by the exact
b-step map: with D_i = (I + D)^i - I and g_l = D x_j + f_l,

    x_{j+i} = x_j + (sum_{l<i} g_l + sum_{l<i} D_{i-1-l} g_l),   i = 1..b,

where b = clamp(floor(0.45 / (h rho(A0))), 1, min(m, 64)) for m steps per
window.  Only the block-end states are sequential: per block, one small
matvec forms g, and the sum of g plus the last block row of the Toeplitz
matrix of the D_i applied to g give the end state.  The interior states of
all the window's blocks then come from one batched running sum and one
matrix product.  The increment stays apart from x and is added to it in one
rounding: I + D is never formed (D_i is built as D_{i+1} = D_i + D + D D_i,
and the identity part of (I + D)^k is the running sum), since folding I + D
into one matrix would round away the low bits of every O(h) increment, which
the 2n-fold root then amplifies.  Each g_l is formed first, as in the
one-step map, so the per-step cancellation of D x against f happens before
any D_i multiplies it.

Both CSV tables of a trajectory, t,y for plots and the full state, come from
one formatting pass: each row's "t,y" text is formatted once and serves as
the plot row and as the head of the state row.
"""

from __future__ import annotations

import math
import operator
from enum import Enum

import numpy as np

from .quasipoly import RetardedSystem, _Record, companion

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
    "step_scale",
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


class HistoryFunction(_Record):
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
        if not all(map(math.isfinite, self.parameters)):
            raise ValueError(
                f"{self.kind.value} history needs finite parameters, got {self.parameters}"
            )
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


class Trajectory(_Record):
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
        """The state table t,y,y1,...,y(n-1), every value as %.12g."""
        return self._csv(1)

    def plot_csv(self) -> str:
        """Two-column t,y export for solution plots."""
        return self._csv(0)

    def _csv(self, which: int) -> str:
        # One pass formats both tables (0: plot, 1: state).  The one not asked
        # for is held, outside the frozen fields, until it is asked for once:
        # a caller that takes both tables leaves no text on the trajectory.
        held = self.__dict__.pop("_held_csv", None)
        if held is not None and held[0] == which:
            return held[1]
        tables = _csv_tables(self.times, self.states)
        self.__dict__["_held_csv"] = (1 - which, tables[1 - which])
        return tables[which]


#: Rows formatted per block; bounds the transient Python floats of a table.
_CSV_BLOCK_ROWS = 4096


def _csv_tables(times: np.ndarray, states: np.ndarray) -> tuple[str, str]:
    """(t,y table, state table) as CSV text, every value as %.12g.

    Each row's "t,y" text is formatted once: it is the plot row, and the head
    to which the state row's other columns are appended.  At n = 1 the two
    tables are one string.
    """
    n = states.shape[1]
    plot = ["t,y\n"]
    full = [",".join(["t", "y"] + [f"y{k}" for k in range(1, n)]) + "\n"]
    tail_row = ",%.12g" * (n - 1) + "\n"
    ty = np.empty((_CSV_BLOCK_ROWS, 2))
    for lo in range(0, times.size, _CSV_BLOCK_ROWS):
        x = states[lo : lo + _CSV_BLOCK_ROWS]
        k = x.shape[0]
        ty[:k, 0] = times[lo : lo + k]
        ty[:k, 1] = x[:, 0]
        heads = ("%.12g,%.12g\n" * k) % tuple(ty[:k].ravel().tolist())
        plot.append(heads)
        if n > 1:
            tails = (tail_row * k) % tuple(x[:, 1:].ravel().tolist())
            # each splits into k rows and a final "", so the join ends in "\n"
            full.append("\n".join(map(operator.add, heads.split("\n"), tails.split("\n"))))
    plot_text = "".join(plot)
    del plot  # the peak is then one table's blocks and both texts
    return plot_text, ("".join(full) if n > 1 else plot_text)


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


#: RK4 steps per block: b = clamp(floor(_BLOCK_SPAN / (h rho(A0))), 1,
#: min(m, _MAX_BLOCK)), so that one block spans b h rho(A0) <= 0.45, the
#: envelope over which the b-step map was measured against extended
#: precision.  The default step tau/500 keeps h rho(A0) below 0.03 for the
#: MID designs up to order 8 (a test pins this), so b >= 15 there; at order 3
#: b is 45 to 64.  The cap bounds the Toeplitz matrix, (b n)^2 entries.
_BLOCK_SPAN = 0.45
_MAX_BLOCK = 64


def _block_size(sys: RetardedSystem, h: float, m: int) -> int:
    """Steps per block for m steps of size h per window (see _BLOCK_SPAN)."""
    scale = step_scale(sys, h)
    if scale * _MAX_BLOCK <= _BLOCK_SPAN:
        return min(m, _MAX_BLOCK)
    return max(1, min(m, int(_BLOCK_SPAN / scale)))


def _block_toeplitz(D: np.ndarray, b: int) -> np.ndarray:
    """The (b n, b n) block-lower-triangular Toeplitz matrix with block
    (i, l) = D_{i-l} for l < i (blocks counted from 0, zero elsewhere), where
    D_k = (I + D)^k - I is built as D_{k+1} = D_k + D + D D_k.  Applied to the
    stacked increments g of one block, it gives the sums over D_{i-1-l} g_l
    of the b-step map in the module docstring.  One gather from the stack of
    the D_k places every block.
    """
    n = D.shape[0]
    stack = np.zeros((b, n, n))  # D_0 = 0 fills the diagonal and above
    if b > 1:
        stack[1] = D
    for k in range(2, b):
        stack[k] = stack[k - 1] + D + D @ stack[k - 1]
    lag = np.subtract.outer(np.arange(b), np.arange(b)).clip(min=0)
    return stack[lag].transpose(0, 2, 1, 3).reshape(b * n, b * n)


def _advance_window(x: np.ndarray, forcing: np.ndarray, D: np.ndarray, T: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Take one window's m steps from state x under forcing (m, n), write the
    m new states into out (m, n) and return the last.

    The block-end states are taken in sequence; then the interior states of
    every block follow in one batch.  A short last block is padded with zero
    increments, which the lower-triangular T leaves out of its real rows.
    """
    m, n = forcing.shape
    b = T.shape[0] // n
    blocks = -(-m // b)
    G = np.zeros((blocks * b, n))
    rows = T.reshape(b, n, b * n)
    x0 = x
    for lo in range(0, m, b):
        k = min(b, m - lo)
        g = G[lo : lo + b]
        np.add(forcing[lo : lo + k], D @ x, out=g[:k])
        x = np.add(x, np.add.reduce(g[:k]) + rows[k - 1] @ g.ravel(), out=out[lo + k - 1])
    if b > 1:
        starts = np.concatenate((x0[None], out[b - 1 : m - 1 : b]))
        inner = np.cumsum(G.reshape(blocks, b, n)[:, :-1], axis=1)
        inner += (G.reshape(blocks, b * n) @ T[:-n].T).reshape(blocks, b - 1, n)
        inner += starts[:, None]
        full = m - m % b
        out[:full].reshape(-1, b, n)[:, :-1] = inner[: full // b]
        if full < m:
            out[full : m - 1] = inner[-1, : m - full - 1]
    return x


def simulate(
    sys: RetardedSystem,
    history: HistoryFunction,
    t_end: float,
    step: float | None = None,
) -> Trajectory:
    """Integrate the system from the given history up to t_end.

    The step is adjusted downward so that it divides tau exactly (a step
    above tau becomes tau); the default is tau/500.  Raises SimulationError
    if the state stops being finite.

    Each window takes its m steps in blocks of b (_block_size) through the
    b-step map of the module docstring; with b = 1 it is exactly the one-step
    map x + (D x + f).
    """
    tau = sys.tau
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if step is None:
        step = tau / 500.0
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not history.covers(tau):
        raise ValueError("sampled history grid does not cover [-tau, 0]")
    m = max(1, int(math.ceil(tau / step - 1e-12)))
    h = tau / m
    if h < 1e-9:
        raise ValueError("adjusted step fell below 1e-9")

    n = sys.n
    D, Q0, Qm, Q1 = _rk4_increment(*companion(sys.a, sys.alpha), h)
    T = _block_toeplitz(D, _block_size(sys, h, m))
    windows = int(math.ceil(t_end / tau - 1e-12))

    # first window reads the history exactly, at nodes and stage midpoints
    delayed = history.state_values(np.linspace(-tau, 0.0, m + 1), n)
    delayed_mids = history.state_values(np.linspace(-tau + h / 2.0, -h / 2.0, m), n)

    states = np.empty((windows * m + 1, n))
    states[0] = x = delayed[-1]
    for k in range(windows):
        with np.errstate(over="ignore", invalid="ignore"):
            if k > 0:
                delayed = states[(k - 1) * m : k * m + 1]
                delayed_mids = _midpoints(delayed)
            forcing = delayed[:-1] @ Q0.T + delayed_mids @ Qm.T + delayed[1:] @ Q1.T
            x = _advance_window(x, forcing, D, T, states[k * m + 1 : (k + 1) * m + 1])
        if not np.all(np.isfinite(states[k * m : (k + 1) * m + 1])):
            raise SimulationError(f"state became non-finite in window {k}")

    starts = np.cumsum(np.concatenate(([0.0], np.full(windows - 1, tau))))
    times = np.concatenate(([0.0], (starts[:, None] + h * np.arange(1, m + 1)).ravel()))
    keep = times <= t_end + 1e-9 * max(1.0, t_end)
    return Trajectory(times[keep], states[keep], h, tau)


def step_scale(sys: RetardedSystem, step: float) -> float:
    """h rho(A0): the step against the fastest rate of the undelayed part.

    Above 1 the RK4 steps no longer resolve the solution, and a decay rate
    fitted to it can even have the wrong sign.  The default step tau/500
    keeps it below 0.03 for the MID designs up to order 8.
    """
    A0, _ = companion(sys.a, sys.alpha)
    return step * float(np.abs(np.linalg.eigvals(A0)).max())


def decay_rate(traj: Trajectory, t_start: float) -> float:
    """Exponential rate of the trajectory tail from its per-delay-interval
    envelope.

    The envelope points (argmax time, max |y|) of every delay interval inside
    [t_start, end] are fitted by least squares with log v = c + m t + j log t;
    the log-time regressor absorbs the polynomial-in-t factor that a root of
    multiplicity > 1 contributes, so m estimates the root's real part rather
    than an average contaminated by the algebraic growth.  Pure exponentials
    are fitted exactly (j = 0).

    Raises ValueError, naming the cause, when t_start is not finite, when no
    delay interval lies in [t_start, end], or when the tail is zero or has
    fewer than two nonzero envelope points.
    """
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
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
    if not env_v:
        raise ValueError(f"no delay interval lies in [{t_start:g}, {t_last:g}]")
    env_t = np.array(env_t)
    env_v = np.array(env_v)
    if np.all(env_v == 0.0):
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
