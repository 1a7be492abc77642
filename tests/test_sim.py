import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midspec import sim
from midspec.quasipoly import RetardedSystem, companion, mid_coefficients
from midspec.sim import (
    BUILTIN_HISTORY_NAMES,
    HistoryFunction,
    HistoryKind,
    SimulationError,
    Trajectory,
    _block_size,
    _delay_envelope,
    _midpoints,
    _rk4_increment,
    builtin_history,
    constant,
    decay_rate,
    linear,
    quadratic,
    sampled,
    simulate,
    sinusoid,
    step_scale,
)
from oracles import delay_envelope_masked, delay_residual, rk4_stagewise


# --- histories -------------------------------------------------------------------


def test_builtin_names():
    assert BUILTIN_HISTORY_NAMES == ("y01", "y02", "y03", "y04")


def test_builtin_values_at_samples():
    om = 2 * math.pi
    t = np.array([-1.0, -0.25, 0.0])
    assert np.allclose(builtin_history("y01").derivative_values(t, 0), 1.0)
    assert np.allclose(builtin_history("y02").derivative_values(t, 0), -t)
    assert np.allclose(builtin_history("y03").derivative_values(t, 0), -t * t / 4)
    assert np.allclose(
        builtin_history("y04").derivative_values(t, 0), -np.sin(om * t) / (6 * om**2)
    )


def test_builtin_unknown():
    with pytest.raises(ValueError):
        builtin_history("y05")


@pytest.mark.parametrize(
    "hist",
    [constant(2.0), linear(-1.0, 0.5), quadratic(-0.25, 0.1, 1.0), sinusoid(0.3, 2 * math.pi, 0.4)],
)
def test_history_derivatives_match_finite_differences(hist):
    t = np.array([-1.3, -0.6, -0.1])
    h = 1e-6
    for order in range(1, 4):
        fd = (
            hist.derivative_values(t + h, order - 1) - hist.derivative_values(t - h, order - 1)
        ) / (2 * h)
        assert np.allclose(fd, hist.derivative_values(t, order), atol=1e-6)


def test_sampled_history_spline_matches_data():
    t = np.linspace(-2.0, 0.0, 80)
    hist = sampled(t, np.cos(t))
    assert np.allclose(hist.derivative_values(t, 0), np.cos(t), atol=1e-12)
    assert np.allclose(hist.derivative_values(t[5:-5], 1), -np.sin(t[5:-5]), atol=1e-4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampled_history_matches_scipy_cubic_spline(data):
    # oracle: scipy's CubicSpline with its default not-a-knot ends; a
    # sampled history has no derivative above the third.  The points hold
    # every midpoint, so the scale is the spline's size on every interval,
    # not only at its knots.  Steps differ at most tenfold: where a step of
    # 1 meets two of 1e-4, scipy's pivoted banded solve misses its own
    # not-a-knot rows by 1e-10 of the third derivative (an exact solve in
    # mpmath sides with Thomas elimination there)
    from scipy.interpolate import CubicSpline

    n = data.draw(st.integers(4, 300))
    steps = data.draw(st.floats(1e-4, 0.1)) * data.draw(arrays(float, n - 1, elements=st.floats(1.0, 10.0)))
    times = np.concatenate(([0.0], np.cumsum(steps))) - data.draw(st.floats(0.0, 3.0))
    values = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0))) * data.draw(st.floats(1e-3, 1e3))
    at = times[0] + data.draw(arrays(float, 50, elements=st.floats(0.0, 1.0))) * (times[-1] - times[0])
    t = np.concatenate((times, (times[:-1] + times[1:]) / 2.0, at))
    hist, spline = sampled(times, values), CubicSpline(times, values)
    for order in range(4):
        ref = spline(t, nu=order)
        assert np.abs(hist.derivative_values(t, order) - ref).max() <= 1e-11 * np.abs(ref).max(), order
    assert not hist.derivative_values(t, 4).any()


def test_sampled_history_validation():
    with pytest.raises(ValueError):
        sampled([0.0, -1.0, -2.0, -3.0], [1.0, 2.0, 3.0, 4.0])  # not increasing
    with pytest.raises(ValueError):
        sampled([-1.0, 0.0], [1.0, 2.0])  # too short


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["times", "values"])
def test_sampled_history_rejects_non_finite(bad, column):
    data = {"times": [-3.0, -2.0, -1.0, 0.0], "values": [1.0, 2.0, 3.0, 4.0]}
    data[column][1] = bad
    with pytest.raises(ValueError, match="^sampled history needs finite times and values$"):
        sampled(data["times"], data["values"])


# --- simulate ----------------------------------------------------------------------


def test_zero_history_zero_trajectory(example_system):
    traj = simulate(example_system, constant(0.0), 10.0)
    assert np.all(traj.states == 0.0)


def test_constant_kernel_solution():
    # for the order-1 design with root 0, y = 1 solves the equation exactly
    sys_ = mid_coefficients(1, 0.0, 1.0)
    traj = simulate(sys_, constant(1.0), 12.0)
    assert np.max(np.abs(traj.y - 1.0)) < 1e-10


def test_example_trajectory_decays(example_system):
    traj = simulate(example_system, builtin_history("y01"), 40.0)
    early = np.max(np.abs(traj.y[traj.times <= 5.0]))
    late = np.max(np.abs(traj.y[traj.times >= 35.0]))
    assert late < 1e-3 * early


def test_exact_mode_propagation():
    # e^(-0.5 t) solves the order-3 design exactly; tracking accuracy is
    # limited by the spline seeding of the history derivatives (~1e-6 here),
    # not by the integrator
    sys_ = mid_coefficients(3, -0.5, 2.5)
    t = np.linspace(-2.5, 0.0, 2001)
    traj = simulate(sys_, sampled(t, np.exp(-0.5 * t)), 10.0)
    assert abs(traj.y[-1] - math.exp(-5.0)) < 5e-6


def test_linearity(example_system):
    t1 = simulate(example_system, linear(-1.0), 10.0)
    t2 = simulate(example_system, linear(-3.7), 10.0)
    err = np.max(np.abs(t2.states - 3.7 * t1.states))
    assert err <= 1e-9 * np.max(np.abs(t2.states))


def test_step_adjusted_to_divide_delay(example_system):
    traj = simulate(example_system, constant(1.0), 6.0, step=0.4)
    m = round(example_system.tau / traj.step)
    assert abs(m * traj.step - example_system.tau) < 1e-12
    assert traj.step <= 0.4


def test_convergence_order(example_system):
    ref = simulate(example_system, builtin_history("y01"), 5.0, step=example_system.tau / 3200)
    errs = []
    for m in (100, 200, 400):
        t = simulate(example_system, builtin_history("y01"), 5.0, step=example_system.tau / m)
        errs.append(abs(t.y[-1] - ref.y[-1]))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o >= 3.5 for o in orders), orders


def test_simulate_validation(example_system):
    with pytest.raises(ValueError):
        simulate(example_system, constant(1.0), -1.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            simulate(example_system, constant(1.0), t_end)
    with pytest.raises(ValueError):
        simulate(example_system, constant(1.0), 5.0, step=1e-12)
    short = sampled(np.linspace(-1.0, 0.0, 10), np.zeros(10))
    with pytest.raises(ValueError):
        simulate(example_system, short, 5.0)  # grid does not cover [-tau, 0]
    for step in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            simulate(example_system, constant(1.0), 5.0, step=step)
    for step in (4.0, 1e13, 1e300):  # a step above tau shrinks to tau
        assert simulate(example_system, constant(1.0), 5.0, step=step).step == 2.5


@pytest.mark.parametrize("n,tau", [(1, 2.5), (2, 2.5), (3, 2.5), (4, 2.5), (3, 0.5)])
def test_simulate_matches_stagewise_oracle(n, tau):
    sys_ = mid_coefficients(n, -0.5, tau)
    for name in BUILTIN_HISTORY_NAMES:
        hist = builtin_history(name)
        traj = simulate(sys_, hist, 40.0)
        times, states = rk4_stagewise(sys_, hist, 40.0, tau / 500.0)
        assert np.array_equal(traj.times, times)
        first = times <= tau
        err = np.abs(traj.states - states)
        assert err[first].max() <= 1e-12 * np.abs(states[first]).max(), name
        assert err.max() <= 1e-6 * np.abs(states).max(), name


@pytest.mark.parametrize("m", [1, 7, 15, 16, 17, 37])
def test_block_edges_match_stagewise_oracle(m):
    # coarse windows, where b = floor(0.45 / (h rho(A0))) is small: b = 2 at
    # m = 15, 16, 17 (a short last block at odd m) and b = 4 at m = 37 (nine
    # blocks and a short one); m = 1 and m = 7 (step_scale 0.48) take b = 1
    sys_ = mid_coefficients(3, -0.5, 2.5)
    for name in BUILTIN_HISTORY_NAMES:
        hist = builtin_history(name)
        traj = simulate(sys_, hist, 20.0, step=2.5 / m)
        times, states = rk4_stagewise(sys_, hist, 20.0, 2.5 / m)
        assert np.array_equal(traj.times, times)
        first = times <= 2.5
        err = np.abs(traj.states - states)
        assert err[first].max() <= 1e-12 * np.abs(states[first]).max(), name
        assert err.max() <= 1e-6 * np.abs(states).max(), name
    if m == 7:
        assert 0.45 < step_scale(sys_, traj.step) < 0.5


def test_single_step_windows_take_the_one_step_map():
    # one step per window: the block map must be x <- x + (D x + f) exactly
    sys_ = mid_coefficients(3, -0.5, 2.5)
    hist = builtin_history("y04")
    traj = simulate(sys_, hist, 20.0, step=2.5)
    pair = companion(sys_.a, sys_.alpha)
    D, Q0, Qm, Q1 = _rk4_increment(pair.A0, pair.A1, 2.5)
    delayed = hist.state_values(np.array([-2.5, 0.0]), 3)
    mids = hist.state_values(np.array([-1.25]), 3)
    rows = [delayed[-1]]
    for k in range(8):
        if k > 0:
            delayed = np.array(rows[-2:])
            mids = _midpoints(delayed)
        f = (delayed[:-1] @ Q0.T + mids @ Qm.T + delayed[1:] @ Q1.T)[0]
        rows.append(rows[-1] + (D @ rows[-1] + f))
    assert np.array_equal(traj.states, np.array(rows))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64 here"
)
@pytest.mark.parametrize("n,bound", [(3, 2e-9), (4, 8e-7), (5, 4.9e-5)])
def test_simulate_tracks_extended_precision(n, bound):
    # distance to the same RK4 scheme run in np.longdouble, relative to its
    # largest state; the 2n-fold root amplifies float64 rounding, so the
    # bound is on the median over s0 and the built-in histories, at twice
    # the one-step loop's median (1.0e-9 at n = 3, 4.0e-7 at n = 4) and at
    # n = 5 twice that of fixed 16-step blocks (2.47e-5)
    dists = []
    for s0 in (-1.0, -0.5, 0.3):
        sys_ = mid_coefficients(n, s0, 0.5)
        for name in BUILTIN_HISTORY_NAMES:
            hist = builtin_history(name)
            _, ref = rk4_stagewise(sys_, hist, 10.0, 0.5 / 500.0, dtype=np.longdouble)
            err = np.abs(simulate(sys_, hist, 10.0).states - ref).max()
            dists.append(float(err / np.abs(ref).max()))
    assert np.median(dists) <= bound, dists


def test_order8_trajectory_solves_the_delay_equation():
    sys_ = mid_coefficients(8, -0.5, 2.5)
    for name in BUILTIN_HISTORY_NAMES:
        traj = simulate(sys_, builtin_history(name), 40.0)
        assert traj.times[-1] == pytest.approx(40.0) and np.all(np.isfinite(traj.states))
        assert delay_residual(sys_, traj.times, traj.states) <= 1e-7, name


def test_unstable_system_aborts():
    sys_ = RetardedSystem(1, (-30.0,), (0.0,), 1.0)  # y' = 30 y
    with pytest.raises(SimulationError, match="non-finite in window 23$"):
        simulate(sys_, constant(1.0), 40.0)  # e^(30 t) overflows at t = 23.7


def test_block_size_keeps_blocks_within_the_measured_span():
    # b = clamp(floor(0.45 / (h rho(A0))), 1, min(m, 64)): every block spans
    # b h rho(A0) <= 0.45, and b is the largest such count under the cap
    for n in range(1, 9):
        for s0 in (-1.0, -0.5, 0.0, 0.5):
            for tau in (0.5, 2.5):
                sys_ = mid_coefficients(n, s0, tau)
                scale = step_scale(sys_, tau / 500.0)
                b = _block_size(sys_, tau / 500.0, 500)
                assert 1 <= b <= 64 and b * scale <= 0.45, (n, s0, tau, b)
                assert b == 64 or (b + 1) * scale > 0.45, (n, s0, tau, b)
    assert _block_size(mid_coefficients(3, -0.5, 2.5), 2.5 / 7, 7) == 1  # step_scale 0.48
    assert _block_size(RetardedSystem(1, (0.0,), (0.5,), 1.0), 0.5, 2) == 2  # rho(A0) = 0


def test_step_scale_is_the_step_times_the_largest_root(example_system):
    # A0 is the companion matrix of z^n + sum a_k z^k, so rho(A0) is the
    # largest modulus among that polynomial's roots
    rho = np.abs(np.roots([1.0] + list(example_system.a[::-1]))).max()
    for h in (2.5 / 500, 0.3, 2.5):
        assert step_scale(example_system, h) == pytest.approx(h * rho, rel=1e-12)
    assert step_scale(example_system, 2.5) > 1.0 > step_scale(example_system, 2.5 / 500)


def test_default_step_scale_is_small():
    # the default step tau/500 resolves every MID design up to order 8
    # (README), so the step blocks hold at least 15 steps there
    for n in range(1, 9):
        for s0 in (-1.0, -0.5, 0.0, 0.5):
            for tau in (0.5, 1.0, 2.5, 5.0):
                assert step_scale(mid_coefficients(n, s0, tau), tau / 500.0) < 0.03, (n, s0, tau)


# --- trajectories and decay rates -----------------------------------------------------


def test_trajectory_csv(example_system):
    traj = simulate(example_system, constant(1.0), 2.5, step=0.5)
    lines = traj.to_csv().strip().splitlines()
    assert lines[0] == "t,y,y1,y2"
    assert len(lines) == 1 + traj.times.size
    plot = traj.plot_csv().strip().splitlines()
    assert plot[0] == "t,y"


def _reference_csv(header, rows):
    lines = [",".join(header)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_table_csv_matches_fstring_formatting():
    # both tables, formatted in one pass, against per-value %.12g formatting
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1e-320, -1e-320, 1e300, -1e-300, 5e-324, 1.7976931348623157e308,
               0.1234567890125, 0.1234567890115, 999999999999.5, 9999999999995.0,
               1.0 - 2**-53, 123456789012.5, np.inf, -np.inf, np.nan]
    spread = rng.standard_normal(9000) * 10.0 ** rng.integers(-12, 12, 9000)
    values = np.concatenate([special, spread])
    times = np.arange(values.size) * 0.005
    columns = [values, values[::-1], -values, np.roll(values, 7)]
    for n in range(1, 5):
        for t in (times, values[::-1]):  # special values in the t column too
            traj = Trajectory(t, np.column_stack(columns[:n]), 0.005, 2.5)
            header = ["t", "y"] + [f"y{k}" for k in range(1, n)]
            full = _reference_csv(header, np.column_stack([t] + columns[:n]))
            plot = _reference_csv(["t", "y"], np.column_stack([t, values]))
            assert traj.plot_csv() == plot and traj.to_csv() == full, n
            # either order, and a table asked for twice
            assert traj.to_csv() == full and traj.to_csv() == full and traj.plot_csv() == plot, n


def test_csv_tables_peak_memory():
    # both tables of one n = 3, tau = 0.5 history fit in the peak that the
    # state table alone took when each table was formatted on its own (a
    # copy of the table, its text blocks and the joined text: 2.56 times the
    # text), and neither text stays on the trajectory once both are taken
    traj = simulate(mid_coefficients(3, -0.5, 0.5), builtin_history("y01"), 40.0)
    tracemalloc.start()
    try:
        plot, full = traj.plot_csv(), traj.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plot) < len(full) and peak <= 2.6 * len(full), peak / len(full)
    assert "_held_csv" not in vars(traj)


def test_trajectory_immutable(example_system):
    traj = simulate(example_system, constant(1.0), 2.5)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 5.0


def test_decay_rate_pure_exponential():
    t = np.linspace(0.0, 40.0, 8001)
    traj = Trajectory(t, np.exp(-2.0 * t)[:, None], t[1] - t[0], 2.5)
    assert abs(decay_rate(traj, 10.0) + 2.0) < 1e-6


def test_decay_rate_flat():
    sys_ = mid_coefficients(1, 0.0, 1.0)
    traj = simulate(sys_, constant(1.0), 20.0)
    assert abs(decay_rate(traj, 2.0)) < 1e-6


def test_decay_rate_example(example_system):
    traj = simulate(example_system, builtin_history("y01"), 40.0)
    r = decay_rate(traj, 10.0)
    assert -0.55 <= r <= -0.45


@pytest.mark.parametrize("n,s0", [(1, -0.5), (2, -0.8)])
def test_decay_rate_tracks_assigned_root(n, s0):
    sys_ = mid_coefficients(n, s0, 1.0)
    traj = simulate(sys_, constant(1.0), 30.0)
    r = decay_rate(traj, 10.0)
    assert s0 - 0.1 * abs(s0) - 0.05 <= r <= s0 + 0.1 * abs(s0) + 0.05


def test_delay_envelope_matches_the_mask_formulation(example_system, monkeypatch):
    # binary search finds the same window nodes as two full-length masks, so
    # the envelope points, and the rates fitted to them, are bit-identical;
    # the last trajectory's nodes do not fall on the window ends, and 37.6
    # leaves the order-2 run no window
    t = np.linspace(0.0, 40.0, 997)
    odd = Trajectory(t, (np.exp(-0.3 * t) * np.cos(3.0 * t))[:, None], t[1] - t[0], 2.5)
    trajs = [simulate(example_system, builtin_history(name), 40.0) for name in BUILTIN_HISTORY_NAMES]
    trajs += [simulate(mid_coefficients(2, -0.8, 0.5), builtin_history("y04"), 12.0), odd]
    for traj in trajs:
        for t_start in (0.0, 2.5, 10.3, 37.6):
            got, want = _delay_envelope(traj, t_start), delay_envelope_masked(traj, t_start)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
    starts = (0.0, 2.5, 10.3)
    rates = [decay_rate(traj, t_start) for traj in trajs for t_start in starts]
    monkeypatch.setattr(sim, "_delay_envelope", delay_envelope_masked)
    assert rates == [decay_rate(traj, t_start) for traj in trajs for t_start in starts]


def test_decay_rate_zero_tail(example_system):
    traj = simulate(example_system, constant(0.0), 10.0)
    with pytest.raises(ValueError):
        decay_rate(traj, 2.0)


def test_decay_rate_names_the_cause(example_system):
    traj = simulate(example_system, builtin_history("y01"), 10.0)
    for t_start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t_start must be finite"):
            decay_rate(traj, t_start)
    with pytest.raises(ValueError, match=r"no delay interval lies in \[40, 10\]"):
        decay_rate(traj, 40.0)
    with pytest.raises(ValueError, match="identically zero"):
        decay_rate(simulate(example_system, constant(0.0), 10.0), 2.0)
