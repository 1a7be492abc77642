import math

import numpy as np
import pytest

from midspec.quasipoly import RetardedSystem, mid_coefficients
from midspec.sim import (
    BUILTIN_HISTORY_NAMES,
    HistoryFunction,
    HistoryKind,
    SimulationError,
    Trajectory,
    _table_csv,
    builtin_history,
    constant,
    decay_rate,
    linear,
    quadratic,
    sampled,
    simulate,
    sinusoid,
)
from oracles import delay_residual, rk4_stagewise


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


def test_sampled_history_validation():
    with pytest.raises(ValueError):
        sampled([0.0, -1.0, -2.0, -3.0], [1.0, 2.0, 3.0, 4.0])  # not increasing
    with pytest.raises(ValueError):
        sampled([-1.0, 0.0], [1.0, 2.0])  # too short


def test_history_scaling():
    h = builtin_history("y04").scaled(-2.0)
    t = np.array([-0.3])
    assert np.allclose(
        h.derivative_values(t, 0), -2.0 * builtin_history("y04").derivative_values(t, 0)
    )


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
    h = builtin_history("y02")
    t1 = simulate(example_system, h, 10.0)
    t2 = simulate(example_system, h.scaled(3.7), 10.0)
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
    with pytest.raises(ValueError):
        simulate(example_system, constant(1.0), 5.0, step=1e-12)
    short = sampled(np.linspace(-1.0, 0.0, 10), np.zeros(10))
    with pytest.raises(ValueError):
        simulate(example_system, short, 5.0)  # grid does not cover [-tau, 0]


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


def test_order8_trajectory_solves_the_delay_equation():
    sys_ = mid_coefficients(8, -0.5, 2.5)
    for name in BUILTIN_HISTORY_NAMES:
        traj = simulate(sys_, builtin_history(name), 40.0)
        assert traj.times[-1] == pytest.approx(40.0) and np.all(np.isfinite(traj.states))
        assert delay_residual(sys_, traj.times, traj.states) <= 1e-7, name


def test_unstable_system_aborts():
    sys_ = RetardedSystem(1, (-30.0,), (0.0,), 1.0)  # y' = 30 y
    with pytest.raises(SimulationError):
        simulate(sys_, constant(1.0), 40.0)


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
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1e-320, -1e-320, 1e300, -1e-300, 5e-324, 1.7976931348623157e308,
               0.1234567890125, 0.1234567890115, 999999999999.5, 9999999999995.0,
               1.0 - 2**-53, 123456789012.5, np.inf, -np.inf, np.nan]
    spread = rng.standard_normal(9000) * 10.0 ** rng.integers(-12, 12, 9000)
    values = np.concatenate([special, spread])
    times = np.arange(values.size) * 0.005
    cols = np.column_stack([values, values[::-1], -values])
    header = ["t", "y", "y1", "y2"]
    assert _table_csv(header, times, cols) == _reference_csv(header, np.column_stack([times, cols]))
    # n = 1: the state table and the plot table share the t,y header
    traj = Trajectory(times, values[:, None], 0.005, 2.5)
    expected = _reference_csv(["t", "y"], np.column_stack([times, values]))
    assert traj.to_csv() == traj.plot_csv() == expected


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


def test_decay_rate_zero_tail(example_system):
    traj = simulate(example_system, constant(0.0), 10.0)
    with pytest.raises(ValueError):
        decay_rate(traj, 2.0)
