import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from g2flow.singular_ivp import (EventSpec, IntegrationError, SingularIVP,
                                 PreconditionError, blowup_event,
                                 dense_reader, integrate, malgrange_check,
                                 series_bootstrap, solve_singular)


def scalar_ivp(lam, forcing=1.0, y0=0.0):
    # t y' = lam*y + forcing*t, solution y = forcing*t/(1-lam) for y0=0
    return SingularIVP(
        M_minus1=lambda y: [lam * y[0]],
        M=lambda t, y: [forcing * t / t if not isinstance(t, float)
                        else forcing],
        y0=[y0],
        label="scalar(lam=%g)" % lam,
        jacobian=[[lam]],
    )


def test_gate_passes_for_negative_eigenvalue():
    rep = malgrange_check(scalar_ivp(-2.0))
    assert rep.gate_pass
    assert rep.offending_h is None
    assert rep.residual_at_y0 == 0.0
    assert rep.eigenvalues[0] == pytest.approx(-2.0)


def test_gate_rejects_positive_integer_eigenvalue():
    rep = malgrange_check(scalar_ivp(1.0))
    assert not rep.gate_pass
    assert rep.offending_h == 1
    with pytest.raises(PreconditionError):
        series_bootstrap(scalar_ivp(1.0))


def test_gate_allows_noninteger_positive_eigenvalue():
    rep = malgrange_check(scalar_ivp(0.5))
    assert rep.gate_pass


def test_gate_rejects_nonzero_boundary_residual():
    ivp = scalar_ivp(-2.0, y0=0.3)
    rep = malgrange_check(ivp)
    assert not rep.gate_pass
    assert rep.residual_at_y0 == pytest.approx(0.6)


def test_series_bootstrap_linear_solution():
    ser = series_bootstrap(scalar_ivp(-2.0), order=6)[0]
    # y = t/3 solves t y' = -2y + t
    assert ser[0] == 0.0
    assert ser[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
    for k in (2, 3, 4, 5, 6):
        assert abs(ser[k]) < 1e-14


def test_series_bootstrap_nonlinear():
    # t y' = -y + y^2 + t; series y = t/2 + t^2/8 + ...
    ivp = SingularIVP(
        M_minus1=lambda y: [-y[0] + y[0] * y[0]],
        M=lambda t, y: [1.0 if isinstance(t, float) else t / t],
        y0=[0.0],
        jacobian=[[-1.0]],
    )
    ser = series_bootstrap(ivp, order=4)[0]
    assert ser[1] == pytest.approx(0.5, rel=1e-14)
    assert ser[2] == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_solve_singular_matches_closed_form():
    traj = solve_singular(scalar_ivp(-2.0), eps=1e-2, t_end=2.0, order=8,
                          tol=1e-12)
    for t in (1e-3, 5e-3, 0.1, 0.5, 2.0):
        got = traj(t)[0] if t > 1e-2 else traj.meta["interp"](t)[0]
        assert got == pytest.approx(t / 3.0, rel=1e-10, abs=1e-13)
    assert traj.meta["handoff_mismatch"] < 1e-10


def test_solve_singular_validates_window():
    with pytest.raises(ValueError):
        solve_singular(scalar_ivp(-2.0), eps=1.0, t_end=0.5)


def test_blowup_event_terminates():
    traj = integrate(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0],
                     tol=1e-10, events=[blowup_event(1e6)])
    times = traj.event_times("blow-up")
    assert len(times) == 1
    # y = 10/(1 - 10 t) reaches 1e6 at t = (1 - 1e-5)/10
    assert times[0] == pytest.approx(0.1 - 1e-6, abs=1e-7)
    assert traj.t[-1] <= 0.1


def test_region_exit_event_nonterminal():
    ev = EventSpec("region-exit", lambda t, y: 1.0 - y[0])
    traj = integrate(lambda t, y: [1.0], (0.0, 3.0), [0.0], events=[ev])
    assert traj.event_times("region-exit") == [pytest.approx(1.0, abs=1e-9)]
    assert traj.t[-1] == pytest.approx(3.0)


def test_event_prefire_at_start():
    ev = EventSpec("region-exit", lambda t, y: -1.0, terminal=True)
    traj = integrate(lambda t, y: [1.0], (0.5, 3.0), [0.0], events=[ev])
    assert traj.events == [("region-exit", 0.5)]
    assert traj.t[-1] == 0.5


def test_integration_error_carries_partial_trajectory():
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0],
                  tol=1e-10)
    traj = exc.value.trajectory
    assert traj is not None
    assert traj.t[-1] < 0.11
    assert traj.t[-1] == pytest.approx(0.1, abs=2e-2)


def test_trajectory_csv_export(tmp_path):
    ev = EventSpec("region-exit", lambda t, y: 0.5 - y[0])
    traj = integrate(lambda t, y: [math.cos(t)], (0.0, 1.0), [0.0],
                     events=[ev])
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y0"
    assert any(line.startswith("# event,region-exit,") for line in lines)
    vals = lines[1].split(",")
    assert float(vals[0]) == 0.0


def test_dense_output_evaluation():
    traj = integrate(lambda t, y: [2.0 * t], (0.0, 1.0), [0.0])
    assert traj(0.5)[0] == pytest.approx(0.25, rel=1e-9)
    column = traj(np.array([0.2, 0.4]))
    assert column.shape == (1, 2)
    assert column[0, 1] == pytest.approx(0.16, rel=1e-9)


def _radial_rate(t, y):
    x = y[0] * y[0]
    return [0.5 * math.sqrt((3.0 + x * (3.0 + x)) / (1.0 + x) ** 3)]


def _coupled_rate(t, y):
    return [math.sin((i + 1) * t) * y[(i + 1) % 6] + math.cos(y[i])
            for i in range(6)]


def _reach_two(t, y):
    return y[0] - 2.0


_reach_two.terminal = True


@pytest.mark.parametrize("case", ["1d-ascending", "6d-descending",
                                  "terminal-event"])
def test_dense_reader_bitwise_equal_to_scipy(case):
    if case == "6d-descending":
        sol = solve_ivp(_coupled_rate, (3.0, 0.01), np.zeros(6),
                        method="DOP853", rtol=1e-12, atol=1e-15,
                        dense_output=True)
    else:
        events = [_reach_two] if case == "terminal-event" else []
        sol = solve_ivp(_radial_rate, (0.0, 20.0), [0.0], method="DOP853",
                        rtol=1e-13, atol=1e-14, dense_output=True,
                        events=events)
        assert sol.status == (1 if events else 0)
    read = dense_reader(sol.sol)
    lo, hi = sorted((sol.t[0], sol.t[-1]))
    rng = np.random.default_rng(11)
    # every node, both ends and random interior points, each read twice
    ts = [float(t) for t in list(sol.t) + [lo, hi]
          + list(rng.uniform(lo, hi, 300))]
    for t in ts + ts[::-1]:
        got = read(t)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex()
                                          for v in sol.sol(t).tolist()]


@pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, 0.01)])
def test_dense_reader_rejects_t_outside_solved_span(span):
    sol = solve_ivp(_coupled_rate, span, np.zeros(6), method="DOP853",
                    rtol=1e-12, atol=1e-15, dense_output=True)
    read = dense_reader(sol.sol)
    lo, hi = sorted(span)
    # the top end has the 1e-9 relative slack of the profile evaluators
    for t in (lo, hi, hi * (1 + 0.5e-9)):
        assert [v.hex() for v in read(t)] == [
            v.hex() for v in sol.sol(t).tolist()]
    for t in (lo - 1e-12, -1.0, hi * (1 + 2e-9), 100.0, math.nan):
        with pytest.raises(ValueError, match="outside the solved span"):
            read(t)


@pytest.mark.parametrize("jacobian", [[[1.0, 0.0]], [[1.0], [0.0]],
                                      [[-2.0]], [1.0, 2.0],
                                      [[0.0, math.nan], [0.0, 1.0]],
                                      [[-math.inf, 0.0], [0.0, 1.0]]])
def test_singular_ivp_rejects_bad_jacobian(jacobian):
    with pytest.raises(ValueError, match="finite and 2 x 2"):
        SingularIVP(lambda y: y, lambda t, y: y, [0.0, 0.0], jacobian)


def test_dense_reader_rejects_other_methods():
    sol = solve_ivp(lambda t, y: [-y[0]], (0.0, 1.0), [1.0], method="RK45",
                    dense_output=True)
    with pytest.raises(TypeError, match="DOP853"):
        dense_reader(sol.sol)
