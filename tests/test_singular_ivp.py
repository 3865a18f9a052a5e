import math

import numpy as np
import pytest

from g2flow.singular_ivp import (EventSpec, IntegrationError, SingularIVP,
                                 PreconditionError, blowup_event, integrate,
                                 malgrange_check, region_exit_event,
                                 series_bootstrap, solve_boundary,
                                 solve_singular)


def scalar_ivp(lam, forcing=1.0, y0=0.0):
    # t y' = lam*y + forcing*t, solution y = forcing*t/(1-lam) for y0=0
    return SingularIVP(
        dim=1,
        M_minus1=lambda y: [lam * y[0]],
        M=lambda t, y: [forcing * t / t if not isinstance(t, float)
                        else forcing],
        y0=[y0],
        label="scalar(lam=%g)" % lam,
        jacobian=lambda y: [[lam]],
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
        dim=1,
        M_minus1=lambda y: [-y[0] + y[0] * y[0]],
        M=lambda t, y: [1.0 if isinstance(t, float) else t / t],
        y0=[0.0],
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


def test_newton_boundary_solve():
    def m1(y):
        return [y[0] * y[0] - 4.0, y[1] - y[0]]

    y = solve_boundary(m1, [1.0, 0.0])
    assert y[0] == pytest.approx(2.0, rel=1e-12)
    assert y[1] == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(RuntimeError):
        solve_boundary(lambda y: [y[0] ** 2 + 1.0], [1.0], max_iter=5)


def test_blowup_event_terminates():
    traj = integrate(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0],
                     tol=1e-10, events=[blowup_event(1e6)])
    times = traj.event_times("blow-up")
    assert len(times) == 1
    # y = 10/(1 - 10 t) reaches 1e6 at t = (1 - 1e-5)/10
    assert times[0] == pytest.approx(0.1 - 1e-6, abs=1e-7)
    assert traj.t[-1] <= 0.1


def test_region_exit_event_nonterminal():
    ev = region_exit_event(lambda t, y: 1.0 - y[0])
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
    traj = integrate(lambda t, y: [math.cos(t)], (0.0, 1.0), [0.0],
                     events=[region_exit_event(lambda t, y: 0.5 - y[0])])
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
