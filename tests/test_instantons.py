import math
import sys

import numpy as np
import pytest

from g2flow.instantons import (_stencil_nodes, abelian_connection,
                               connection_at, flat_pid, p1_ivp, pid_ivp,
                               residual_pointwise, solution_to_csv,
                               su23_p1_ivp, su23_pid_ivp, theta_x1,
                               theta_y0, theta_zero)
from g2flow.algebra import ConnectionCoeffs, Su2Vec, constraint_value
from g2flow import singular_ivp
from g2flow.singular_ivp import (_brentq, malgrange_check,
                                 series_bootstrap, solve_singular)
from g2flow.structures import make_bryant_salamon, make_linear_example

NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def lin5():
    return make_linear_example(1.0, t_max=5.0)


def closed_form_product(s, x1, t):
    A1, B1 = s.A[0](t), s.B[0](t)
    return x1 * 2.0 * A1 * A1 / (1.0 + x1 * (B1 * B1 - 1.0 / 3.0))


def limit_product(s, t):
    A1, B1 = s.A[0](t), s.B[0](t)
    return 2.0 * A1 * A1 / (B1 * B1 - 1.0 / 3.0)


def test_theta_x1_matches_closed_form(bs):
    for x1 in (0.1, 1.0, 10.0):
        sol = theta_x1(bs, x1)
        A1x = sol.extras["A1x"]
        for t in np.geomspace(1e-2, 10.0, 25):
            want = closed_form_product(bs, x1, t)
            assert A1x(t) == pytest.approx(want, rel=1e-9)


def test_theta_x1_zero_is_zero_connection(bs):
    sol = theta_x1(bs, 0.0)
    assert np.all(sol.coefficients(1.0) == 0.0)
    with pytest.raises(ValueError):
        theta_x1(bs, -1.0)


def test_theta_zero_matches_limit_form(bs):
    sol = theta_zero(bs)
    A1x = sol.extras["A1x"]
    for t in np.geomspace(1e-2, 10.0, 25):
        assert A1x(t) == pytest.approx(limit_product(bs, t), rel=1e-9)
    assert A1x(0.0) == pytest.approx(1.0, abs=1e-12)


def test_theta_zero_linear_closed_form(lin):
    sol = theta_zero(lin)
    A1x = sol.extras["A1x"]
    for t in np.geomspace(1e-2, 5.0, 21):
        q = t * t / 4.0
        want = q / ((q + 1.0) * math.log1p(q))
        assert A1x(t) == pytest.approx(want, rel=1e-9)


def test_theta_y0_zero_matches_theta_zero(bs):
    a = theta_y0(bs, 0.0)
    b = theta_zero(bs)
    for t in np.geomspace(1e-2, 10.0, 21):
        fa, fb = a.coefficients(t), b.coefficients(t)
        assert fa[0] == pytest.approx(fb[0], rel=1e-8)
        assert abs(fa[3]) < 1e-10


def test_theta_y0_edge_is_flat(bs, lin):
    # the whole pipeline (series, handoff, bounded continuation, profile
    # read) against a closed form; measured 4.8e-12 and 2.2e-12
    for s in (bs, lin):
        for sign in (1, -1):
            a = theta_y0(s, sign / s.b0, t_end=50.0)
            b = flat_pid(s, sign)
            for t in np.geomspace(1e-3, 50.0, 60):
                np.testing.assert_allclose(a.coefficients(t),
                                           b.coefficients(t), rtol=1e-10,
                                           atol=0)


def test_theta_y0_sign_symmetry(bs):
    a = theta_y0(bs, 0.4)
    b = theta_y0(bs, -0.4)
    for t in (0.05, 0.7, 3.0):
        fa, fb = a.coefficients(t), b.coefficients(t)
        assert fa[0] == pytest.approx(fb[0], rel=1e-12, abs=1e-14)
        assert fa[3] == pytest.approx(-fb[3], rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("name, t_blow", [("bs", 31.193), ("lin", 26.430)])
def test_theta_y0_family_edge_is_sharp(name, t_blow, request):
    s = request.getfixturevalue(name)
    for sign in (1, -1):
        inside = theta_y0(s, sign * 0.999 / s.b0, t_end=50.0)
        assert inside.valid[1] == 50.0 and not inside.trajectory.events
        outside = theta_y0(s, sign * 1.001 / s.b0, t_end=50.0)
        assert [k for k, _ in outside.trajectory.events] == ["blow-up"]
        assert outside.valid[1] == pytest.approx(t_blow, abs=5e-4)


def test_theta_y0_blowup_time_power_law(lin):
    # past the edge, y0 b0 = 1 + delta on linear (b0 = 1) blows up at
    # T(delta) ~ delta^-p; p = 0.405 is a measured value
    ts = [theta_y0(lin, 1.0 + d, t_end=500.0).valid[1]
          for d in (1e-3, 1e-4, 1e-5, 1e-6)]
    np.testing.assert_allclose(ts, [26.43, 67.23, 170.71, 433.31],
                               atol=5e-3)
    slopes = [math.log10(b / a) for a, b in zip(ts, ts[1:])]
    assert max(slopes) - min(slopes) < 0.01
    assert slopes == pytest.approx([0.4055, 0.4047, 0.4045], abs=1e-4)


# (structure, b0 of linear, y0, the blow-up time found before the climb
# ran in q = z/|z|^2, whether one q step jumps the whole window past
# |z| = 1e8, so the time is the root on that step), solved to the CLI's
# t_end of 10
BLOWUP_PINS = [
    ("lin", 1.3514427942416234, 1.0407909237167439, 2.527685609648758, 0),
    ("lin", 0.7121458717857969, -2.031605668895809, 1.2637860615528564, 0),
    ("lin", 1.5674744185563578, -0.8298030486214137, 3.449974998261149, 1),
    ("lin", 1.0, 1.3, 2.20366356715349, 1),
    ("bs", None, 3.0, 0.813763294207571, 0),
    ("bs", None, -3.0, 0.813763294207571, 0),
    ("bs", None, 2.0, 2.1437533609892676, 0),
    ("bs", None, 3.02, 0.8052358118160058, 1),
]


@pytest.mark.parametrize("name, b0, y0, t_blow, pole_step", BLOWUP_PINS)
def test_theta_y0_blowup_times_pinned(name, b0, y0, t_blow, pole_step, bs,
                                      monkeypatch):
    callers = []

    def brentq(f, a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return _brentq(f, a, b)

    monkeypatch.setattr(singular_ivp, "_brentq", brentq)
    s = bs if name == "bs" else make_linear_example(b0)
    sol = theta_y0(s, y0, t_end=10.0)
    traj = sol.trajectory
    assert ("integrate_blowup" in callers) == pole_step
    (kind, te), = traj.events
    assert kind == "blow-up" and type(te) is float
    assert te == pytest.approx(t_blow, rel=1e-10) and sol.valid[1] == te
    assert traj.t[-1] == te and traj.meta["steps"] <= 260
    # the samples and the dense output read z, up to |z|_inf = 1e8
    assert np.max(np.abs(traj.y[:, -1])) == pytest.approx(1e8, rel=1e-6)
    assert np.max(np.abs(traj(te))) == pytest.approx(1e8, rel=1e-6)


def test_theta_y0_outside_flag_and_blowup(bs):
    sol = theta_y0(bs, 10.0)
    assert sol.params.get("outside_proven_family") is True
    blow = sol.trajectory.event_times("blow-up")
    assert len(blow) == 1
    assert 0.1 < blow[0] < 0.3
    assert sol.valid[1] == pytest.approx(blow[0])
    inside = theta_y0(bs, 0.5 / bs.b0)
    assert "outside_proven_family" not in inside.params
    assert inside.extras["watched_region"]


def test_theta_y0_residual_across_handoff(bs):
    sol = theta_y0(bs, 0.3)
    eps = sol.extras["eps"]
    for t in (eps * 1.05, eps * 1.25, eps * 4.0):
        assert residual_pointwise(bs, sol, t) < 1e-8


@pytest.mark.parametrize("name", ["bs", "lin"])
def test_theta_y0_series_handoff(name, request):
    s = request.getfixturevalue(name)
    for y0 in (0.0, 0.5 / s.b0, 1.4 / s.b0, -1.2 / s.b0):
        sol = theta_y0(s, y0, t_end=1.0)
        assert sol.extras["handoff_mismatch"] < 1e-10
        eps = sol.extras["eps"]
        u, v = sol.extras["u_series"], sol.extras["v_series"]
        want = [s.A[0](eps) * (2.0 / eps + eps * u(eps)),
                s.B[0](eps) * (y0 + eps * eps * v(eps))]
        assert sol.trajectory.t[0] == eps
        assert sol.trajectory.y[:, 0] == pytest.approx(want, rel=1e-14)


def test_boundary_gate_2d(bs, lin):
    for s in (bs, lin):
        rep1 = malgrange_check(su23_p1_ivp(s, 1.0))
        assert rep1.gate_pass
        assert np.allclose(np.sort(rep1.eigenvalues.real), [-6.0, -2.0],
                           atol=1e-12)
        rep2 = malgrange_check(su23_pid_ivp(s, 0.5))
        assert rep2.gate_pass
        assert np.allclose(np.sort(rep2.eigenvalues.real), [-4.0, -2.0],
                           atol=1e-12)


def test_boundary_gate_6d(bs, lin):
    for s in (bs, lin):
        ivp1 = p1_ivp(s)
        rep1 = malgrange_check(ivp1)
        assert rep1.gate_pass
        assert np.max(np.abs(rep1.jacobian
                             - np.diag([-2.0] * 3 + [-6.0] * 3))) == 0.0
        assert ivp1.meta["boundary_variants"]["match"] == "proof"
        ivp2 = pid_ivp(s, 0.5)
        rep2 = malgrange_check(ivp2)
        assert rep2.gate_pass
        got = np.sort(rep2.eigenvalues.real)
        assert np.allclose(got, [-8.0, -8.0, -6.0, -2.0, 0.0, 0.0],
                           atol=1e-8)


@pytest.mark.parametrize("name", ["bs", "lin"])
def test_exact_jacobians_match_m_minus1(name, request):
    # M_{-1} is affine in every problem, so M_{-1}(y0 + d) - M_{-1}(y0)
    # equals J d up to the round-off of evaluating M_{-1}, and y0 is its
    # zero; both relative to the size |J| |y| of the terms
    s = request.getfixturevalue(name)
    ivps = [p1_ivp(s, f1) for f1 in ((1.0, 1.0, 1.0), (0.3, 1.7, 2.9),
                                     (1e4, 2e4, 3e4), (-2.0, 0.5, 0.0))]
    ivps += [pid_ivp(s, 0.5, 0.3, -0.7), pid_ivp(s, -1.2, 2.0, 0.25)]
    ivps += [su23_p1_ivp(s, 1.3), su23_pid_ivp(s, 0.4),
             su23_pid_ivp(s, -2.0)]
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for ivp in ivps:
        y0, J = np.asarray(ivp.y0, dtype=float), ivp.jacobian

        def m1(y):
            return np.asarray(ivp.M_minus1(y), dtype=float)

        m0 = m1(y0)
        assert np.all(np.abs(m0) <= 8 * eps * (np.abs(J) @ np.abs(y0) + 1))
        for _ in range(5):
            d = rng.standard_normal(y0.size)
            scale = np.abs(J) @ (np.abs(y0) + np.abs(d)) + 1
            assert np.all(np.abs(m1(y0 + d) - m0 - J @ d) <= 8 * eps * scale)


def test_solve_singular_reads_only_its_span(lin):
    traj = solve_singular(pid_ivp(lin, 0.5), t_end=2.0)
    read = traj.meta["interp"]
    read(0.0)
    read(2.0)
    for t in (-1.0, 2.0 * (1 + 1e-8), 50.0, math.nan):
        with pytest.raises(ValueError):
            read(t)
    with pytest.raises(ValueError):
        traj(50.0)


def test_theta_y0_profile_stops_at_its_continuation(lin):
    sol = theta_y0(lin, 0.5, t_end=3.0)
    sol.f6(3.0)
    with pytest.raises(ValueError, match="solved span"):
        sol.f6(100.0)


def test_abelian_profile_stops_at_its_lower_end(lin):
    sol = abelian_connection(lin, 1.0, (1.0, 0.0, 0.0))
    sol.f6(1e-6)
    with pytest.raises(ValueError, match="solved span"):
        sol.f6(1e-9)


def test_p1_six_dimensional_matches_explicit(bs):
    from g2flow.singular_ivp import solve_singular
    sol = theta_x1(bs, 1.0)
    ivp = p1_ivp(bs, (1.0, 1.0, 1.0))
    traj = solve_singular(ivp, eps=1e-2, t_end=5.0, order=10, tol=1e-12)
    x = sol.extras["x"]
    for t in (0.02, 0.1, 0.8, 3.0, 5.0):
        u = traj(t)[0]
        got = t + t ** 3 * u
        assert got == pytest.approx(x(t), rel=1e-8)
        assert abs(traj(t)[3]) < 1e-10


def test_pid_symmetric_member_matches_scalar_engine(bs):
    from g2flow.singular_ivp import solve_singular
    base = pid_ivp(bs, 0.5)
    total = float(sum(base.y0[:3]))
    sym = pid_ivp(bs, 0.5, u2_0=total / 3.0, u3_0=total / 3.0)
    assert np.allclose(sym.y0[:3], total / 3.0)
    traj = solve_singular(sym, eps=1e-2, t_end=3.0, order=10, tol=1e-12)
    ref = theta_y0(bs, 0.5)
    beta = 0.25 * (0.25 - 1.0 / bs.b0 ** 2) - 4.0 * bs.a3[0]
    for t in (0.05, 0.4, 1.5, 3.0):
        u = traj(t)[0]
        fp = 2.0 / t + beta * t + t ** 3 * u
        assert fp == pytest.approx(ref.coefficients(t)[0], rel=1e-8)


def test_pid_boundary_data_bryant_salamon(bs):
    ivp = pid_ivp(bs, 0.5)
    bd = ivp.meta["boundary"]
    assert bd.b2_plus == pytest.approx(-0.6875, rel=1e-10)
    for v in bd.v0:
        assert v == pytest.approx(-0.71875, rel=1e-8)
    total = bd.u1_0 + bd.u2_0 + bd.u3_0
    assert total == pytest.approx(0.744921875, rel=1e-8)


def test_scalar_engine_boundary_values(bs):
    cf_phi1 = 0.5
    sol = theta_y0(bs, 0.6)
    u0 = sol.extras["u_series"][0]
    v0 = sol.extras["v_series"][0]
    assert u0 == pytest.approx(0.25 * (0.36 - 2.0 * cf_phi1), rel=1e-9)
    assert v0 == pytest.approx(0.6 * u0 - 0.5 * 0.6 * 2.5, rel=1e-9)
    zero_ivp = su23_pid_ivp(bs, 0.0)
    assert zero_ivp.y0[0] == pytest.approx(-0.25, rel=1e-9)
    assert zero_ivp.y0[1] == 0.0


def test_abelian_decay_and_bundle(bs):
    sol = abelian_connection(bs, 1.0, (0.7, 0.0, 0.2), (0.0, 0.3, 0.0))
    assert sol.bundle == "none"
    pure = abelian_connection(bs, 1.0, (1.0, 1.0, 1.0))
    assert pure.bundle == "P1"
    ts = np.geomspace(1e-4, 1e-2, 12)
    for idx, target in ((0, 2.0), (4, -4.0)):
        vals = np.array([abs(sol.coefficients(t)[idx]) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(target, abs=0.02)


def test_abelian_t0_lies_inside_the_profile_range(lin5):
    # t0 = t_max left an empty upward solve, which dense_reader refused
    # with a TypeError
    for t0 in (5.0, 6.0, 0.0, NAN):
        with pytest.raises(ValueError, match=r"t0 must lie in \(0, t_max\)"):
            abelian_connection(lin5, t0, (1.0, 0.0, 0.0))
    sol = abelian_connection(lin5, 4.9, (1.0, 0.0, 0.0))
    assert np.all(np.isfinite(sol.coefficients(5.0)))


@pytest.mark.parametrize("build, name", [
    (lambda s: p1_ivp(s, (NAN, 1.0, 1.0)), "f1"),
    (lambda s: p1_ivp(s, (1.0, 1.0, INF)), "f1"),
    (lambda s: p1_ivp(s, (1.0, 1.0)), "f1"),
    (lambda s: pid_ivp(s, NAN), "b0_minus"),
    (lambda s: pid_ivp(s, 0.5, INF), "u2_0"),
    (lambda s: pid_ivp(s, 0.5, 0.0, -INF), "u3_0"),
    (lambda s: su23_p1_ivp(s, NAN), "x1"),
    (lambda s: su23_pid_ivp(s, INF), "y0"),
    (lambda s: abelian_connection(s, 1.0, (1.0, 0.0)), "aplus_t0"),
    (lambda s: abelian_connection(s, 1.0, (1.0, 0.0, 0.0), (1, 0, 0, 5)),
     "aminus_t0"),
], ids=["p1-nan", "p1-inf", "p1-two-entries", "pid-b0-minus-nan",
        "pid-u2-inf", "pid-u3-inf", "su23-p1-x1-nan", "su23-pid-y0-inf",
        "abelian-aplus-two-entries", "abelian-aminus-four-entries"])
def test_singular_builders_reject_bad_arguments(lin5, build, name):
    # before, these built a problem with a non-finite y0, raised
    # IndexError, failed only in the Jacobian check, or (abelian) dropped
    # a fourth entry
    with pytest.raises(ValueError, match="^%s must be" % name):
        build(lin5)


def test_abelian_residual_small(bs):
    # the raw minus branch grows like t^-4 below t0, so the absolute
    # defect is only meaningful where the coefficients are bounded
    sol = abelian_connection(bs, 1.0, (0.7, 0.0, 0.2), (0.0, 0.3, 0.0))
    for t in np.geomspace(1.0, 10.0, 7):
        assert residual_pointwise(bs, sol, t) < 1e-8
    plus = abelian_connection(bs, 1.0, (0.7, 0.0, 0.2))
    for t in np.geomspace(1e-2, 10.0, 11):
        assert residual_pointwise(bs, plus, t) < 1e-8


def test_residuals_on_explicit_families(bs, lin):
    for s in (bs, lin):
        for sol in (theta_x1(s, 1.0), theta_zero(s), flat_pid(s, 1),
                    flat_pid(s, -1)):
            for t in np.geomspace(1e-2, 10.0, 13):
                assert residual_pointwise(s, sol, t) < 1e-8


def test_constraint_vanishes_on_diagonal(bs):
    sol = theta_y0(bs, 0.7)
    for t in (0.05, 1.0, 7.0):
        assert constraint_value(connection_at(sol, t), bs, t).is_zero()


def test_constraint_value_on_nondiagonal_data(bs):
    # sum_i [a_i^+, a_i^-] / (A_i B_i), the bracket [u, v] = 2 u x v
    rng = np.random.default_rng(0)
    ap, am = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    conn = ConnectionCoeffs(tuple(Su2Vec(*map(float, v)) for v in ap),
                            tuple(Su2Vec(*map(float, v)) for v in am))
    for t in (0.05, 1.0, 7.0):
        want = sum(2.0 * np.cross(ap[i], am[i]) / (bs.A[i](t) * bs.B[i](t))
                   for i in range(3))
        got = constraint_value(conn, bs, t)
        assert np.abs(want).max() > 0.01
        assert np.allclose(list(got), want, rtol=1e-13, atol=1e-15)


def test_connection_at_applies_profile_factors(bs):
    sol = theta_x1(bs, 1.0)
    t = 0.8
    conn = connection_at(sol, t)
    f = sol.coefficients(t)
    assert conn.a_plus[0][0] == pytest.approx(bs.A[0](t) * f[0], rel=1e-14)
    assert conn.a_minus[0][0] == 0.0


def test_stencil_node_selection():
    offs, _ = _stencil_nodes(0.5, 1e-3, 0.0, 1.0)
    assert offs == (-2, -1, 1, 2)
    offs, _ = _stencil_nodes(1e-5, 1e-3, 0.0, 1.0)
    assert offs == (0, 1, 2, 3)
    offs, _ = _stencil_nodes(1.0, 1e-3, 0.0, 1.0)
    assert offs == (0, -1, -2, -3)
    with pytest.raises(ValueError):
        _stencil_nodes(0.5, 0.3, 0.0, 1.0)


def test_stencil_weights_differentiate_cubics():
    for nodes in ((0.5, 1e-3, 0.0, 1.0), (1e-5, 1e-3, 0.0, 1.0),
                  (1.0, 1e-3, 0.0, 1.0)):
        t, h, lo, hi = nodes
        offs, wts = _stencil_nodes(t, h, lo, hi)
        poly = lambda x: 2.0 + 3.0 * x - x ** 2 + 0.5 * x ** 3
        dpoly = 3.0 - 2.0 * t + 1.5 * t * t
        got = sum(w * poly(t + o * h) for o, w in zip(offs, wts)) / h
        assert got == pytest.approx(dpoly, rel=1e-9, abs=1e-9)


def test_validity_window_enforced(bs):
    sol = theta_x1(bs, 1.0)
    with pytest.raises(ValueError):
        sol.coefficients(-1.0)
    with pytest.raises(ValueError):
        sol.coefficients(bs.t_max * 1.5)


def test_solution_csv_export(bs, tmp_path):
    sol = theta_x1(bs, 1.0)
    path = tmp_path / "sol.csv"
    solution_to_csv(sol, path, ts=np.linspace(0.1, 2.0, 5))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f1p,f2p,f3p,f1m,f2m,f3m,residual_max"
    assert len(lines) == 6
    import json
    side = json.loads((tmp_path / "sol.csv.json").read_text())
    assert side["family"] == "theta_x1"
    assert side["bundle"] == "P1"
    assert side["structure_label"] == "bryant-salamon"
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(0.1)
    assert float(row[7]) < 1e-8


def test_theta_requires_symmetric_structure(bs):
    from g2flow.structures import StructureData
    import copy
    asym = StructureData("skew", bs.A, bs.B, bs.dA, bs.dB,
                         bs.A_series, bs.B_series, b0=bs.b0, b2=bs.b2,
                         t_max=bs.t_max, symmetric=False)
    with pytest.raises(ValueError):
        theta_x1(asym, 1.0)
    with pytest.raises(ValueError):
        theta_y0(asym, 0.1)


def test_eq_quadrature_survives_nan_read():
    s = make_bryant_salamon()
    x = theta_x1(s, 1.0).extras["x"]
    with pytest.raises(ValueError, match="outside the profile range"):
        x(math.nan)
    x(14.0)


@pytest.mark.parametrize("make", [make_bryant_salamon,
                                  lambda: make_linear_example(1.0)],
                         ids=["bryant-salamon", "linear"])
def test_eq_reads_do_not_depend_on_read_order(make):
    # (E, Q) is solved once per structure: a far read first must not
    # move a later read nearer the origin
    def reads(s):
        return (theta_x1(s, 1.0).extras["x"](14.9),
                theta_zero(s).extras["A1x"](14.9))

    s = make()
    before = reads(s)
    theta_x1(s, 1.0).extras["x"](40.0)
    theta_zero(s).extras["A1x"](40.0)
    assert reads(s) == before
    assert reads(make()) == before
