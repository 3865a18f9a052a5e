"""Acceptance battery, one test per numbered criterion.

Each test pins the tolerance it claims; the terminal summary prints one
PASS/FAIL line per criterion.  Explicit profiles serve as oracles for
the series engine and the residual stencils throughout.
"""

import math
import random
import time

import numpy as np
import pytest

from g2flow.algebra import (ConnectionCoeffs, curvature_direct,
                            curvature_lemma2, random_rational_connection)
from g2flow.instantons import (abelian_connection, flat_pid, p1_ivp, pid_ivp,
                               residual_pointwise, su23_pid_ivp, theta_x1,
                               theta_y0, theta_zero)
from g2flow.singular_ivp import malgrange_check
from g2flow.structures import PowerSeries, make_su23_structure
from g2flow.verify import (P1_SPECTRUM, PID_SPECTRUM, bubbling_report,
                           convergence_report, invariance_report)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def richardson(g, t):
    # kills the t^2 term of an even-error expansion
    return (4.0 * g(t / 2.0) - g(t)) / 3.0


def test_01_curvature_routes_rational(bs):
    start = time.monotonic()
    rng = random.Random(20240811)
    for _ in range(1000):
        conn = random_rational_connection(rng)
        assert curvature_direct(conn) == curvature_lemma2(conn)
    assert time.monotonic() - start < 5.0


def test_02_flat_members_zero_curvature(bs):
    for sign in (1, -1):
        sol = flat_pid(bs, sign)
        for t in (0.5, 1.0, 2.0):
            f = sol.f6(t)
            prods = [bs.A[i](t) * f[i] for i in range(3)] + \
                [bs.B[i](t) * f[3 + i] for i in range(3)]
            assert prods == pytest.approx([1.0] * 3 + [float(sign)] * 3,
                                          abs=1e-15)
        conn = ConnectionCoeffs.from_diagonal((1, 1, 1), (sign,) * 3)
        assert curvature_direct(conn).is_zero()
        assert curvature_lemma2(conn).is_zero()


def test_03_one_parameter_family_closed_form(bs):
    start = time.monotonic()
    ts = np.geomspace(0.01, 10.0, 100)
    third = bs.b0 * bs.b0
    for x1 in (0.1, 1.0, 10.0):
        sol = theta_x1(bs, x1)
        for t in ts:
            a1 = bs.A[0](t)
            closed = x1 * 2.0 * a1 * a1 / (
                1.0 + x1 * (bs.B[0](t) ** 2 - third))
            assert rel_err(sol.extras["A1x"](t), closed) <= 1e-6
    assert time.monotonic() - start < 10.0


def test_04_limit_member_closed_form(bs):
    ts = np.geomspace(0.01, 10.0, 100)
    sol = theta_zero(bs)
    third = bs.b0 * bs.b0
    for t in ts:
        a1 = bs.A[0](t)
        closed = 2.0 * a1 * a1 / (bs.B[0](t) ** 2 - third)
        assert rel_err(sol.extras["A1x"](t), closed) <= 1e-6


def test_05_boundary_spectra(bs, lin):
    for s in (bs, lin):
        rep = malgrange_check(p1_ivp(s))
        assert rep.gate_pass
        assert np.abs(rep.jacobian - np.diag(P1_SPECTRUM)).max() <= 1e-8
        rep = malgrange_check(pid_ivp(s, 0.5 / s.b0))
        assert rep.gate_pass
        got = np.sort(rep.eigenvalues.real)
        assert np.abs(got - np.sort(PID_SPECTRUM)).max() <= 1e-8
        assert np.abs(rep.eigenvalues.imag).max() <= 1e-8


def test_06_residuals_all_families(bs, lin):
    start = time.monotonic()
    grid = np.geomspace(1e-2, 10.0, 25)
    for s in (bs, lin):
        sols = [theta_x1(s, x1) for x1 in (0.0, 1.0, 10.0)]
        sols.append(theta_zero(s))
        inv = 1.0 / s.b0
        sols += [theta_y0(s, y0)
                 for y0 in (0.0, 0.5 * inv, -0.5 * inv, inv, -inv)]
        for sol in sols:
            sup = max(residual_pointwise(s, sol, t) for t in grid)
            assert sup <= 1e-8, (s.label, sol.family, sol.params, sup)
    assert time.monotonic() - start < 60.0


def test_07_forward_invariance_to_t50(bs):
    for frac in (0.1, 0.3, 0.5, 0.9):
        sol = theta_y0(bs, frac / bs.b0, t_end=50.0)
        assert sol.valid[1] >= 50.0 * (1.0 - 1e-9)
        rep = invariance_report(sol.trajectory)
        assert rep.passed, (frac, rep.metrics)


def test_08_boundary_coefficients_vs_differentiation(bs):
    t = 1e-2
    for x1 in (1.0, 2.0):
        ivp = p1_ivp(bs, (x1,) * 3)
        x = theta_x1(bs, x1).extras["x"]

        def g(h):
            return (x(h) - x1 * h) / h ** 3

        assert rel_err(richardson(g, t), ivp.y0[0]) <= 1e-6
        assert ivp.y0[3] == 0.0

    ivp = su23_pid_ivp(bs, 0.0)
    x = theta_zero(bs).extras["x"]

    def gu(h):
        return (x(h) - 2.0 / h) / h

    assert rel_err(richardson(gu, t), ivp.y0[0]) <= 1e-6
    assert ivp.y0[1] == 0.0

    y0 = 1.0 / bs.b0
    ivp = su23_pid_ivp(bs, y0)
    flat = flat_pid(bs, 1)

    def gu(h):
        return (flat.f6(h)[0] - 2.0 / h) / h

    def gv(h):
        return (flat.f6(h)[3] - y0) / h ** 2

    assert rel_err(richardson(gu, t), ivp.y0[0]) <= 1e-6
    assert rel_err(richardson(gv, t), ivp.y0[1]) <= 1e-6

    # the two candidate closed forms for u_i(0) differ by a halved
    # quadratic term; record which one the engine confirms
    variants = p1_ivp(bs).meta["boundary_variants"]
    print("u_i(0) variant confirmed by the engine: %s" % variants["match"])
    assert variants["match"] == "proof"
    meta = pid_ivp(bs, 0.5).meta
    v0 = meta["boundary"].v0
    print("v_i(0) symmetric formula b0m*(b2p - b2/b0): %.17g vs engine %.17g"
          % (meta["v0_formula_symmetric"], v0[0]))
    assert rel_err(v0[0], meta["v0_formula_symmetric"]) <= 1e-12


def test_09_bubbling_scaling(bs):
    start = time.monotonic()
    dists, cs = [], []
    for x1 in (10.0, 100.0, 1000.0, 10000.0):
        rep = bubbling_report(bs, x1, 1.0)
        assert rep.passed
        dists.append(rep.metrics["sup_distance"])
        cs.append(rep.metrics["c_fit"])
    assert dists[0] > dists[1] > dists[2] > dists[3]
    slope = np.polyfit(np.log(cs), np.log(dists), 1)[0]
    assert -1.2 <= slope <= -0.8, slope
    assert time.monotonic() - start < 30.0


def test_10_convergence_to_limit_member(bs):
    rep = convergence_report(bs, (1.0, 10.0, 100.0))
    assert rep.passed
    d = [rep.metrics["sup_diff_x1=%g" % v] for v in (1.0, 10.0, 100.0)]
    assert d[0] > d[1] > d[2]
    assert rep.metrics["fit_residual"] <= 0.10


def test_11_linear_example_closed_forms():
    ser = PowerSeries([0.0, 0.5], parity="odd")
    s = make_su23_structure(((lambda t: 0.5 * t), ser, (lambda t: 0.5)),
                            1.0, t_max=12.0)
    for t in np.linspace(0.0, 5.0, 101):
        assert abs(s.B[0](t) ** 2 - (1.0 + t * t / 4.0)) <= 1e-8
    sol = theta_zero(s)
    for t in np.geomspace(1e-2, 5.0, 60):
        q = t * t / 4.0
        closed = q / ((q + 1.0) * math.log1p(q))
        assert abs(sol.extras["A1x"](t) - closed) <= 1e-8


def test_12_abelian_decay_exponents(bs):
    sol = abelian_connection(bs, 1.0, (0.3, 0.5, 0.7), (0.2, 0.4, 0.6))
    ts = np.geomspace(1e-3, 1e-2, 30)
    f = np.array([sol.coefficients(t) for t in ts])
    for col in range(6):
        want = 2.0 if col < 3 else -4.0
        slope = np.polyfit(np.log(ts), np.log(np.abs(f[:, col])), 1)[0]
        assert abs(slope - want) <= 0.02, (col, slope)
