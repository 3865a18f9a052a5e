"""Invariant instanton families on the cone over S^3 x S^3 profiles.

A diagonal invariant connection is described by six profile functions,
a_i^+ = A_i f_i^+ T_i and a_i^- = B_i f_i^- T_i, subject to the six
coupled equations (cyclic (i, j, k))

    df_i^+/dt + F_i f_i^+ = f_j^- f_k^- - f_j^+ f_k^+
    df_i^-/dt + G_i f_i^- = f_j^- f_k^+ + f_j^+ f_k^-

with the coefficient functions of the underlying structure.  This module
provides the explicit one-parameter family theta_x1 and its limit
theta_zero (built from the canonical normalization E, Q below), the
two-parameter extension family theta_y0, flat and abelian references, and
the singular initial value problems that generate solutions near t = 0
on both invariant bundles.

Canonical normalization: E(t) = t exp(-int_0^t phi_1) solves E'/E = -F_1
and Q(t) = int_0^t E.  On every symmetric structure

    theta_x1:   x(t) = x1 E / (1 + x1 Q),      f_i^+ = x, f_i^- = 0
    theta_zero: x(t) = E / Q,                  the x1 -> infinity limit

both solving the scalar reduction x' = (1/t - phi_1) x - x^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._series import ps_var
from .algebra import ConnectionCoeffs
# malgrange_check, series_bootstrap and integrate stay importable from
# this module: perfbench/tracing.py patches the layer entry points here
# by name
from .singular_ivp import (EventSpec, SingularIVP, _dop853, _finite,
                           _finites, _float, _positive_finite, integrate,
                           integrate_blowup, malgrange_check,
                           series_bootstrap, series_handoff)
from .structures import CYC0, _RegularFn, _in_range, coefficient_functions

BLOWUP_THRESHOLD = 1e8
SOLUTION_SERIES_CUTOFF = 1e-3


@dataclass
class InstantonSolution:
    """One member of a solution family.

    f6(t) returns the six profile values (f_1^+, f_2^+, f_3^+, f_1^-,
    f_2^-, f_3^-); for the abelian family the slots hold the connection
    coefficients themselves (a_i^+ multiplies T_i directly, without the
    A_i factor).  valid is the (lo, hi] interval of definition.
    """

    family: str
    params: dict
    bundle: str
    structure: object
    f6: object
    trajectory: object = None
    valid: tuple = (0.0, math.inf)
    extras: dict = field(default_factory=dict)

    def coefficients(self, t):
        lo, hi = self.valid
        if t < lo or t > hi * (1 + 1e-9):
            raise ValueError("t=%g outside validity (%g, %g]" % (t, lo, hi))
        return np.asarray(self.f6(t), dtype=float)


def connection_at(sol, t):
    """ConnectionCoeffs of a family member at time t."""
    if sol.family.startswith("flat"):
        sign = sol.params.get("sign", 1.0)
        return ConnectionCoeffs.from_diagonal((1.0, 1.0, 1.0),
                                              (sign, sign, sign))
    f = sol.coefficients(t)
    if sol.family == "abelian":
        return ConnectionCoeffs.from_diagonal(f[:3], f[3:])
    A, B, _, _ = sol.structure.frame(t)
    ap = tuple(A[i] * f[i] for i in range(3))
    am = tuple(B[i] * f[3 + i] for i in range(3))
    return ConnectionCoeffs.from_diagonal(ap, am)


# ---------------------------------------------------------------------------
# Canonical normalization E, Q


def _eq_data(s):
    """(E, Q, E_ps, Q_ps): one dense (E, Q) solve on [0, t_max] per
    structure; E and Q raise ValueError outside the profile range."""
    eq = s._cache.get("EQ")
    if eq is not None:
        return eq
    cf = coefficient_functions(s)
    phi1 = cf.phi[0]
    t_max = s.t_max

    def rhs(t, y):
        return [phi1(t) if t > 0 else 0.0,
                t * math.exp(-y[0])]

    dense = _dop853(rhs, (0.0, t_max), [0.0, 0.0], 1e-13, 1e-16, (),
                    "(E, Q)").meta["interp"]

    phi_ps = cf.phi_series[0]
    E_ps = ps_var(phi_ps.order + 1) * (-(phi_ps.integ())).exp()
    Q_ps = E_ps.integ()

    def E(t):
        return t * math.exp(-dense(_in_range(t, t_max))[0])

    def Q(t):
        return dense(_in_range(t, t_max))[1]

    eq = s._cache["EQ"] = (E, Q, E_ps, Q_ps)
    return eq


def _require_symmetric(s):
    if not s.symmetric:
        raise ValueError("family needs a symmetric structure (equal A_i, "
                         "equal B_i); %r is not" % s.label)


def _theta_core(s, x_eval, A1x_ps, family, params):
    """The member with f_i^+ = x_eval, f_i^- = 0.  A1x = A_1 x and its
    derivative read their series below SOLUTION_SERIES_CUTOFF; above it
    x' comes from the scalar reduction x' = (1/t - phi_1) x - x^2."""
    cf = coefficient_functions(s)

    def f6(t):
        x = x_eval(t)
        return np.array([x, x, x, 0.0, 0.0, 0.0])

    def dA1x_direct(t):
        x = x_eval(t)
        return s.dA[0](t) * x + s.A[0](t) * (cf.scalar_F(t) * x - x * x)

    extras = {"x": x_eval,
              "A1x": _RegularFn(A1x_ps, lambda t: s.A[0](t) * x_eval(t),
                                SOLUTION_SERIES_CUTOFF, s.t_max),
              "dA1x": _RegularFn(A1x_ps.deriv(), dA1x_direct,
                                 SOLUTION_SERIES_CUTOFF, s.t_max)}
    return InstantonSolution(family=family, params=params, bundle="P1"
                             if family == "theta_x1" else "Pid",
                             structure=s, f6=f6, valid=(0.0, s.t_max),
                             extras=extras)


def theta_x1(s, x1):
    """The explicit family x = x1 E/(1 + x1 Q) on a symmetric structure.

    x1 >= 0 is the t^2 coefficient of 2 A_1 x at the origin; x1 = 0 is
    the product connection.  Lives on the bundle framed by f_i^+ smooth.
    """
    _require_symmetric(s)
    x1 = _finite("x1", x1)
    if x1 < 0:
        raise ValueError("x1 must be >= 0")
    E, Q, E_ps, Q_ps = _eq_data(s)
    x_ps = (E_ps * x1) / (Q_ps * x1 + 1.0)

    def x_direct(t):
        return x1 * E(t) / (1.0 + x1 * Q(t))

    x_eval = _RegularFn(x_ps, x_direct, SOLUTION_SERIES_CUTOFF, s.t_max)
    A1x_ps = s.A_series[0] * x_ps
    return _theta_core(s, x_eval, A1x_ps, "theta_x1", {"x1": x1})


def theta_zero(s):
    """The x1 -> infinity member x = E/Q; A_1 x -> 1 at the origin.

    The profile diverges like 2/t at t = 0, matching the framing of the
    second invariant bundle.
    """
    _require_symmetric(s)
    E, Q, E_ps, Q_ps = _eq_data(s)
    num_ps = E_ps.shift_down(1)
    den_ps = Q_ps.shift_down(2)

    def x_eval(t):
        if t <= 0:
            raise ValueError("theta_zero profile diverges at t = 0")
        if t < SOLUTION_SERIES_CUTOFF:
            return num_ps(t) / (den_ps(t) * t)
        return E(t) / Q(t)

    A1x_ps = (s.A_series[0] * E_ps).shift_down(2) / den_ps
    return _theta_core(s, x_eval, A1x_ps, "theta_zero", {})


# ---------------------------------------------------------------------------
# Scalar reductions of the symmetric case


def su23_rhs_pm(s):
    """RHS of the scalar pair x' = (1/t - phi) x + y^2 - x^2,
    y' = -(4/t + gamma) y + 2 x y in the bounded coordinates
    (A_1 x, B_1 y) on a symmetric structure."""
    _require_symmetric(s)
    A1, B1 = s.A[0], s.B[0]

    def rhs(t, z):
        a, b = A1(t), B1(t)
        xp, xm = z[0], z[1]
        rat = a / (b * b)
        return [(xp / a) * (1.0 - a * rat - xp) + rat * xm * xm,
                2.0 * xm * (xp - 1.0) / a]

    return rhs


def su23_pid_ivp(s, y0):
    """Reduced singular problem for x = 2/t + t u, y = y0 + t^2 v."""
    _require_symmetric(s)
    cf = coefficient_functions(s)
    row, p1, g1 = cf.row, cf.phi1[0], cf.gamma1[0]
    y0 = _finite("y0", y0)
    u0 = 0.25 * (y0 * y0 - 2.0 * p1)
    v0 = y0 * u0 - 0.5 * y0 * g1

    def M_minus1(y):
        u, v = y[0], y[1]
        return [-4.0 * u + y0 * y0 - 2.0 * p1,
                -2.0 * v + 2.0 * y0 * u - y0 * g1]

    def M(t, y):
        phi, gamma, _, _, phi_hat, _, gamma_hat = row(t)
        u, v = y[0], y[1]
        t3 = t * t * t
        return [-2.0 * phi_hat[0] - phi[0] * u + 2.0 * y0 * t * v
                + t3 * v * v - t * u * u,
                -y0 * gamma_hat[0] - gamma[0] * v + 2.0 * t * u * v]

    return SingularIVP(M_minus1, M, [u0, v0],
                       [[-4.0, 0.0], [2.0 * y0, -2.0]],
                       label="su23-pid(y0=%g)" % y0, meta={"y0": y0})


def theta_y0(s, y0, t_end=10.5, eps=1e-2, order=10, tol=1e-13):
    """Two-parameter extension member with f_i^- -> y0 at the origin.

    Bootstraps the reduced (u, v) problem on [0, eps], then continues the
    bounded pair (A_1 x, B_1 y) adaptively with blow-up (and, strictly
    inside the proven region 0 < y0 < 1/b0, region-exit) events.  The
    trajectory attribute holds the bounded-coordinate continuation;
    extras["handoff_mismatch"] is the series_handoff defect at eps.
    """
    _require_symmetric(s)
    y0 = _finite("y0", y0)
    eps, tol = _positive_finite("eps", eps), _positive_finite("tol", tol)
    A1, B1 = s.A[0], s.B[0]
    hi = min(_float(t_end), s.t_max)     # t_end may be +inf
    if not eps < hi:
        raise ValueError("t_end must be a number above eps, and so must t_max")
    ivp = su23_pid_ivp(s, y0)
    rep, series, (u_eps, v_eps), mismatch = series_handoff(ivp, eps,
                                                           order=order)
    u_ps, v_ps = series

    def x_small(t):
        return 2.0 / t + t * u_ps(t)

    def y_small(t):
        return y0 + t * t * v_ps(t)

    state0 = [A1(eps) * (2.0 / eps + eps * u_eps),
              B1(eps) * (y0 + eps * eps * v_eps)]
    watch_region = 0.0 < y0 < 1.0 / s.b0
    events = [
        EventSpec("region-exit", lambda t, z: z[0]),
        EventSpec("region-exit", lambda t, z: 1.0 - z[0]),
        EventSpec("region-exit", lambda t, z: z[1]),
        EventSpec("region-exit", lambda t, z: 1.0 - z[1]),
    ] if watch_region else []
    traj = integrate_blowup(su23_rhs_pm(s), (eps, hi), state0, tol, events,
                            "theta_y0(y0=%g)" % y0, BLOWUP_THRESHOLD)
    blow = traj.event_times("blow-up")
    hi_valid = min(blow) if blow else float(traj.t[-1])

    def f6(t):
        if t <= 0:
            raise ValueError("profile diverges at t = 0")
        if t <= eps:
            x, y = x_small(t), y_small(t)
        else:
            z = traj(t)
            A, B, _, _ = s.frame(t)
            x, y = z[0] / A[0], z[1] / B[0]
        return np.array([x, x, x, y, y, y])

    params = {"y0": y0}
    if abs(y0) > 1.0 / s.b0 + 1e-12:
        params["outside_proven_family"] = True
    extras = {"check": rep, "u_series": u_ps,
              "v_series": v_ps, "eps": eps, "handoff_mismatch": mismatch,
              "watched_region": watch_region}
    return InstantonSolution(family="theta_y0", params=params, bundle="Pid",
                             structure=s, f6=f6, trajectory=traj,
                             valid=(0.0, hi_valid), extras=extras)


# ---------------------------------------------------------------------------
# Six-dimensional singular problems on both bundles


def p1_ivp(s, f1=(1.0, 1.0, 1.0)):
    """Singular problem for f_i^+ = f_{i,1} t + t^3 u_i, f_i^- = t^2 v_i.

    The leading data f1 = (f_{1,1}, f_{2,1}, f_{3,1}) is free; the next
    coefficients are forced.  meta["boundary_variants"] records the
    engine value of u_i(0) next to the two printed candidate formulas
    (they differ in whether the quadratic term is halved) and which of
    them the engine confirms.
    """
    f1 = tuple(_finites("f1", f1, 3))
    cf = coefficient_functions(s)
    p1v, row = cf.phi1, cf.row

    def M_minus1(y):
        out = [None] * 6
        for i, j, k in CYC0:
            out[i] = -2.0 * y[i] - p1v[i] * f1[i] - f1[j] * f1[k]
            out[3 + i] = -6.0 * y[3 + i]
        return out

    def M(t, y):
        phi, gamma, _, _, phi_hat, _, _ = row(t)
        t3 = t * t * t
        out = [None] * 6
        for i, j, k in CYC0:
            u_i, u_j, u_k = y[i], y[j], y[k]
            v_j, v_k = y[3 + j], y[3 + k]
            out[i] = (-f1[i] * phi_hat[i] - phi[i] * u_i
                      + t * (v_j * v_k - f1[j] * u_k - f1[k] * u_j)
                      - t3 * u_j * u_k)
            out[3 + i] = (-gamma[i] * y[3 + i]
                          + t * (v_j * f1[k] + f1[j] * v_k)
                          + t3 * (v_j * u_k + u_j * v_k))
        return out

    # M_minus1 is affine, so one step from 0 solves M_minus1(y0) = 0
    jac = np.diag([-2.0] * 3 + [-6.0] * 3)
    zeros = np.zeros(6)
    y0 = zeros - np.linalg.solve(jac, np.asarray(M_minus1(zeros), dtype=float))
    engine = tuple(y0[:3])
    a3 = s.a3
    statement, proof = [], []
    for i, j, k in CYC0:
        lin = (1.0 / (4.0 * s.b0 ** 2) + 2.0 * (a3[j] + a3[k])) * f1[i]
        statement.append(-lin - f1[j] * f1[k])
        proof.append(-lin - 0.5 * f1[j] * f1[k])
    d_st = max(abs(e - v) for e, v in zip(engine, statement))
    d_pr = max(abs(e - v) for e, v in zip(engine, proof))
    tol = 1e-10 * max(1.0, max(abs(v) for v in engine))
    match = {(True, True): "both", (True, False): "statement",
             (False, True): "proof", (False, False): "neither"}[
                 (d_st <= tol, d_pr <= tol)]
    meta = {"f1": f1,
            "boundary_variants": {"engine": engine,
                                  "statement": tuple(statement),
                                  "proof": tuple(proof),
                                  "match": match}}
    return SingularIVP(M_minus1, M, y0, jac, label="p1", meta=meta)


@dataclass
class PidBoundaryData:
    b0_minus: float
    b2_plus: float
    u1_0: float
    u2_0: float
    u3_0: float
    v0: tuple


def pid_ivp(s, b0_minus, u2_0=0.0, u3_0=0.0):
    """Singular problem for f_i^+ = 2/t + beta_i t + t^3 u_i,
    f_i^- = b0_minus + t^2 v_i.

    The t^{-3} balance forces b2_plus = (b0_minus^2 - 1/b0^2)/4 and
    beta_i = b2_plus - 4 a_{i,3}; v_i(0) is then determined linearly and
    u_i(0) only through the sum, leaving (u2_0, u3_0) free.  When the
    structure makes the three u-row constants inconsistent the returned
    problem fails its solvability gate with a nonzero residual rather
    than being repaired here.
    """
    b0m = _finite("b0_minus", b0_minus)
    u2_0, u3_0 = _finite("u2_0", u2_0), _finite("u3_0", u3_0)
    cf = coefficient_functions(s)
    b2p = 0.25 * (b0m * b0m - 1.0 / s.b0 ** 2)
    a3 = s.a3
    beta = tuple(b2p - 4.0 * a3[i] for i in range(3))
    p1v, p3v, g1v = cf.phi1, cf.phi3, cf.gamma1
    K = [None] * 3
    K4 = [None] * 3
    for i, j, k in CYC0:
        K[i] = -2.0 * p3v[i] - beta[i] * p1v[i] - beta[j] * beta[k]
        K4[i] = b0m * (beta[j] + beta[k] - g1v[i])

    Jv = 2.0 * np.ones((3, 3)) - 8.0 * np.eye(3)
    v0 = np.linalg.solve(Jv, -np.asarray(K4))
    sum_u = []
    for i, j, k in CYC0:
        sum_u.append(0.5 * (b0m * (v0[j] + v0[k]) + K[i]))
    u1 = float(np.mean(sum_u)) - u2_0 - u3_0
    y0 = np.array([u1, u2_0, u3_0, v0[0], v0[1], v0[2]])

    phi3, row = cf.phi3, cf.row

    def M_minus1(y):
        out = [None] * 6
        su = y[0] + y[1] + y[2]
        for i, j, k in CYC0:
            out[i] = -2.0 * su + b0m * (y[3 + j] + y[3 + k]) + K[i]
            out[3 + i] = (-6.0 * y[3 + i] + 2.0 * y[3 + j]
                          + 2.0 * y[3 + k] + K4[i])
        return out

    def M(t, y):
        phi, gamma, _, _, _, dphi, gamma_hat = row(t)
        t3 = t * t * t
        out = [None] * 6
        for i, j, k in CYC0:
            u_i, u_j, u_k = y[i], y[j], y[k]
            v_i, v_j, v_k = y[3 + i], y[3 + j], y[3 + k]
            out[i] = (t * (v_j * v_k - beta[j] * u_k - beta[k] * u_j
                           - 2.0 * dphi[i] - beta[i] * phi3[i])
                      - phi[i] * u_i - beta[i] * t3 * dphi[i]
                      - t3 * u_j * u_k)
            out[3 + i] = (-b0m * gamma_hat[i] - gamma[i] * v_i
                          + t * (b0m * (u_j + u_k) + beta[k] * v_j
                                 + beta[j] * v_k)
                          + t3 * (v_j * u_k + u_j * v_k))
        return out

    boundary = PidBoundaryData(b0m, b2p, float(y0[0]), float(u2_0),
                               float(u3_0), tuple(float(v) for v in v0))
    meta = {"boundary": boundary, "beta": beta,
            "v0_formula_symmetric": b0m * (b2p - s.b2 / s.b0)}
    jac = np.block([[np.full((3, 3), -2.0), b0m * (1.0 - np.eye(3))],
                    [np.zeros((3, 3)), Jv]])
    return SingularIVP(M_minus1, M, y0, jac, label="pid", meta=meta)


# ---------------------------------------------------------------------------
# Flat and abelian references


def flat_pid(s, sign=1):
    """Flat product connection f_i^+ = 1/A_i, f_i^- = sign/B_i."""
    if _float(sign) not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def f6(t):
        A, B, _, _ = s.frame(t)
        return np.array([1.0 / A[0], 1.0 / A[1], 1.0 / A[2],
                         sign / B[0], sign / B[1], sign / B[2]])

    fam = "flat_plus" if sign == 1 else "flat_minus"
    return InstantonSolution(family=fam, params={"sign": float(sign)},
                             bundle="Pid", structure=s, f6=f6,
                             valid=(0.0, s.t_max))


def abelian_connection(s, t0, aplus_t0, aminus_t0=(0.0, 0.0, 0.0)):
    """Diagonal abelian connection fixed by its value at t0 in (1e-6, t_max).

    a_i^+(t) = a_i^+(t0) (t/t0)^2 exp(-int_{t0}^t q_i) and the raw
    companion branch a_i^-(t) = a_i^-(t0) (t0/t)^4 exp(-int_{t0}^t h_i),
    with q_i, h_i the regular parts of the abelian decay rates.  The six
    slots of f6 hold the connection coefficients themselves; they are
    valid on [1e-6, t_max].  Below t0 the integrals solve forward in -t.
    """
    lo, hi = 1e-6, s.t_max
    t0 = _float(t0)
    if not lo < t0 < hi:
        raise ValueError("t0 must lie in (%g, t_max)" % lo)
    ap0 = tuple(_finites("aplus_t0", aplus_t0, 3))
    am0 = tuple(_finites("aminus_t0", aminus_t0, 3))
    row = coefficient_functions(s).row

    def rhs(t, y):
        _, _, a_plus, a_minus, _, _, _ = row(t)
        return [*a_plus, *a_minus]

    def reflected(t, y):            # the negated rates, in -t
        return [-v for v in rhs(-t, y)]

    up, down = (_dop853(f, span, np.zeros(6), 3e-13, 1e-15, (),
                        "abelian rates").meta["interp"]
                for f, span in ((rhs, (t0, hi)), (reflected, (-t0, -lo))))

    def f6(t):
        iv = up(t) if t >= t0 else down(-t)
        sc2, sc4 = (t / t0) ** 2, (t0 / t) ** 4
        out = np.empty(6)
        for i in range(3):
            out[i] = ap0[i] * sc2 * math.exp(-iv[i])
            out[3 + i] = am0[i] * sc4 * math.exp(-iv[3 + i])
        return out

    bundle = "P1" if all(v == 0.0 for v in am0) else "none"
    return InstantonSolution(
        family="abelian", params={"t0": t0, "aplus_t0": ap0,
                                  "aminus_t0": am0},
        bundle=bundle, structure=s, f6=f6, valid=(lo, hi))


# ---------------------------------------------------------------------------
# Residuals and export


def _stencil_nodes(t, h, lo, hi):
    """Derivative stencil at t staying inside (lo, hi].

    Five-point central away from the edges, one-sided four-point next to
    them (avoids evaluating at or below lo, in particular at t <= 0).
    Returns offsets and weights with dw = sum(w*f(t+o*h)) / h.
    """
    slack = hi * (1 + 1e-9)
    if t - 2 * h > lo and t + 2 * h <= slack:
        return (-2, -1, 1, 2), (1 / 12.0, -8 / 12.0, 8 / 12.0, -1 / 12.0)
    if t - 2 * h <= lo and t + 3 * h <= slack:
        return (0, 1, 2, 3), (-11 / 6.0, 3.0, -3 / 2.0, 1 / 3.0)
    if t + 2 * h > slack and t - 3 * h > lo:
        return (0, -1, -2, -3), (11 / 6.0, -3.0, 3 / 2.0, -1 / 3.0)
    raise ValueError("no stencil fits the validity interval at t=%g" % t)


def residual_pointwise(s, sol, t):
    """Sup norm of the six-equation defect at t.

    Derivatives are estimated by five-point stencils (step 1e-5 max(t, 1))
    on the bounded products A_i f_i^+ and B_i f_i^-, then converted back
    with the exact profile derivatives; this keeps the estimator usable
    down to small t where the raw profiles grow like 1/t.  Abelian members
    are measured against their decoupled rate equations, stencils on the
    slots themselves.  Each node reads its profiles and its frame
    together, the centre last, so one frame per node is evaluated.
    """
    cf = coefficient_functions(s)
    h = 1e-5 * max(t, 1.0)
    lo, hi = sol.valid
    offs, wts = _stencil_nodes(t, h, lo, hi)
    ts = [t + o * h for o in offs]
    r = np.empty(6)
    if sol.family == "abelian":
        df = np.array([sol.coefficients(x) for x in ts]).T.dot(wts) / h
        f = sol.coefficients(t)
        for i in range(3):
            r[i] = df[i] + (cf.a_plus_rate[i](t) - 2.0 / t) * f[i]
            r[3 + i] = df[3 + i] + (cf.a_minus_rate[i](t) + 4.0 / t) * f[3 + i]
        return float(np.max(np.abs(r)))
    w = np.empty((6, len(ts)))
    for m, x in enumerate(ts):
        fx = sol.coefficients(x)
        A, B, _, _ = s.frame(x)
        for i in range(3):
            w[i, m] = A[i] * fx[i]
            w[3 + i, m] = B[i] * fx[3 + i]
    dw = w.dot(wts) / h
    f = sol.coefficients(t)
    A, B, dA, dB = s.frame(t)
    for i, j, k in CYC0:
        dfp = (dw[i] - dA[i] * f[i]) / A[i]
        dfm = (dw[3 + i] - dB[i] * f[3 + i]) / B[i]
        r[i] = dfp + cf.F[i](t) * f[i] - (f[3 + j] * f[3 + k] - f[j] * f[k])
        r[3 + i] = (dfm + cf.G[i](t) * f[3 + i]
                    - (f[3 + j] * f[k] + f[j] * f[3 + k]))
    return float(np.max(np.abs(r)))


def solution_to_csv(sol, path, ts):
    """CSV t,f1p,f2p,f3p,f1m,f2m,f3m,residual_max on the times ts, plus a
    JSON sidecar."""
    s = sol.structure
    with open(path, "w", newline="\n") as fh:
        fh.write("t,f1p,f2p,f3p,f1m,f2m,f3m,residual_max\n")
        for t in ts:
            t = float(t)
            f = sol.coefficients(t)
            try:
                res = residual_pointwise(s, sol, t)
            except ValueError:
                res = float("nan")
            row = [t] + [float(v) for v in f] + [res]
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    side = {"family": sol.family, "params": sol.params,
            "bundle": sol.bundle,
            "structure_label": s.label}
    with open(str(path) + ".json", "w", newline="\n") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)
        fh.write("\n")
