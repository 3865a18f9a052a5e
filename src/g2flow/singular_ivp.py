"""Singular initial value problems t y' = M_{-1}(y) + t M(t, y).

The systems solved here have a regular singular point at t = 0: the right
hand side is M_{-1}(y)/t + M(t, y) with M_{-1} vanishing at the initial
value.  Solvability is gated on the classical condition that no eigenvalue
of d_{y0} M_{-1} is a positive integer; the unique formal solution is then
produced order by order (series_bootstrap), evaluated at the handoff point
t = eps (series_handoff) and continued from there by an adaptive
integrator away from the singularity (solve_singular).

M_{-1} and M must be written with generic arithmetic on the components of
y (and on t), because the bootstrap evaluates them on truncated power
series to read off Taylor coefficients of the composition; M is
evaluated at the variable-t series ps_var(order).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from ._series import PowerSeries, ps_var

# scipy lifts any smaller rtol to this value and only warns
RTOL_FLOOR = 100 * np.finfo(float).eps


def dense_reader(sol):
    """Scalar reader t -> tuple of floats, bitwise equal to sol(t) for a
    DOP853 OdeSolution (the segment rule of OdeSolution._call_single, the
    float operations of Dop853DenseOutput._call_impl).  Segments convert
    on first read; the last (t, values) is one tuple set in one
    assignment, so reads at one t evaluate once, also across threads."""
    if not all(isinstance(f, Dop853DenseOutput) for f in sol.interpolants):
        raise TypeError("dense_reader needs a DOP853 OdeSolution")
    ts, n = sol.ts_sorted.tolist(), sol.n_segments
    find = bisect_left if sol.ascending else bisect_right
    fs = sol.interpolants if sol.ascending else sol.interpolants[::-1]
    segments = [None] * n         # float forms, in the order of ts
    last = (None, None)

    def read(t):
        nonlocal last
        memo = last
        if memo[0] == t:
            return memo[1]
        i = min(max(find(ts, t) - 1, 0), n - 1)
        seg = segments[i]
        if seg is None:
            # per component: 0 + F[6], F[5], ..., F[0], y_old
            f = fs[i]
            seg = segments[i] = (float(f.t_old), float(f.h), list(zip(
                (0.0 + f.F[-1]).tolist(), *f.F[-2::-1].tolist(),
                f.y_old.tolist())))
        t_old, h, cols = seg
        x = (float(t) - t_old) / h
        xm = 1 - x
        values = tuple(
            ((((((c6 * x + c5) * xm + c4) * x + c3) * xm + c2) * x + c1) * xm
             + c0) * x + y_old
            for c6, c5, c4, c3, c2, c1, c0, y_old in cols)
        last = (t, values)
        return values

    return read


class PreconditionError(ValueError):
    """The solvability gate failed for a singular problem."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed; .trajectory holds the last valid part."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class SingularIVP:
    """Data of one singular problem.

    M_minus1(y) and M(t, y) return sequences of length dim; jacobian, if
    given, is the exact derivative of M_minus1 (otherwise differenced).
    """

    dim: int
    M_minus1: object
    M: object
    y0: object
    label: str = ""
    jacobian: object = None
    meta: dict = field(default_factory=dict)


@dataclass
class MalgrangeReport:
    residual_at_y0: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    gate_pass: bool
    offending_h: object
    tol: float
    eig_tol: float


def numeric_jacobian(f, y):
    """Richardson-extrapolated central differences, accurate to ~1e-11."""
    y = np.asarray(y, dtype=float)
    f0 = np.asarray(f(y), dtype=float)
    J = np.zeros((f0.size, y.size))
    for j in range(y.size):
        h = 1e-5 * max(1.0, abs(y[j]))

        def diff(step):
            yp = y.copy()
            yp[j] += step
            ym = y.copy()
            ym[j] -= step
            return (np.asarray(f(yp), dtype=float)
                    - np.asarray(f(ym), dtype=float)) / (2.0 * step)

        d1 = diff(h)
        d2 = diff(0.5 * h)
        J[:, j] = (4.0 * d2 - d1) / 3.0
    return J


def malgrange_check(ivp):
    """Gate: M_{-1}(y0) = 0 and no eigenvalue of d M_{-1} is in {1, 2, ...}."""
    tol = eig_tol = 1e-8
    y0 = np.asarray(ivp.y0, dtype=float)
    r = float(np.max(np.abs(np.asarray(ivp.M_minus1(y0), dtype=float))))
    if ivp.jacobian is not None:
        J = np.asarray(ivp.jacobian(y0), dtype=float)
    else:
        J = numeric_jacobian(ivp.M_minus1, y0)
    eig = np.linalg.eigvals(J)
    offending = None
    for lam in sorted(eig, key=lambda z: z.real):
        if abs(lam.imag) <= eig_tol:
            h = int(round(lam.real))
            if h >= 1 and abs(lam.real - h) <= eig_tol:
                offending = h
                break
    gate = (r <= tol) and offending is None
    return MalgrangeReport(r, J, eig, gate, offending, tol, eig_tol)


def _coeff(x, k):
    if isinstance(x, PowerSeries):
        return x[k]
    return x if k == 0 else 0.0


def series_bootstrap(ivp, order=8, check=None):
    """Taylor coefficients of the solution through t^order.

    c_k solves (k I - J) c_k = [t^k] M_{-1}(y_{<k}) + [t^{k-1}] M(t, y_{<k}),
    with the coefficient extraction done by evaluating M_{-1} and M on
    truncated power series.
    """
    rep = check if check is not None else malgrange_check(ivp)
    if not rep.gate_pass:
        raise PreconditionError(
            "solvability gate failed for %r: residual %.3e, offending h %s"
            % (ivp.label, rep.residual_at_y0, rep.offending_h))
    dim = ivp.dim
    J = rep.jacobian
    I = np.eye(dim)
    coeffs = np.zeros((dim, order + 1))
    coeffs[:, 0] = np.asarray(ivp.y0, dtype=float)
    tps = ps_var(order)
    for k in range(1, order + 1):
        y_ps = [PowerSeries(list(coeffs[i])) for i in range(dim)]
        m1 = ivp.M_minus1(y_ps)
        mm = ivp.M(tps, y_ps)
        rhs = np.array([_coeff(m1[i], k) + _coeff(mm[i], k - 1)
                        for i in range(dim)], dtype=float)
        coeffs[:, k] = np.linalg.solve(k * I - J, rhs)
    return [PowerSeries(coeffs[i].tolist()) for i in range(dim)]


def series_handoff(ivp, eps, order=8):
    """Gate, series bootstrap and the state at the handoff point eps.

    Returns (check, series, y_eps, mismatch).  mismatch is the sup defect
    between the series derivative and the vector field at eps, which
    measures the series truncation error there.
    """
    rep = malgrange_check(ivp)
    series = series_bootstrap(ivp, order=order, check=rep)
    y_eps = np.array([p(eps) for p in series])
    field_eps = (np.asarray(ivp.M_minus1(y_eps), dtype=float) / eps
                 + np.asarray(ivp.M(eps, y_eps), dtype=float))
    series_deriv = np.array([p.deriv()(eps) for p in series])
    mismatch = float(np.max(np.abs(field_eps - series_deriv)))
    return rep, series, y_eps, mismatch


def solve_boundary(M_minus1, seed, jacobian=None, max_iter=60):
    """Newton solve of M_{-1}(y) = 0 from a seed guess."""
    tol = 1e-12
    y = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        r = np.asarray(M_minus1(y), dtype=float)
        if np.max(np.abs(r)) <= tol:
            return y
        J = jacobian(y) if jacobian is not None else numeric_jacobian(
            M_minus1, y)
        y = y - np.linalg.solve(J, r)
    if np.max(np.abs(np.asarray(M_minus1(y), dtype=float))) <= tol:
        return y
    raise RuntimeError("boundary Newton iteration did not converge")


# ---------------------------------------------------------------------------
# Events and trajectories


@dataclass
class EventSpec:
    kind: str
    fn: object
    terminal: bool = False
    direction: float = 0.0


def blowup_event(threshold=1e8):
    """Fires when the sup norm of the state reaches the threshold."""

    def fn(t, y):
        return threshold - float(np.max(np.abs(y)))

    return EventSpec("blow-up", fn, terminal=True, direction=-1.0)


class Trajectory:
    """Sampled solution with events and an optional dense evaluator."""

    def __init__(self, t, y, events=None, meta=None):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.events = list(events or [])
        self.meta = dict(meta or {})

    @property
    def dim(self):
        return self.y.shape[0]

    def __call__(self, t):
        interp = self.meta.get("interp")
        if interp is None:
            raise ValueError("trajectory stores no dense output")
        if np.ndim(t) == 0:
            return np.asarray(interp(float(t)), dtype=float)
        return np.stack(
            [np.asarray(interp(float(x)), dtype=float)
             for x in np.asarray(t, dtype=float)], axis=1)

    def event_times(self, kind):
        return [te for ek, te in self.events if ek == kind]

    def to_csv(self, path):
        cols = ["t"] + ["y%d" % i for i in range(self.dim)]
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for m in range(self.t.size):
                row = [self.t[m]] + [self.y[i, m] for i in range(self.dim)]
                fh.write(",".join("%.17g" % v for v in row) + "\n")
            for kind, te in self.events:
                fh.write("# event,%s,%.17g\n" % (kind, te))

    def __repr__(self):
        return "Trajectory(n=%d, t=[%g, %g], events=%r)" % (
            self.t.size, self.t[0] if self.t.size else float("nan"),
            self.t[-1] if self.t.size else float("nan"), self.events)


def integrate(rhs, t_span, y0, tol=1e-10, events=(), label=""):
    """Adaptive high-order integration with event recording.

    Events are EventSpec instances; terminal ones stop the run.  A margin
    that is already non-positive at t0 is recorded immediately.  Failure
    of the step controller raises IntegrationError with the valid part.
    tol is the rtol (atol is tol * 1e-3); below RTOL_FLOOR it is rejected.
    """
    if not tol >= RTOL_FLOOR:
        raise ValueError("tol=%g is below %.3g, the finite-precision floor "
                         "of the integrator (100 machine epsilons)"
                         % (tol, RTOL_FLOOR))
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(y0, dtype=float)
    evs = list(events)
    pre = []
    for ev in evs:
        if ev.fn(t0, y0) <= 0.0:
            pre.append((ev.kind, t0))
            if ev.terminal:
                traj = Trajectory([t0], y0.reshape(-1, 1), pre,
                                  {"label": label, "status": 1,
                                   "success": True, "nfev": 0})
                return traj

    wrapped = []
    for ev in evs:
        def g(t, y, ev=ev):
            return float(ev.fn(t, y))
        g.terminal = ev.terminal
        g.direction = ev.direction
        wrapped.append(g)

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-3, dense_output=True, events=wrapped)
    recorded = list(pre)
    for ev, te in zip(evs, sol.t_events):
        recorded.extend((ev.kind, float(x)) for x in te)
    recorded.sort(key=lambda e: e[1])
    meta = {"interp": dense_reader(sol.sol), "nfev": sol.nfev,
            "status": sol.status, "success": bool(sol.success),
            "label": label, "rtol": tol}
    traj = Trajectory(sol.t, sol.y, recorded, meta)
    if sol.status == -1:
        raise IntegrationError(
            "integration of %r failed: %s" % (label, sol.message), traj)
    return traj


def solve_singular(ivp, eps=1e-2, t_end=1.0, order=8, tol=1e-10, events=()):
    """Series on [0, eps], adaptive continuation on [eps, t_end].

    The samples start at eps; the dense evaluator reads the series at
    t <= eps.  The handoff is continuous by construction;
    meta["handoff_mismatch"] is the series_handoff defect at eps.
    """
    if not 0.0 < eps < t_end:
        raise ValueError("need 0 < eps < t_end")
    rep, series, y_eps, mismatch = series_handoff(ivp, eps, order=order)

    def rhs(t, y):
        return (np.asarray(ivp.M_minus1(y), dtype=float) / t
                + np.asarray(ivp.M(t, y), dtype=float))

    traj = integrate(rhs, (eps, t_end), y_eps, tol=tol, events=events,
                     label=ivp.label)
    dense = traj.meta.get("interp")

    def interp(t):
        return [p(t) for p in series] if t <= eps else dense(t)

    meta = {"interp": interp, "series": series, "check": rep,
            "handoff_mismatch": mismatch, "eps": eps,
            "label": ivp.label, "nfev": traj.meta.get("nfev"),
            "success": traj.meta.get("success")}
    return Trajectory(traj.t, traj.y, traj.events, meta)
