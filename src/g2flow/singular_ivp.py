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

import math
import numbers
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
    assignment, so reads at one t evaluate once, also across threads.
    A t outside the solved span [lo, hi (1 + 1e-9)] raises ValueError."""
    if not all(isinstance(f, Dop853DenseOutput) for f in sol.interpolants):
        raise TypeError("dense_reader needs a DOP853 OdeSolution")
    ts, n = sol.ts_sorted.tolist(), sol.n_segments
    lo, hi = ts[0], ts[-1] + 1e-9 * abs(ts[-1])
    find = bisect_left if sol.ascending else bisect_right
    fs = sol.interpolants if sol.ascending else sol.interpolants[::-1]
    segments = [None] * n         # float forms, in the order of ts
    last = (None, None)

    def read(t):
        nonlocal last
        memo = last
        if memo[0] == t:
            return memo[1]
        if not lo <= t <= hi:
            raise ValueError("t=%g outside the solved span [%g, %g]"
                             % (t, ts[0], ts[-1]))
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

    M_minus1(y) and M(t, y) return sequences of length len(y0); jacobian
    is the exact matrix d_{y0} M_minus1, which with M_minus1(y0) is all
    the solvability gate reads.
    """

    M_minus1: object
    M: object
    y0: object
    jacobian: object
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.y0)
        J = np.asarray(self.jacobian, dtype=float)
        if J.shape != (n, n) or not np.isfinite(J).all():
            raise ValueError("jacobian must be finite and %d x %d" % (n, n))
        self.jacobian = J


@dataclass
class MalgrangeReport:
    residual_at_y0: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    gate_pass: bool
    offending_h: object
    tol: float
    eig_tol: float


def malgrange_check(ivp):
    """Gate: M_{-1}(y0) = 0 and no eigenvalue of d M_{-1} is in {1, 2, ...}."""
    tol = eig_tol = 1e-8
    y0 = np.asarray(ivp.y0, dtype=float)
    r = float(np.max(np.abs(np.asarray(ivp.M_minus1(y0), dtype=float))))
    J = ivp.jacobian
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
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise ValueError("order must be an integer >= 0")
    rep = check if check is not None else malgrange_check(ivp)
    if not rep.gate_pass:
        raise PreconditionError(
            "solvability gate failed for %r: residual %.3e, offending h %s"
            % (ivp.label, rep.residual_at_y0, rep.offending_h))
    dim = len(ivp.y0)
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
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be finite and positive")

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


def _dop853(rhs, t_span, y0, rtol, atol, events, label):
    """The package's one DOP853 solve.  EventSpec events are recorded by
    time, meta["interp"] is the dense_reader of the dense output, and a
    failed step controller (status -1) raises IntegrationError."""
    def scipy_event(ev):
        def g(t, y):
            return float(ev.fn(t, y))
        g.terminal, g.direction = ev.terminal, ev.direction
        return g

    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True,
                    events=[scipy_event(ev) for ev in events] or None)
    recorded = sorted(((ev.kind, float(te))
                       for ev, tes in zip(events, sol.t_events or ())
                       for te in tes), key=lambda e: e[1])
    meta = {"interp": dense_reader(sol.sol), "nfev": sol.nfev,
            "status": sol.status, "success": bool(sol.success),
            "label": label, "rtol": rtol}
    traj = Trajectory(sol.t, sol.y, recorded, meta)
    if sol.status == -1:
        raise IntegrationError(
            "integration of %r failed: %s" % (label, sol.message), traj)
    return traj


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
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite, got (%g, %g)" % (t0, t1))
    y0 = np.asarray(y0, dtype=float)
    evs = list(events)
    pre = []
    for ev in evs:
        if ev.fn(t0, y0) <= 0.0:
            pre.append((ev.kind, t0))
            if ev.terminal:
                return Trajectory([t0], y0.reshape(-1, 1), pre,
                                  {"label": label, "status": 1,
                                   "success": True, "nfev": 0})

    def with_pre(traj):
        traj.events = sorted(pre + traj.events, key=lambda e: e[1])
        return traj

    try:
        return with_pre(_dop853(rhs, (t0, t1), y0, tol, tol * 1e-3, evs,
                                label))
    except IntegrationError as exc:
        with_pre(exc.trajectory)
        raise


def solve_singular(ivp, eps=1e-2, t_end=1.0, order=8, tol=1e-10, events=()):
    """Series on [0, eps], adaptive continuation on [eps, t_end].

    The samples start at eps; the dense evaluator reads the series at
    0 <= t <= eps and the continuation elsewhere, which raises ValueError
    outside [eps, last t].  The handoff is continuous by construction;
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
        return [p(t) for p in series] if 0.0 <= t <= eps else dense(t)

    meta = {"interp": interp, "series": series, "check": rep,
            "handoff_mismatch": mismatch, "eps": eps,
            "label": ivp.label, "nfev": traj.meta.get("nfev"),
            "success": traj.meta.get("success")}
    return Trajectory(traj.t, traj.y, traj.events, meta)
