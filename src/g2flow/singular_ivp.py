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
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ._series import PowerSeries, ps_var

# the integrator rejects any smaller rtol: rounding would swamp the error
# estimate
RTOL_FLOOR = 100 * np.finfo(float).eps


def _float(value):
    """value as a float if it is a number, else nan: the package's one
    rule for a number from outside.  A number is an int or float, numpy
    scalars included, but no bool, and not an int past the float range."""
    if isinstance(value, (int, float, np.integer, np.floating)) and \
            not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _finite(name, value):
    """value as a float; ValueError unless _float reads it as finite."""
    value = _float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite and real" % name)
    return value


def _finites(name, values, size=None):
    """values, a list, tuple or 1-d array (of size entries if given), as
    a list of floats, each checked by _finite."""
    flat = isinstance(values, (list, tuple)) or (
        isinstance(values, np.ndarray) and values.ndim == 1)
    if not (flat and size in (None, len(values))):
        raise ValueError("%s must be %s finite numbers"
                         % (name, "a list of" if size is None else size))
    return [_finite(name, x) for x in values]


def _positive_finite(name, value):
    """value as a float; ValueError unless it is finite and positive."""
    value = _finite(name, value)
    if not value > 0:
        raise ValueError("%s must be positive and finite" % name)
    return value


def dense_reader(rhs, ts, steps):
    """Scalar reader t -> tuple of floats over the DOP853 step records
    steps[i] = (t_old, h, y_old, y_new, 13 stage rows of rhs) between ts[i]
    and ts[i + 1], or their _segment: the float operations of the DOP853
    interpolant; a t on a node reads the step that ends there.  A record
    becomes its segment on first read, in one assignment to its slot, and
    the last (t, values) is one tuple set in one assignment, so no thread
    sees an empty slot.  A t outside [lo, hi (1 + 1e-9)] raises ValueError."""
    ts = [float(t) for t in ts]
    segments = list(steps)
    n = len(segments)
    lo, hi = ts[0], ts[-1] + 1e-9 * abs(ts[-1])
    last = (None, None)

    def read(t):
        nonlocal last
        memo = last
        if memo[0] == t:
            return memo[1]
        if not lo <= t <= hi:
            raise ValueError("t=%g outside the solved span [%g, %g]"
                             % (t, ts[0], ts[-1]))
        i = min(max(bisect_left(ts, t) - 1, 0), n - 1)
        seg = segments[i]
        if len(seg) > 3:
            seg = segments[i] = _segment(rhs, *seg)
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
    eig = np.linalg.eigvals(ivp.jacobian)
    offending = None
    for lam in sorted(eig, key=lambda z: z.real):
        if abs(lam.imag) <= eig_tol:
            h = int(round(lam.real))
            if h >= 1 and abs(lam.real - h) <= eig_tol:
                offending = h
                break
    gate = (r <= tol) and offending is None
    return MalgrangeReport(r, ivp.jacobian, eig, gate, offending, tol, eig_tol)


def _coeff(x, k):
    if isinstance(x, PowerSeries):
        return x[k]
    return x if k == 0 else 0.0


def series_bootstrap(ivp, order=8, check=None):
    """Taylor coefficients of the solution through t^order.

    c_k solves (k I - J) c_k = [t^k] M_{-1}(y_{<k}) + [t^{k-1}] M(t, y_{<k}),
    with the coefficient extraction done by evaluating M_{-1} and M on
    the power series truncated at t^k, which is all c_k reads.
    """
    if not (isinstance(order, (int, np.integer)) and _float(order) >= 0):
        raise ValueError("order must be an integer >= 0")
    rep = check if check is not None else malgrange_check(ivp)
    if not rep.gate_pass:
        raise PreconditionError(
            "solvability gate failed for %r: residual %.3e, offending h %s"
            % (ivp.label, rep.residual_at_y0, rep.offending_h))
    dim = len(ivp.y0)
    J = rep.jacobian
    coeffs = np.zeros((dim, order + 1))
    coeffs[:, 0] = np.asarray(ivp.y0, dtype=float)
    tps = ps_var(order)
    for k in range(1, order + 1):
        y_ps = [PowerSeries(coeffs[i, :k + 1].tolist()) for i in range(dim)]
        m1 = ivp.M_minus1(y_ps)
        mm = ivp.M(tps, y_ps)
        rhs = np.array([_coeff(m1[i], k) + _coeff(mm[i], k - 1)
                        for i in range(dim)], dtype=float)
        coeffs[:, k] = np.linalg.solve(k * np.eye(dim) - J, rhs)
    return [PowerSeries(coeffs[i].tolist()) for i in range(dim)]


def series_handoff(ivp, eps, order):
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
    """An event of a DOP853 solve: fn(t, y) is a margin, positive where
    the solve may run.  The event fires at t0 if the margin is not
    positive there, and elsewhere where a step takes it from nonzero to
    zero or past it."""
    kind: str
    fn: object
    terminal: bool = False


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
        return np.asarray(interp(float(t)), dtype=float)

    def event_times(self, kind):
        return [te for ek, te in self.events if ek == kind]

    def __repr__(self):
        return "Trajectory(n=%d, t=[%g, %g], events=%r)" % (
            self.t.size, self.t[0] if self.t.size else float("nan"),
            self.t[-1] if self.t.size else float("nan"), self.events)


# ---------------------------------------------------------------------------
# The DOP853 stepper.  Its tableau (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5): A's rows 1-11 are the stages, row 12 is B, rows 13-15 the
# dense output's; E3 and E5 weigh the error estimate, D the interpolant.
_C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = (   # the strict lower triangle, row by row
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0, 0.08876275643042054, 0.2413651341592667, 0,
    -0.8845494793282861, 0.924834003261792, 0.037037037037037035, 0, 0,
    0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757, 0, 0,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0, 0,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
    0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987)
_B = _A[12, :12]
_E3 = np.append(_B, 0.0)   # B less the embedded 3rd-order weights
_E3[[0, 8, 11]] -= 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
_D = np.array([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
    -3.0689499459498917, 2.38466765651207, 2.117034582445028,
    -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
    165.20045171727028, -374.5467547226902, -22.113666853125306,
    7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
    -189.17813819516758, 527.8081592054236, -11.57390253995963,
    6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716,
    11.99229113618279, -25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
    -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564]).reshape(4, 16)
_RK_STAGES = [(s, _A[s, :s], float(_C[s])) for s in range(1, 12)]
_DENSE_STAGES = [(s, _A[s, :s], float(_C[s])) for s in (13, 14, 15)]
_BRENT_TOL = 4 * np.finfo(float).eps    # xtol = rtol of the event roots


def _brentq(f, xa, xb):
    """A root of f in the bracket [xa, xb]: a plain-float port of the C
    brentq of scipy.optimize as solve_ivp runs it on event functions."""
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError("the function value at x=%r is NaN" % x)
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_TOL + _BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if stry is not None and 2 * abs(stry) < min(
                abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:                       # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += (scur if abs(scur) > delta else
                 delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError("brentq failed to converge after 100 iterations, "
                       "value is %r" % xcur)


def _norm(x):
    """np.linalg.norm(x) of a float vector, by the same two operations."""
    return math.sqrt(x.dot(x))


def _segment(rhs, t, h, y, y_new, stages):
    """The float segment (t_old, h, per-component coefficients) of a step
    record: its three interpolation stages, then F, as scipy's DOP853."""
    K = np.concatenate((stages, np.empty((3, y.size))))
    for s, a, c in _DENSE_STAGES:
        K[s] = rhs(t + c * h, (y + K[:s].T.dot(a) * h).tolist())
    F = np.empty((7, y.size))
    F[0] = dy = y_new - y
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (K[12] + K[0])
    F[3:] = h * np.dot(_D, K)
    # per component: 0 + F[6], F[5], ..., F[0], y_old
    return (float(t), float(h), list(zip(
        (0.0 + F[-1]).tolist(), *F[-2::-1].tolist(), y.tolist())))


def _checked(t_span, y0, rtol):
    """(t0, t1, y0 as an array) of a DOP853 solve; ValueError for an rtol
    below RTOL_FLOOR, a span or y0 not of finite numbers, or t1 <= t0."""
    if not rtol >= RTOL_FLOOR:
        raise ValueError("tol=%g is below %.3g, the finite-precision floor "
                         "of the integrator (100 machine epsilons)"
                         % (rtol, RTOL_FLOOR))
    t0, t1 = _finites("t_span", t_span, 2)
    if not t0 < t1:
        raise ValueError("need t0 < t1, got (%g, %g)" % (t0, t1))
    return t0, t1, np.array(_finites("y0", y0))


def _dop853(rhs, t_span, y0, rtol, atol, events, label):
    """The package's one DOP853 solve (t0 < t1): a port of scipy's solve_ivp(
    method="DOP853", dense_output=True, events=...), with the same float
    operations in the same order.  rhs gets a float t and a list of floats
    y, an event's fn an ndarray y.  An EventSpec margin fires where it
    changes sign, as a solve_ivp event of either sign does, with two
    departures from solve_ivp: it fires at t0 if it is not positive there,
    and not in a step that starts where it is 0, which fired there
    already; events are recorded by time, and a terminal one stops the
    solve at its first firing (at t0: the one sample, no rhs call).  meta
    holds "interp" (the dense_reader of the step records) and the counts
    "nfev" (stepping calls only: scipy's less 3 per accepted step),
    "steps" and "rejected".  A failed step controller, a non-finite
    f(t0, y0) or step size raise IntegrationError with the valid part."""
    t, t_bound, y = _checked(t_span, y0, rtol)
    n = y.size
    K = np.empty((13, n))        # stage rows; row 12 is f at the step end
    KT = [K[:s].T for s in range(14)]
    ts, ys, steps, t_events = [t], [y], [], [[] for _ in events]
    g = [float(ev.fn(t, y)) for ev in events]
    status, message, nfev, accepted, rejected = None, None, 0, 0, 0
    for ev, g0, tes in zip(events, g, t_events):
        if g0 <= 0:
            tes.append(t)
            if ev.terminal:
                status = 1
                break

    f = np.asarray(rhs(t, y.tolist()), float) if status is None else None
    if f is not None and np.isfinite(f).all():     # select_initial_step
        nfev = 2
        scale = atol + np.abs(y) * rtol
        d0, d1 = _norm(y / scale) / n ** 0.5, _norm(f / scale) / n ** 0.5
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_bound - t)
        f1 = np.asarray(rhs(t + h0, (y + h0 * f).tolist()), dtype=float)
        d2 = _norm((f1 - f) / scale) / n ** 0.5 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.125
        h_abs = min(100 * h0, h1, t_bound - t)
    elif f is not None:
        status, message, nfev = -1, "f(t0, y0) is not finite", 1
    while status is None:
        if not math.isfinite(h_abs):
            status, message = -1, "the step size is not finite"
            break
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        yl = y.tolist()
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s, a, c in _RK_STAGES:     # y + K.a h with numpy's float ops
                K[s] = rhs(t + c * h, [u + d * h for u, d in zip(
                    yl, KT[s].dot(a).tolist())])
            y_new = y + h * KT[12].dot(_B)
            K[12] = f_new = np.asarray(rhs(t + h, y_new.tolist()), float)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = _norm(KT[13].dot(_E5) / scale) ** 2
            e3 = _norm(KT[13].dot(_E3) / scale) ** 2
            error_norm = (h * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                          if e5 or e3 else 0.0)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(
                    10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            step_rejected = True
            rejected += 1
        else:
            status, message = -1, ("Required step size is less than "
                                   "spacing between numbers.")
            break
        accepted += 1
        steps.append((t, h, y, y_new, K.copy()))
        t_old, t, y, f = t, t_new, y_new, f_new
        if t == t_bound:
            status = 0
        if events:
            g_new = [float(ev.fn(t, y)) for ev in events]
            active = [i for i, (g0, g1) in enumerate(zip(g, g_new))
                      if g0 < 0 <= g1 or g0 > 0 >= g1]
            if active:
                steps[-1] = _segment(rhs, *steps[-1])
                sol = dense_reader(rhs, (t_old, t), steps[-1:])
            hits = [(i, _brentq(lambda s, ev=events[i]: float(
                ev.fn(s, np.array(sol(s)))), t_old, t)) for i in active]
            if any(events[i].terminal for i in active):
                hits.sort(key=lambda e: e[1])
                hits = hits[:1 + [events[i].terminal
                                  for i, _ in hits].index(True)]
                status, t = 1, hits[-1][1]
                y = np.array(sol(t))
            for i, te in hits:
                t_events[i].append(te)
            g = g_new
        if len(ts) > 1 and ts[-1] == t:
            steps.pop()                  # a terminal root at the last node
        else:
            ts.append(t)
            ys.append(y)

    recorded = sorted([(ev.kind, float(te)) for ev, tes
                       in zip(events, t_events) for te in tes],
                      key=lambda e: e[1])
    meta = {"interp": dense_reader(rhs, ts, steps) if steps else None,
            "nfev": nfev + 12 * (accepted + rejected),
            "steps": accepted, "rejected": rejected, "label": label,
            "rtol": rtol}
    traj = Trajectory(ts, np.vstack(ys).T, recorded, meta)
    if status == -1:
        raise IntegrationError(
            "integration of %r failed: %s" % (label, message), traj)
    return traj


def integrate(rhs, t_span, y0, tol, events, label):
    """_dop853 at rtol tol (at least RTOL_FLOOR) and atol tol * 1e-3, whose
    one event rule and IntegrationError it keeps."""
    return _dop853(rhs, t_span, y0, tol, tol * 1e-3, events, label)


INVERT_AT = 1e2      # the |y|_inf where integrate_blowup turns to y/|y|^2


def _inverse(v):
    """v / |v|^2 in plain floats; the map is its own inverse."""
    r = 1.0 / sum([c * c for c in v])
    return [c * r for c in v]


def integrate_blowup(rhs, t_span, y0, tol, events, label, threshold):
    """integrate with a terminal "blow-up" event where |y|_inf reaches
    threshold.  Past |y|_inf = INVERT_AT a phase steps q = y/|y|^2 by
    q' = |q|^2 F - 2 q (q.F), F = rhs(t, q/|q|^2), up to the threshold or
    to a sign change of q_k (k largest at the phase start), where one
    step jumped the whole window: the root is then found on its dense q.
    A sign change short of the threshold restarts the phase, and
    |y|_2 = INVERT_AT / 10 hands back to y.  Each phase is one integrate
    call at tol; events see y in every phase, less what a later phase
    pre-fires at its start.  t, y, events, interp and meta read y; an
    IntegrationError carries the part of its phase, in its coordinate."""
    t, t_end, y = _checked(t_span, y0, tol)
    if not INVERT_AT < threshold < math.inf:
        raise ValueError("need a finite threshold above %g" % INVERT_AT)
    y = y.tolist()
    inverted = max(map(abs, y)) >= INVERT_AT
    state, ts, ys, records, phases = (_inverse(y) if inverted else y,
                                      [t], [y], [], [])
    meta = dict.fromkeys(("nfev", "steps", "rejected"), 0)

    def field(t, q):
        qq, qf = 0.0, 0.0
        for c in q:
            qq += c * c
        f = rhs(t, [c / qq for c in q])
        for a, c in zip(f, q):
            qf += a * c
        return [qq * a - 2.0 * qf * c for a, c in zip(f, q)]

    def margin(t, q):             # |q|^2 (threshold - |y|_inf)
        q = q.tolist()
        return threshold * sum([c * c for c in q]) - max(map(abs, q))

    while True:
        if inverted:
            k = max(range(len(state)), key=lambda i: abs(state[i]))
            sign = math.copysign(1.0, state[k])
            evs = [EventSpec("blow-up", margin, True),
                   EventSpec("_pole", lambda t, q: sign * q[k], True),
                   EventSpec("_switch", lambda t, q: 1.0 - (
                       INVERT_AT / 10) ** 2 * q.dot(q), True)] + [
                EventSpec(ev.kind, lambda t, q, fn=ev.fn: fn(t, np.array(
                    _inverse(q.tolist()))), ev.terminal)
                for ev in events]
        else:
            evs = [EventSpec("_switch", lambda t, z: INVERT_AT - max(
                map(abs, z.tolist())), True), *events]
        traj = integrate(field if inverted else rhs, (t, t_end), state, tol,
                         evs, label)
        for key in meta:
            meta[key] += traj.meta[key]
        times, cols = traj.t.tolist(), traj.y.T.tolist()
        read, blow = traj.meta.get("interp"), []
        ends = {kind for kind, te in traj.events if te == times[-1]}
        if "_pole" in ends and margin(times[-1], traj.y[:, -1]) <= 0:
            times[-1] = float(_brentq(lambda s: margin(
                s, np.array(read(s))), times[-2], times[-1]))
            cols[-1], ends = list(read(times[-1])), set()
            blow = [("blow-up", times[-1])]
        records += [e for e in traj.events if e[0][0] != "_"
                    and (e[1] != t or len(ts) == 1)
                    and e[1] <= times[-1]] + blow
        if read is not None:
            phases.append((times[-1], read, inverted))
        ts += times[1:]
        ys += [_inverse(c) if inverted else c for c in cols[1:]]
        t, state = times[-1], cols[-1]
        if t == t_end or not {"_switch", "_pole"} & ends:
            break
        if "_switch" in ends:
            inverted, state = not inverted, _inverse(state)

    def interp(t):
        for end, read, inv in phases:
            if t <= end:
                break
        return _inverse(read(t)) if inv else read(t)

    meta.update(interp=interp if phases else None, label=label, rtol=tol)
    return Trajectory(ts, np.array(ys).T, records, meta)


def solve_singular(ivp, eps=1e-2, t_end=1.0, order=8, tol=1e-10):
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
        return [a / t + b for a, b in zip(ivp.M_minus1(y), ivp.M(t, y))]

    traj = integrate(rhs, (eps, t_end), y_eps, tol, (), ivp.label)
    dense = traj.meta.get("interp")

    def interp(t):
        return [p(t) for p in series] if 0.0 <= t <= eps else dense(t)

    meta = {"interp": interp, "series": series, "check": rep,
            "handoff_mismatch": mismatch, "eps": eps, "label": ivp.label}
    meta.update((k, traj.meta.get(k)) for k in ("nfev", "steps", "rejected"))
    return Trajectory(traj.t, traj.y, traj.events, meta)
