"""Coclosed-structure profile data (A_i, B_i) on R^4 x S^3.

A structure is described by three positive length functions A_i(t) (odd,
A_i = t/2 + a_{i,3} t^3 + ...) and three B_i(t) (even, B_i = b0 + b2 t^2
+ ...) of the transverse coordinate t >= 0.  This module builds the
Bryant-Salamon profile, the linear closed-form example A = t/2, and the
symmetric B-from-A quadrature construction, and derives the coefficient
functions F_i, G_i entering every instanton ODE together with their
pole-free deflations used by the boundary analysis.

Conventions for the coefficient functions (cyclic (i, j, k)):

    F_i = A_i'/A_i + A_i/(B_j B_k) - A_i/(A_j A_k) = -1/t + phi_i(t)
    G_i = B_i'/B_i + B_i/(B_j A_k) + B_i/(A_j B_k) =  4/t + gamma_i(t)

with phi_i, gamma_i odd and analytic at t = 0.  The 4/t leading behaviour
of G_i is a measured fact of the series engine (see tests); phi/gamma are
evaluated from Taylor data below a cutoff and from the closed formulas
above it, so that no catastrophic cancellation occurs near t = 0.
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from ._series import PowerSeries, ps_const, ps_var
from .singular_ivp import EventSpec, _dop853, dense_reader

SERIES_ORDER = 26
COEFF_SERIES_CUTOFF = 0.05
DEFLATION_CUTOFF = 0.18

# cyclic index triples (i, j, k), zero-based
CYC0 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class StructureData:
    """Profile data: evaluators plus Taylor data for (A_i, B_i).

    Treated as immutable after construction; the _cache dict only holds
    derived evaluator tables (coefficient functions, quadrature caches)
    keyed by consumers.
    """

    def __init__(self, label, A, B, dA, dB, A_series, B_series,
                 b0, b2, t_max, symmetric):
        b0 = _positive_finite("b0", b0)
        self.label = label
        self.A = tuple(A)
        self.B = tuple(B)
        self.dA = tuple(dA)
        self.dB = tuple(dB)
        self.A_series = tuple(A_series)
        self.B_series = tuple(B_series)
        self.b0 = b0
        self.b2 = float(b2)
        self.t_max = float(t_max)
        self.symmetric = bool(symmetric)
        self._cache = {}
        self._last = (None, None)
        for s in self.A_series:
            if abs(s[1] - 0.5) > 1e-9:
                raise ValueError("A_i series must start t/2")
        for s in self.B_series:
            if abs(s[0] - b0) > 1e-9 * max(1.0, b0):
                raise ValueError("B_i series must start at b0")

    def frame(self, t):
        """(A, B, dA, dB) at t, three values each.

        Each distinct evaluator is called once: a symmetric structure
        (whose three evaluators in each tuple agree) evaluates index 0
        and repeats the value.  The last (t, frame) is kept as one tuple,
        replaced in a single assignment, like CoefficientFns.row.
        """
        last = self._last
        if last[0] == t:
            return last[1]
        if self.symmetric:
            a, b = self.A[0](t), self.B[0](t)
            da, db = self.dA[0](t), self.dB[0](t)
            values = (a,) * 3, (b,) * 3, (da,) * 3, (db,) * 3
        else:
            values = tuple(tuple(f(t) for f in fns)
                           for fns in (self.A, self.B, self.dA, self.dB))
        self._last = (t, values)
        return values

    @property
    def a3(self):
        return tuple(s[3] for s in self.A_series)

    @property
    def a5(self):
        return tuple(s[5] for s in self.A_series)

    def __repr__(self):
        return "StructureData(%r, b0=%g, t_max=%g)" % (
            self.label, self.b0, self.t_max)


def _positive_finite(name, value):
    """value as a float; ValueError unless it is finite and positive."""
    value = _finite(name, value)
    if not value > 0:
        raise ValueError("%s must be positive and finite" % name)
    return value


def _finite(name, value):
    """value as a float; ValueError unless it is a finite number."""
    try:
        value = float(value)
    except TypeError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("%s must be finite" % name)
    return value


def _in_range(t, t_max):
    """t, after checking that it lies in [0, t_max (1 + 1e-9)]."""
    if not 0.0 <= t <= t_max * (1 + 1e-9):
        raise ValueError("t=%g outside the profile range [0, %g]"
                         % (t, t_max))
    return t


def b2_from_data(b0, a3):
    """b2 = 1/(8 b0) - b0 (a_{1,3} + a_{2,3} + a_{3,3})."""
    b0 = _positive_finite("b0", b0)
    return 1.0 / (8.0 * b0) - b0 * float(sum(a3))


def _positivity_scan(fn, t_max, name):
    for t in np.linspace(min(1e-3, t_max / 10.0), t_max, 197):
        if not fn(float(t)) > 0:
            raise ValueError("%s is not positive at t=%g" % (name, t))


# ---------------------------------------------------------------------------
# Bryant-Salamon

# correctly rounded double of 1/sqrt(3); 1.0/math.sqrt(3.0) is 1 ulp high
_INV_SQRT3 = math.sqrt(1.0 / 3.0)


def _bs_series(order):
    """Taylor data of the Bryant-Salamon profile from its ODE system.

    A' = 1/3 + r^{-3}/6 and B' = A/B with r = sqrt(3) B; each sweep of
    the fixed point gains at least two orders starting from A = t/2,
    B = b0, and a sweep that keeps B bit for bit is a fixed point.
    """
    b0 = _INV_SQRT3
    A = ps_var(order) * 0.5
    B = ps_const(b0, order)
    for _ in range(order + 2):
        r = B * math.sqrt(3.0)
        rinv3 = 1.0 / (r * r * r)
        A = PowerSeries(list((rinv3 * (1.0 / 6.0) + (1.0 / 3.0)).integ()),
                        order=order)
        B, last = PowerSeries(list((A / B).integ() + b0), order=order), B
        if repr(B) == repr(last):
            break
    return A, B


def make_bryant_salamon(r_max=60.0):
    """Bryant-Salamon structure A_1 = (r/3) sqrt(1 - r^-3), B_1 = r/sqrt(3).

    The radial coordinate satisfies t(r) = int_1^r ds/sqrt(1-s^-3); with
    r = 1 + w^2 the rate dw/dt is smooth and even in w, so w(t) is one
    regular ODE solve, read through dense_reader once per t for all four
    evaluators.  t_max = t(r_max).
    """
    if not (r_max > 1 and math.isfinite(r_max)):
        raise ValueError("r_max must be finite and exceed 1")
    A_ps, B_ps = _bs_series(SERIES_ORDER)
    b0 = _INV_SQRT3

    def wrate(t, y):
        x = y[0] * y[0]
        return [0.5 * math.sqrt((3.0 + x * (3.0 + x)) / (1.0 + x) ** 3)]

    w_max = math.sqrt(r_max - 1.0)
    hit = EventSpec("r_max", lambda t, y: w_max - y[0], terminal=True)
    traj = _dop853(wrate, (0.0, r_max + 6.0), [0.0], 1e-13, 1e-14, [hit],
                   "bryant-salamon w")
    t_max = traj.event_times("r_max")[0]
    dense = traj.meta["interp"]

    def wof(t):
        return dense(_in_range(t, t_max))[0]

    def A1(t):
        w = wof(t)
        x = w * w
        return (w / 3.0) * math.sqrt((3.0 + x * (3.0 + x)) / (1.0 + x))

    def B1(t):
        x = wof(t) ** 2
        return (1.0 + x) * _INV_SQRT3

    def dA1(t):
        r = 1.0 + wof(t) ** 2
        return 1.0 / 3.0 + 1.0 / (6.0 * r ** 3)

    def dB1(t):
        w = wof(t)
        x = w * w
        return (w * _INV_SQRT3) * math.sqrt(
            (3.0 + x * (3.0 + x)) / (1.0 + x) ** 3)

    As = PowerSeries(A_ps, parity="odd")
    Bs = PowerSeries(B_ps, parity="even")
    return StructureData("bryant-salamon", (A1,) * 3, (B1,) * 3,
                         (dA1,) * 3, (dB1,) * 3, (As,) * 3, (Bs,) * 3,
                         b0=b0, b2=B_ps[2], t_max=t_max, symmetric=True)


# ---------------------------------------------------------------------------
# Linear example


def make_linear_example(b0, t_max=1e6):
    """Closed-form structure A_i = t/2, B_i = sqrt(b0^2 + t^2/4)."""
    b0 = _positive_finite("b0", b0)
    t_max = _positive_finite("t_max", t_max)

    def A1(t):
        return 0.5 * _in_range(t, t_max)

    def dA1(t):
        _in_range(t, t_max)
        return 0.5

    def B1(t):
        return math.hypot(b0, 0.5 * _in_range(t, t_max))

    def dB1(t):
        t = _in_range(t, t_max)
        return 0.25 * t / math.hypot(b0, 0.5 * t)

    A_ps = ps_var(SERIES_ORDER) * 0.5
    B_ps = (ps_var(SERIES_ORDER) ** 2 * 0.25 + b0 * b0).sqrt()
    s = StructureData("linear", (A1,) * 3, (B1,) * 3, (dA1,) * 3, (dB1,) * 3,
                      (PowerSeries(A_ps, parity="odd"),) * 3,
                      (PowerSeries(B_ps, parity="even"),) * 3,
                      b0=b0, b2=B_ps[2], t_max=t_max, symmetric=True)
    return s


# ---------------------------------------------------------------------------
# Symmetric structure from a user A_1 profile


def make_su23_structure(A1, b0, t_max=None):
    """Build B_1 = B_2 = B_3 from a symmetric A_1 profile and B_1(0) = b0.

    A1 is the tuple (A1, PowerSeries, dA1): the profile, its odd Taylor
    series and its derivative, read on [0, t_max] (t_max 12 if None).
    Solves P' = P/A_1 + A_1^3 for P = A_1^2 B_1^2 with P ~ (b0^2/4) t^2,
    which is the quadrature formula for B_1 written base-point free:
    P = t^2 e^{J} (b0^2/4 + int_0^t A^3 e^{-J} eta^-2 d eta) with
    J = int_0^t (1/A - 2/xi) d xi.  The 1/A - 2/t integrand is evaluated
    by series near 0, direct formula above the cutoff.  Every evaluator,
    the caller's A1 and dA1 included, rejects t outside [0, t_max].
    """
    b0 = _positive_finite("b0", b0)
    if not (isinstance(A1, tuple) and len(A1) == 3):
        raise TypeError("A1 must be an (A1, PowerSeries, dA1) tuple")
    user_a1, a1_series, user_da1 = A1
    if a1_series.parity != "odd" or abs(a1_series[1] - 0.5) > 1e-9:
        raise ValueError("A1 series must be odd with leading coefficient 1/2")
    horizon = float(t_max if t_max is not None else 12.0)
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("t_max must be finite and positive")

    def a1(t):
        return user_a1(_in_range(t, horizon))

    def da1(t):
        return user_da1(_in_range(t, horizon))

    _positivity_scan(a1, horizon, "A1")

    # pole cancellations in the coefficient deflations eat a few orders,
    # so keep enough terms that the Taylor window stays below 1e-10
    order = max(a1_series.order, 14)
    A_ps = PowerSeries(a1_series, order=order)
    uA = A_ps.shift_down(1)
    g_reg = _RegularFn((1.0 / uA - 2.0).shift_down(1),
                       lambda t: 1.0 / a1(t) - 2.0 / t,
                       COEFF_SERIES_CUTOFF, horizon)

    def rhs(t, y):
        if t <= 0.0:
            return [0.0, 0.0]
        a = a1(t)
        return [g_reg(t), a * a * a * math.exp(-y[0]) / (t * t)]

    dense = _dop853(rhs, (0.0, horizon), [0.0, 0.0], 1e-12, 1e-15, (),
                    "B-from-A").meta["interp"]
    c0 = 0.25 * b0 * b0

    def Pfun(t):
        J, q2 = dense(t)
        return t * t * math.exp(J) * (c0 + q2)

    def B1(t):
        if _in_range(t, horizon) == 0.0:
            return b0
        return math.sqrt(Pfun(t)) / a1(t)

    # series for P by fixed point of the same ODE; the t^4 slot contracts
    # with ratio 1/2 per sweep, so sweep until P repeats bit for bit
    P = PowerSeries([0.0, 0.0, c0], order=order + 2)
    for _ in range(30 + 3 * order):
        upd = list((P.shift_down(1) * (1.0 / uA) + A_ps ** 3).integ())
        last, P = P, PowerSeries([0.0, 0.0, c0] + upd[3:], order=order + 2)
        if repr(P) == repr(last):
            break
    B_ps = P.shift_down(2).sqrt() * (1.0 / uA)

    def dB1_direct(t):
        a = a1(t)
        P = Pfun(t)
        Pdot = P / a + a ** 3
        return B1(t) * (Pdot / (2.0 * P) - da1(t) / a)

    dB1 = _RegularFn(B_ps.deriv(), dB1_direct, COEFF_SERIES_CUTOFF, horizon)

    return StructureData("su23", (a1,) * 3, (B1,) * 3, (da1,) * 3,
                         (dB1,) * 3, (PowerSeries(A_ps, parity="odd"),) * 3,
                         (PowerSeries(B_ps, parity="even"),) * 3,
                         b0=b0, b2=B_ps[2], t_max=horizon, symmetric=True)


# ---------------------------------------------------------------------------
# Coefficient functions F_i, G_i and their deflations


class _RegularFn:
    """Analytic scalar function of t on [0, t_max]: Taylor polynomial
    below a cutoff, closed form above it, which must itself reject nan
    and t past t_max (each here reads a guarded profile evaluator)."""

    __slots__ = ("poly", "direct", "cutoff", "t_max")

    def __init__(self, ps, direct, cutoff, t_max):
        self.poly = PowerSeries([float(c) for c in ps])
        self.direct, self.cutoff, self.t_max = direct, cutoff, t_max

    def __call__(self, t):
        if t < self.cutoff:
            return self.poly(_in_range(t, self.t_max))
        return self.direct(t)


def _shift_pad(ps, m):
    """ps / t^m with the terms below t^m dropped."""
    return PowerSeries(list(ps)[m:] or [0.0])


def _radius_from_tail(ps):
    """Convergence-radius estimate by the ratio test on the series tail."""
    c = [abs(x) for x in ps]
    for k in range(len(c) - 1, 5, -1):
        if c[k] > 0 and c[k - 2] > 0:
            return (math.inf if c[k] <= c[k - 2]
                    else math.sqrt(c[k - 2] / c[k]))
    return math.inf


def _entry(row, k, i, t):
    return row(t)[k][i]


def _with_pole(c, sign, reg, t):
    if t <= 0:
        raise ValueError("coefficient functions need t > 0")
    return c / t + sign * reg(t)


class CoefficientFns:
    """The six bracketed ODE coefficients and their regular parts.

    Each regular table below is a view of row(t), the seven tables at
    one t.  Attributes (tuples indexed by i = 0, 1, 2):
      F, G           full coefficients, F_i = -1/t + phi_i, G_i = 4/t + gamma_i
      phi, gamma     pole-free odd parts
      phi_hat        (phi_i - phi_{i,1} t)/t^2
      dphi           (phi_i - phi_{i,1} t - phi_{i,3} t^3)/t^5
      gamma_hat      (gamma_i - gamma_{i,1} t)/t^2
      a_plus_rate    g_i + 2/t, the regular decay rate of abelian a_i^+
      a_minus_rate   h_i - 4/t, same for the a_i^- branch
      phi1, phi3, gamma1   leading Taylor coefficients
    For symmetric structures scalar_F(t) = 1/t - phi_1(t) is the signed
    coefficient of the scalar x-equation.
    """

    def __init__(self, s):
        self.structure = s
        self._last = (None, None)
        self._series = {}
        n = min(sr.order for sr in (s.A_series + s.B_series))
        A_ps = [PowerSeries(sr, order=n) for sr in s.A_series]
        B_ps = [PowerSeries(sr, order=n) for sr in s.B_series]
        uA = [p.shift_down(1) for p in A_ps]

        data = []
        for i, j, k in CYC0:
            pdA = (A_ps[i].deriv() / uA[i] - 1.0).shift_down(1)
            pA = (uA[i] / (uA[j] * uA[k]) - 2.0).shift_down(1)
            AoBB = A_ps[i] / (B_ps[j] * B_ps[k])
            phi_ps = pdA + AoBB - pA
            pB = (B_ps[i] / (B_ps[j] * uA[k])
                  + B_ps[i] / (uA[j] * B_ps[k]) - 4.0).shift_down(1)
            gamma_ps = B_ps[i].deriv() / B_ps[i] + pB
            q_ps = AoBB - pA
            data.append((phi_ps, gamma_ps, q_ps, pB))

        # cutoffs scale with the estimated convergence radius; the deflated
        # series divide by t^5, so their branch switch must sit well inside
        # the disc or truncation overwhelms the direct-path rounding
        rho = min(min(_radius_from_tail(d[0]), _radius_from_tail(d[1]))
                  for d in data)
        self.coeff_cutoff = min(COEFF_SERIES_CUTOFF, 0.25 * rho)
        self.defl_cutoff = min(DEFLATION_CUTOFF, 0.22 * rho)
        self.phi1 = tuple(ps[1] for ps, _, _, _ in data)
        self.phi3 = tuple(ps[3] for ps, _, _, _ in data)
        self.gamma1 = tuple(ps[1] for _, ps, _, _ in data)
        self.phi_series = [PowerSeries(d[0], parity="odd") for d in data]

        # Taylor polynomials of the seven slots, polys[k][i]
        polys = [[d[k] for d in data] for k in range(4)] + [[], [], []]
        for i, (phi_ps, gamma_ps, _, _) in enumerate(data):
            tvar = ps_var(max(phi_ps.order, 1))
            gvar = ps_var(max(gamma_ps.order, 1))
            polys[4].append(_shift_pad(phi_ps - tvar * self.phi1[i], 2))
            polys[5].append(_shift_pad(phi_ps - tvar * self.phi1[i]
                                       - (tvar ** 3) * self.phi3[i], 5))
            polys[6].append(_shift_pad(gamma_ps - gvar * self.gamma1[i], 2))
        self._polys = tuple(tuple(PowerSeries([float(c) for c in ps])
                                  for ps in slot) for slot in polys)

        (self.phi, self.gamma, self.a_plus_rate, self.a_minus_rate,
         self.phi_hat, self.dphi, self.gamma_hat) = (
            tuple(partial(_entry, self.row, k, i) for i in range(3))
            for k in range(7))
        self.F = tuple(partial(_with_pole, -1.0, 1.0, f) for f in self.phi)
        self.G = tuple(partial(_with_pole, 4.0, 1.0, f) for f in self.gamma)
        self.scalar_F = (partial(_with_pole, 1.0, -1.0, self.phi[0])
                         if s.symmetric else None)

    def row(self, t):
        """(phi, gamma, a_plus_rate, a_minus_rate, phi_hat, dphi,
        gamma_hat) at t, three values each: Taylor polynomials below
        coeff_cutoff (defl_cutoff for the last three), above it the closed
        forms of one profile frame (deflations of phi and gamma).  A
        symmetric structure evaluates index 0 and repeats it.  The last
        (t, row) is one tuple, set in a single assignment, so all reads at
        one t share it, also across threads.  At ps_var(n) each slot is
        its polynomial truncated to order n; other series are rejected."""
        if isinstance(t, PowerSeries):
            if t != ps_var(t.order):
                raise ValueError("only the variable-t series is supported")
            rows = self._series.get(t.order)
            if rows is None:
                rows = self._series[t.order] = tuple(
                    tuple(PowerSeries(p, order=t.order) for p in slot)
                    for slot in self._polys)
            return rows
        last = self._last
        if last[0] == t:
            return last[1]
        s = self.structure
        if t < self.coeff_cutoff or t < self.defl_cutoff:
            _in_range(t, s.t_max)
        frame = None if t < self.coeff_cutoff else s.frame(t)
        if s.symmetric:
            phi, gamma, q, pB, ph, dph, gh = self._slots(t, frame, 0, 1, 2)
            values = ((phi,) * 3, (gamma,) * 3, (q,) * 3, (pB,) * 3,
                      (ph,) * 3, (dph,) * 3, (gh,) * 3)
        else:
            values = tuple(zip(*[self._slots(t, frame, i, j, k)
                                 for i, j, k in CYC0]))
        self._last = (t, values)
        return values

    def _slots(self, t, frame, i, j, k):
        """The seven slots of index i at t; frame is s.frame(t) or None."""
        P = self._polys
        if frame is None:
            phi, gamma, q, pB = P[0][i](t), P[1][i](t), P[2][i](t), P[3][i](t)
        else:
            A, B, dA, dB = frame
            AoBB = A[i] / (B[j] * B[k])
            AoAA = A[i] / (A[j] * A[k])
            BoBA = B[i] / (B[j] * A[k])
            BoAB = B[i] / (A[j] * B[k])
            phi = dA[i] / A[i] + AoBB - AoAA + 1.0 / t
            gamma = dB[i] / B[i] + BoBA + BoAB - 4.0 / t
            q = AoBB - AoAA + 2.0 / t
            pB = BoBA + BoAB - 4.0 / t
        if t < self.defl_cutoff:
            return (phi, gamma, q, pB, P[4][i](t), P[5][i](t), P[6][i](t))
        return (phi, gamma, q, pB, (phi - self.phi1[i] * t) / (t * t),
                (phi - self.phi1[i] * t - self.phi3[i] * t ** 3) / t ** 5,
                (gamma - self.gamma1[i] * t) / (t * t))


def coefficient_functions(s):
    """CoefficientFns for a StructureData (cached on the structure)."""
    cf = s._cache.get("cf")
    if cf is None:
        cf = CoefficientFns(s)
        s._cache["cf"] = cf
    return cf


# ---------------------------------------------------------------------------
# JSON export / import


def structure_to_json(s, n_samples=1201):
    """Serializable document {label, b0, b2, a3, a5, samples, series,
    t_max} on [0, min(t_max, 20)]; samples carry the profile values and
    their derivatives; n_samples is an integer >= 4, the loader's least."""
    if not isinstance(n_samples, int) or n_samples < 4:
        raise ValueError("n_samples must be an integer >= 4")
    hi = min(s.t_max, 20.0)
    ts = np.linspace(0.0, hi, n_samples)

    def table(fns):
        return [[float(fns[i](float(t))) for t in ts] for i in range(3)]

    doc = {
        "label": s.label,
        "b0": s.b0,
        "b2": s.b2,
        "a3": list(s.a3),
        "a5": list(s.a5),
        "samples": {
            "t": [float(t) for t in ts],
            "A": table(s.A),
            "B": table(s.B),
            "dA": table(s.dA),
            "dB": table(s.dB),
        },
        "series": {
            "A": [list(sr) for sr in s.A_series],
            "B": [list(sr) for sr in s.B_series],
        },
        "t_max": hi,
    }
    return doc


_STRUCTURE_KEYS = {"label", "b0", "b2", "a3", "a5", "samples", "series",
                   "t_max"}
_SAMPLE_KEYS = {"t", "A", "B", "dA", "dB"}


def _spline_reader(ts, columns):
    """dense_reader of the cubic splines through the columns (y, ends),
    with scipy CubicSpline's end rules: ends = (first, last) clamps the
    end slopes, None is not-a-knot.  The node slopes solve its tridiagonal
    system (Thomas algorithm); each interval is a cubic-Hermite segment."""
    dx = [b - a for a, b in zip(ts, ts[1:])]
    d0, d1 = ts[2] - ts[0], ts[-1] - ts[-3]
    cols = []
    for y, ends in columns:
        dy = [b - a for a, b in zip(y, y[1:])]
        m = [d / h for d, h in zip(dy, dx)]
        # (sub, diag, super, rhs) per node
        rows = [(0.0, 1.0, 0.0, ends[0]) if ends else (0.0, dx[1], d0, (
            (dx[0] + 2 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0)]
        rows += [(dx[i], 2 * (dx[i - 1] + dx[i]), dx[i - 1],
                  3 * (dx[i] * m[i - 1] + dx[i - 1] * m[i]))
                 for i in range(1, len(dx))]
        rows.append((0.0, 1.0, 0.0, ends[1]) if ends else (d1, dx[-2], 0.0, (
            dx[-1] ** 2 * m[-2] + (2 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1))
        sweep, c, r = [], 0.0, 0.0
        for sub, diag, sup, rhs in rows:
            den = diag - sub * c
            c, r = sup / den, (rhs - sub * r) / den
            sweep.append((c, r))
        s = [r]
        for c, r in sweep[-2::-1]:
            s.append(r - c * s[-1])
        s.reverse()
        # F[0], F[1], F[2] of singular_ivp._segment; the higher terms 0
        cols.append([(0.0, 0.0, 0.0, 0.0, 2 * d - h * (s0 + s1), h * s0 - d,
                      d, y0) for y0, d, h, s0, s1 in zip(y, dy, dx, s, s[1:])])
    return dense_reader(None, ts, list(zip(ts, dx, zip(*cols))))


def _three_rows(rows, name, size=None):
    """rows as three lists of finite floats, of length size if given."""
    rows = ([np.asarray(row, dtype=float) for row in rows]
            if isinstance(rows, list) else [])
    if len(rows) != 3 or not all(r.ndim == 1 and size in (None, r.size)
                                 and np.all(np.isfinite(r)) for r in rows):
        raise ValueError("%s must be three rows of finite numbers%s" % (
            name, "" if size is None else ", each as long as samples.t"))
    return [r.tolist() for r in rows]


def structure_from_json(doc):
    """Rebuild a StructureData from the document structure_to_json writes.

    Evaluators read one reader of 12 cubic splines through the samples
    (end slopes of A and B clamped to the stored derivatives, dA and dB
    not-a-knot); Taylor data comes from the series block.  Symmetric if
    each table's three entries agree."""
    for what, keys in (("unknown", set(doc) - _STRUCTURE_KEYS),
                       ("missing", _STRUCTURE_KEYS - set(doc))):
        if keys:
            raise ValueError("%s structure keys: %s" % (what, sorted(keys)))
    if not isinstance(doc["label"], str):
        raise ValueError("label must be a string")
    b2 = _finite("b2", doc["b2"])
    a3, a5 = ([_finite(key, x) for x in doc[key]]
              if isinstance(doc[key], list) else [] for key in ("a3", "a5"))
    if len(a3) != 3 or len(a5) != 3:
        raise ValueError("a3 and a5 must be three numbers each")
    samples, series = doc["samples"], doc["series"]
    for name, table, keys in (("samples", samples, _SAMPLE_KEYS),
                              ("series", series, {"A", "B"})):
        if not isinstance(table, dict) or set(table) != keys:
            raise ValueError("%s must be an object with the keys %s"
                             % (name, sorted(keys)))
    ts = np.asarray(samples["t"], dtype=float)
    if (ts.ndim != 1 or ts.size < 4 or ts[0] != 0.0
            or not np.all(np.diff(ts) > 0) or not math.isfinite(ts[-1])):
        raise ValueError("samples.t must be finite and increase strictly "
                         "from 0")
    t_max = _finite("t_max", doc["t_max"])
    if not 0 < t_max <= ts[-1] * (1 + 1e-12):
        raise ValueError("t_max must be positive and covered by samples")
    av, bv, dav, dbv = (_three_rows(samples[key], "samples." + key, ts.size)
                        for key in ("A", "B", "dA", "dB"))
    if any(x <= 0 for row in av for x in row[1:]) or min(map(min, bv)) <= 0:
        raise ValueError("A_i must be positive for t > 0 and B_i > 0")
    ends = [(d[0], d[-1]) for d in dav + dbv] + [None] * 6
    read = _spline_reader(ts.tolist(), list(zip(av + bv + dav + dbv, ends)))
    A, B, dA, dB = ([lambda t, k=k + i: read(_in_range(t, t_max))[k]
                     for i in range(3)] for k in (0, 3, 6, 9))

    A_series, B_series = ([PowerSeries(c, parity=parity) for c in _three_rows(
        series[key], "series." + key)] for key, parity in (
        ("A", "odd"), ("B", "even")))
    derived = [B_series[0][2]] + [p[k] for k in (3, 5) for p in A_series]
    for got, want in zip([b2] + a3 + a5, derived):
        if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            raise ValueError("b2, a3 and a5 must match the series block")
    same = all(b[0] == b[1] == b[2]
               for b in (A_series, B_series, av, bv, dav, dbv))
    return StructureData(doc["label"], A, B, dA, dB, A_series, B_series,
                         b0=doc["b0"], b2=b2, t_max=t_max, symmetric=same)


def save_structure(s, path, n_samples=1201):
    doc = structure_to_json(s, n_samples)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_structure(path):
    with open(path) as fh:
        return structure_from_json(json.load(fh))
