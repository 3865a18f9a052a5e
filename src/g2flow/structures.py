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

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from ._series import PowerSeries, ps_const, ps_var

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
        if b0 <= 0:
            raise ValueError("b0 must be positive")
        self.label = label
        self.A = tuple(A)
        self.B = tuple(B)
        self.dA = tuple(dA)
        self.dB = tuple(dB)
        self.A_series = tuple(A_series)
        self.B_series = tuple(B_series)
        self.b0 = float(b0)
        self.b2 = float(b2)
        self.t_max = float(t_max)
        self.symmetric = bool(symmetric)
        self._cache = {}
        for s in self.A_series:
            if abs(s[1] - 0.5) > 1e-9:
                raise ValueError("A_i series must start t/2")
        for s in self.B_series:
            if abs(s[0] - b0) > 1e-9 * max(1.0, b0):
                raise ValueError("B_i series must start at b0")

    @property
    def a3(self):
        return tuple(s[3] for s in self.A_series)

    @property
    def a5(self):
        return tuple(s[5] for s in self.A_series)

    def __repr__(self):
        return "StructureData(%r, b0=%g, t_max=%g)" % (
            self.label, self.b0, self.t_max)


def b2_from_data(b0, a3):
    """b2 = 1/(8 b0) - b0 (a_{1,3} + a_{2,3} + a_{3,3})."""
    if b0 <= 0:
        raise ValueError("b0 must be positive")
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
    B = b0.
    """
    b0 = _INV_SQRT3
    A = ps_var(order) * 0.5
    B = ps_const(b0, order)
    for _ in range(order + 2):
        r = B * math.sqrt(3.0)
        rinv3 = 1.0 / (r * r * r)
        A = PowerSeries(list((rinv3 * (1.0 / 6.0) + (1.0 / 3.0)).integ()),
                        order=order)
        B = PowerSeries(list((A / B).integ() + b0), order=order)
    return A, B


def make_bryant_salamon(r_max=60.0):
    """Bryant-Salamon structure A_1 = (r/3) sqrt(1 - r^-3), B_1 = r/sqrt(3).

    The radial coordinate satisfies t(r) = int_1^r ds/sqrt(1-s^-3); with
    r = 1 + w^2 the rate dw/dt is smooth and even in w, so the profile is
    produced by one regular ODE solve with dense output.  r_max sets the
    horizon t_max = t(r_max).
    """
    if r_max <= 1:
        raise ValueError("r_max must exceed 1")
    A_ps, B_ps = _bs_series(SERIES_ORDER)
    b0 = _INV_SQRT3

    def wrate(t, y):
        x = y[0] * y[0]
        return [0.5 * math.sqrt((3.0 + x * (3.0 + x)) / (1.0 + x) ** 3)]

    w_max = math.sqrt(r_max - 1.0)

    def hit(t, y):
        return y[0] - w_max
    hit.terminal = True
    hit.direction = 1

    sol = solve_ivp(wrate, (0.0, r_max + 6.0), [0.0], method="DOP853",
                    rtol=1e-13, atol=1e-14, dense_output=True, events=[hit])
    if not sol.t_events[0].size:
        raise RuntimeError("radial coordinate failed to reach r_max")
    t_max = float(sol.t_events[0][0])
    dense = sol.sol

    def wof(t):
        return float(dense(t)[0])

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
    if b0 <= 0:
        raise ValueError("b0 must be positive")
    b0 = float(b0)

    def A1(t):
        return 0.5 * t

    def dA1(t):
        return 0.5

    def B1(t):
        return math.hypot(b0, 0.5 * t)

    def dB1(t):
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


def _unpack_profile(A1):
    """Accept a StructureData, or a (callable, PowerSeries[, dcallable])
    tuple."""
    if isinstance(A1, StructureData):
        return A1.A[0], A1.A_series[0], A1.dA[0], A1.t_max
    if isinstance(A1, tuple):
        a1 = A1[0]
        series = A1[1]
        da1 = A1[2] if len(A1) > 2 else None
        return a1, series, da1, math.inf
    raise TypeError(
        "A1 must be a StructureData or (callable, PowerSeries) pair")


def make_su23_structure(A1, b0, t_max=None, label="su23"):
    """Build B_1 = B_2 = B_3 from a symmetric A_1 profile and B_1(0) = b0.

    Solves P' = P/A_1 + A_1^3 for P = A_1^2 B_1^2 with P ~ (b0^2/4) t^2,
    which is the quadrature formula for B_1 written base-point free:
    P = t^2 e^{J} (b0^2/4 + int_0^t A^3 e^{-J} eta^-2 d eta) with
    J = int_0^t (1/A - 2/xi) d xi.  The 1/A - 2/t integrand is evaluated
    by series near 0, direct formula above the cutoff.
    """
    if b0 <= 0:
        raise ValueError("b0 must be positive")
    a1, a1_series, da1, t_cap = _unpack_profile(A1)
    if a1_series.parity != "odd" or abs(a1_series[1] - 0.5) > 1e-9:
        raise ValueError("A1 series must be odd with leading coefficient 1/2")
    horizon = float(t_max if t_max is not None else min(t_cap, 12.0))
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("no finite t_max available for the A1 profile")
    _positivity_scan(a1, horizon, "A1")

    # pole cancellations in the coefficient deflations eat a few orders,
    # so keep enough terms that the Taylor window stays below 1e-10
    order = max(a1_series.order, 14)
    A_ps = PowerSeries(a1_series, order=order)
    uA = A_ps.shift_down(1)
    g_ps = (1.0 / uA - 2.0).shift_down(1)

    def g_reg(t):
        if t < COEFF_SERIES_CUTOFF:
            return g_ps(t)
        return 1.0 / a1(t) - 2.0 / t

    def rhs(t, y):
        if t <= 0.0:
            return [0.0, 0.0]
        a = a1(t)
        return [g_reg(t), a * a * a * math.exp(-y[0]) / (t * t)]

    sol = solve_ivp(rhs, (0.0, horizon), [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-15, dense_output=True)
    if not sol.success:
        raise RuntimeError("B-from-A quadrature failed: %s" % sol.message)
    dense = sol.sol
    c0 = 0.25 * b0 * b0

    def Pfun(t):
        J, q2 = dense(t)
        return t * t * math.exp(float(J)) * (c0 + float(q2))

    def B1(t):
        if t <= 0.0:
            return b0
        return math.sqrt(Pfun(t)) / a1(t)

    # series for P by fixed point of the same ODE; the t^4 slot contracts
    # with ratio 1/2 per sweep, so run enough sweeps for full convergence
    P = PowerSeries([0.0, 0.0, c0], order=order + 2)
    for _ in range(30 + 3 * order):
        upd = (P.shift_down(1) * (1.0 / uA) + A_ps ** 3).integ()
        P = PowerSeries([0.0, 0.0, c0] + list(upd)[3:], order=order + 2)
    B_ps = P.shift_down(2).sqrt() * (1.0 / uA)

    if da1 is None:
        def da1(t, _ps=A_ps.deriv()):
            if t < COEFF_SERIES_CUTOFF:
                return _ps(t)
            h = 1e-6 * max(t, 1.0)
            return (a1(t - 2 * h) - 8 * a1(t - h)
                    + 8 * a1(t + h) - a1(t + 2 * h)) / (12 * h)

    dB_ps = B_ps.deriv()

    def dB1(t):
        if t < COEFF_SERIES_CUTOFF:
            return dB_ps(t)
        a = a1(t)
        P = Pfun(t)
        Pdot = P / a + a ** 3
        return B1(t) * (Pdot / (2.0 * P) - da1(t) / a)

    return StructureData(label, (a1,) * 3, (B1,) * 3, (da1,) * 3,
                         (dB1,) * 3, (PowerSeries(A_ps, parity="odd"),) * 3,
                         (PowerSeries(B_ps, parity="even"),) * 3,
                         b0=b0, b2=B_ps[2], t_max=horizon, symmetric=True)


# ---------------------------------------------------------------------------
# Coefficient functions F_i, G_i and their deflations


class _RegularFn:
    """Analytic scalar function of t: Taylor polynomial below a cutoff,
    closed-form evaluator above it.  Accepts a PowerSeries argument, in
    which case the polynomial part is composed (used by the series
    bootstrap)."""

    __slots__ = ("poly", "direct", "cutoff")

    def __init__(self, ps, direct, cutoff):
        self.poly = PowerSeries([float(c) for c in ps])
        self.direct = direct
        self.cutoff = cutoff

    def __call__(self, t):
        if (isinstance(t, PowerSeries) or self.direct is None
                or abs(t) < self.cutoff):
            return self.poly(t)
        return self.direct(t)


def _shift_pad(ps, m):
    c = list(ps)
    while len(c) <= m:
        c.append(0.0)
    for k in range(m):
        c[k] = 0.0
    return PowerSeries(c[m:])


def _radius_from_tail(ps):
    """Convergence-radius estimate by the ratio test on the series tail."""
    c = [abs(x) for x in ps]
    for k in range(len(c) - 1, 5, -1):
        if c[k] > 0 and c[k - 2] > 0:
            if c[k] <= c[k - 2]:
                return math.inf
            return math.sqrt(c[k - 2] / c[k])
    return math.inf


class CoefficientFns:
    """The six bracketed ODE coefficients and their regular parts.

    Attributes (tuples indexed by i = 0, 1, 2):
      F, G           full coefficients, F_i = -1/t + phi_i, G_i = 4/t + gamma_i
      phi, gamma     pole-free odd parts (dual-mode evaluators)
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
        c_cut = min(COEFF_SERIES_CUTOFF, 0.25 * rho)
        d_cut = min(DEFLATION_CUTOFF, 0.22 * rho)
        self.coeff_cutoff = c_cut
        self.defl_cutoff = d_cut

        F, G, phi, gamma = [], [], [], []
        phi_hat, dphi, gamma_hat = [], [], []
        a_plus_rate, a_minus_rate = [], []
        phi1, phi3, gamma1 = [], [], []
        self.phi_series = []

        for (i, j, k), (phi_ps, gamma_ps, q_ps, pB) in zip(CYC0, data):
            Ai, Aj, Ak = s.A[i], s.A[j], s.A[k]
            Bi, Bj, Bk = s.B[i], s.B[j], s.B[k]
            dAi, dBi = s.dA[i], s.dB[i]

            def phi_direct(t, Ai=Ai, Aj=Aj, Ak=Ak, Bj=Bj, Bk=Bk, dAi=dAi):
                return (dAi(t) / Ai(t) + Ai(t) / (Bj(t) * Bk(t))
                        - Ai(t) / (Aj(t) * Ak(t)) + 1.0 / t)

            def gamma_direct(t, Bi=Bi, Bj=Bj, Bk=Bk, Aj=Aj, Ak=Ak, dBi=dBi):
                return (dBi(t) / Bi(t) + Bi(t) / (Bj(t) * Ak(t))
                        + Bi(t) / (Aj(t) * Bk(t)) - 4.0 / t)

            def q_direct(t, Ai=Ai, Aj=Aj, Ak=Ak, Bj=Bj, Bk=Bk):
                return (Ai(t) / (Bj(t) * Bk(t))
                        - Ai(t) / (Aj(t) * Ak(t)) + 2.0 / t)

            def pB_direct(t, Bi=Bi, Bj=Bj, Bk=Bk, Aj=Aj, Ak=Ak):
                return (Bi(t) / (Bj(t) * Ak(t))
                        + Bi(t) / (Aj(t) * Bk(t)) - 4.0 / t)

            p1, p3 = phi_ps[1], phi_ps[3]
            g1 = gamma_ps[1]
            phi_i = _RegularFn(phi_ps, phi_direct, c_cut)
            gamma_i = _RegularFn(gamma_ps, gamma_direct, c_cut)

            def F_i(t, phi_i=phi_i):
                if t <= 0:
                    raise ValueError("coefficient functions need t > 0")
                return -1.0 / t + phi_i(t)

            def G_i(t, gamma_i=gamma_i):
                if t <= 0:
                    raise ValueError("coefficient functions need t > 0")
                return 4.0 / t + gamma_i(t)

            tvar = ps_var(max(phi_ps.order, 1))
            phi_hat_ps = _shift_pad(phi_ps - tvar * p1, 2)
            dphi_ps = _shift_pad(phi_ps - tvar * p1 - (tvar ** 3) * p3, 5)
            gvar = ps_var(max(gamma_ps.order, 1))
            gamma_hat_ps = _shift_pad(gamma_ps - gvar * g1, 2)

            def phi_hat_direct(t, phi_i=phi_i, p1=p1):
                return (phi_i(t) - p1 * t) / (t * t)

            def dphi_direct(t, phi_i=phi_i, p1=p1, p3=p3):
                return (phi_i(t) - p1 * t - p3 * t ** 3) / t ** 5

            def gamma_hat_direct(t, gamma_i=gamma_i, g1=g1):
                return (gamma_i(t) - g1 * t) / (t * t)

            F.append(F_i)
            G.append(G_i)
            phi.append(phi_i)
            gamma.append(gamma_i)
            phi_hat.append(_RegularFn(phi_hat_ps, phi_hat_direct, d_cut))
            dphi.append(_RegularFn(dphi_ps, dphi_direct, d_cut))
            gamma_hat.append(_RegularFn(gamma_hat_ps, gamma_hat_direct,
                                        d_cut))
            a_plus_rate.append(_RegularFn(q_ps, q_direct, c_cut))
            a_minus_rate.append(_RegularFn(pB, pB_direct, c_cut))
            phi1.append(p1)
            phi3.append(p3)
            gamma1.append(g1)
            self.phi_series.append(PowerSeries(phi_ps, parity="odd"))

        self.F = tuple(F)
        self.G = tuple(G)
        self.phi = tuple(phi)
        self.gamma = tuple(gamma)
        self.phi_hat = tuple(phi_hat)
        self.dphi = tuple(dphi)
        self.gamma_hat = tuple(gamma_hat)
        self.a_plus_rate = tuple(a_plus_rate)
        self.a_minus_rate = tuple(a_minus_rate)
        self.phi1 = tuple(phi1)
        self.phi3 = tuple(phi3)
        self.gamma1 = tuple(gamma1)

        if s.symmetric:
            phi0 = self.phi[0]

            def scalar_F(t):
                if t <= 0:
                    raise ValueError("coefficient functions need t > 0")
                return 1.0 / t - phi0(t)

            self.scalar_F = scalar_F
        else:
            self.scalar_F = None


def coefficient_functions(s):
    """CoefficientFns for a StructureData (cached on the structure)."""
    cf = s._cache.get("cf")
    if cf is None:
        cf = CoefficientFns(s)
        s._cache["cf"] = cf
    return cf


# ---------------------------------------------------------------------------
# JSON export / import


def structure_to_json(s, n_samples=1201, t_hi=None):
    """Serializable document {label, b0, b2, a3, a5, samples, series,
    t_max}; samples carry the profile values and their derivatives."""
    hi = float(t_hi if t_hi is not None else min(s.t_max, 20.0))
    ts = np.linspace(0.0, hi, int(n_samples))

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


def _clamped_spline(ts, vals, dvals):
    if dvals is not None:
        bc = ((1, float(dvals[0])), (1, float(dvals[-1])))
        return CubicSpline(ts, vals, bc_type=bc)
    return CubicSpline(ts, vals, bc_type="not-a-knot")


def structure_from_json(doc):
    """Rebuild a StructureData from its JSON document.

    Evaluators use cubic-spline interpolation of the samples (end slopes
    clamped to the stored derivatives); Taylor data comes from the stored
    series block, falling back to (b0, b2, a3, a5) for short documents.
    """
    unknown = set(doc) - _STRUCTURE_KEYS
    if unknown:
        raise ValueError("unknown structure keys: %s" % sorted(unknown))
    missing = _STRUCTURE_KEYS - {"series"} - set(doc)
    if missing:
        raise ValueError("missing structure keys: %s" % sorted(missing))
    b0 = float(doc["b0"])
    if b0 <= 0:
        raise ValueError("b0 must be positive")
    b2 = float(doc["b2"])
    a3 = [float(x) for x in doc["a3"]]
    a5 = [float(x) for x in doc["a5"]]
    if len(a3) != 3 or len(a5) != 3:
        raise ValueError("a3 and a5 must have three entries")
    samples = doc["samples"]
    bad = set(samples) - _SAMPLE_KEYS
    if bad:
        raise ValueError("unknown sample keys: %s" % sorted(bad))
    ts = np.asarray(samples["t"], dtype=float)
    if ts.ndim != 1 or ts.size < 4 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("samples.t must increase strictly from 0")
    t_max = float(doc["t_max"])
    if not 0 < t_max <= ts[-1] * (1 + 1e-12):
        raise ValueError("t_max must be positive and covered by samples")

    A, B, dA, dB = [], [], [], []
    for i in range(3):
        av = np.asarray(samples["A"][i], dtype=float)
        bv = np.asarray(samples["B"][i], dtype=float)
        dav = samples.get("dA", (None,) * 3)[i]
        dbv = samples.get("dB", (None,) * 3)[i]
        if np.any(av[1:] <= 0) or np.any(bv <= 0):
            raise ValueError("A_i must be positive for t > 0 and B_i > 0")
        ai = _clamped_spline(ts, av, dav)
        bi = _clamped_spline(ts, bv, dbv)
        dai = _clamped_spline(ts, dav, None) if dav is not None \
            else ai.derivative()
        dbi = _clamped_spline(ts, dbv, None) if dbv is not None \
            else bi.derivative()
        A.append(lambda t, f=ai: float(f(t)))
        B.append(lambda t, f=bi: float(f(t)))
        dA.append(lambda t, f=dai: float(f(t)))
        dB.append(lambda t, f=dbi: float(f(t)))

    series = doc.get("series")
    if series is not None:
        A_series = [PowerSeries(series["A"][i], parity="odd")
                    for i in range(3)]
        B_series = [PowerSeries(series["B"][i], parity="even")
                    for i in range(3)]
    else:
        A_series = [PowerSeries([0.0, 0.5, 0.0, a3[i], 0.0, a5[i]],
                                parity="odd") for i in range(3)]
        B_series = [PowerSeries([b0, 0.0, b2, 0.0], parity="even")
                    for _ in range(3)]
    same = (samples["A"][0] == samples["A"][1] == samples["A"][2]
            and samples["B"][0] == samples["B"][1] == samples["B"][2])
    return StructureData(doc["label"], A, B, dA, dB, A_series, B_series,
                         b0=b0, b2=b2, t_max=t_max, symmetric=same)


def save_structure(s, path, n_samples=1201):
    with open(path, "w", newline="\n") as fh:
        json.dump(structure_to_json(s, n_samples), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def load_structure(path):
    with open(path) as fh:
        return structure_from_json(json.load(fh))
