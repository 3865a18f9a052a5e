"""Quantitative verification reports for computed instanton data.

Each report is a pure function of its inputs: it gathers a few named
metrics, compares them against fixed thresholds, and records the verdict
together with explanatory notes.  Reports serialize to JSON one by one
and to a flat CSV summary in batch.
"""

import json
import math
import random

import numpy as np

from .algebra import (ConnectionCoeffs, Su2Vec, _direct_parts, _lemma2_parts,
                      constraint_value, curvature_direct, curvature_lemma2,
                      random_rational_connection)
from .instantons import (connection_at, flat_pid, p1_ivp, pid_ivp,
                         residual_pointwise, theta_x1, theta_y0, theta_zero)
from .singular_ivp import malgrange_check
from .structures import CYC0, coefficient_functions

RESIDUAL_THRESHOLD = 1e-8
P1_SPECTRUM = (-2.0, -2.0, -2.0, -6.0, -6.0, -6.0)
PID_SPECTRUM = (-8.0, -8.0, -6.0, -2.0, 0.0, 0.0)


class Report:
    """Named pass/fail verdict with a metric map and free-form notes."""

    def __init__(self, name, passed, metrics, notes=()):
        self.name = name
        self.passed = bool(passed)
        self.metrics = dict(metrics)
        self.notes = list(notes)

    def __repr__(self):
        return "Report(%r, %s, %d metrics)" % (
            self.name, "pass" if self.passed else "FAIL", len(self.metrics))

    def to_json(self):
        return {"name": self.name, "pass": self.passed,
                "metrics": {k: float(v) for k, v in self.metrics.items()},
                "notes": list(self.notes)}


def report_to_json(report, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(report.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def reports_to_csv(reports, path):
    """Flat summary, one row per metric: report,pass,metric,value."""
    with open(path, "w", newline="\n") as fh:
        fh.write("report,pass,metric,value\n")
        for rep in reports:
            flag = "true" if rep.passed else "false"
            for key, val in rep.metrics.items():
                fh.write("%s,%s,%s,%.17g\n" % (rep.name, flag, key, val))


def _lstsq(design, rhs):
    """Column-scaled least squares with a condition guard.

    Returns (coeffs, relative residual, condition estimate).
    """
    design = np.asarray(design, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    sol, _, _, sv = np.linalg.lstsq(design / scale, rhs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    coeffs = sol / scale
    fit = design.dot(coeffs)
    denom = np.linalg.norm(rhs)
    rel = np.linalg.norm(fit - rhs) / denom if denom > 0 else 0.0
    return coeffs, rel, cond


# ---------------------------------------------------------------------------
# Residuals


def residual_report(s, sol, grid, threshold=None):
    """Defect of the six profile ODEs over a t grid, plus the bracket
    constraint; derivative estimated by difference stencils."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = sol.valid
    if threshold is None:
        threshold = RESIDUAL_THRESHOLD
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("residual grid must be positive and nonempty")
    if grid.min() <= lo or grid.max() > hi * (1 + 1e-9):
        raise ValueError("residual grid leaves the solution range (%g, %g]"
                         % (lo, hi))
    res = np.array([residual_pointwise(s, sol, t) for t in grid])
    cons = max(constraint_value(connection_at(sol, t), s, t).norm_inf()
               for t in grid)
    metrics = {"sup_residual": float(res.max()),
               "mean_residual": float(res.mean()),
               "constraint_sup": float(cons)}
    passed = metrics["sup_residual"] <= threshold and \
        metrics["constraint_sup"] <= threshold
    notes = ["threshold %.0e on %d points in [%g, %g]"
             % (threshold, grid.size, grid.min(), grid.max())]
    return Report("residual:%s" % _sol_tag(sol), passed, metrics, notes)


def _sol_tag(sol):
    bits = [sol.family]
    for key in ("x1", "y0", "sign"):
        if key in sol.params:
            bits.append("%s=%g" % (key, sol.params[key]))
    return ",".join(bits)


# ---------------------------------------------------------------------------
# Boundary patterns


def parity_report(sol):
    """Least-squares extraction of the small-t coefficient pattern.

    The model depends on how the connection closes up at the origin:
    odd x1*t + x3*t^3 profiles, a 2/t pole plus odd corrections with an
    even mate, or pure power decay for the decoupled family.  The fit
    uses 24 log-spaced points on [t_fit/100, t_fit], t_fit = min(0.1,
    half the validity range).
    """
    lo, hi = sol.valid
    n = 24
    t_fit = min(1e-1, 0.5 * hi)
    if t_fit <= lo:
        raise ValueError("not enough usable samples below t=%g" % t_fit)
    ts = np.geomspace(t_fit / 100.0, t_fit, n)
    f = np.array([sol.coefficients(t) for t in ts])
    metrics = {}
    notes = []
    if sol.family == "abelian":
        ok = True
        for i in range(3):
            for col, key, want in ((i, "exp_plus_%d" % (i + 1), 2.0),
                                   (3 + i, "exp_minus_%d" % (i + 1), -4.0)):
                vals = np.abs(f[:, col])
                if vals.max() == 0.0:
                    notes.append("%s branch %d identically zero"
                                 % ("plus" if col < 3 else "minus", i + 1))
                    continue
                slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
                metrics[key] = slope
                ok = ok and abs(slope - want) <= 0.02
        notes.append("power-law exponents on [%g, %g]" % (ts[0], ts[-1]))
        return Report("parity:%s" % _sol_tag(sol), ok, metrics, notes)

    x = f[:, 0]
    y = f[:, 3]
    if sol.bundle == "P1":
        coeffs, rel, cond = _lstsq(np.column_stack([ts, ts ** 3]), x)
        metrics["x1_fit"] = coeffs[0]
        metrics["x3_fit"] = coeffs[1]
        metrics["fit_residual"] = rel
        metrics["y_sup"] = float(np.abs(y).max())
        passed = rel <= 1e-4 and metrics["y_sup"] <= 1e-8
        want = sol.params.get("x1")
        if want is not None and want != 0.0:
            err = abs(coeffs[0] - want) / abs(want)
            metrics["x1_rel_err"] = err
            passed = passed and err <= 1e-4
    else:
        coeffs, rel, cond = _lstsq(np.column_stack([1.0 / ts, ts]), x)
        metrics["pole_fit"] = coeffs[0]
        metrics["x1_fit"] = coeffs[1]
        metrics["fit_residual"] = rel
        cy, rely, _ = _lstsq(np.column_stack([np.ones_like(ts), ts ** 2]), y)
        metrics["y0_fit"] = cy[0]
        metrics["y2_fit"] = cy[1]
        passed = rel <= 1e-4 and abs(coeffs[0] - 2.0) <= 1e-4
        want = sol.params.get("y0")
        if want is not None:
            err = abs(cy[0] - want) / max(1.0, abs(want))
            metrics["y0_rel_err"] = err
            passed = passed and err <= 1e-4
    if cond > 1e10:
        notes.append("ill-conditioned design, cond=%.1e" % cond)
        passed = False
    notes.append("%s model on %d log-spaced points up to t=%g"
                 % (sol.bundle, n, t_fit))
    return Report("parity:%s" % _sol_tag(sol), passed, metrics, notes)


# ---------------------------------------------------------------------------
# Invariant region


def invariance_report(traj):
    """Containment of a trajectory in the closed unit square.

    Expects the bounded coordinates (A1 x, B1 y); boundary contact, up
    to a slack of 1e-9, is allowed, which covers the constant edge
    solutions.
    """
    slack = 1e-9
    if traj.dim != 2:
        raise ValueError("expected a planar trajectory, got dim=%d"
                         % traj.dim)
    xp, xm = traj.y
    metrics = {"xp_min": float(xp.min()), "xp_max": float(xp.max()),
               "xm_min": float(xm.min()), "xm_max": float(xm.max()),
               "t_end": float(traj.t[-1])}
    inside = (metrics["xp_min"] >= -slack and metrics["xp_max"] <= 1 + slack
              and metrics["xm_min"] >= -slack
              and metrics["xm_max"] <= 1 + slack)
    notes = ["closure of the unit square, slack %.0e" % slack]
    exits = [t for kind, t in traj.events if kind.startswith("region")]
    if exits:
        metrics["exit_t"] = float(min(exits))
        notes.append("region-exit event at t=%.6g" % min(exits))
    if not inside and "exit_t" not in metrics:
        crossed = np.where((xp < -slack) | (xp > 1 + slack)
                           | (xm < -slack) | (xm > 1 + slack))[0]
        metrics["exit_t"] = float(traj.t[crossed[0]])
        notes.append("first sample outside at t=%.6g" % metrics["exit_t"])
    return Report("invariance:%s" % (traj.meta.get("label") or "traj"),
                  inside, metrics, notes)


# ---------------------------------------------------------------------------
# Asymptotic regimes of the x1 family


def _fit_leading_coefficient(sol, x1):
    """Fitted coefficient c with x ~ c*t near 0, via the bounded product.

    The window shrinks with x1 so that the quadratic model stays in its
    convergence range; the returned value doubles the t^2 slope of A1 x.
    """
    t_hi = min(1e-2, 5e-2 / np.sqrt(max(x1, 1.0)))
    ts = np.geomspace(t_hi / 100.0, t_hi, 25)
    g = np.array([sol.extras["A1x"](t) for t in ts]) / ts ** 2
    coeffs, rel, _ = _lstsq(np.column_stack([np.ones_like(ts), ts ** 2]), g)
    return 2.0 * coeffs[0], rel


def bubbling_report(s, x1, lam):
    """Distance of the rescaled profile to lam*t^2/(1+lam*t^2).

    The rescaling delta = sqrt(2*lam/c) uses the fitted leading
    coefficient c of x, so the comparison is parameter-free; sup and
    first-derivative distances are taken over 101 unit-ball radii.
    """
    if not s.symmetric:
        raise ValueError("rescaling limit needs a symmetric structure")
    if lam <= 0:
        raise ValueError("lam must be positive")
    grid = np.linspace(0.0, 1.0, 101)
    sol = theta_x1(s, x1)
    c_fit, fit_rel = _fit_leading_coefficient(sol, x1)
    if c_fit <= 0:
        raise ValueError("fitted leading coefficient %.3g is not positive"
                         % c_fit)
    delta = float(np.sqrt(2.0 * lam / c_fit))
    prof = np.array([sol.extras["A1x"](delta * t) for t in grid])
    dprof = delta * np.array([sol.extras["dA1x"](delta * t) for t in grid])
    model = lam * grid ** 2 / (1.0 + lam * grid ** 2)
    dmodel = 2.0 * lam * grid / (1.0 + lam * grid ** 2) ** 2
    sup = float(np.abs(prof - model).max())
    dsup = float(np.abs(dprof - dmodel).max())
    bound = 10.0 * lam ** 2 / c_fit
    metrics = {"c_fit": float(c_fit), "delta": delta, "sup_distance": sup,
               "deriv_distance": dsup, "coeff_fit_residual": float(fit_rel),
               "shape_bound": float(bound)}
    passed = sup <= bound and dsup <= 10.0 * bound
    notes = ["profile target lam*t^2/(1+lam*t^2) on %d radii" % grid.size,
             "pass bound 10*lam^2/c_fit (stable constant across x1)"]
    return Report("bubbling:x1=%g,lam=%g" % (x1, lam), passed, metrics,
                  notes)


def convergence_report(s, x1_list):
    """Decay of sup |A1 x - A1 x_0| on the window [1, 5] as x1 grows.

    The sup is taken over 160 points of the window.  Checks strict
    monotonicity and the reciprocal-linear shape c1/(1 + c2*x1) of the
    distances.
    """
    n = 160
    if not s.symmetric:
        raise ValueError("comparison needs a symmetric structure")
    ta, tb = 1.0, 5.0
    if not tb <= s.t_max:
        raise ValueError("window (%g, %g) outside the structure range"
                         % (ta, tb))
    x1s = [float(v) for v in x1_list]
    if len(x1s) < 2 or sorted(x1s) != x1s:
        raise ValueError("x1 values must be increasing, got %r" % (x1s,))
    ts = np.linspace(ta, tb, n)
    base = theta_zero(s)
    ref = np.array([base.extras["A1x"](t) for t in ts])
    if not np.all(np.isfinite(ref)):
        raise ValueError("limit profile unbounded on the window")
    metrics = {}
    dists = []
    for x1 in x1s:
        sol = theta_x1(s, x1)
        vals = np.array([sol.extras["A1x"](t) for t in ts])
        d = float(np.abs(vals - ref).max())
        dists.append(d)
        metrics["sup_diff_x1=%g" % x1] = d
    dists = np.array(dists)
    decreasing = bool(np.all(np.diff(dists) < 0))
    coeffs, _, _ = _lstsq(np.column_stack([np.ones(len(x1s)), x1s]),
                          1.0 / dists)
    c1 = 1.0 / coeffs[0]
    c2 = coeffs[1] * c1
    model = c1 / (1.0 + c2 * np.array(x1s))
    rel = float(np.abs(model - dists).max() / dists.max())
    metrics.update({"c1": float(c1), "c2": float(c2), "fit_residual": rel})
    passed = decreasing and rel <= 0.10 and c1 > 0 and c2 > 0
    notes = ["window [%g, %g], %d samples" % (ta, tb, n),
             "distances %s" % ("strictly decreasing" if decreasing
                               else "NOT decreasing")]
    return Report("convergence:x1=%s" % ",".join("%g" % v for v in x1s),
                  passed, metrics, notes)


# ---------------------------------------------------------------------------
# Curvature at the origin


# eta_j^- ^ eta_k^- for cyclic (i, j, k), i = 1, 2, 3, and the same slots
# as (sorted index pair, T component) of LieForm.coeffs
_MM_PAIRS = ((5, 6), (6, 4), (4, 5))
_MM_SLOTS = {(tuple(sorted(p)), i) for i, p in enumerate(_MM_PAIRS)}


def _eta_minus_block(F):
    """Coefficients of T_i on eta_j^- ^ eta_k^- of a 2-form, cyclic
    (i, j, k)."""
    return np.array([float(F.coefficient(*p)[i])
                     for i, p in enumerate(_MM_PAIRS)])


def _curvature_blocks(s, sol, t):
    """Split the curvature at t into the eta-minus wedge block and the
    rest; the dt wedge part uses the profile ODEs for the derivative."""
    cf = coefficient_functions(s)
    f = sol.coefficients(t)
    F = curvature_lemma2(connection_at(sol, t))
    mm = _eta_minus_block(F)
    other = [float(v) for idx, vec in F.coeffs.items()
             for m, v in enumerate(vec) if (idx, m) not in _MM_SLOTS]
    A, B, dA, dB = s.frame(t)
    for i, j, k in CYC0:
        dfp = (-cf.F[i](t) * f[i] + f[3 + j] * f[3 + k] - f[j] * f[k])
        dfm = (-cf.G[i](t) * f[3 + i] + f[3 + j] * f[k] + f[j] * f[3 + k])
        da_p = dA[i] * f[i] + A[i] * dfp
        da_m = dB[i] * f[3 + i] + B[i] * dfm
        other.extend([da_p, da_m])
    return mm, float(np.abs(other).max())


def curvature_boundary_report(s, sol):
    """Approach of the curvature to its value over the zero section.

    Measured at t = 1e-2, 1e-3 and 1e-4.  The target on the eta-minus wedge block is what the exact curvature
    oracle returns for the constant connection with a^+ = 1, a^- = 0:
    coefficient -2 on each T_i tensor eta_j^- wedge eta_k^- in cyclic
    ordered-pair convention.  For the odd families the block scales
    linearly with the profile, so it is compared after normalization;
    constant families are compared raw.
    """
    target = _eta_minus_block(curvature_lemma2(
        ConnectionCoeffs.from_diagonal((1, 1, 1), (0, 0, 0))))
    metrics = {}
    notes = ["target fixed by the exact oracle on the constant "
             "a^+=1 connection: %s per cyclic pair" % target[0]]
    flat = sol.family.startswith("flat")
    normalize = sol.bundle == "P1" and not flat
    dists = []
    others = []
    for t in (1e-2, 1e-3, 1e-4):
        mm, other = _curvature_blocks(s, sol, t)
        if flat:
            dist = float(np.abs(mm).max())
        elif normalize:
            w = s.A[0](t) * sol.coefficients(t)[0]
            if abs(w) < 1e-12:
                dist = 0.0
                notes.append("degenerate baseline (zero profile) at t=%g"
                             % t)
            else:
                dist = float(np.abs(mm / w - target).max())
        else:
            dist = float(np.abs(mm - target).max())
        metrics["eta_mm_dist_t=%g" % t] = dist
        metrics["other_blocks_t=%g" % t] = other
        dists.append(dist)
        others.append(other)
    if flat:
        passed = max(dists) <= 1e-9 and max(others) <= 1e-9
        notes.append("constant family: every block measured against zero")
    else:
        passed = dists[-1] <= 1e-3 and others[-1] <= 1e-2 and \
            all(np.diff(others) < 0)
        if normalize:
            notes.append("odd family: block normalized by A1*x before "
                         "comparison (raw block vanishes at the origin)")
    return Report("curvature:%s" % _sol_tag(sol), passed, metrics, notes)


# ---------------------------------------------------------------------------
# Exact-algebra and boundary-data reports (battery helpers)


def _integer_numerators(conn):
    """(N, D): D the lcm of the denominators of a rational connection a
    and N = D a, with int components."""
    vecs = conn.a_plus + conn.a_minus
    D = math.lcm(*(x.denominator for v in vecs for x in v))
    ints = [Su2Vec(*(x.numerator * (D // x.denominator) for x in v))
            for v in vecs]
    return ConnectionCoeffs(tuple(ints[:3]), tuple(ints[3:])), D


def oracle_report(n=1000, seed=0):
    """Exact agreement of the two curvature routes on random rational
    connection data.

    Each draw a is compared at its integer numerators N = D a, on exact
    ints: the d parts of the two routes, which are linear in a, and
    their bracket parts, which are quadratic.  At N they are D and D^2
    times their values at a, so each equality at N is the same equality
    at a, and together they give curvature_direct(a) ==
    curvature_lemma2(a).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be an integer >= 1")
    rng = random.Random(seed)
    bad = 0
    for _ in range(n):
        N, _ = _integer_numerators(random_rational_connection(rng))
        if _direct_parts(N) != _lemma2_parts(N):
            bad += 1
    flat_ok = curvature_direct(
        ConnectionCoeffs.from_diagonal((1, 1, 1), (1, 1, 1))).is_zero()
    metrics = {"n_checked": float(n), "mismatches": float(bad),
               "flat_zero": 1.0 if flat_ok else 0.0}
    return Report("curvature-oracle", bad == 0 and flat_ok, metrics,
                  ["rational arithmetic, seed %d" % seed])


def spectrum_report(s):
    """Boundary-data gates and linearization spectra of the two
    singular systems."""
    rep1 = malgrange_check(p1_ivp(s, (1.0, 1.0, 1.0)))
    e1 = np.sort(rep1.eigenvalues.real)
    err1 = float(np.abs(e1 - np.sort(P1_SPECTRUM)).max())
    jac_err = float(np.abs(rep1.jacobian
                           - np.diag(P1_SPECTRUM)).max())
    ivp2 = pid_ivp(s, 0.5 / s.b0)
    rep2 = malgrange_check(ivp2)
    e2 = np.sort(rep2.eigenvalues.real)
    err2 = float(np.abs(e2 - np.sort(PID_SPECTRUM)).max())
    metrics = {"p1_gate": 1.0 if rep1.gate_pass else 0.0,
               "p1_jacobian_err": jac_err,
               "p1_spectrum_err": err1,
               "pid_gate": 1.0 if rep2.gate_pass else 0.0,
               "pid_spectrum_err": err2}
    passed = rep1.gate_pass and rep2.gate_pass and \
        max(err1, err2, jac_err) <= 1e-8
    notes = ["targets diag(-2,-2,-2,-6,-6,-6) and {-8,-8,-6,-2,0,0}"]
    return Report("spectrum:%s" % s.label, passed, metrics, notes)


def default_battery(s, residual_threshold=None):
    """The standard report set for one structure."""
    hi = min(10.0, s.t_max)
    grid = np.geomspace(1e-2, hi, 40)
    b0 = s.b0
    reports = [oracle_report(n=200), spectrum_report(s)]
    sols = [theta_x1(s, 1.0), theta_zero(s), theta_y0(s, 0.5 / b0),
            flat_pid(s, 1), flat_pid(s, -1)]
    for sol in sols:
        reports.append(residual_report(s, sol, grid,
                                       threshold=residual_threshold))
    reports.append(parity_report(sols[0]))
    reports.append(parity_report(sols[1]))
    reports.append(invariance_report(sols[2].trajectory))
    reports.append(bubbling_report(s, 100.0, 1.0))
    reports.append(convergence_report(s, (1.0, 10.0, 100.0)))
    reports.append(curvature_boundary_report(s, sols[0]))
    reports.append(curvature_boundary_report(s, sols[3]))
    return reports
