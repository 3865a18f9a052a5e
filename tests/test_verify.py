import hashlib
import json
import random

import numpy as np
import pytest

from g2flow import algebra
from g2flow.algebra import (_direct_parts, _lemma2_parts,
                            random_rational_connection)
from g2flow.instantons import (InstantonSolution, abelian_connection,
                               flat_pid, theta_x1, theta_y0, theta_zero)
from g2flow.singular_ivp import Trajectory
from g2flow.structures import make_linear_example
from g2flow.verify import (Report, _integer_numerators, bubbling_report,
                           convergence_report, curvature_boundary_report,
                           default_battery, invariance_report, oracle_report,
                           parity_report, report_to_json, reports_to_csv,
                           residual_report, spectrum_report)


def test_default_battery_passes(bs, lin):
    for s in (bs, lin):
        reports = default_battery(s)
        failed = [r.name for r in reports if not r.passed]
        assert not failed, failed


def test_oracle_report_exact():
    rep = oracle_report(n=50, seed=3)
    assert rep.passed
    assert rep.metrics["mismatches"] == 0.0
    assert rep.metrics["n_checked"] == 50.0
    assert rep.metrics["flat_zero"] == 1.0


@pytest.mark.parametrize("n", [0, -5, 2.5])
def test_oracle_report_needs_at_least_one_draw(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        oracle_report(n=n)


def test_oracle_report_battery_size_is_exact():
    rep = oracle_report(n=200)
    assert rep.passed
    assert rep.metrics == {"n_checked": 200.0, "mismatches": 0.0,
                           "flat_zero": 1.0}


def test_oracle_draws_are_unchanged():
    # sha256 of the repr of the battery's 200 integer-numerator draws,
    # as drawn before the tuple arithmetic of Su2Vec: a faster draw must
    # not change what the oracle checks
    rng = random.Random(0)
    draws = [_integer_numerators(random_rational_connection(rng))
             for _ in range(200)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "73758f17052ba42bbe8fa6b7639a5ecad7d13adb52bb779afa9fb3ea9b43a548")


def test_integer_numerators_scale_the_route_parts():
    # the oracle's bridge: at N = D a the d parts (linear in a) are D
    # times and the bracket parts (quadratic) D^2 times their values at a
    rng = random.Random(11)
    denominators = []
    for _ in range(30):
        a = random_rational_connection(rng)
        N, D = _integer_numerators(a)
        denominators.append(D)
        assert all(type(x) is int for v in N.a_plus + N.a_minus for x in v)
        assert N.a_plus == tuple(v * D for v in a.a_plus)
        assert N.a_minus == tuple(v * D for v in a.a_minus)
        for parts in (_direct_parts, _lemma2_parts):
            lin_a, quad_a = parts(a)
            lin_n, quad_n = parts(N)
            assert lin_n == D * lin_a
            assert quad_n == D * D * quad_a
            assert lin_n.degree == quad_n.degree == 2
    assert max(denominators) > 1


def test_oracle_catches_a_wrong_maurer_cartan_weight(monkeypatch):
    # _MC is read by the direct route only
    monkeypatch.setitem(algebra._MC, 1, (((2, 3), 2), ((5, 6), -2)))
    rep = oracle_report(n=20)
    assert not rep.passed
    assert rep.metrics["mismatches"] == 20.0


def test_oracle_catches_an_anticyclic_lemma2(monkeypatch):
    # CYCLIC is read by the Lemma 2 route only
    monkeypatch.setattr(algebra, "CYCLIC", ((1, 3, 2), (3, 2, 1), (2, 1, 3)))
    rep = oracle_report(n=20)
    assert not rep.passed
    assert rep.metrics["mismatches"] == 20.0


def test_spectrum_report(bs):
    rep = spectrum_report(bs)
    assert rep.passed
    assert rep.metrics["p1_jacobian_err"] < 1e-12
    assert rep.metrics["pid_spectrum_err"] < 1e-8


def test_residual_report_flags_perturbation(bs):
    base = theta_x1(bs, 1.0)

    def bad_f6(t):
        f = base.f6(t)
        return f + np.array([1e-3, 0, 0, 0, 0, 0])

    bad = InstantonSolution(family=base.family, params=base.params,
                            bundle=base.bundle, structure=bs, f6=bad_f6,
                            valid=base.valid)
    grid = np.geomspace(1e-2, 5.0, 15)
    assert residual_report(bs, base, grid).passed
    rep = residual_report(bs, bad, grid)
    assert not rep.passed
    assert rep.metrics["sup_residual"] > 1e-4


def test_residual_report_threshold_override(bs):
    sol = theta_x1(bs, 1.0)
    grid = np.geomspace(1e-2, 5.0, 9)
    assert not residual_report(bs, sol, grid, threshold=1e-30).passed
    assert residual_report(bs, sol, grid, threshold=1e-3).passed


def test_residual_report_validates_grid(bs):
    sol = theta_x1(bs, 1.0)
    with pytest.raises(ValueError):
        residual_report(bs, sol, [])
    with pytest.raises(ValueError):
        residual_report(bs, sol, [-1.0, 1.0])
    with pytest.raises(ValueError):
        residual_report(bs, sol, [bs.t_max * 2.0])


def test_parity_report_families(bs):
    rep = parity_report(theta_x1(bs, 1.0))
    assert rep.passed
    assert rep.metrics["x1_fit"] == pytest.approx(1.0, rel=1e-3)
    rep = parity_report(theta_y0(bs, 0.4))
    assert rep.passed
    assert rep.metrics["pole_fit"] == pytest.approx(2.0, abs=1e-4)
    assert rep.metrics["y0_fit"] == pytest.approx(0.4, abs=1e-4)


def test_parity_report_abelian_exponents(bs):
    sol = abelian_connection(bs, 1.0, (0.3, 0.5, 0.0), (0.2, 0.0, 0.0))
    rep = parity_report(sol)
    assert rep.passed
    assert sorted(rep.metrics) == ["exp_minus_1", "exp_plus_1", "exp_plus_2"]
    for key, slope in rep.metrics.items():
        assert abs(slope - (2.0 if "plus" in key else -4.0)) <= 0.02
    assert rep.notes[:3] == ["minus branch 2 identically zero",
                             "plus branch 3 identically zero",
                             "minus branch 3 identically zero"]


def test_invariance_report_detects_exit():
    ts = np.linspace(0.0, 5.0, 101)
    ys = np.vstack([0.5 + 0.2 * ts, 0.3 * np.ones_like(ts)])
    traj = Trajectory(ts, ys)
    rep = invariance_report(traj)
    assert not rep.passed
    assert rep.metrics["exit_t"] == pytest.approx(2.55, abs=0.051)
    ok = Trajectory(ts, np.vstack([0.5 * np.ones_like(ts),
                                   np.zeros_like(ts)]))
    assert invariance_report(ok).passed


def test_bubbling_report_scaling(bs):
    rep = bubbling_report(bs, 100.0, 1.0)
    assert rep.passed
    assert rep.metrics["c_fit"] == pytest.approx(100.0, rel=0.02)
    assert rep.metrics["delta"] == pytest.approx(
        np.sqrt(2.0 / rep.metrics["c_fit"]), rel=1e-12)
    with pytest.raises(ValueError):
        bubbling_report(bs, 100.0, -1.0)


def test_convergence_report_shape(bs):
    rep = convergence_report(bs, (1.0, 10.0, 100.0))
    assert rep.passed
    d = [rep.metrics["sup_diff_x1=%g" % v] for v in (1.0, 10.0, 100.0)]
    assert d[0] > d[1] > d[2]
    assert rep.metrics["fit_residual"] <= 0.10
    assert rep.metrics["c1"] > 0 and rep.metrics["c2"] > 0
    with pytest.raises(ValueError):
        convergence_report(bs, (10.0, 1.0))
    short = make_linear_example(1.0, t_max=4.0)
    with pytest.raises(ValueError, match="outside the structure range"):
        convergence_report(short, (1.0, 10.0))


def test_curvature_boundary_report(bs):
    rep = curvature_boundary_report(bs, flat_pid(bs, 1))
    assert rep.passed
    rep = curvature_boundary_report(bs, theta_x1(bs, 1.0))
    assert rep.passed
    dists = [rep.metrics["other_blocks_t=%g" % t] for t in (1e-2, 1e-3, 1e-4)]
    assert dists[0] > dists[1] > dists[2]
    assert rep.metrics["eta_mm_dist_t=%g" % 1e-4] <= 1e-3


@pytest.mark.parametrize("name", ["bs", "lin"])
def test_curvature_boundary_report_theta_zero(name, request):
    # a Pid member: the eta-minus block is compared raw, not normalized,
    # and approaches the target quadratically
    s = request.getfixturevalue(name)
    rep = curvature_boundary_report(s, theta_zero(s))
    assert rep.passed
    assert not any("normalized" in note for note in rep.notes)
    ts = (1e-2, 1e-3, 1e-4)
    dists = [rep.metrics["eta_mm_dist_t=%g" % t] for t in ts]
    others = [rep.metrics["other_blocks_t=%g" % t] for t in ts]
    assert dists[0] > 50 * dists[1] > 2500 * dists[2] > 0
    assert others[0] > 5 * others[1] > 25 * others[2] > 0


def test_report_serialization(tmp_path):
    rep = Report("demo", True, {"a": 1.5}, notes=["note"])
    jpath = tmp_path / "rep.json"
    report_to_json(rep, jpath)
    doc = json.loads(jpath.read_text())
    assert doc == {"name": "demo", "pass": True, "metrics": {"a": 1.5},
                   "notes": ["note"]}
    cpath = tmp_path / "reps.csv"
    reports_to_csv([rep, Report("x", False, {"b": 2.0})], cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "report,pass,metric,value"
    assert "demo,true,a,1.5" in lines[1]
    assert lines[-1].startswith("x,false,b,")
