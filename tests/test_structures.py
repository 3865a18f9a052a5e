import json
import math

import numpy as np
import pytest

from g2flow.structures import (SERIES_ORDER, PowerSeries, b2_from_data,
                               coefficient_functions, load_structure,
                               make_bryant_salamon, make_linear_example,
                               make_su23_structure, save_structure,
                               structure_from_json, structure_to_json)


def test_bryant_salamon_boundary_data(bs):
    assert bs.b0 == math.sqrt(1.0 / 3.0)
    assert abs(3.0 * bs.b0 * bs.b0 - 1.0) < 3e-16
    assert abs(bs.b2 - math.sqrt(3.0) / 4.0) < 1e-12
    for i in range(3):
        assert abs(bs.a3[i] + 0.125) < 1e-12
        assert abs(bs.a5[i] - 0.15) < 1e-12
    assert bs.symmetric
    assert bs.label == "bryant-salamon"


def test_bryant_salamon_profile_identity(bs):
    # A = (r/3) sqrt(1 - r^-3) with r = sqrt(3) B, and dB = A/B
    for t in (0.3, 1.0, 2.7, 8.0):
        r = math.sqrt(3.0) * bs.B[0](t)
        assert bs.A[0](t) == pytest.approx(
            (r / 3.0) * math.sqrt(1.0 - r ** -3), rel=1e-12)
        assert bs.dB[0](t) == pytest.approx(bs.A[0](t) / bs.B[0](t),
                                            rel=1e-12)


def test_bryant_salamon_horizon():
    s = make_bryant_salamon(r_max=5.0)
    r_end = math.sqrt(3.0) * s.B[0](s.t_max)
    assert r_end == pytest.approx(5.0, abs=1e-9)
    assert 3.0 < s.t_max < 5.0


def test_bryant_salamon_taylor_matches_evaluators(bs):
    for t in (1e-3, 3e-3, 1e-2):
        assert bs.A_series[0](t) == pytest.approx(bs.A[0](t), rel=1e-12)
        assert bs.B_series[0](t) == pytest.approx(bs.B[0](t), rel=1e-12)
    assert bs.A_series[0].order >= SERIES_ORDER - 2


def test_linear_closed_forms(lin):
    for t in np.linspace(0.0, 5.0, 23):
        assert lin.A[0](t) == 0.5 * t
        assert lin.B[0](t) == pytest.approx(math.sqrt(1.0 + t * t / 4.0),
                                            rel=1e-15)
    assert lin.b0 == 1.0
    assert abs(lin.b2 - 0.125) < 1e-15


def test_b2_from_data():
    assert b2_from_data(1.0, (0.0, 0.0, 0.0)) == 0.125
    b0 = math.sqrt(1.0 / 3.0)
    got = b2_from_data(b0, (-0.125, -0.125, -0.125))
    assert got == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        b2_from_data(0.0, (0.0, 0.0, 0.0))


def test_series_parity_enforced():
    with pytest.raises(ValueError):
        PowerSeries([0.0, 0.5, 0.3], parity="odd")
    ser = PowerSeries([0.0, 0.5, 0.0, -0.125], parity="odd")
    assert ser[3] == -0.125
    assert ser[2] == 0.0
    assert ser.deriv()(0.0) == 0.5


def test_su23_rebuilds_linear_b():
    a1 = PowerSeries([0.0, 0.5], parity="odd")
    s = make_su23_structure((lambda t: 0.5 * t, a1, lambda t: 0.5), 1.0,
                            t_max=8.0)
    for t in np.linspace(0.0, 5.0, 21):
        assert s.B[0](t) == pytest.approx(math.sqrt(1.0 + t * t / 4.0),
                                          rel=1e-9, abs=1e-9)


def test_su23_rebuilds_bryant_salamon_b(bs):
    s = make_su23_structure(bs, bs.b0, t_max=10.0)
    for t in np.linspace(0.0, 8.0, 17):
        assert s.B[0](t) == pytest.approx(bs.B[0](t), rel=2e-9, abs=2e-9)
    assert abs(s.b2 - bs.b2) < 1e-9


def test_su23_rejects_bad_inputs():
    a1 = PowerSeries([0.0, 0.5], parity="odd")
    with pytest.raises(ValueError):
        make_su23_structure((lambda t: 0.5 * t, a1), 0.0, t_max=5.0)
    wrong = PowerSeries([0.0, 1.0], parity="odd")
    with pytest.raises(ValueError):
        make_su23_structure((lambda t: t, wrong), 1.0, t_max=5.0)


def test_coefficient_functions_bryant_salamon(bs):
    cf = coefficient_functions(bs)
    for v in cf.phi1:
        assert abs(v - 0.5) < 1e-12
    for v in cf.gamma1:
        assert abs(v - 2.5) < 1e-12
    for v in cf.phi3:
        assert abs(v + 1.075) < 1e-10


def test_coefficient_functions_linear(lin):
    cf = coefficient_functions(lin)
    for t in (1e-4, 1e-2, 0.3, 2.0):
        phi_exact = (t / 2.0) / (1.0 + t * t / 4.0)
        gamma_exact = (t / 4.0) / (1.0 + t * t / 4.0)
        assert cf.phi[0](t) == pytest.approx(phi_exact, rel=1e-10,
                                             abs=1e-14)
        assert cf.gamma[0](t) == pytest.approx(gamma_exact, rel=1e-10,
                                               abs=1e-14)
    assert abs(cf.phi1[0] - 0.5) < 1e-12
    assert abs(cf.phi3[0] + 0.125) < 1e-10


def test_coefficient_functions_match_quotient_route(bs):
    cf = coefficient_functions(bs)
    for t in (0.4, 1.3, 5.0):
        A, B, dA = bs.A[0](t), bs.B[0](t), bs.dA[0](t)
        dB = bs.dB[0](t)
        F_exact = dA / A + A / (B * B) - 1.0 / A
        G_exact = dB / B + 2.0 / B * (B / A)
        assert cf.F[0](t) == pytest.approx(F_exact, rel=1e-11)
        assert cf.G[0](t) == pytest.approx(G_exact, rel=1e-11)
        assert cf.F[0](t) == pytest.approx(-1.0 / t + cf.phi[0](t),
                                           rel=1e-11)
        assert cf.G[0](t) == pytest.approx(4.0 / t + cf.gamma[0](t),
                                           rel=1e-11)


def test_g_pole_strength_is_four(bs):
    cf = coefficient_functions(bs)
    for t in (1e-5, 1e-4, 1e-3):
        assert t * cf.G[0](t) == pytest.approx(4.0, abs=5e-3 * t / 1e-5
                                               * 0 + 4e-4)


def test_coefficient_cutoff_continuity(bs):
    # seam jump is the series truncation error, budgeted below 1e-9
    cf = coefficient_functions(bs)
    c = cf.coeff_cutoff
    for fn in (cf.phi[0], cf.gamma[0]):
        below = fn(c * (1 - 1e-9))
        above = fn(c * (1 + 1e-9))
        assert below == pytest.approx(above, abs=1e-9)


def test_json_round_trip(bs, tmp_path):
    path = tmp_path / "s.json"
    save_structure(bs, path)
    s2 = load_structure(path)
    assert s2.symmetric
    assert s2.b0 == bs.b0
    assert s2.label == bs.label
    for t in np.linspace(0.0, 10.0, 37):
        assert s2.A[0](t) == pytest.approx(bs.A[0](t), abs=5e-9)
        assert s2.B[0](t) == pytest.approx(bs.B[0](t), abs=5e-9)
        assert s2.dA[0](t) == pytest.approx(bs.dA[0](t), abs=5e-8)
    assert list(s2.A_series[0]) == list(bs.A_series[0])


def test_json_rejects_tampering(bs):
    doc = structure_to_json(bs, n_samples=9)
    bad = dict(doc, pressure=1.0)
    with pytest.raises(ValueError, match="unknown structure keys"):
        structure_from_json(bad)
    bad = dict(doc, b0=-2.0)
    with pytest.raises(ValueError, match="b0 must be positive"):
        structure_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["samples"]["t"][1] = 0.0
    with pytest.raises(ValueError, match="increase strictly"):
        structure_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["samples"]["B"][1][0] = -1.0
    with pytest.raises(ValueError, match="positive"):
        structure_from_json(bad)


def test_structure_rejects_nonpositive_b0():
    with pytest.raises(ValueError):
        make_linear_example(0.0)
    with pytest.raises(ValueError):
        make_linear_example(-1.0)


def test_bryant_salamon_r_max_validation():
    with pytest.raises(ValueError):
        make_bryant_salamon(r_max=1.0)
