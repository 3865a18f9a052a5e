import json
import math
import sys
import threading
from functools import partial

import numpy as np
import pytest

from g2flow import singular_ivp
from g2flow._series import ps_var
from g2flow.cli import build_structure, main
from g2flow.instantons import (flat_pid, p1_ivp, pid_ivp, residual_pointwise,
                               theta_x1, theta_y0, theta_zero)
from g2flow.structures import (SERIES_ORDER, CoefficientFns, PowerSeries,
                               StructureData, b2_from_data,
                               coefficient_functions, load_structure,
                               make_bryant_salamon, make_linear_example,
                               make_su23_structure, save_structure,
                               structure_from_json, structure_to_json)

_TABLES = ("F", "G", "phi", "gamma", "phi_hat", "dphi", "gamma_hat",
           "a_plus_rate", "a_minus_rate")


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
        make_su23_structure((lambda t: t, wrong, lambda t: 1.0), 1.0,
                            t_max=5.0)
    with pytest.raises(TypeError):
        make_su23_structure((lambda t: 0.5 * t, a1), 1.0, t_max=5.0)


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


def test_json_rejects_tampering(bs, tmp_path):
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
    # series and the dA, dB samples are required: spline derivatives
    # and a short Taylor series are less accurate than the stored data
    out = tmp_path / "out"
    out.mkdir()
    for block, key in ((None, "series"), ("samples", "dA"),
                       ("samples", "dB")):
        bad = json.loads(json.dumps(doc))
        target = bad[block] if block else bad
        del target[key]
        with pytest.raises(ValueError, match="keys"):
            structure_from_json(bad)
        path = tmp_path / ("no-%s.json" % key)
        path.write_text(json.dumps(bad))
        assert main(["structure", "--kind", "file", "--path", str(path),
                     "--out", str(out)]) == 2
        assert list(out.iterdir()) == []


def test_json_rejects_boundary_data_off_the_series(bs, lin, tmp_path):
    # b2, a3 and a5 repeat entries of the series block; documents that
    # structure_to_json writes agree with it exactly
    for s in (bs, lin, build_structure({"kind": "su23"})):
        doc = json.loads(json.dumps(structure_to_json(s, n_samples=41)))
        back = structure_from_json(doc)
        assert (back.b2, back.a3, back.a5) == (s.b2, s.a3, s.a5)
    doc = structure_to_json(bs, n_samples=41)
    out = tmp_path / "out"
    out.mkdir()
    for n, change in enumerate(({"b2": 123.0, "a3": [5.0, 5.0, 5.0]},
                                {"b2": bs.b2 * (1 + 1e-11)},
                                {"a3": [bs.a3[0], bs.a3[1], 0.0]},
                                {"a5": [bs.a5[0], 0.3, bs.a5[2]]})):
        bad = dict(doc, **change)
        with pytest.raises(ValueError, match="series block"):
            structure_from_json(bad)
        path = tmp_path / ("bad-%d.json" % n)
        path.write_text(json.dumps(bad))
        assert main(["structure", "--kind", "file", "--path", str(path),
                     "--out", str(out)]) == 2
        assert list(out.iterdir()) == []


def test_structure_rejects_nonpositive_b0():
    with pytest.raises(ValueError):
        make_linear_example(0.0)
    with pytest.raises(ValueError):
        make_linear_example(-1.0)


def test_bryant_salamon_r_max_validation():
    with pytest.raises(ValueError):
        make_bryant_salamon(r_max=1.0)


@pytest.mark.parametrize("build", ["bryant-salamon", "json", "su23",
                                   "su23-cli", "su23-cli-theta-x1",
                                   "linear"])
def test_bryant_salamon_evaluators_stay_in_range(build):
    s = make_bryant_salamon(5.0)
    x1s = (1.0,)
    if build == "json":
        s = structure_from_json(structure_to_json(s, n_samples=201))
    elif build == "su23":
        s = make_su23_structure(s, 1.0)
    elif build.startswith("su23-cli"):
        # the polynomial (a1, series, da1) tuple, t_max 12
        s = build_structure({"kind": "su23"})
        if build == "su23-cli-theta-x1":
            # theta_x1 members far from x1 = 1 on both sides
            x1s = (0.05, 1.0, 20.0)
    elif build == "linear":
        s = make_linear_example(1.0, t_max=5.0)
    cf = coefficient_functions(s)
    members = [theta_x1(s, x1).extras for x1 in x1s]
    limit = theta_zero(s).extras
    fns = [s.A[0], s.B[0], s.dA[0], s.dB[0]]
    fns += [member["x"] for member in members]
    fns += [getattr(cf, name)[0] for name in _TABLES[2:]]
    fns += [extras[key] for extras in members + [limit]
            for key in ("A1x", "dA1x")]
    # -1e-3 lies inside every series cutoff, -1 outside them
    outside = (-1.0, -1e-3, 2.0 * s.t_max, s.t_max * (1 + 1e-8), math.nan)
    for fn in fns:
        fn(0.0)
        fn(s.t_max)
        for t in outside:
            with pytest.raises(ValueError, match="outside the profile range"):
                fn(t)
    # the readers with a pole at t = 0 keep their own message for t < 0
    for fn, pole in ((limit["x"], "diverges at t = 0"),
                     (cf.F[0], "need t > 0"), (cf.G[0], "need t > 0"),
                     (cf.scalar_F, "need t > 0")):
        fn(s.t_max)
        for t in outside:
            msg = pole if t < 0 else "outside the profile range"
            with pytest.raises(ValueError, match=msg):
                fn(t)


def _counting_rebuild(s, symmetric):
    """s rebuilt through the public constructor with evaluators that
    count their calls in calls[0]."""
    calls = [0]

    def counted(fn):
        def wrapped(t):
            calls[0] += 1
            return fn(t)
        return wrapped

    rebuilt = StructureData(
        s.label, [counted(f) for f in s.A], [counted(f) for f in s.B],
        [counted(f) for f in s.dA], [counted(f) for f in s.dB],
        s.A_series, s.B_series, b0=s.b0, b2=s.b2, t_max=s.t_max,
        symmetric=symmetric)
    return rebuilt, calls


@pytest.mark.parametrize("symmetric, per_t", [(True, 4), (False, 12)])
def test_one_profile_frame_per_t(bs, symmetric, per_t):
    s, calls = _counting_rebuild(bs, symmetric)
    pid = pid_ivp(s, 0.5 / s.b0)
    p1 = p1_ivp(s)
    for ivp, t in ((pid, 1.3), (p1, 2.1), (pid, 0.7), (p1, 0.3)):
        before = calls[0]
        ivp.M(t, [0.1] * 6)
        assert calls[0] - before == per_t
        ivp.M(t, [0.2] * 6)
        assert calls[0] - before == per_t


@pytest.mark.parametrize("family", ["theta_x1", "theta_y0", "flat_pid"])
def test_residual_reads_one_frame_per_node(bs, family):
    # four stencil nodes and the centre, whose coefficient tables share
    # the centre frame: 5 frames of 4 calls (24 when they reread it, 30
    # or 40 when the profiles and frames of the nodes alternate)
    s, calls = _counting_rebuild(bs, True)
    sol = {"theta_x1": lambda: theta_x1(s, 2.0),
           "theta_y0": lambda: theta_y0(s, 0.5 / s.b0),
           "flat_pid": lambda: flat_pid(s, 1)}[family]()
    for t in (1.0, 3.7):
        before = calls[0]
        residual_pointwise(s, sol, t)
        assert calls[0] - before == 20


_ROW = ("phi", "gamma", "a_plus_rate", "a_minus_rate", "phi_hat", "dphi",
        "gamma_hat")


def test_regular_fn_truncates_at_variable_series(bs):
    # every table read at ps_var(8) is the first 9 coefficients of its
    # slot's polynomial, the polynomial its float reads evaluate below
    # the cutoffs
    cf = coefficient_functions(bs)
    for k, name in enumerate(_ROW):
        for i in range(3):
            poly = cf._polys[k][i]
            assert list(getattr(cf, name)[i](ps_var(8))) == list(poly)[:9]
            assert getattr(cf, name)[i](0.01) == poly(0.01)
    for bad in (ps_var(8) * 2.0, ps_var(8) + 0.1, ps_var(8) ** 2):
        for read in (cf.phi[0], cf.dphi[2], cf.a_minus_rate[1]):
            with pytest.raises(ValueError, match="variable-t series"):
                read(bad)


def test_frame_matches_evaluators_bitwise(bs, lin):
    # equal A and B samples with unequal dA samples are not symmetric
    doc = structure_to_json(bs, n_samples=41)
    doc["samples"]["dA"][2] = [1.01 * v for v in doc["samples"]["dA"][2]]
    asym = structure_from_json(doc)
    assert not asym.symmetric
    # equal samples with one unequal series block are not symmetric either
    doc = structure_to_json(bs, n_samples=41)
    doc["series"]["A"][1][7] *= 1.5
    assert not structure_from_json(doc).symmetric
    for s in (bs, lin, asym):
        for t in (0.0, 0.01, 0.37, 1.0, 4.5):
            want = tuple(tuple(f(t).hex() for f in fns)
                         for fns in (s.A, s.B, s.dA, s.dB))
            got = tuple(tuple(v.hex() for v in vals) for vals in s.frame(t))
            assert got == want


class _PythonEq(float):
    """A t whose == runs Python code, so that a thread switch can fall
    between a memo check and the use of the memo."""

    def __eq__(self, other):
        return float(self) == other

    __hash__ = float.__hash__


def _threads_agree(read, want):
    """Whether 4 workers, each walking the t of want three times in its
    own rotated order at a 1 µs switch interval, all get read(t) ==
    want[t]."""
    ts = [_PythonEq(t) for t in want]
    workers = 4
    step = len(ts) // workers
    got = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def run(n):
        start.wait()
        for _ in range(3):
            for t in ts[step * n:] + ts[:step * n]:
                got[n].append(read(t) == want[t])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(n,))
                   for n in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    return all(g == [True] * (3 * len(ts)) for g in got)


def test_coefficient_tables_thread_safe(bs):
    def values(cf, t):
        return tuple(fn(t).hex() for name in _TABLES
                     for fn in getattr(cf, name))

    # the series band (t below coeff_cutoff 0.05) and the frame band
    ts = [float(t) for t in np.concatenate([np.linspace(0.005, 0.05, 40),
                                            np.linspace(0.06, 12.0, 200)])]
    serial = CoefficientFns(bs)
    shared = CoefficientFns(bs)
    assert _threads_agree(partial(values, shared),
                          {t: values(serial, t) for t in ts})


def test_bryant_salamon_frame_evaluates_profile_once(monkeypatch):
    # A, B, dA and dB each read w(t); the reader's last (t, values) hands
    # all four the same evaluated tuple
    reads = []
    real = singular_ivp.dense_reader

    def counting_reader(ts, steps):
        read = real(ts, steps)

        def counted(t):
            reads.append(read(t))
            return reads[-1]
        return counted

    monkeypatch.setattr(singular_ivp, "dense_reader", counting_reader)
    s = make_bryant_salamon(5.0)
    for t in (0.0, 0.3, 1.7, 2.9, s.t_max):
        del reads[:]
        s.frame(t)
        assert len(reads) == 4
        assert len({id(values) for values in reads}) == 1


def test_profile_reader_thread_safe():
    s = make_bryant_salamon()

    def values(t):
        return s.A[0](t).hex(), s.B[0](t).hex()

    ts = [float(t) for t in np.linspace(0.06, 12.0, 200)]
    assert _threads_agree(values, {t: values(t) for t in ts})
