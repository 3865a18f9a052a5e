import json
import math
import os
import subprocess
import sys

import numpy as np

import pytest

import g2flow
from g2flow.cli import build_parser, main
from g2flow.instantons import (abelian_connection, su23_pid_ivp, theta_x1,
                               theta_y0, theta_zero)
from g2flow.singular_ivp import series_bootstrap, solve_singular
from g2flow.structures import (make_bryant_salamon, make_linear_example,
                               make_su23_structure, save_structure)


def read_csv(path):
    rows = [ln.split(",") for ln in path.read_text().splitlines()
            if not ln.startswith("#")]
    conv = {"true": 1.0, "false": 0.0}
    return rows[0], np.array([[float(conv.get(c, c)) for c in r]
                              for r in rows[1:]])


def test_structure_bryant_salamon(tmp_path):
    rc = main(["structure", "--kind", "bryant-salamon", "--r-max", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "profile.csv")
    assert header == ["t", "A1", "A2", "A3", "B1", "B2", "B3"]
    assert data[0, 4] == math.sqrt(1.0 / 3.0)
    doc = json.loads((tmp_path / "structure.json").read_text())
    assert doc["label"] == "bryant-salamon"
    assert doc["b0"] == math.sqrt(1.0 / 3.0)


def test_structure_linear_profile_exact(tmp_path):
    rc = main(["structure", "--kind", "linear", "--b0", "1", "--out",
               str(tmp_path)])
    assert rc == 0
    _, data = read_csv(tmp_path / "profile.csv")
    assert np.all(data[:, 1] == data[:, 0] / 2.0)


def test_structure_file_rejects_bad_b0(tmp_path):
    src = tmp_path / "in.json"
    save_structure(make_linear_example(1.0), src, n_samples=201)
    doc = json.loads(src.read_text())
    doc["b0"] = -2.0
    src.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["structure", "--kind", "file", "--path", str(src),
               "--out", str(out)])
    assert rc == 2
    assert list(out.iterdir()) == []


def test_config_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear", "mass": 1}}))
    assert main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"weather": {}}))
    assert main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"structure": {"kind": "bryant_salamon",
                                             "grid": 600}}))
    assert main(["solve", "--config", str(cfg)]) == 2


NAN, INF = float("nan"), float("inf")

# id: (argv, G2FLOW_THREADS or None, library call that must raise or None)
NONFINITE = {
    "theta-x1-nan": (["solve", "--family", "theta-x1", "--x1", "nan"], None,
                     lambda lin: theta_x1(lin, NAN)),
    "theta-x1-inf": (["solve", "--family", "theta-x1", "--x1", "inf"], None,
                     lambda lin: theta_x1(lin, INF)),
    "bs-r-max-nan": (["structure", "--r-max", "nan"], None,
                     lambda lin: make_bryant_salamon(NAN)),
    "bs-r-max-inf": (["structure", "--r-max", "inf"], None,
                     lambda lin: make_bryant_salamon(INF)),
    "linear-b0-nan": (["structure", "--kind", "linear", "--b0", "nan"], None,
                      lambda lin: make_linear_example(NAN)),
    "linear-t-max-nan": (["structure", "--kind", "linear", "--t-max", "nan"],
                         None, lambda lin: make_linear_example(1.0, NAN)),
    "su23-b0-nan": (["structure", "--kind", "su23", "--b0", "nan"], None,
                    lambda lin: make_su23_structure(lin, NAN)),
    "abelian-aplus-nan": (["solve", "--family", "abelian", "--aplus",
                           "nan,0,0"], None,
                          lambda lin: abelian_connection(lin, 1.0,
                                                         (NAN, 0, 0))),
    "abelian-aminus-inf": (["solve", "--family", "abelian", "--aminus",
                            "0,inf,0"], None,
                           lambda lin: abelian_connection(
                               lin, 1.0, (1, 0, 0), (0, INF, 0))),
    "tol-inf": (["solve", "--family", "theta-y0", "--tol", "inf"], None,
                None),
    "eps-nan": (["solve", "--family", "theta-y0", "--eps", "nan"], None,
                None),
    "threads-not-int": (["scan", "--family", "theta-x1", "--values", "1"],
                        "abc", None),
    "theta-y0-y0-nan": (["solve", "--family", "theta-y0", "--y0", "nan"],
                        None, lambda lin: theta_y0(lin, NAN)),
    "theta-y0-y0-inf": (["solve", "--family", "theta-y0", "--y0", "inf"],
                        None, lambda lin: theta_y0(lin, INF)),
    "theta-y0-eps-inf": (["solve", "--family", "theta-y0", "--eps", "inf"],
                         None, lambda lin: theta_y0(lin, 0.5, eps=INF)),
    "theta-y0-eps-zero": (["solve", "--family", "theta-y0", "--eps", "0"],
                          None, lambda lin: theta_y0(lin, 0.5, eps=0.0)),
    "theta-y0-tol-inf": (["solve", "--family", "theta-y0", "--y0", "0.5",
                          "--tol", "inf"], None,
                         lambda lin: theta_y0(lin, 0.5, tol=INF)),
    "theta-y0-tol-negative": (["solve", "--family", "theta-y0", "--tol",
                               "-1"], None,
                              lambda lin: theta_y0(lin, 0.5, tol=-1.0)),
    "theta-y0-tol-below-floor": (["solve", "--family", "theta-y0", "--tol",
                                  "1e-30"], None,
                                 lambda lin: theta_y0(lin, 0.5, tol=1e-30)),
}


@pytest.mark.parametrize("case", sorted(NONFINITE))
def test_rejects_nonfinite(case, lin, tmp_path, monkeypatch):
    argv, threads, library_call = NONFINITE[case]
    if library_call is not None:
        with pytest.raises(ValueError, match="finite"):
            library_call(lin)
    if threads is not None:
        monkeypatch.setenv("G2FLOW_THREADS", threads)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", [-1, 2.5, 10.0])
def test_theta_y0_rejects_bad_order(lin, order):
    # series_bootstrap holds the check, for every caller
    ivp = su23_pid_ivp(lin, 0.5)
    for call in (lambda: theta_y0(lin, 0.5, order=order),
                 lambda: solve_singular(ivp, order=order),
                 lambda: series_bootstrap(ivp, order=order)):
        with pytest.raises(ValueError, match="order must be an integer"):
            call()


def test_cli_import_leaves_interpolate_unloaded():
    # only file structures need scipy (for CubicSpline); the integrator is
    # the package's own
    code = ("import sys, g2flow.cli; print('scipy.interpolate' in "
            "sys.modules, sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(g2flow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False []"


# id: (argv, config document, thresholds document, key the error names);
# each passed bad values at the parent: exit 0 with NaN rows or a
# truncated order, or a traceback with exit 1
BAD_INPUT = {
    "scan-hi-nan": (["scan", "--family", "theta-x1", "--lo", "0", "--hi",
                     "nan", "--grid", "3"], None, None, "family.hi"),
    "scan-values-nan": (["scan", "--family", "theta-x1", "--values",
                         "1,nan"], None, None, "family.values"),
    "scan-abelian-values-nan": (["scan", "--family", "abelian", "--values",
                                 "1,nan"], None, None, "family.values"),
    "grid-not-a-number": (["solve"], {"outputs": {"grid": "abc"}}, None,
                          "outputs.grid"),
    "tol-not-a-number": (["solve"], {"solver": {"tol": "abc"}}, None,
                         "solver.tol"),
    "aplus-not-a-list": (["solve"], {"family": {"kind": "abelian",
                                                "aplus": 5}}, None,
                         "family.aplus"),
    "order-negative": (["solve"], {"solver": {"order": -1},
                                   "family": {"kind": "theta_y0"}}, None,
                       "solver.order"),
    "order-fraction": (["solve"], {"solver": {"order": 2.5},
                                   "family": {"kind": "theta_y0"}}, None,
                       "solver.order"),
    "abelian-t0-at-t-max": (["solve", "--family", "abelian", "--t0", "5.0"],
                            {"structure": {"kind": "linear", "t_max": 5.0}},
                            None, "t0"),
    "abelian-t0-past-t-max": (["solve", "--family", "abelian", "--t0",
                               "6.0"],
                              {"structure": {"kind": "linear",
                                             "t_max": 5.0}}, None, "t0"),
    "threshold-not-a-number": (["verify"], None, {"residual": "abc"},
                               "thresholds.residual"),
    # the integrator rejects an rtol below 100 machine epsilons, where
    # rounding swamps its error estimate
    "solve-tol-below-floor": (["solve", "--family", "theta-y0", "--tol",
                               "1e-30"], None, None, "solver.tol"),
    "scan-tol-below-floor": (["scan", "--family", "theta-y0", "--values",
                              "0.1,0.2", "--tol", "1e-30"], None, None,
                             "solver.tol"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(case, tmp_path, monkeypatch, capsys):
    argv, config, thresholds, key = BAD_INPUT[case]
    monkeypatch.setenv("G2FLOW_THREADS", "2")
    argv = list(argv)
    for flag, doc in (("--config", config), ("--thresholds", thresholds)):
        if doc is not None:
            path = tmp_path / (flag[2:] + ".json")
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
    out = tmp_path / "out"
    out.mkdir()
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert key in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert list(out.iterdir()) == []


def test_config_values_string_parses_like_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    runs = {"file": ({"kind": "theta_x1", "values": "1,2"}, []),
            "flag": ({}, ["--family", "theta-x1", "--values", "1,2"])}
    for name, (family, flags) in runs.items():
        cfg.write_text(json.dumps({"structure": {"kind": "linear"},
                                   "family": family}))
        (tmp_path / name).mkdir()
        assert main(["scan", "--config", str(cfg), "--out",
                     str(tmp_path / name)] + flags) == 0
    want = (tmp_path / "flag" / "scan.csv").read_bytes()
    assert (tmp_path / "file" / "scan.csv").read_bytes() == want
    assert len(want.splitlines()) == 3


@pytest.mark.parametrize("command, family, flags, name", [
    ("scan", {"kind": "flat_pid", "param": "sign", "values": "1,-1"},
     ["--family", "flat-pid", "--param", "sign", "--values", "1,-1"],
     "scan.csv"),
    ("solve", {"kind": "flat_plus"}, ["--family", "flat-plus"],
     "solution.csv"),
])
def test_flags_accept_the_config_choices(command, family, flags, name,
                                         tmp_path):
    # --family and --param take their choices from the config table, so
    # a flag run and a config run of the same values write the same file
    cfg = tmp_path / "cfg.json"
    for run, doc, extra in (("file", family, []), ("flag", {}, flags)):
        cfg.write_text(json.dumps({"structure": {"kind": "linear"},
                                   "family": doc,
                                   "outputs": {"grid": 5}}))
        (tmp_path / run).mkdir()
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / run)] + extra) == 0
    want = (tmp_path / "file" / name).read_bytes()
    assert (tmp_path / "flag" / name).read_bytes() == want
    assert len(want.splitlines()) == (3 if command == "scan" else 6)


def test_kind_flags_accept_both_spellings():
    for kind in ("bryant-salamon", "bryant_salamon"):
        args = build_parser().parse_args(["structure", "--kind", kind])
        assert args.kind == "bryant_salamon"
    for family in ("theta-x1", "theta_x1"):
        for command in ("solve", "scan"):
            args = build_parser().parse_args([command, "--family", family])
            assert args.family == "theta_x1"


def test_t_end_inf_runs_to_t_max(bs, tmp_path):
    assert main(["solve", "--family", "flat-pid", "--t-end", "inf",
                 "--out", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "solution.csv")
    assert data[-1, 0] == bs.t_max


def test_solve_y0_zero_matches_theta_zero(tmp_path, bs):
    rc = main(["solve", "--family", "theta-y0", "--y0", "0",
               "--out", str(tmp_path), "--grid", "41"])
    assert rc == 0
    header, data = read_csv(tmp_path / "solution.csv")
    assert header[0] == "t"
    base = theta_zero(bs)
    ref = np.array([base.f6(t) for t in data[:, 0]])
    assert np.abs(data[:, 1:7] - ref).max() <= 1e-6


def test_solve_blowup_partial_and_exit3(tmp_path, capsys):
    rc = main(["solve", "--family", "theta-y0", "--y0", "10",
               "--out", str(tmp_path)])
    assert rc == 3
    _, data = read_csv(tmp_path / "solution.csv")
    assert data[-1, 0] < 1.0
    out = capsys.readouterr().out
    assert "event blow-up" in out


def test_solve_reruns_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert main(["solve", "--family", "theta-x1", "--x1", "2",
                     "--out", str(d)]) == 0
    assert (a / "solution.csv").read_bytes() == \
        (b / "solution.csv").read_bytes()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "structure": {"kind": "linear", "b0": 1.0},
        "family": {"kind": "theta_y0", "y0": 0.7},
    }))
    rc = main(["solve", "--config", str(cfg), "--y0", "0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    side = json.loads((tmp_path / "solution.csv.json").read_text())
    assert side["params"]["y0"] == 0.1


def test_scan_x1_residual_column(tmp_path):
    rc = main(["scan", "--family", "theta-x1", "--values", "0,1,10",
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "scan.csv")
    assert header == ["param", "exists_to_t_end", "blowup_t", "exit_t",
                      "sup_residual"]
    assert list(data[:, 0]) == [0.0, 1.0, 10.0]
    assert np.all(data[:, 4] <= 1e-8)


def test_scan_rows_keep_true_flag(tmp_path):
    assert main(["scan", "--family", "theta-x1", "--values", "1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "true"


def test_scan_empty_values_config_error(tmp_path):
    assert main(["scan", "--family", "theta-x1", "--values", "",
                 "--out", str(tmp_path)]) == 2


def test_scan_thread_count_invariance(tmp_path, monkeypatch):
    outs = []
    for n in ("1", "3"):
        d = tmp_path / ("w" + n)
        d.mkdir()
        monkeypatch.setenv("G2FLOW_THREADS", n)
        assert main(["scan", "--family", "theta-y0", "--lo", "0.1",
                     "--hi", "0.9", "--grid", "5", "--out", str(d)]) == 0
        outs.append((d / "scan.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_linear_passes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear", "b0": 1.0}}))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "verify.csv").read_text().splitlines()
    assert rows[0] == "report,pass,metric,value"
    assert not any(",false," in r for r in rows)
    assert any(p.name.startswith("report-") for p in tmp_path.iterdir())


def test_verify_tampered_threshold_fails(tmp_path):
    thr = tmp_path / "thr.json"
    thr.write_text(json.dumps({"residual": 1e-30}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear", "b0": 1.0}}))
    rc = main(["verify", "--config", str(cfg), "--thresholds", str(thr),
               "--out", str(tmp_path)])
    assert rc == 1


def test_verify_unknown_threshold_key(tmp_path):
    thr = tmp_path / "thr.json"
    thr.write_text(json.dumps({"speed": 3.0}))
    rc = main(["verify", "--thresholds", str(thr), "--out", str(tmp_path)])
    assert rc == 2


def test_negative_tol_rejected(tmp_path):
    rc = main(["solve", "--family", "theta-x1", "--x1", "1",
               "--tol", "-1", "--out", str(tmp_path)])
    assert rc == 2
