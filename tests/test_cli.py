import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

import pytest

import g2flow
from g2flow import cli
from g2flow.cli import CONFIG_KEYS, _text, build_parser, main, merged_config
from g2flow.instantons import (abelian_connection, su23_pid_ivp, theta_x1,
                               theta_y0, theta_zero)
from g2flow.singular_ivp import (IntegrationError, Trajectory,
                                 series_bootstrap, solve_singular)
from g2flow.structures import (make_bryant_salamon, make_linear_example,
                               make_su23_structure, save_structure,
                               structure_to_json)


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

# id: (argv, library call that must raise or None)
NONFINITE = {
    "theta-x1-nan": (["solve", "--family", "theta-x1", "--x1", "nan"],
                     lambda lin: theta_x1(lin, NAN)),
    "theta-x1-inf": (["solve", "--family", "theta-x1", "--x1", "inf"],
                     lambda lin: theta_x1(lin, INF)),
    "bs-r-max-nan": (["structure", "--r-max", "nan"],
                     lambda lin: make_bryant_salamon(NAN)),
    "bs-r-max-inf": (["structure", "--r-max", "inf"],
                     lambda lin: make_bryant_salamon(INF)),
    "linear-b0-nan": (["structure", "--kind", "linear", "--b0", "nan"],
                      lambda lin: make_linear_example(NAN)),
    "linear-t-max-nan": (["structure", "--kind", "linear", "--t-max", "nan"],
                         lambda lin: make_linear_example(1.0, NAN)),
    "su23-b0-nan": (["structure", "--kind", "su23", "--b0", "nan"],
                    lambda lin: make_su23_structure(
                        (lin.A[0], lin.A_series[0], lin.dA[0]), NAN)),
    "abelian-aplus-nan": (["solve", "--family", "abelian", "--aplus",
                           "nan,0,0"],
                          lambda lin: abelian_connection(lin, 1.0,
                                                         (NAN, 0, 0))),
    "abelian-aminus-inf": (["solve", "--family", "abelian", "--aminus",
                            "0,inf,0"],
                           lambda lin: abelian_connection(
                               lin, 1.0, (1, 0, 0), (0, INF, 0))),
    "tol-inf": (["solve", "--family", "theta-y0", "--tol", "inf"], None),
    "eps-nan": (["solve", "--family", "theta-y0", "--eps", "nan"], None),
    "theta-y0-y0-nan": (["solve", "--family", "theta-y0", "--y0", "nan"],
                        lambda lin: theta_y0(lin, NAN)),
    "theta-y0-y0-inf": (["solve", "--family", "theta-y0", "--y0", "inf"],
                        lambda lin: theta_y0(lin, INF)),
    "theta-y0-eps-inf": (["solve", "--family", "theta-y0", "--eps", "inf"],
                         lambda lin: theta_y0(lin, 0.5, eps=INF)),
    "theta-y0-eps-zero": (["solve", "--family", "theta-y0", "--eps", "0"],
                          lambda lin: theta_y0(lin, 0.5, eps=0.0)),
    "theta-y0-tol-inf": (["solve", "--family", "theta-y0", "--y0", "0.5",
                          "--tol", "inf"],
                         lambda lin: theta_y0(lin, 0.5, tol=INF)),
    "theta-y0-tol-negative": (["solve", "--family", "theta-y0", "--tol",
                               "-1"],
                              lambda lin: theta_y0(lin, 0.5, tol=-1.0)),
    "theta-y0-tol-below-floor": (["solve", "--family", "theta-y0", "--tol",
                                  "1e-30"],
                                 lambda lin: theta_y0(lin, 0.5, tol=1e-30)),
}


@pytest.mark.parametrize("case", sorted(NONFINITE))
def test_rejects_nonfinite(case, lin, tmp_path):
    argv, library_call = NONFINITE[case]
    if library_call is not None:
        with pytest.raises(ValueError, match="finite"):
            library_call(lin)
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
    # the package imports no scipy module: the integrator and the
    # structure-file splines are its own
    code = ("import sys, g2flow.cli; print('scipy.interpolate' in "
            "sys.modules, sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(g2flow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False []"


# id: (argv, config document, key the error names);
# each passed bad values at the parent: exit 0 with NaN rows or a
# truncated order, or a traceback with exit 1
BAD_INPUT = {
    "scan-hi-nan": (["scan", "--family", "theta-x1", "--lo", "0", "--hi",
                     "nan", "--grid", "3"], None, "family.hi"),
    "scan-values-nan": (["scan", "--family", "theta-x1", "--values",
                         "1,nan"], None, "family.values"),
    "scan-abelian-values-nan": (["scan", "--family", "abelian", "--values",
                                 "1,nan"], None, "family.values"),
    "grid-not-a-number": (["solve"], {"outputs": {"grid": "abc"}},
                          "outputs.grid"),
    "tol-not-a-number": (["solve"], {"solver": {"tol": "abc"}},
                         "solver.tol"),
    "aplus-not-a-list": (["solve"], {"family": {"kind": "abelian",
                                                "aplus": 5}},
                         "family.aplus"),
    "order-negative": (["solve"], {"solver": {"order": -1},
                                   "family": {"kind": "theta_y0"}},
                       "solver.order"),
    "order-fraction": (["solve"], {"solver": {"order": 2.5},
                                   "family": {"kind": "theta_y0"}},
                       "solver.order"),
    "abelian-t0-at-t-max": (["solve", "--family", "abelian", "--t0", "5.0"],
                            {"structure": {"kind": "linear", "t_max": 5.0}},
                            "t0"),
    "abelian-t0-past-t-max": (["solve", "--family", "abelian", "--t0",
                               "6.0"],
                              {"structure": {"kind": "linear",
                                             "t_max": 5.0}}, "t0"),
    # at t0 = 1e-6 the downward solve had an empty span, which the
    # stepper refused with "need t0 != t1"
    "abelian-t0-at-lowest-t": (["solve", "--family", "abelian", "--t0",
                                "1e-6"], None, "t0 must lie in (1e-06"),
    "threshold-not-a-number": (["verify"], {"verify": {"residual": "abc"}},
                               "verify.residual"),
    # the integrator rejects an rtol below 100 machine epsilons, where
    # rounding swamps its error estimate
    "solve-tol-below-floor": (["solve", "--family", "theta-y0", "--tol",
                               "1e-30"], None, "solver.tol"),
    "scan-tol-below-floor": (["scan", "--family", "theta-y0", "--values",
                              "0.1,0.2", "--tol", "1e-30"], None,
                             "solver.tol"),
    # a path of the wrong kind raised IsADirectoryError or FileExistsError
    "config-is-a-directory": (["solve", "--config", "{tmp}"], None,
                              "config file"),
    "structure-is-a-directory": (["solve", "--structure", "{tmp}"], None,
                                 "structure file"),
    "structure-path-is-a-directory": (["structure", "--kind", "file",
                                       "--path", "{tmp}"], None,
                                      "structure file"),
    "out-is-a-file": (["solve", "--out", "{tmp}/config.json"], {},
                      "outputs.dir"),
    # sample keys as a list passed the key-set check and raised TypeError
    "structure-samples-not-an-object": (
        ["structure", "--kind", "file", "--path", "{tmp}/config.json"],
        {"label": "bad", "b0": 1.0, "b2": 0.0, "a3": [0.0] * 3,
         "a5": [0.0] * 3, "samples": ["A", "B", "dA", "dB", "t"],
         "series": {}, "t_max": 1.0}, "samples must be"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(case, tmp_path, capsys):
    # {tmp} in argv is tmp_path; a row that names the document's path
    # itself does not also pass it as --config, nor --out if it has one
    argv, config, key = BAD_INPUT[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if str(path) not in argv:
            argv += ["--config", str(path)]
    out = tmp_path / "out"
    out.mkdir()
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == 2
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
    ("scan", {"kind": "flat_pid", "values": "1,-1"},
     ["--family", "flat-pid", "--values", "1,-1"], "scan.csv"),
    ("solve", {"kind": "flat_pid", "sign": -1},
     ["--family", "flat-pid", "--sign", "-1"], "solution.csv"),
])
def test_flags_accept_the_config_choices(command, family, flags, name,
                                         tmp_path):
    # flags are typed by the config table, so a flag run and a config run
    # of the same values write the same file
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
        assert merged_config(args)["structure"]["kind"] == "bryant_salamon"
    for family in ("theta-x1", "theta_x1"):
        for command in ("solve", "scan"):
            args = build_parser().parse_args([command, "--family", family])
            assert merged_config(args)["family"]["kind"] == "theta_x1"


def _generated_flags():
    """(command, flag, section, key) for every typed flag of build_parser;
    the string keys (structure.path, outputs.dir) take any value."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            section, _, key = (action.help or "").partition(".")
            if key and CONFIG_KEYS.get(section, {}).get(key) not in (None,
                                                                   _text):
                yield command, action.option_strings[0], section, key


# a value each flag's converter rejects: an out-of-range choice, else a
# non-number
BAD_FLAG_VALUE = {"kind": "nope", "sign": "2"}
GENERATED_FLAGS = sorted(_generated_flags())


@pytest.mark.parametrize("command, flag, section, key", GENERATED_FLAGS,
                         ids=["%s %s" % case[:2] for case in GENERATED_FLAGS])
def test_bad_flag_value_exits_2(command, flag, section, key, tmp_path,
                                capsys):
    out = tmp_path / "out"
    out.mkdir()
    value = BAD_FLAG_VALUE.get(key, "abc")
    assert main([command, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: %s.%s: " % (section, key))
    assert "Traceback" not in captured.out + captured.err
    assert list(out.iterdir()) == []


def test_scan_sweeps_the_family_parameter(tmp_path):
    # flat_pid's parameter is its sign: 0.5 is no sign, so its row fails;
    # no --param flag or family.param key chooses another
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear"}}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["scan", "--config", str(cfg), "--family", "flat-pid",
                 "--values", "1,0.5,-1", "--out", str(out)]) == 0
    _, data = read_csv(out / "scan.csv")
    assert data[:, 0].tolist() == [1.0, 0.5, -1.0]
    assert data[:, 1].tolist() == [1.0, 0.0, 1.0]
    os.remove(out / "scan.csv")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "flat-pid", "--param", "sign",
              "--values", "1,-1", "--out", str(out)])
    assert exc.value.code == 2
    cfg.write_text(json.dumps({"family": {"kind": "flat_pid",
                                          "param": "sign"}}))
    assert main(["scan", "--config", str(cfg), "--values", "1,-1",
                 "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_negative_first_value_parses_in_both_spellings(tmp_path):
    # argparse took a list whose first entry is negative for a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear"}}))
    written = []
    for n, values in enumerate((["--values", "-1,1"], ["--values=-1,1"])):
        out = tmp_path / str(n)
        assert main(["scan", "--config", str(cfg), "--family", "flat-pid",
                     *values, "--out", str(out)]) == 0
        written.append((out / "scan.csv").read_bytes())
    assert written[0] == written[1]
    assert read_csv(tmp_path / "0" / "scan.csv")[1][:, 0].tolist() == [
        -1.0, 1.0]


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


def test_scan_runs_on_one_worker(tmp_path, monkeypatch):
    # the members hold the GIL, so the scan maps them on one worker and
    # reads no thread-count setting from the environment
    workers = []

    class Recording(cli.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    monkeypatch.setenv("G2FLOW_THREADS", "abc")
    assert main(["scan", "--family", "theta-x1", "--values", "1",
                 "--out", str(tmp_path)]) == 0
    assert workers == [1]


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear", "b0": 1.0}}))
    rc = main(["verify", "--config", str(cfg), "--residual", "1e-30",
               "--out", str(tmp_path)])
    assert rc == 1


def test_verify_unknown_threshold_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"speed": 3}}))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_verify_asymmetric_structure_exits_2(bs, tmp_path, capsys):
    # equal A and B samples with unequal dA samples are not symmetric;
    # the battery's families need a symmetric structure
    doc = structure_to_json(bs, n_samples=41)
    doc["samples"]["dA"][2] = [1.01 * v for v in doc["samples"]["dA"][2]]
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["verify", "--structure", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "symmetric" in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert list(out.iterdir()) == []


def test_solve_integration_error_writes_no_file(lin, tmp_path, monkeypatch,
                                                capsys):
    # the failing solve's raw state has another schema than solution.csv
    traj = Trajectory([0.0, 0.5], [[0.0, 1.0], [0.0, 2.0]])

    def fail(*args):
        raise IntegrationError("integration of 'x' failed: test", traj)

    monkeypatch.setattr(cli, "build_family", fail)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["solve", "--family", "theta-y0", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines == ["integration failed: integration of 'x' failed: test"]
    assert list(out.iterdir()) == []


def test_negative_tol_rejected(tmp_path):
    rc = main(["solve", "--family", "theta-x1", "--x1", "1",
               "--tol", "-1", "--out", str(tmp_path)])
    assert rc == 2
