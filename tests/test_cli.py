import json
import math

import numpy as np

import pytest

from g2flow.cli import main
from g2flow.instantons import theta_x1, theta_zero
from g2flow.structures import make_linear_example, save_structure


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


@pytest.mark.parametrize("x1", ["nan", "inf"])
def test_theta_x1_rejects_nonfinite(x1, lin, tmp_path):
    with pytest.raises(ValueError, match="finite"):
        theta_x1(lin, float(x1))
    rc = main(["solve", "--family", "theta-x1", "--x1", x1,
               "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "solution.csv").exists()


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
