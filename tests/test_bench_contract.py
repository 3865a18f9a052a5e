"""The traced benchmark (perfbench/tracing.py) patches layer entry points
by module attribute; a refactor that removes one breaks it silently."""

import contextlib
import json
import pathlib

import g2flow
from g2flow import cli, instantons, structures, verify


def _tracing(monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing
    return tracing


def test_perfbench_tracer_installs_and_restores(monkeypatch):
    tracing = _tracing(monkeypatch)
    before = (instantons.malgrange_check, instantons.series_bootstrap,
              cli.ThreadPoolExecutor, structures.CoefficientFns)
    with contextlib.ExitStack() as stack:
        tracing.install(tracing.Tracer(), stack)
        assert instantons.malgrange_check is not before[0]
    assert (instantons.malgrange_check, instantons.series_bootstrap,
            cli.ThreadPoolExecutor, structures.CoefficientFns) == before


def test_perfbench_tracer_sees_profile_and_coefficient_layers(monkeypatch):
    # coefficient tables must read profiles through the evaluator tuples
    # the tracer wraps, or the per-layer counts silently read zero
    tracing = _tracing(monkeypatch)
    tr = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        tracing.install(tr, stack)
        s = g2flow.make_bryant_salamon(5.0)
        structures.coefficient_functions(s).phi[0](1.0)
    layers = tr.layers()
    for name in ("structures.profile", "structures.coeff"):
        assert layers.get(name, (0,))[0] > 0, name


def test_perfbench_tracer_sees_cli_builders(monkeypatch, tmp_path):
    # cli must look its builders up as module attributes at call time;
    # binding them at import time would zero the per-layer metrics
    tracing = _tracing(monkeypatch)
    cfg = tmp_path / "lin.json"
    cfg.write_text(json.dumps({"structure": {"kind": "linear"}}))
    tr = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        tracing.install(tr, stack)
        assert cli.main(["solve", "--family", "theta-x1", "--config",
                         str(cfg), "--out", str(tmp_path / "out")]) == 0
    layers = tr.layers()
    for name in ("structures.build", "instantons.theta_x1"):
        assert layers.get(name, (0,))[0] > 0, name


def test_perfbench_tracer_sees_oracle_and_curvature_routes(monkeypatch, lin):
    # the oracle must stay one verify.oracle_report call, and the boundary
    # report must reach the curvature routes through verify's module
    # attributes, or verify.oracle_s and algebra.curvature_* read zero
    tracing = _tracing(monkeypatch)
    sol = instantons.theta_x1(lin, 1.0)
    tr = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        tracing.install(tr, stack)
        verify.oracle_report(n=5)
        verify.curvature_boundary_report(lin, sol)
    layers = tr.layers()
    calls, total, _ = layers.get("verify.oracle", (0, 0.0, 0.0))
    assert calls == 1 and total > 0.0
    assert layers.get("algebra.curvature", (0,))[0] > 0
