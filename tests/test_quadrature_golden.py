"""Bit-level pins of the package's DOP853 solves.

quadrature_golden.json holds the float.hex() of what each solve feeds:
- make_bryant_salamon(60): t_max and A, B, dA, dB at eight t;
- the CLI su23 structure: B1 and dB1 at the same t;
- _eq_data on Bryant-Salamon and on the linear example: E and Q;
- abelian_connection's f6 on both sides of t0;
- one theta_y0 continuation that ends in a blow-up event: its node
  times, states and events.
Any change to how these solves are run must keep every bit.

The bits hold only on the BLAS kernel they were captured on (OpenBLAS
0.3.31 running its SkylakeX kernel): the stepper's stage sums are
BLAS dgemv calls, whose FMA use and summation order depend on the
kernel.  Under OPENBLAS_CORETYPE=Haswell, Nehalem, Sandybridge or
Prescott the abelian-linear entry differs in its last bits; a
mismatch names the BLAS build and OPENBLAS_CORETYPE of the run.  The
agreement with scipy (tests/test_singular_ivp.py) holds on any machine,
because scipy's stepper makes the same ndarray.dot calls.

Regenerate (only for a deliberate change of values) with
    PYTHONPATH=src python tests/test_quadrature_golden.py
"""

import json
import os

import numpy

from g2flow.cli import build_structure
from g2flow.instantons import _eq_data, abelian_connection, theta_y0
from g2flow.structures import make_bryant_salamon, make_linear_example

GOLDEN = os.path.join(os.path.dirname(__file__), "quadrature_golden.json")
# both sides of the 0.05 series cutoffs, and far out
TS = (0.0, 0.01, 0.049, 0.2, 1.0, 3.0, 7.5, 11.0)
EQ_TS = (0.0, 0.01, 0.3, 1.0, 2.5, 4.0)
ABELIAN_TS = (1e-6, 0.01, 0.4, 0.99, 1.0, 1.01, 2.0, 4.5)


def _hex(values):
    return [float(v).hex() for v in values]


def capture():
    bs = make_bryant_salamon(60.0)
    su23 = build_structure({"kind": "su23"})
    linear = make_linear_example(1.0, t_max=5.0)
    out = {"bryant-salamon": {
        "t_max": float(bs.t_max).hex(),
        **{key: {repr(t): _hex([getattr(bs, key)[0](t)]) for t in TS}
           for key in ("A", "B", "dA", "dB")}}}
    out["su23-cli"] = {key: {repr(t): _hex([getattr(su23, key)[0](t)])
                             for t in TS} for key in ("B", "dB")}
    for name, s in (("bryant-salamon", bs), ("linear", linear)):
        E, Q, _, _ = _eq_data(s)
        out["eq-" + name] = {repr(t): _hex([E(t), Q(t)])
                             for t in EQ_TS}
    ab = abelian_connection(linear, 1.0, (1.0, -0.5, 2.0), (0.3, 0.0, -1.0))
    out["abelian-linear"] = {repr(t): _hex(ab.f6(t)) for t in ABELIAN_TS}
    traj = theta_y0(bs, 2.7712812921102037, t_end=6.0).trajectory
    out["theta-y0-bryant-salamon"] = {
        "t": _hex(traj.t), "y": [_hex(row) for row in traj.y],
        "events": [[kind, float(te).hex()] for kind, te in traj.events]}
    return out


def test_quadratures_bitwise(blas_note):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = capture()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], (name, blas_note())


def test_golden_mismatch_names_the_blas_kernels(blas_note, monkeypatch):
    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    note = blas_note()
    assert "SkylakeX" in note and "OPENBLAS_CORETYPE=Haswell" in note
    assert "this run's OpenBLAS kernel: " in note
    assert str(config.get("openblas configuration")) in note
    monkeypatch.delenv("OPENBLAS_CORETYPE")
    assert "OPENBLAS_CORETYPE=unset" in blas_note()


if __name__ == "__main__":
    with open(GOLDEN, "w", newline="\n") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
