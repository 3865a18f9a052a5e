"""Bit-level pins of the coefficient tables and the singular right-hand
sides.

coefficient_golden.json holds the float.hex() of every coefficient table
entry (and F, G, scalar_F) on six structures, at points on both sides
of both cutoffs, of every table at the variable-t series, and of the
M(t, y) of p1_ivp, pid_ivp, su23_p1_ivp, su23_pid_ivp and of the abelian
rate right-hand side at three (t, y) points and at series input.  Any
change to how these are evaluated must keep every bit.  A structure
whose three series blocks differ is not symmetric, so it has no
scalar_F and no su23 fields.

Regenerate (only for a deliberate change of values) with
    PYTHONPATH=src python tests/test_coefficient_golden.py
"""

import json
import os
from unittest import mock

from g2flow import instantons
from g2flow._series import PowerSeries, ps_var
from g2flow.cli import build_structure
from g2flow.instantons import (abelian_connection, p1_ivp, pid_ivp,
                               su23_p1_ivp, su23_pid_ivp)
from g2flow.structures import (coefficient_functions, make_bryant_salamon,
                               make_linear_example, structure_from_json,
                               structure_to_json)

GOLDEN = os.path.join(os.path.dirname(__file__), "coefficient_golden.json")
# the seven slots of CoefficientFns.row, then the two with a pole
TABLES = ("phi", "gamma", "a_plus_rate", "a_minus_rate", "phi_hat", "dphi",
          "gamma_hat", "F", "G")
# 0.0235 lies between the cutoffs of linear-b0-0.05 (0.022 and 0.025)
TS = (0.01, 0.0235, 0.049, 0.05, 0.1, 0.2, 0.5, 3.0)
POINTS = ((0.02, (0.1, -0.2, 0.3, 0.05, -0.15, 0.25)),
          (0.1, (-0.4, 0.2, 0.1, 0.3, 0.2, -0.1)),
          (2.0, (0.25, 0.5, -0.75, -0.5, 0.125, 0.375)))


def _structures():
    bs = make_bryant_salamon(60.0)
    # the asymmetric structure of test_frame_matches_evaluators_bitwise
    doc = structure_to_json(bs, n_samples=41)
    doc["samples"]["dA"][2] = [1.01 * v for v in doc["samples"]["dA"][2]]
    # equal samples, but series block 1 of A differs from blocks 0 and 2:
    # below the cutoffs each index reads its own block
    series_doc = structure_to_json(bs, n_samples=41)
    series_doc["series"]["A"][1][7] *= 1.5
    return {"bryant-salamon": bs,
            "linear": make_linear_example(1.0, t_max=5.0),
            "su23-cli": build_structure({"kind": "su23"}),
            "json-asymmetric": structure_from_json(doc),
            "json-series-asymmetric": structure_from_json(series_doc),
            "linear-b0-0.05": make_linear_example(0.05, t_max=5.0)}


def _hex(values):
    out = []
    for v in values:
        if isinstance(v, PowerSeries):
            out.append([float(c).hex() for c in v])
        else:
            out.append(float(v).hex())
    return out


class _Captured(Exception):
    pass


def _abelian_rhs(s):
    """The rate right-hand side abelian_connection hands to _dop853."""
    def capture(fun, *args, **kwargs):
        raise _Captured(fun)

    with mock.patch.object(instantons, "_dop853", capture):
        try:
            abelian_connection(s, 1.0, (1.0, 1.0, 1.0))
        except _Captured as got:
            return got.args[0]
    raise AssertionError("abelian_connection did not call _dop853")


def _fields(s):
    fields = {"p1": p1_ivp(s, (1.0, 0.7, 1.3)).M,
              "pid": pid_ivp(s, 0.5 / s.b0, 0.1, -0.2).M,
              "abelian": _abelian_rhs(s)}
    if s.symmetric:
        fields["su23-p1"] = su23_p1_ivp(s, 1.5).M
        fields["su23-pid"] = su23_pid_ivp(s, 0.5 / s.b0).M
    return fields


def capture():
    out = {}
    for name, s in _structures().items():
        cf = coefficient_functions(s)
        tables = {k: getattr(cf, k) for k in TABLES}
        if cf.scalar_F is not None:
            tables["scalar_F"] = (cf.scalar_F,)
        entry = {
            "tables": {repr(t): {k: _hex(f(t) for f in fns)
                                 for k, fns in tables.items()} for t in TS},
            # F and G have a pole at 0 and take no series
            "series": {k: _hex(f(ps_var(8)) for f in tables[k])
                       for k in TABLES[:7]},
            "fields": {}}
        for label, M in _fields(s).items():
            dim = 6 if label in ("p1", "pid", "abelian") else 2
            vals = {repr(t): _hex(M(t, list(y[:dim]))) for t, y in POINTS}
            if label != "abelian":
                y_ps = [PowerSeries([y, 0.5 * y, -y]) for y in POINTS[0][1]]
                vals["series"] = _hex(M(ps_var(6), y_ps[:dim]))
            entry["fields"][label] = vals
        out[name] = entry
    return out


def test_coefficient_rows_and_fields_bitwise():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = capture()
    assert sorted(got) == sorted(want)
    for name in want:
        for part in ("tables", "series", "fields"):
            assert got[name][part] == want[name][part], (name, part)


if __name__ == "__main__":
    with open(GOLDEN, "w", newline="\n") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
