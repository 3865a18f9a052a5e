"""Command line front end.

Four subcommands share one JSON config document:

  structure   build a structure, write its JSON and a profile CSV
  solve       build one family member, write solution CSV + sidecar
  scan        sweep a family parameter, one summary row per grid point
  verify      run the report battery, write report JSON + summary CSV

CONFIG_KEYS names every config key and the converter that types it;
flags mirror config keys and win over the file.  Exit codes: 0 success,
1 failed verification, 2 config error, 3 runtime numeric event.  Output
is deterministic: fixed seeds, 17-digit floats, \n line endings.
"""

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._series import PowerSeries
from .instantons import (abelian_connection, flat_pid, residual_pointwise,
                         solution_to_csv, theta_x1, theta_y0, theta_zero)
from .singular_ivp import RTOL_FLOOR, IntegrationError, PreconditionError
from .structures import (coefficient_functions, load_structure,
                         make_bryant_salamon, make_linear_example,
                         make_su23_structure, save_structure)
from .verify import default_battery, report_to_json, reports_to_csv

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_STRUCTURE_KINDS = ("bryant_salamon", "su23", "linear", "file")
_FAMILY_KINDS = ("theta_x1", "theta_zero", "theta_y0", "flat_pid",
                 "abelian", "flat_plus", "flat_minus")
_PARAM_KEYS = ("x1", "y0", "t0", "sign")
_SCAN_PARAMS = {"theta_x1": "x1", "theta_y0": "y0", "abelian": "t0"}


class ConfigError(ValueError):
    """Invalid config document or flag values; maps to exit code 2."""


def default_config():
    return {
        "structure": {"kind": "bryant_salamon"},
        "family": {"kind": "theta_x1"},
        "solver": {"eps": 1e-2, "order": 10, "tol": 1e-13, "t_end": 10.0},
        "outputs": {"dir": ".", "grid": 101},
    }


# Converters: each returns its typed value or raises ValueError/TypeError.

def _canon(kind):
    return str(kind).replace("-", "_")


def _real(v):
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("must be finite, got %r" % v)
    return v


def _positive(v, inf_ok=False):
    v = float(v)
    if not (v > 0 and (inf_ok or math.isfinite(v))):
        raise ValueError("must be positive%s, got %r"
                         % ("" if inf_ok else " and finite", v))
    return v


def _tolerance(v):
    v = _positive(v)
    if v < RTOL_FLOOR:
        raise ValueError("must be at least %.3g (100 machine epsilons), "
                         "got %r" % (RTOL_FLOOR, v))
    return v


def _integer(least):
    def conv(v):
        f = float(v)
        if not (f.is_integer() and f >= least):
            raise ValueError("must be an integer >= %d, got %r" % (least, v))
        return int(f)
    return conv


def _reals(v):
    """Finite reals from a JSON list or a comma-separated string."""
    if isinstance(v, str):
        v = [x for x in v.split(",") if x != ""]
    if not isinstance(v, list):
        raise ValueError("expected a list of numbers, got %r" % (v,))
    return [_real(x) for x in v]


def _three_reals(v):
    v = tuple(_reals(v))
    if len(v) != 3:
        raise ValueError("expected three numbers, got %d" % len(v))
    return v


def _text(v):
    if not isinstance(v, str):
        raise ValueError("expected a string, got %r" % (v,))
    return v


def _choice(choices, norm=_canon):
    def conv(v):
        v = norm(v)
        if v not in choices:
            raise ValueError("expected one of %s, got %r"
                             % (", ".join(map(str, choices)), v))
        return v
    return conv


# section -> key -> converter: the only list of config keys.  A flag's
# dest is its key, except for the two in _FLAG_DEST.
CONFIG_KEYS = {
    "structure": {"kind": _choice(_STRUCTURE_KINDS), "r_max": _real,
                  "b0": _positive, "a3": _real, "a5": _real,
                  "t_max": _positive, "path": _text},
    "family": {"kind": _choice(_FAMILY_KINDS),
               "x1": _real, "y0": _real,
               "sign": _choice((1, -1), _integer(-1)), "t0": _real,
               "aplus": _three_reals, "aminus": _three_reals,
               "param": _choice(_PARAM_KEYS),
               "values": _reals, "lo": _real, "hi": _real},
    "solver": {"eps": _positive, "order": _integer(0), "tol": _tolerance,
               "t_end": lambda v: _positive(v, inf_ok=True)},
    "outputs": {"dir": _text, "grid": _integer(2)},
}
_FLAG_DEST = {("family", "kind"): "family", ("outputs", "dir"): "out"}
_THRESHOLD_KEYS = {"residual": _positive}


def _known(doc, keys, where):
    """doc, checked to hold only keys of the table (nested ones too)."""
    if not isinstance(doc, dict):
        raise ConfigError("%s must be a JSON object" % where)
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError("unknown keys in %s: %s" % (where, sorted(unknown)))
    for key, sub in keys.items():
        if isinstance(sub, dict) and key in doc:
            _known(doc[key], sub, key)
    return doc


def load_config(path, keys=CONFIG_KEYS, what="config"):
    """The JSON document at path, its keys checked against the table."""
    if not os.path.exists(path):
        raise ConfigError("%s file %r does not exist" % (what, path))
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError("%s file is not valid JSON: %s" % (what, exc))
    return _known(doc, keys, what)


def _typed(block, keys, where):
    """block with every value passed once through its converter."""
    out = {}
    for key, val in block.items():
        try:
            out[key] = keys[key](val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("%s%s: %s" % (where, key, exc))
    return out


def merged_config(args):
    """defaults <- config file <- flags, key by key, then typed."""
    cfg = default_config()
    if getattr(args, "config", None):
        for section, block in load_config(args.config).items():
            cfg[section].update(block)
    if getattr(args, "structure", None) is not None:
        cfg["structure"] = {"kind": "file", "path": args.structure}
    for section, keys in CONFIG_KEYS.items():
        for key in keys:
            val = getattr(args, _FLAG_DEST.get((section, key), key), None)
            if val is not None:
                cfg[section][key] = val
        cfg[section] = _typed(cfg[section], keys, section + ".")
    if not cfg["solver"]["eps"] < cfg["solver"]["t_end"]:
        raise ConfigError("solver.eps must be below solver.t_end")
    return cfg


def build_structure(block):
    kind = block["kind"]
    try:
        if kind == "bryant_salamon":
            return make_bryant_salamon(r_max=block.get("r_max", 60.0))
        if kind == "linear":
            return make_linear_example(block.get("b0", 1.0),
                                       t_max=block.get("t_max", 1e6))
        if kind == "su23":
            a3, a5 = block.get("a3", 0.0), block.get("a5", 0.0)
            ser = PowerSeries([0.0, 0.5, 0.0, a3, 0.0, a5], parity="odd")

            def a1(t):
                return t * (0.5 + t * t * (a3 + a5 * t * t))

            def da1(t):
                return 0.5 + t * t * (3.0 * a3 + 5.0 * a5 * t * t)

            return make_su23_structure((a1, ser, da1), block.get("b0", 1.0),
                                       t_max=block.get("t_max"))
        path = block.get("path")
        if path is None:
            raise ConfigError("structure kind 'file' needs a path")
        if not os.path.exists(path):
            raise ConfigError("structure file %r does not exist" % path)
        return load_structure(path)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("structure: %s" % exc)


def build_family(s, block, solver):
    kind = block["kind"]
    if kind in ("flat_plus", "flat_minus"):
        block = dict(block, sign=1 if kind == "flat_plus" else -1)
        kind = "flat_pid"
    try:
        if kind == "theta_x1":
            return theta_x1(s, block.get("x1", 1.0))
        if kind == "theta_zero":
            return theta_zero(s)
        if kind == "theta_y0":
            return theta_y0(s, block.get("y0", 0.0), **solver)
        if kind == "flat_pid":
            return flat_pid(s, block.get("sign", 1))
        return abelian_connection(s, block.get("t0", 1.0),
                                  block.get("aplus", (1.0, 0.0, 0.0)),
                                  block.get("aminus", (0.0, 0.0, 0.0)))
    except ValueError as exc:
        raise ConfigError("family: %s" % exc)


class _Outputs:
    """Files written by one command; a context manager that removes them
    when the command raises, so no partial output is left behind."""

    def __init__(self, dirpath):
        self.dir = dirpath or "."
        if self.dir != "." and not os.path.isdir(self.dir):
            os.makedirs(self.dir, exist_ok=True)
        self.created = []

    def path(self, name, sidecar=False):
        p = os.path.join(self.dir, name)
        self.created.append(p)
        if sidecar:
            self.created.append(p + ".json")
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for p in self.created:
                if os.path.exists(p):
                    os.remove(p)
        return False


def _echo_malgrange(rep):
    eig = ", ".join("%.6g" % v for v in np.sort(rep.eigenvalues.real))
    print("boundary gate %s: |M_-1(y0)| = %.3e, eigenvalues [%s], tol %g"
          % ("pass" if rep.gate_pass else "FAIL", rep.residual_at_y0,
             eig, rep.tol))


def cmd_structure(cfg, out):
    s = build_structure(cfg["structure"])
    jpath = out.path("structure.json")
    save_structure(s, jpath)
    hi = min(s.t_max, cfg["solver"]["t_end"])
    ts = np.linspace(0.0, hi, cfg["outputs"]["grid"])
    ppath = out.path("profile.csv")
    with open(ppath, "w", newline="\n") as fh:
        fh.write("t,A1,A2,A3,B1,B2,B3\n")
        for t in ts.tolist():
            row = ([t] + [s.A[i](t) for i in range(3)]
                   + [s.B[i](t) for i in range(3)])
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    print("wrote %s" % jpath)
    print("wrote %s" % ppath)
    return EXIT_OK


def cmd_solve(cfg, out):
    solver = cfg["solver"]
    s = build_structure(cfg["structure"])
    cpath = out.path("solution.csv", sidecar=True)
    try:
        sol = build_family(s, cfg["family"], solver)
    except IntegrationError as exc:
        traj = exc.trajectory
        if traj is not None:
            traj.to_csv(cpath)
            print("wrote partial trajectory %s" % cpath)
        print("integration failed: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    rep = sol.extras.get("check") if sol.extras else None
    if rep is not None:
        _echo_malgrange(rep)
    lo, hi = max(sol.valid[0], 1e-2), min(sol.valid[1], solver["t_end"])
    if not hi > lo:
        raise ConfigError("empty sample range: solution valid to %g"
                          % sol.valid[1])
    solution_to_csv(sol, cpath, np.linspace(lo, hi, cfg["outputs"]["grid"]))
    print("wrote %s (+ sidecar)" % cpath)
    if sol.trajectory is not None:
        for kind, te in sol.trajectory.events:
            print("event %s at t = %.6g" % (kind, te))
    hi_req = min(solver["t_end"], s.t_max)
    if sol.valid[1] < hi_req * (1 - 1e-9):
        print("stopped at t = %.6g before t_end = %g"
              % (sol.valid[1], hi_req), file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _scan_values(block, n):
    if "values" in block:
        vals = block["values"]
    elif "lo" in block and "hi" in block:
        vals = np.linspace(block["lo"], block["hi"], n).tolist()
    else:
        raise ConfigError("scan needs family.values or family.lo/hi")
    if not vals:
        raise ConfigError("scan grid is empty")
    return vals


def _scan_point(s, block, solver, param, value):
    """One row of the summary: existence, event times, sup residual."""
    t_req = min(solver["t_end"], s.t_max)
    nan = float("nan")
    try:
        sol = build_family(s, dict(block, **{param: value}), solver)
    except (ConfigError, PreconditionError, IntegrationError):
        return (value, False, nan, nan, nan)
    blow = sol.trajectory.event_times("blow-up") if sol.trajectory else []
    exits = (sol.trajectory.event_times("region-exit")
             if sol.trajectory else [])
    exists = sol.valid[1] >= t_req * (1 - 1e-9)
    lo = max(sol.valid[0], 1e-2)
    hi = min(sol.valid[1], t_req)
    sup = nan
    if hi > lo * (1 + 1e-9):
        sup = 0.0
        for t in np.geomspace(lo, hi, 25).tolist():
            try:
                sup = max(sup, residual_pointwise(s, sol, t))
            except ValueError:
                pass
    return (value, exists, min(blow) if blow else nan,
            min(exits) if exits else nan, sup)


def cmd_scan(cfg, out):
    solver = cfg["solver"]
    block = cfg["family"]
    param = block.get("param") or _SCAN_PARAMS.get(block["kind"])
    if param is None:
        raise ConfigError("no scan parameter for family %r" % block["kind"])
    values = _scan_values(block, cfg["outputs"]["grid"])
    try:
        workers = int(os.environ.get("G2FLOW_THREADS", "0") or "0")
    except ValueError:
        raise ConfigError("G2FLOW_THREADS must be an integer")
    if workers < 1:
        workers = min(4, os.cpu_count() or 1)
    s = build_structure(cfg["structure"])
    coefficient_functions(s)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(
            lambda v: _scan_point(s, block, solver, param, v), values))
    spath = out.path("scan.csv")
    with open(spath, "w", newline="\n") as fh:
        fh.write("param,exists_to_t_end,blowup_t,exit_t,sup_residual\n")
        for value, exists, blow, exit_t, sup in rows:
            fh.write("%.17g,%s,%.17g,%.17g,%.17g\n"
                     % (value, "true" if exists else "false",
                        blow, exit_t, sup))
    n_ok = sum(1 for r in rows if r[1])
    print("wrote %s (%d points, %d reach t_end)"
          % (spath, len(rows), n_ok))
    return EXIT_OK


def cmd_verify(cfg, out, thresholds):
    s = build_structure(cfg["structure"])
    reports = default_battery(s,
                              residual_threshold=thresholds.get("residual"))
    for rep in reports:
        slug = re.sub(r"[^A-Za-z0-9._=-]+", "_", rep.name)
        report_to_json(rep, out.path("report-%s.json" % slug))
    reports_to_csv(reports, out.path("verify.csv"))
    failures = []
    for rep in reports:
        print("%s %s" % ("PASS" if rep.passed else "FAIL", rep.name))
        if not rep.passed:
            failures.append(rep.name)
    if failures:
        print("failing reports: %s" % ", ".join(failures), file=sys.stderr)
        return EXIT_VERIFY
    print("all %d reports pass" % len(reports))
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config document")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--tol", type=float, help="integration tolerance")
    common.add_argument("--eps", type=float, help="series handoff point")
    common.add_argument("--t-end", dest="t_end", type=float,
                        help="final time")
    common.add_argument("--grid", type=int, metavar="N",
                        help="sample/scan point count")

    struct_flags = argparse.ArgumentParser(add_help=False)
    struct_flags.add_argument("--structure", metavar="PATH",
                              help="structure JSON (shorthand for "
                                   "kind=file)")

    parser = argparse.ArgumentParser(
        prog="g2flow",
        description="Cohomogeneity-one instanton laboratory on R^4 x S^3.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("structure", parents=[common],
                        help="build a structure, export JSON + profile CSV")
    ps.add_argument("--kind", type=_canon, choices=_STRUCTURE_KINDS)
    ps.add_argument("--r-max", dest="r_max", type=float)
    ps.add_argument("--b0", type=float)
    ps.add_argument("--a3", type=float)
    ps.add_argument("--a5", type=float)
    ps.add_argument("--t-max", dest="t_max", type=float)
    ps.add_argument("--path", metavar="PATH")
    ps.set_defaults(handler="structure")

    pv = sub.add_parser("solve", parents=[common, struct_flags],
                        help="solve one family member, export CSV")
    pv.add_argument("--family", type=_canon, choices=_FAMILY_KINDS)
    pv.add_argument("--x1", type=float)
    pv.add_argument("--y0", type=float)
    pv.add_argument("--sign", type=int, choices=[1, -1])
    pv.add_argument("--t0", type=float)
    pv.add_argument("--aplus", metavar="A,B,C")
    pv.add_argument("--aminus", metavar="A,B,C")
    pv.set_defaults(handler="solve")

    pc = sub.add_parser("scan", parents=[common, struct_flags],
                        help="sweep one family parameter")
    pc.add_argument("--family", type=_canon, choices=_FAMILY_KINDS)
    pc.add_argument("--param", choices=_PARAM_KEYS)
    pc.add_argument("--values", metavar="V1,V2,...")
    pc.add_argument("--lo", type=float)
    pc.add_argument("--hi", type=float)
    pc.set_defaults(handler="scan")

    pf = sub.add_parser("verify", parents=[common, struct_flags],
                        help="run the report battery")
    pf.add_argument("--thresholds", metavar="PATH",
                    help="JSON overrides, e.g. {\"residual\": 1e-8}")
    pf.set_defaults(handler="verify")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = merged_config(args)
        thresholds = {}
        if getattr(args, "thresholds", None) is not None:
            thresholds = _typed(load_config(args.thresholds, _THRESHOLD_KEYS,
                                            "threshold"),
                                _THRESHOLD_KEYS, "thresholds.")
        with _Outputs(cfg["outputs"]["dir"]) as out:
            if args.handler == "structure":
                return cmd_structure(cfg, out)
            if args.handler == "solve":
                return cmd_solve(cfg, out)
            if args.handler == "scan":
                return cmd_scan(cfg, out)
            return cmd_verify(cfg, out, thresholds)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print("gate failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrationError as exc:
        print("integration failed: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
