"""Command line front end.

Four subcommands share one JSON config document:

  structure   build a structure, write its JSON and a profile CSV
  solve       build one family member, write solution CSV + sidecar
  scan        sweep a family parameter, one summary row per grid point
  verify      run the report battery, write report JSON + summary CSV

Flags mirror config keys and win over the file.  Exit codes: 0 success,
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
from .instantons import (InstantonSolution, _abelian_residual,
                         abelian_connection, flat_pid, residual_pointwise,
                         solution_to_csv, theta_x1, theta_y0, theta_zero)
from .singular_ivp import IntegrationError, PreconditionError
from .structures import (coefficient_functions, load_structure,
                         make_bryant_salamon, make_linear_example,
                         make_su23_structure, save_structure)
from .verify import default_battery, report_to_json, reports_to_csv

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_SECTION_KEYS = {
    "structure": {"kind", "r_max", "b0", "a3", "a5", "t_max", "path"},
    "family": {"kind", "x1", "y0", "sign", "t0", "aplus", "aminus",
               "param", "values", "lo", "hi"},
    "solver": {"eps", "order", "tol", "t_end"},
    "outputs": {"dir", "grid"},
}

_STRUCTURE_KINDS = ("bryant_salamon", "su23", "linear", "file")
_FAMILY_KINDS = ("theta_x1", "theta_zero", "theta_y0", "flat_pid",
                 "abelian")
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


def _canon(kind):
    return str(kind).replace("-", "_")


def validate_config(doc):
    """Reject unknown sections/keys; returns the document unchanged."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError("unknown config sections: %s" % sorted(unknown))
    for section, keys in _SECTION_KEYS.items():
        block = doc.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError("config section %r must be an object"
                              % section)
        bad = set(block) - keys
        if bad:
            raise ConfigError("unknown keys in %r: %s"
                              % (section, sorted(bad)))
    return doc


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError("config file %r does not exist" % path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
    return validate_config(doc)


def merged_config(args):
    """defaults <- config file <- global flags, key by key."""
    cfg = default_config()
    if getattr(args, "config", None):
        for section, block in load_config(args.config).items():
            cfg[section].update(block)
    if getattr(args, "out", None) is not None:
        cfg["outputs"]["dir"] = args.out
    if getattr(args, "grid", None) is not None:
        cfg["outputs"]["grid"] = args.grid
    for key in ("tol", "eps", "t_end"):
        val = getattr(args, key, None)
        if val is not None:
            cfg["solver"][key] = val
    solver = cfg["solver"]
    for key in ("eps", "tol", "t_end"):
        if not float(solver[key]) > 0:
            raise ConfigError("solver.%s must be positive" % key)
    if not float(solver["eps"]) < float(solver["t_end"]):
        raise ConfigError("solver.eps must be below solver.t_end")
    if int(cfg["outputs"]["grid"]) < 2:
        raise ConfigError("outputs.grid must be at least 2")
    return cfg


def _structure_flags_into(cfg, args):
    block = cfg["structure"]
    if getattr(args, "structure", None) is not None:
        cfg["structure"] = block = {"kind": "file", "path": args.structure}
    for key in ("kind", "r_max", "b0", "a3", "a5", "t_max", "path"):
        val = getattr(args, key, None)
        if val is not None:
            block[key] = val


def _family_flags_into(cfg, args):
    block = cfg["family"]
    if getattr(args, "family", None) is not None:
        block["kind"] = args.family
    for key in ("x1", "y0", "sign", "t0", "param", "lo", "hi"):
        val = getattr(args, key, None)
        if val is not None:
            block[key] = val
    for key in ("aplus", "aminus", "values"):
        val = getattr(args, key, None)
        if val is not None:
            try:
                block[key] = [float(x) for x in val.split(",") if x != ""]
            except ValueError:
                raise ConfigError("--%s expects comma-separated numbers"
                                  % key)


def build_structure(block):
    kind = _canon(block.get("kind", "bryant_salamon"))
    if kind not in _STRUCTURE_KINDS:
        raise ConfigError("unknown structure kind %r (expected one of %s)"
                          % (kind, ", ".join(_STRUCTURE_KINDS)))
    try:
        if kind == "bryant_salamon":
            return make_bryant_salamon(r_max=float(block.get("r_max", 60.0)))
        if kind == "linear":
            return make_linear_example(float(block.get("b0", 1.0)),
                                       t_max=float(block.get("t_max", 1e6)))
        if kind == "su23":
            a3 = float(block.get("a3", 0.0))
            a5 = float(block.get("a5", 0.0))
            ser = PowerSeries([0.0, 0.5, 0.0, a3, 0.0, a5], parity="odd")

            def a1(t):
                return t * (0.5 + t * t * (a3 + a5 * t * t))

            def da1(t):
                return 0.5 + t * t * (3.0 * a3 + 5.0 * a5 * t * t)

            t_max = block.get("t_max")
            return make_su23_structure(
                (a1, ser, da1), float(block.get("b0", 1.0)),
                t_max=None if t_max is None else float(t_max))
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
    kind = _canon(block.get("kind", "theta_x1"))
    if kind in ("flat_plus", "flat_minus"):
        block = dict(block, sign=1 if kind == "flat_plus" else -1)
        kind = "flat_pid"
    if kind not in _FAMILY_KINDS:
        raise ConfigError("unknown family kind %r (expected one of %s)"
                          % (kind, ", ".join(_FAMILY_KINDS)))
    try:
        if kind == "theta_x1":
            return theta_x1(s, float(block.get("x1", 1.0)))
        if kind == "theta_zero":
            return theta_zero(s)
        if kind == "theta_y0":
            return theta_y0(s, float(block.get("y0", 0.0)),
                            t_end=float(solver["t_end"]),
                            eps=float(solver["eps"]),
                            order=int(solver["order"]),
                            tol=float(solver["tol"]))
        if kind == "flat_pid":
            return flat_pid(s, int(block.get("sign", 1)))
        aplus = tuple(block.get("aplus", (1.0, 0.0, 0.0)))
        aminus = tuple(block.get("aminus", (0.0, 0.0, 0.0)))
        if len(aplus) != 3 or len(aminus) != 3:
            raise ConfigError("aplus/aminus need three components")
        return abelian_connection(s, float(block.get("t0", 1.0)),
                                  aplus, aminus)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("family: %s" % exc)


class _Outputs:
    """Tracks files written by one command so partials can be removed."""

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

    def discard(self):
        for p in self.created:
            if os.path.exists(p):
                os.remove(p)


def _solution_grid(sol, solver, n):
    lo = max(sol.valid[0], 1e-2)
    hi = min(sol.valid[1], float(solver["t_end"]))
    if not hi > lo:
        return None
    return np.linspace(lo, hi, int(n))


def _echo_malgrange(rep):
    eig = ", ".join("%.6g" % v for v in np.sort(rep.eigenvalues.real))
    print("boundary gate %s: |M_-1(y0)| = %.3e, eigenvalues [%s], tol %g"
          % ("pass" if rep.gate_pass else "FAIL", rep.residual_at_y0,
             eig, rep.tol))


def cmd_structure(cfg):
    out = _Outputs(cfg["outputs"]["dir"])
    try:
        s = build_structure(cfg["structure"])
        jpath = out.path("structure.json")
        save_structure(s, jpath)
        hi = min(s.t_max, float(cfg["solver"]["t_end"]))
        ts = np.linspace(0.0, hi, int(cfg["outputs"]["grid"]))
        ppath = out.path("profile.csv")
        with open(ppath, "w", newline="\n") as fh:
            fh.write("t,A1,A2,A3,B1,B2,B3\n")
            for t in ts:
                t = float(t)
                row = ([t] + [s.A[i](t) for i in range(3)]
                       + [s.B[i](t) for i in range(3)])
                fh.write(",".join("%.17g" % v for v in row) + "\n")
    except Exception:
        out.discard()
        raise
    print("wrote %s" % jpath)
    print("wrote %s" % ppath)
    return EXIT_OK


def cmd_solve(cfg):
    out = _Outputs(cfg["outputs"]["dir"])
    solver = cfg["solver"]
    s = build_structure(cfg["structure"])
    cpath = out.path("solution.csv", sidecar=True)
    try:
        sol = build_family(s, cfg["family"], solver)
    except PreconditionError as exc:
        print("gate failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
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
    try:
        ts = _solution_grid(sol, solver, cfg["outputs"]["grid"])
        if ts is None:
            raise ConfigError("empty sample range: solution valid to %g"
                              % sol.valid[1])
        solution_to_csv(sol, cpath, ts=ts)
    except Exception:
        out.discard()
        raise
    print("wrote %s (+ sidecar)" % cpath)
    if sol.trajectory is not None:
        for kind, te in sol.trajectory.events:
            print("event %s at t = %.6g" % (kind, te))
    hi_req = min(float(solver["t_end"]), s.t_max)
    if sol.valid[1] < hi_req * (1 - 1e-9):
        print("stopped at t = %.6g before t_end = %g"
              % (sol.valid[1], hi_req), file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _scan_values(block, n):
    if "values" in block:
        vals = [float(v) for v in block["values"]]
    elif "lo" in block and "hi" in block:
        vals = [float(v) for v in
                np.linspace(float(block["lo"]), float(block["hi"]), int(n))]
    else:
        raise ConfigError("scan needs family.values or family.lo/hi")
    if not vals:
        raise ConfigError("scan grid is empty")
    return vals


def _scan_point(s, block, solver, param, value):
    """One row of the summary: existence, event times, sup residual."""
    member = dict(block)
    member.pop("param", None)
    member.pop("values", None)
    member.pop("lo", None)
    member.pop("hi", None)
    member[param] = value
    t_req = min(float(solver["t_end"]), s.t_max)
    nan = float("nan")
    try:
        sol = build_family(s, member, solver)
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
        resfn = (_abelian_residual if sol.family == "abelian"
                 else residual_pointwise)
        sup = 0.0
        for t in np.geomspace(lo, hi, 25):
            try:
                sup = max(sup, resfn(s, sol, float(t)))
            except ValueError:
                pass
    return (value, exists, min(blow) if blow else nan,
            min(exits) if exits else nan, sup)


def cmd_scan(cfg):
    out = _Outputs(cfg["outputs"]["dir"])
    solver = cfg["solver"]
    block = cfg["family"]
    kind = _canon(block.get("kind", "theta_x1"))
    param = block.get("param") or _SCAN_PARAMS.get(kind)
    if param is None:
        raise ConfigError("no scan parameter for family %r" % kind)
    if param not in ("x1", "y0", "t0", "sign"):
        raise ConfigError("cannot scan parameter %r" % param)
    values = _scan_values(block, cfg["outputs"]["grid"])
    s = build_structure(cfg["structure"])
    coefficient_functions(s)
    workers = int(os.environ.get("G2FLOW_THREADS", "0") or "0")
    if workers < 1:
        workers = min(4, os.cpu_count() or 1)
    try:
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
    except Exception:
        out.discard()
        raise
    n_ok = sum(1 for r in rows if r[1])
    print("wrote %s (%d points, %d reach t_end)"
          % (spath, len(rows), n_ok))
    return EXIT_OK


def _load_thresholds(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError("threshold file %r does not exist" % path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError("threshold file is not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise ConfigError("threshold file must be a JSON object")
    unknown = set(doc) - {"residual"}
    if unknown:
        raise ConfigError("unknown threshold keys: %s" % sorted(unknown))
    out = {}
    for key, val in doc.items():
        val = float(val)
        if not val > 0:
            raise ConfigError("threshold %r must be positive" % key)
        out[key] = val
    return out


def cmd_verify(cfg, thresholds=None):
    out = _Outputs(cfg["outputs"]["dir"])
    s = build_structure(cfg["structure"])
    reports = default_battery(
        s, residual_threshold=(thresholds or {}).get("residual"))
    try:
        for rep in reports:
            slug = re.sub(r"[^A-Za-z0-9._=-]+", "_", rep.name)
            report_to_json(rep, out.path("report-%s.json" % slug))
        reports_to_csv(reports, out.path("verify.csv"))
    except Exception:
        out.discard()
        raise
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
    ps.add_argument("--kind", choices=["bryant-salamon", "bryant_salamon",
                                       "su23", "linear", "file"])
    ps.add_argument("--r-max", dest="r_max", type=float)
    ps.add_argument("--b0", type=float)
    ps.add_argument("--a3", type=float)
    ps.add_argument("--a5", type=float)
    ps.add_argument("--t-max", dest="t_max", type=float)
    ps.add_argument("--path", metavar="PATH")
    ps.set_defaults(handler="structure")

    pv = sub.add_parser("solve", parents=[common, struct_flags],
                        help="solve one family member, export CSV")
    pv.add_argument("--family", choices=["theta-x1", "theta_x1",
                                         "theta-zero", "theta_zero",
                                         "theta-y0", "theta_y0",
                                         "flat-pid", "flat_pid", "abelian"])
    pv.add_argument("--x1", type=float)
    pv.add_argument("--y0", type=float)
    pv.add_argument("--sign", type=int, choices=[1, -1])
    pv.add_argument("--t0", type=float)
    pv.add_argument("--aplus", metavar="A,B,C")
    pv.add_argument("--aminus", metavar="A,B,C")
    pv.set_defaults(handler="solve")

    pc = sub.add_parser("scan", parents=[common, struct_flags],
                        help="sweep one family parameter")
    pc.add_argument("--family", choices=["theta-x1", "theta_x1",
                                         "theta-y0", "theta_y0", "abelian"])
    pc.add_argument("--param", choices=["x1", "y0", "t0"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merged_config(args)
        _structure_flags_into(cfg, args)
        if args.handler in ("solve", "scan"):
            _family_flags_into(cfg, args)
        if args.handler == "structure":
            return cmd_structure(cfg)
        if args.handler == "solve":
            return cmd_solve(cfg)
        if args.handler == "scan":
            return cmd_scan(cfg)
        return cmd_verify(cfg, _load_thresholds(args.thresholds))
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
