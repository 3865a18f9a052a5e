"""Command line front end.

Four subcommands share one JSON config document:

  structure   build a structure, write its JSON and a profile CSV
  solve       build one family member, write solution CSV + sidecar
  scan        sweep the family's parameter, one row per grid point
  verify      run the report battery, write report JSON + summary CSV

CONFIG_KEYS names every config key and the converter that types it;
each flag is generated from a key, passes its value on as a string and
wins over the file.  Exit codes: 0 success, 1 failed verification,
2 config error, 3 runtime numeric event.  Output is deterministic:
fixed seeds, 17-digit floats, \n line endings.
"""

import argparse
import ctypes
import json
import math
import os
import re
import sys
# not used here: perfbench/tracing.py patches this name (ROADMAP D step 1)
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._series import PowerSeries
from .instantons import (abelian_connection, flat_pid, residual_pointwise,
                         solution_to_csv, theta_x1, theta_y0, theta_zero)
from .singular_ivp import (RTOL_FLOOR, IntegrationError, PreconditionError,
                           _float)
from .structures import (load_structure, make_bryant_salamon,
                         make_linear_example, make_su23_structure,
                         save_structure)
from .verify import (RESIDUAL_THRESHOLD, default_battery, report_to_json,
                     reports_to_csv)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_STRUCTURE_KINDS = ("bryant_salamon", "su23", "linear", "file")
_FAMILY_KINDS = ("theta_x1", "theta_zero", "theta_y0", "flat_pid", "abelian")
_SCAN_PARAMS = {"theta_x1": "x1", "theta_y0": "y0", "abelian": "t0",
                "flat_pid": "sign"}


class ConfigError(ValueError):
    """Invalid config document or flag values; maps to exit code 2."""


def default_config():
    return {
        "structure": {"kind": "bryant_salamon"},
        "family": {"kind": "theta_x1"},
        "solver": {"eps": 1e-2, "order": 10, "tol": 1e-13, "t_end": 10.0},
        "outputs": {"dir": ".", "grid": 101},
        "verify": {"residual": RESIDUAL_THRESHOLD},
    }


# Converters: each returns its typed value or raises ValueError/TypeError.

def _canon(kind):
    return str(kind).replace("-", "_")


def _number(v):
    """A flag's string as a float, a JSON value as _float reads it."""
    return float(v) if isinstance(v, str) else _float(v)


def _real(v):
    f = _number(v)
    if not math.isfinite(f):
        raise ValueError("must be finite, got %r" % (v,))
    return f


def _positive(v, inf_ok=False):
    f = _number(v)
    if not (f > 0 and (inf_ok or math.isfinite(f))):
        raise ValueError("must be positive%s, got %r"
                         % ("" if inf_ok else " and finite", v))
    return f


def _tolerance(v):
    v = _positive(v)
    if v < RTOL_FLOOR:
        raise ValueError("must be at least %.3g (100 machine epsilons), "
                         "got %r" % (RTOL_FLOOR, v))
    return v


def _integer(least):
    def conv(v):
        f = _number(v)
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
               "values": _reals, "lo": _real, "hi": _real},
    "solver": {"eps": _positive, "order": _integer(0), "tol": _tolerance,
               "t_end": lambda v: _positive(v, inf_ok=True)},
    "outputs": {"dir": _text, "grid": _integer(2)},
    "verify": {"residual": _positive},
}
_FLAG_DEST = {("family", "kind"): "family", ("outputs", "dir"): "out"}


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


def load_config(path):
    """The JSON config document at path, its keys checked against
    CONFIG_KEYS."""
    if not os.path.isfile(path):
        raise ConfigError("config file %r is missing or not a file" % path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc)
    return _known(doc, CONFIG_KEYS, "config")


def _typed(block, keys, where):
    """block with every value passed once through its converter."""
    out = {}
    for key, val in block.items():
        try:
            out[key] = keys[key](val)
        except ValueError as exc:
            raise ConfigError("%s%s: %s" % (where, key, exc))
    return out


def merged_config(args):
    """defaults <- config file <- flags, key by key, then typed."""
    cfg = default_config()
    if getattr(args, "config", None):
        doc = load_config(args.config)
        for section, block in doc.items():
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
        if not os.path.isfile(path):
            raise ConfigError("structure file %r is missing or not a file"
                              % path)
        return load_structure(path)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("structure: %s" % exc)


def build_family(s, block, solver):
    kind = block["kind"]
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
        try:
            os.makedirs(self.dir, exist_ok=True)
        except OSError as exc:      # e.g. a file of that name
            raise ConfigError("outputs.dir %r: %s" % (self.dir, exc.strerror))
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
    sol = build_family(s, cfg["family"], solver)
    rep = sol.extras.get("check") if sol.extras else None
    if rep is not None:
        _echo_malgrange(rep)
    lo, hi = max(sol.valid[0], 1e-2), min(sol.valid[1], solver["t_end"])
    if not hi > lo:
        raise ConfigError("empty sample range: solution valid to %g"
                          % sol.valid[1])
    cpath = out.path("solution.csv", sidecar=True)
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


_MEMBER_ARGS = None    # (s, block, solver, param), set in scan workers only


def _scan_init(*args):
    global _MEMBER_ARGS
    _MEMBER_ARGS = args
    # the worker ends with the scan's process, also one killed mid-scan
    ctypes.CDLL(None).prctl(1, 9)        # Linux: PR_SET_PDEATHSIG, SIGKILL


def _scan_member(value):
    return _scan_point(*_MEMBER_ARGS, value)


def cmd_scan(cfg, out):
    solver = cfg["solver"]
    block = cfg["family"]
    param = _SCAN_PARAMS.get(block["kind"])
    if param is None:
        raise ConfigError("no scan parameter for family %r" % block["kind"])
    values = _scan_values(block, cfg["outputs"]["grid"])
    s = build_structure(cfg["structure"])
    # pure-Python members: processes, not threads.  fork hands the workers
    # the structure (closures: no pickling); chunks of 1 spread the costly
    # blow-up members.  Imported here: it costs other commands 13-16 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(len(values), os.cpu_count() or 1),
                             multiprocessing.get_context("fork"),
                             initializer=_scan_init,
                             initargs=(s, block, solver, param)) as pool:
        rows = list(pool.map(_scan_member, values, chunksize=1))
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


def cmd_verify(cfg, out):
    s = build_structure(cfg["structure"])
    try:
        reports = default_battery(s, cfg["verify"]["residual"])
    except ValueError as exc:        # e.g. an asymmetric structure
        raise ConfigError("verify: %s" % exc)
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


# the (section, key) flags of every subcommand, then subcommand -> (help,
# the flags it takes besides these)
_COMMON = [("outputs", "dir"), ("solver", "tol"), ("solver", "eps"),
           ("solver", "t_end"), ("outputs", "grid")]
_COMMANDS = {
    "structure": ("build a structure, export JSON + profile CSV",
                  [("structure", key) for key in CONFIG_KEYS["structure"]]),
    "solve": ("solve one family member, export CSV",
              [("family", key) for key in ("kind", "x1", "y0", "sign", "t0",
                                           "aplus", "aminus")]),
    "scan": ("sweep the family's parameter",
             [("family", key) for key in ("kind", "values", "lo", "hi")]),
    "verify": ("run the report battery", [("verify", "residual")]),
}


def build_parser():
    """Each flag is a string named by its dest; CONFIG_KEYS types it."""
    parser = argparse.ArgumentParser(
        prog="g2flow",
        description="Cohomogeneity-one instanton laboratory on R^4 x S^3.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        # "-1,1" or "-1e-3" is a value, not an unknown flag (as from 3.13)
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--config", metavar="PATH",
                       help="JSON config document")
        if command != "structure":
            p.add_argument("--structure", metavar="PATH",
                           help="structure JSON (shorthand for kind=file)")
        for section, key in _COMMON + keys:
            dest = _FLAG_DEST.get((section, key), key)
            p.add_argument("--" + dest.replace("_", "-"),
                           help="%s.%s" % (section, key))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = merged_config(args)
        with _Outputs(cfg["outputs"]["dir"]) as out:
            if args.command == "structure":
                return cmd_structure(cfg, out)
            if args.command == "solve":
                return cmd_solve(cfg, out)
            if args.command == "scan":
                return cmd_scan(cfg, out)
            return cmd_verify(cfg, out)
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
