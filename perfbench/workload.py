"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned T --out DIR
    python3 perfbench/workload.py --workload NAME --seed N --setup-only \
        --spawned T --out DIR

T is time.monotonic() in the parent just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so setup time covers
interpreter start, `import g2flow` and input generation.  The last line
of stdout is one JSON object for run.py.

Tasks run one after another (a closed loop with one client) until S
seconds have passed; the task running at the deadline completes.  Each
task takes fresh seeded inputs and builds its own structure, so no
per-structure cache is shared between tasks.  Output checks run outside
the timed region.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import g2flow
from g2flow import cli

import tracing

WORKLOADS = ("bs-solve", "bs-verify", "linear-scan")
T_END = 5.0
APLUS = (0.3, 0.5, 0.7)
AMINUS = (0.2, 0.4, 0.6)
SCAN_POINTS = 16
DEFECT_BOUND = 1e-7       # solver tol 1e-10 times 1e3
HANDOFF_BOUND = 1e-8
SCAN_RESIDUAL_BOUND = 1e-8
N_REPORTS = 14


def task_inputs(workload, seed):
    """Endless task inputs drawn from the seed alone; task k always gets
    the k-th draw."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        if workload == "bs-solve":
            yield {"r_max": rng.uniform(40.0, 80.0),
                   "t0": rng.uniform(0.5, 2.0)}
        elif workload == "bs-verify":
            yield {"r_max": rng.uniform(40.0, 80.0)}
        else:
            # one uniform draw in each of SCAN_POINTS equal slices of
            # [-1.5/b0, 1.5/b0]: every scan then has the same share (about
            # a third) of members past |y0| = 1/b0, which blow up and cost
            # more, so scan cost does not swing with the draw
            b0 = rng.uniform(0.5, 2.0)
            lim = 1.5 / b0
            y0 = [lim * (2.0 * (i + rng.random()) / SCAN_POINTS - 1.0)
                  for i in range(SCAN_POINTS)]
            rng.shuffle(y0)
            yield {"b0": b0, "y0": y0}


# ---------------------------------------------------------------------------
# bs-solve: pid and p1 singular solves plus an abelian member on a fresh
# Bryant-Salamon structure; long right-hand-side loops


def _profiles(ivp, traj, kind):
    """f6(t) of the six-profile solution whose (u, v) the solve returned."""
    if kind == "pid":
        beta = ivp.meta["beta"]
        b0m = ivp.meta["boundary"].b0_minus

        def f6(t):
            u = traj(t)
            return np.array([2.0 / t + beta[i] * t + t ** 3 * u[i]
                             for i in range(3)]
                            + [b0m + t * t * u[3 + i] for i in range(3)])
    else:
        f1 = ivp.meta["f1"]

        def f6(t):
            u = traj(t)
            return np.array([f1[i] * t + t ** 3 * u[i] for i in range(3)]
                            + [t * t * u[3 + i] for i in range(3)])
    return f6


def run_bs_solve(inp):
    s = g2flow.make_bryant_salamon(inp["r_max"])
    pid = g2flow.pid_ivp(s, 0.5 / s.b0)
    pid_traj = g2flow.solve_singular(pid, t_end=T_END)
    p1 = g2flow.p1_ivp(s)
    p1_traj = g2flow.solve_singular(p1, t_end=T_END)
    ab = g2flow.abelian_connection(s, inp["t0"], APLUS, AMINUS)
    return s, (("pid", pid, pid_traj), ("p1", p1, p1_traj)), ab


def check_bs_solve(inp, out):
    s, solves, ab = out
    problems = []
    ts = np.geomspace(0.02, 4.9, 12)
    for kind, ivp, traj in solves:
        if not traj.meta["check"].gate_pass:
            problems.append("%s gate failed" % kind)
        if traj.events or not traj.t[-1] >= T_END * (1 - 1e-12):
            problems.append("%s stopped at t=%g with events %r"
                            % (kind, traj.t[-1], traj.events))
            continue
        if not traj.meta["handoff_mismatch"] <= HANDOFF_BOUND:
            problems.append("%s handoff mismatch %.3e"
                            % (kind, traj.meta["handoff_mismatch"]))
        sol = g2flow.InstantonSolution(
            family=kind, params={}, bundle="Pid" if kind == "pid" else "P1",
            structure=s, f6=_profiles(ivp, traj, kind), valid=(0.0, T_END))
        defect = max(g2flow.residual_pointwise(s, sol, float(t)) for t in ts)
        if not defect <= DEFECT_BOUND:
            problems.append("%s six-equation defect %.3e" % (kind, defect))
    if not g2flow.parity_report(ab).passed:
        problems.append("abelian parity report failed")
    return problems


# ---------------------------------------------------------------------------
# CLI workloads: verify (scattered dense-output reads, exact algebra,
# report writing) and the theta-y0 scan (bootstrap + event continuation
# on the thread pool)


def _write_config(workdir, structure):
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump({"structure": structure}, fh)
    return path


def _cli(argv):
    """g2flow.cli.main in-process, its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def prepare_bs_verify(inp, workdir):
    cfg = _write_config(workdir, {"kind": "bryant_salamon",
                                  "r_max": inp["r_max"]})
    return ["verify", "--config", cfg, "--out", os.path.join(workdir, "out")]


def check_bs_verify(inp, out, workdir):
    rc, text = out
    problems = [] if rc == 0 else ["exit code %d: %s" % (rc, text[-300:])]
    outdir = os.path.join(workdir, "out")
    reports = []
    for name in sorted(os.listdir(outdir)):
        if name.startswith("report-"):
            with open(os.path.join(outdir, name)) as fh:
                reports.append(json.load(fh))
    if len(reports) != N_REPORTS:
        problems.append("%d report files" % len(reports))
    if not os.path.isfile(os.path.join(outdir, "verify.csv")):
        problems.append("no verify.csv")
    problems.extend("report %s failed" % r["name"] for r in reports
                    if r["pass"] is not True)
    return problems


def prepare_linear_scan(inp, workdir):
    cfg = _write_config(workdir, {"kind": "linear", "b0": inp["b0"]})
    # the = form: argparse reads "--values -1.4,..." as a flag
    values = ",".join("%.17g" % v for v in inp["y0"])
    return ["scan", "--family", "theta-y0", "--values=" + values,
            "--config", cfg, "--out", os.path.join(workdir, "out")]


def check_linear_scan(inp, out, workdir):
    rc, text = out
    if rc != 0:
        return ["exit code %d: %s" % (rc, text[-300:])]
    with open(os.path.join(workdir, "out", "scan.csv")) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    if len(rows) != len(inp["y0"]):
        return ["%d rows for %d values" % (len(rows), len(inp["y0"]))]
    problems = []
    bound = 1.0 / inp["b0"]
    for y0, row in zip(inp["y0"], rows):
        value, exists, blow, _, sup = row
        exists = exists == "true"
        if float(value) != y0:
            problems.append("row for %r reads param %s" % (y0, value))
        if abs(y0) < bound and not (exists
                                    and float(sup) <= SCAN_RESIDUAL_BOUND):
            problems.append("y0=%r inside |y0|<1/b0: exists=%s sup=%s"
                            % (y0, exists, sup))
        if not exists and not math.isfinite(float(blow)):
            problems.append("y0=%r neither exists nor blows up" % y0)
    return problems


def run_task(workload, inp, workdir, tracer=None):
    """Run one task; returns (timed seconds, problems)."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    argv = None
    if workload == "bs-verify":
        argv = prepare_bs_verify(inp, workdir)
    elif workload == "linear-scan":
        argv = prepare_linear_scan(inp, workdir)
    span = tracer.span("task") if tracer else contextlib.nullcontext()
    command = tracer.span("cli.command") if tracer and argv else \
        contextlib.nullcontext()
    try:
        t0 = time.perf_counter()
        with span, command:
            out = _cli(argv) if argv else run_bs_solve(inp)
        dt = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.enabled = False
    if workload == "bs-solve":
        return dt, check_bs_solve(inp, out)
    if workload == "bs-verify":
        return dt, check_bs_verify(inp, out, workdir)
    return dt, check_linear_scan(inp, out, workdir)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced task


def layer_metrics(tr):
    """Per-layer numbers from one task's tracer.

    *_s are inclusive times, *_self_s exclude child spans on the same
    thread; on the scan pool both sum over the worker threads.
    """
    lay = tr.layers()
    cnt = tr.counts()

    def calls(name):
        return lay.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return lay.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return lay.get(name, (0, 0.0, 0.0))[2]

    m = {
        "structures.build_s": total("structures.build"),
        "structures.coeff_tables_s": total("structures.coeff_tables"),
        "structures.profile_calls": calls("structures.profile"),
        "structures.profile_self_s": self_s("structures.profile"),
        "structures.coeff_calls": calls("structures.coeff"),
        "structures.coeff_self_s": self_s("structures.coeff"),
        "singular_ivp.gate_s": total("singular_ivp.gate"),
        "singular_ivp.bootstrap_s": total("singular_ivp.bootstrap"),
        "singular_ivp.continuation_s": total("singular_ivp.continuation"),
        "singular_ivp.field_calls": calls("singular_ivp.field"),
        "singular_ivp.field_self_s": self_s("singular_ivp.field"),
        "singular_ivp.nfev": cnt["singular_ivp.nfev"],
        "singular_ivp.steps": cnt["singular_ivp.steps"],
        "instantons.theta_x1_s": total("instantons.theta_x1"),
        "instantons.theta_zero_s": total("instantons.theta_zero"),
        "instantons.theta_y0_s": total("instantons.theta_y0"),
        "instantons.abelian_s": total("instantons.abelian"),
        "instantons.residual_calls": calls("instantons.residual"),
        "instantons.residual_self_s": self_s("instantons.residual"),
        "instantons.eval_calls": cnt["instantons.eval"],
    }
    for name in ("oracle", "spectrum", "residual", "parity", "invariance",
                 "bubbling", "convergence"):
        m["verify.%s_s" % name] = total("verify." + name)
    m["verify.curvature_s"] = total("verify.curvature_boundary")
    for name in ("curvature", "constraint"):
        m["algebra.%s_calls" % name] = calls("algebra." + name)
        m["algebra.%s_s" % name] = total("algebra." + name)
    m["cli.command_s"] = total("cli.command")
    write = total("cli.write")
    efficiency = 0.0
    if tr.pool:
        # scan.csv is written inline after the pool closes
        command_end = max(s["end"] for s in tr.spans()
                          if s["name"] == "cli.command")
        write += command_end - tr.pool["exit"]
        busy = total("cli.scan_member")
        efficiency = busy / (tr.pool["workers"] * tr.pool["wall_s"])
    m["cli.write_s"] = write
    m["cli.scan_pool_efficiency"] = efficiency
    return m


# ---------------------------------------------------------------------------


def environment():
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "g2flow": g2flow.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("G2FLOW_THREADS", "OPENBLAS_NUM_THREADS",
                         "OMP_NUM_THREADS")}}


def measure(workload, inputs, seconds, trace, workdir):
    """Closed loop over tasks until `seconds` have passed.

    With trace, every input runs twice: untraced, then traced, so the
    difference of the two medians is the tracing overhead.
    """
    records, used, spans, layers = [], [], [], []
    start = time.perf_counter()
    for k, inp in enumerate(inputs):
        if k and time.perf_counter() - start >= seconds:
            break
        used.append(inp)
        for traced in ((False, True) if trace else (False,)):
            tr = tracing.Tracer(task_id=k) if traced else None
            rec = {"task": k, "traced": traced}
            try:
                with contextlib.ExitStack() as stack:
                    if tr:
                        tracing.install(tr, stack)
                    dt, problems = run_task(workload, inp,
                                            os.path.join(workdir, "task"),
                                            tr)
                rec.update(seconds=dt, problems=problems)
            except Exception:
                rec.update(seconds=None,
                           problems=[traceback.format_exc(limit=8)])
            records.append(rec)
            if tr:
                spans.extend(tr.spans())
                if rec["seconds"] is not None:
                    layers.append(layer_metrics(tr))
    return records, used, spans, layers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = task_inputs(args.workload, args.seed)
    first = next(inputs)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    try:
        records, used, spans, layers = measure(
            args.workload, itertools.chain([first], inputs), args.seconds,
            args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "tasks": records,
        "inputs": used,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if args.trace:
        result["layers"] = {k: statistics.median(d[k] for d in layers)
                            for k in (layers[0] if layers else {})}
        path = os.path.join(args.out, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(spans, fh)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
