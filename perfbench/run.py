"""g2flow benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bs-solve --seed 1 --seconds 30 \
        --trace 0

Run from anywhere; the package is imported from src/ of the checkout that
holds this file.  Each run starts fresh interpreters for its workload
(see workload.py) with the thread counts pinned, checks every task's
outputs, prints one human-readable line per metric and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
result (inputs, per-task times, environment) is written to .perfbench/.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics (see README.md in this directory).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("bs-solve", "bs-verify", "linear-scan")
SETUP_PROBES = 2           # setup-only processes before and after the run
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0         # a whole run must end within 180 s
ENV_PINS = {"G2FLOW_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ)
    env.update(ENV_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline):
    """Run a fresh interpreter to completion; returns (stdout, stderr)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable] + args, env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s"
                           % (args[0], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout, proc.stderr


def workload_child(flags, deadline):
    args = [os.path.join(HERE, "workload.py")] + flags + [
        "--out", OUT, "--spawned", repr(time.monotonic())]
    stdout, _ = run_child(args, deadline)
    return json.loads(stdout.strip().splitlines()[-1])


def parse_importtime(text):
    """(seconds to import g2flow, seconds spent importing scipy modules)
    from `python -X importtime` output.

    Lines list a module after its own imports, indented two spaces per
    nesting level; scipy time is the cumulative time of the scipy modules
    that no other scipy module imported.
    """
    pending = {}         # level -> [(name, cumulative us, children)]
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, field = line[len("import time:"):].split("|")
        level = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = (field.strip(), int(cum), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    roots = pending.get(0, [])

    def scipy_us(nodes):
        return sum(cum if name.split(".")[0] == "scipy"
                   else scipy_us(children)
                   for name, cum, children in nodes)

    g2 = [cum for name, cum, _ in roots if name == "g2flow"]
    if not g2:
        raise ValueError("no g2flow entry in the import-time report")
    return g2[0] / 1e6, scipy_us(roots) / 1e6


def import_probe(deadline):
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, stderr = run_child(["-X", "importtime", "-c", "import g2flow"],
                              deadline)
        samples.append(parse_importtime(stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def end_to_end(main, setup):
    """The BENCHMARK.json end-to-end metrics of one run."""
    times = [r["seconds"] for r in main["tasks"] if r["seconds"] is not None]
    passed = [r for r in main["tasks"] if not r["problems"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "task_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "tasks_per_s": (len(passed) / sum(times) if times else 0.0, "1/s"),
        "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
    }


def describe(main, metrics):
    tasks = main["tasks"]
    times = sorted(r["seconds"] for r in tasks if r["seconds"] is not None)
    failed = sum(1 for r in tasks if r["problems"])
    lines = ["%s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
    lines.append("task samples %d" % len(times))
    # a tail percentile only with at least ten samples beyond it (ungated)
    for q in (0.99, 0.9):
        if times and len(times) * (1 - q) >= 10:
            lines.append("task_p%d_s %.6g s" % (round(100 * q),
                                                times[int(q * len(times))]))
            break
    lines.append("fail_ratio %.6g (%d/%d)"
                 % (failed / len(tasks), failed, len(tasks)))
    for r in tasks:
        for p in r["problems"]:
            lines.append("task %d%s failed: %s"
                         % (r["task"], " (traced)" if r["traced"] else "",
                            p.strip()))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "g2flow", "__init__.py")):
        print("no g2flow sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # setup probes on both sides of the run, so that one slow spell
        # of the machine does not set the median
        setup = [workload_child(base + ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        main_run = workload_child(
            base + ["--seconds", repr(args.seconds),
                    "--trace", str(args.trace)], deadline)
        setup.append(main_run["setup_s"])
        setup += [workload_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        if args.trace:
            imp, imp_scipy = import_probe(deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1

    tasks = main_run["tasks"]
    failed = sum(1 for r in tasks if r["problems"])
    if args.trace:
        traced = [r["seconds"] for r in tasks
                  if r["traced"] and r["seconds"] is not None]
        plain = [r["seconds"] for r in tasks
                 if not r["traced"] and r["seconds"] is not None]
        layers = dict(main_run.get("layers") or {})
        layers["cli.import_s"] = imp
        layers["cli.import_scipy_s"] = imp_scipy
        traced_p50 = statistics.median(traced) if traced else 0.0
        plain_p50 = statistics.median(plain) if plain else 0.0
        layers["trace.task_p50_s"] = traced_p50
        layers["trace.untraced_task_p50_s"] = plain_p50
        layers["trace.overhead_s"] = traced_p50 - plain_p50
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"]
                     for m in json.load(fh)["per_layer"]}
        metrics = {k: (float(layers.get(k, 0.0)), u)
                   for k, u in units.items()}
    else:
        metrics = end_to_end(main_run, setup)

    main_run["setup_samples_s"] = setup
    main_run["metrics"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(main_run, fh, indent=1)
    for line in describe(main_run, metrics):
        print(line)
    print("full result: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks),
                      "failed": failed,
                      "metrics": main_run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
