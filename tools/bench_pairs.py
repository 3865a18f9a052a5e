"""Run perfbench on two trees in alternating same-seed pairs.

Usage: python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE OUT.json
           [--workloads bs-solve,bs-verify,linear-scan] [--seeds 1-10]
           [--seconds 15]

For each workload and seed it runs PARENT_TREE/perfbench/run.py and
CHANGE_TREE/perfbench/run.py, untraced (--trace 0), one after the other,
the parent first on odd seeds and the change first on even ones, so a
slow spell of the machine falls on both sides alike.  Each tree runs its
own perfbench/ on its own src/; nothing under either perfbench/ is
changed (run.py itself writes its full result into the tree's
.perfbench/).  OUT.json is rewritten after every pair with the layout of
the committed BENCH_*.json files:

    what      what was compared and how
    machine   cpu count, the Python, numpy and scipy versions, numpy's
              BLAS build, the OpenBLAS kernel that runs, OPENBLAS_CORETYPE
              and whether /proc/cpuinfo lists the avx2, fma and avx512f
              flags
    trees     per side, the number of src/g2flow/*.py files and the
              sha256 of their sha256sum listing, so the file names the
              code it measured; `LC_ALL=C sha256sum src/g2flow/*.py |
              sha256sum` in the tree prints the same digest
    commands  the run.py command line
    summary   per workload and metric: both sides' values in seed order,
              medians, quartiles, change_over_parent, how many pairs
              the change won ("better" from CHANGE_TREE/BENCHMARK.json)
              and claim_rule_met: the change won at least 9 of 10 pairs
              (a tie counts for neither side) and its median beats the
              parent's by more than the parent's interquartile distance;
              each end-to-end metric also has within_bound: the change's
              median is not worse than the parent's by more than the
              metric's relative bound in BENCHMARK.json; failed and
              attempted task counts
    runs      one record per run.py call: side, workload, seed, seconds,
              trace (always 0), first_in_pair, attempted, failed, metrics
              and the per-task seconds
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'1-10' or '1,3,5' as a list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run.py call on tree: (summary line, full
    result)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d): %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    full = [ln.split(": ", 1)[1] for ln in lines
            if ln.startswith("full result: ")][0]
    with open(os.path.join(tree, full)) as fh:
        detail = json.load(fh)
    return json.loads(lines[-1]), detail


def _benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions(tree):
    """metric name -> 'lower' or 'higher' from the tree's BENCHMARK.json."""
    bench = _benchmark(tree)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def bounds(tree):
    """end-to-end metric name -> its relative bound in BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _benchmark(tree)["end_to_end"]}


def summarize(runs, better, bound=None):
    """The summary block of OUT.json from the run records; bound maps an
    end-to-end metric to its relative bound."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        # runs are appended pair by pair in seed order
        sides = {side: [r for r in runs if r["workload"] == workload
                        and r["side"] == side]
                 for side in ("parent", "change")}
        block = {}
        for name in sides["parent"][0]["metrics"]:
            entry = {}
            for side, recs in sides.items():
                vals = [round(r["metrics"][name], 4) for r in recs]
                entry[side] = vals
                entry[side + "_median"] = round(statistics.median(vals), 4)
                if len(vals) > 1:
                    entry[side + "_quartiles"] = [
                        round(q, 4) for q in statistics.quantiles(
                            vals, n=4, method="inclusive")[::2]]
            if entry["parent_median"]:
                entry["change_over_parent"] = round(
                    entry["change_median"] / entry["parent_median"], 4)
            if name in better:
                sign = 1 if better[name] == "lower" else -1
                won = sum(1 for p, c in zip(entry["parent"], entry["change"])
                          if sign * (c - p) < 0)
                entry["pairs_change_better"] = "%d of %d" % (
                    won, len(entry["parent"]))
                lo, hi = entry.get("parent_quartiles", (0.0, 0.0))
                gain = sign * (entry["parent_median"] - entry["change_median"])
                entry["claim_rule_met"] = (10 * won >= 9 * len(entry["parent"])
                                           and gain > hi - lo)
                if name in (bound or {}):
                    entry["within_bound"] = -gain <= (
                        bound[name] * abs(entry["parent_median"]))
            block[name] = entry
        for count in ("failed", "attempted"):
            block[count] = {side: sum(r[count] for r in recs)
                            for side, recs in sides.items()}
        out[workload] = block
    return out


def cpu_flags():
    """Whether /proc/cpuinfo lists the avx2, fma and avx512f flags (None
    where it cannot be read)."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = set()
            for line in fh:
                if line.startswith("flags"):
                    flags.update(line.split(":", 1)[1].split())
    except OSError:
        return None
    return {name: name in flags for name in ("avx2", "fma", "avx512f")}


def openblas_core():
    """The kernel the OpenBLAS bundled with numpy selected when it was
    loaded (it reads OPENBLAS_CORETYPE then), e.g. "SkylakeX"; None where
    numpy bundles no such library.  numpy's build string names the
    DYNAMIC_ARCH build, not this kernel."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def machine():
    """The host facts that decide timings and, through the BLAS kernel,
    the last bits of the stepper's stage sums."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in (
                "name", "version", "openblas configuration")},
            "openblas_core": openblas_core(),
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
            "cpu_flags": cpu_flags(),
            "note": "compare within this file only"}


def tree_digest(tree):
    """{"files", "sha256"} of tree's src/g2flow/*.py: the sha256 of the
    sha256sum listing of the files in sorted order."""
    names = sorted(os.path.basename(p) for p in glob.glob(
        os.path.join(tree, "src", "g2flow", "*.py")))
    listing = ""
    for name in names:
        with open(os.path.join(tree, "src", "g2flow", name), "rb") as fh:
            listing += "%s  src/g2flow/%s\n" % (
                hashlib.sha256(fh.read()).hexdigest(), name)
    return {"files": len(names),
            "sha256": hashlib.sha256(listing.encode()).hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("out")
    ap.add_argument("--workloads", default="bs-solve,bs-verify,linear-scan")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error("no perfbench/run.py under %s" % tree)
    better, bound = directions(trees["change"]), bounds(trees["change"])
    doc = {"what": "perfbench/run.py results of PARENT_TREE and "
                   "CHANGE_TREE in alternating same-seed pairs (parent "
                   "first on odd seeds) in one session, made with "
                   "tools/bench_pairs.py",
           "machine": machine(),
           "trees": {side: tree_digest(tree) for side, tree in trees.items()},
           "commands": ["python3 perfbench/run.py --workload W --seed S "
                        "--seconds %g --trace 0" % args.seconds],
           "summary": {}, "runs": []}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                line, detail = run_once(trees[side], workload, seed,
                                        args.seconds)
                doc["runs"].append({
                    "side": side, "workload": workload, "seed": seed,
                    "seconds": args.seconds, "trace": 0,
                    "first_in_pair": order[0],
                    "attempted": line["attempted"], "failed": line["failed"],
                    "metrics": {k: v["value"]
                                for k, v in line["metrics"].items()},
                    "task_seconds": [
                        None if t["seconds"] is None else round(t["seconds"], 4)
                        for t in detail["tasks"]]})
                print("%s seed %d %s: %s" % (
                    workload, seed, side, {
                        k: round(v["value"], 4)
                        for k, v in line["metrics"].items()
                        if k in ("setup_s", "task_p50_s", "tasks_per_s",
                                 "peak_rss_mib")}), flush=True)
            doc["summary"] = summarize(doc["runs"], better, bound)
            with open(args.out, "w", newline="\n") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
