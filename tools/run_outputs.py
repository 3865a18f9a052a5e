"""Run a fixed list of CLI commands and the six demos, keeping every output.

Usage: python3 tools/run_outputs.py OUTDIR

Each command runs in its own directory OUTDIR/<name>, with this tree's
src on PYTHONPATH and G2FLOW_THREADS=2.  Next to the files the command
writes, stdout, stderr and the exit code are kept as stdout.txt,
stderr.txt and exit_code.txt.  Every path a command sees is relative, so
two trees give comparable directories: `diff -r OUT_A OUT_B` is the
byte-identity check of a change that should move no number.
"""

import json
import os
import pathlib
import subprocess
import sys

TREE = pathlib.Path(__file__).resolve().parent.parent

CONFIGS = {
    "su23.json": {"structure": {"kind": "su23"}},
    "linear.json": {"structure": {"kind": "linear"}},
}

CLI = [
    ("structure-r-max-5", ["structure", "--r-max", "5"]),
    ("structure-su23", ["structure", "--kind", "su23"]),
    ("structure-linear", ["structure", "--kind", "linear"]),
    ("structure-file", ["structure", "--kind", "file", "--path",
                        "../structure-r-max-5/structure.json"]),
    ("solve-theta-x1", ["solve", "--family", "theta-x1"]),
    ("solve-theta-zero", ["solve", "--family", "theta-zero"]),
    ("solve-abelian", ["solve", "--family", "abelian"]),
    ("solve-flat-pid", ["solve", "--family", "flat-pid"]),
    ("solve-theta-y0", ["solve", "--family", "theta-y0",
                        "--y0", "0.8660254037844386"]),
    ("solve-theta-y0-blowup", ["solve", "--family", "theta-y0",
                               "--y0", "2.7712812921102037"]),
    # one q step jumps the whole window past |z| = 1e8: the blow-up time
    # is the threshold root on that step
    ("solve-theta-y0-pole-step", ["solve", "--family", "theta-y0",
                                  "--y0", "3.02"]),
    ("solve-su23-theta-x1", ["solve", "--config", "../su23.json",
                             "--family", "theta-x1"]),
    ("solve-su23-theta-y0", ["solve", "--config", "../su23.json",
                             "--family", "theta-y0", "--y0", "0.5"]),
    ("solve-linear-theta-x1", ["solve", "--config", "../linear.json",
                               "--family", "theta-x1"]),
    ("solve-linear-theta-zero", ["solve", "--config", "../linear.json",
                                 "--family", "theta-zero"]),
    ("scan-linear-theta-y0", ["scan", "--config", "../linear.json",
                              "--family", "theta-y0", "--lo", "-1.7",
                              "--hi", "1.7", "--grid", "11"]),
    ("scan-theta-x1", ["scan", "--family", "theta-x1",
                       "--values", "0.5,1,2"]),
    ("scan-abelian", ["scan", "--family", "abelian", "--values", "0.5,1.5"]),
    ("scan-theta-y0", ["scan", "--family", "theta-y0",
                       "--values", "0.3,0.9,2.5"]),
    ("scan-flat-pid", ["scan", "--family", "flat-pid", "--values", "1,-1"]),
    ("verify", ["verify"]),
    ("verify-linear", ["verify", "--config", "../linear.json"]),
    # a residual bound no solve meets: the exit-1 path
    ("verify-residual", ["verify", "--config", "../linear.json",
                         "--residual", "1e-30"]),
]


def run(outdir, name, argv, env):
    """Run argv in outdir/name and keep its stdout, stderr and exit code."""
    cwd = outdir / name
    cwd.mkdir()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    (cwd / "stdout.txt").write_bytes(proc.stdout)
    (cwd / "stderr.txt").write_bytes(proc.stderr)
    (cwd / "exit_code.txt").write_text("%d\n" % proc.returncode)
    print("%-26s exit %d" % (name, proc.returncode))


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: run_outputs.py OUTDIR")
    outdir = pathlib.Path(argv[0]).resolve()
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(TREE / "src"), G2FLOW_THREADS="2")
    for fname, doc in CONFIGS.items():
        (outdir / fname).write_text(json.dumps(doc, sort_keys=True) + "\n")
    for name, args in CLI:
        run(outdir, name, [sys.executable, "-m", "g2flow.cli"] + args, env)
    for demo in sorted((TREE / "demos").glob("*.py")):
        run(outdir, "demo-" + demo.stem, [sys.executable, str(demo)], env)


if __name__ == "__main__":
    main(sys.argv[1:])
