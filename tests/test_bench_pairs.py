import importlib.util
import json
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(side, seed, p50, rate):
    return {"side": side, "workload": "w", "seed": seed, "attempted": 3,
            "failed": 0, "metrics": {"task_p50_s": p50, "tasks_per_s": rate}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3-6") == [3, 4, 5, 6]
    assert bench_pairs.parse_seeds("1,4,9") == [1, 4, 9]


def test_summary_counts_wins_by_direction():
    runs = []
    for seed, (p, c) in enumerate([(1.0, 0.5), (2.0, 2.5), (3.0, 1.0),
                                   (4.0, 4.0), (5.0, 2.0)], start=1):
        runs += [_run("parent", seed, p, 1 / p), _run("change", seed, c, 1 / c)]
    better = bench_pairs.directions(os.path.join(os.path.dirname(_PATH),
                                                 os.pardir))
    got = bench_pairs.summarize(runs, better)["w"]
    assert got["task_p50_s"]["parent"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert got["task_p50_s"]["parent_median"] == 3.0
    assert got["task_p50_s"]["parent_quartiles"] == [2.0, 4.0]
    assert got["task_p50_s"]["change_over_parent"] == 0.6667
    # a tie counts for neither side; tasks_per_s is better when higher
    assert got["task_p50_s"]["pairs_change_better"] == "3 of 5"
    assert got["tasks_per_s"]["pairs_change_better"] == "3 of 5"
    assert got["attempted"] == {"parent": 15, "change": 15}


def test_claim_rule_and_bounds():
    # task_p50_s: a gain that wins 10 of 10 pairs by more than the
    # parent's spread; tasks_per_s: a change inside the spread;
    # peak_rss_mib: 20% worse, past its 0.1 bound
    runs = []
    for seed in range(1, 11):
        p50 = 0.6 + 0.01 * (seed % 5)
        rate = 2.0 + 0.1 * (seed % 3)
        for side, scale in (("parent", 1.0), ("change", 0.8)):
            runs.append({"side": side, "workload": "w", "seed": seed,
                         "attempted": 3, "failed": 0, "metrics": {
                             "task_p50_s": p50 * scale,
                             "tasks_per_s": rate + (
                                 0.01 if seed % 2 == (side == "change")
                                 else -0.01),
                             "peak_rss_mib": 40.0 / scale ** 0.82}})
    tree = os.path.join(os.path.dirname(_PATH), os.pardir)
    got = bench_pairs.summarize(runs, bench_pairs.directions(tree),
                                bench_pairs.bounds(tree))["w"]
    assert got["task_p50_s"]["pairs_change_better"] == "10 of 10"
    assert got["task_p50_s"]["claim_rule_met"] is True
    assert got["task_p50_s"]["within_bound"] is True
    assert got["tasks_per_s"]["pairs_change_better"] == "5 of 10"
    assert got["tasks_per_s"]["claim_rule_met"] is False
    assert got["tasks_per_s"]["within_bound"] is True
    assert got["peak_rss_mib"]["change_over_parent"] > 1.1
    assert got["peak_rss_mib"]["claim_rule_met"] is False
    assert got["peak_rss_mib"]["within_bound"] is False
    # 9 of 10 wins inside the parent's interquartile distance: no claim
    for run in runs:
        if run["side"] == "change":
            run["metrics"]["task_p50_s"] = 0.595 + 0.01 * (run["seed"] % 5)
    runs[-1]["metrics"]["task_p50_s"] = 0.7
    got = bench_pairs.summarize(runs, bench_pairs.directions(tree),
                                bench_pairs.bounds(tree))["w"]
    assert got["task_p50_s"]["pairs_change_better"] == "9 of 10"
    assert got["task_p50_s"]["claim_rule_met"] is False


def test_machine_records_blas_and_cpu_flags(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    got = bench_pairs.machine()
    assert got["OPENBLAS_CORETYPE"] == "Haswell"
    assert set(got["blas"]) == {"name", "version", "openblas configuration"}
    assert got["cpu_flags"] is None or (
        sorted(got["cpu_flags"]) == ["avx2", "avx512f", "fma"]
        and all(type(v) is bool for v in got["cpu_flags"].values()))


def test_machine_records_cpus_and_affinity(monkeypatch):
    # the scan's worker count follows the CPUs, so both are recorded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    got = bench_pairs.machine()
    assert got["cpus"] == os.cpu_count()
    assert got["affinity"] == 1


def test_machine_records_the_openblas_kernel_that_runs():
    # OpenBLAS picks its kernel when it is loaded, so the setting only
    # shows in a fresh process; numpy's build string names the
    # DYNAMIC_ARCH build whatever kernel runs
    if bench_pairs.openblas_core() is None:
        pytest.skip("numpy bundles no OpenBLAS that names its kernel")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import bench_pairs; print(json.dumps(bench_pairs.machine()))")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    out = subprocess.run([sys.executable, "-c", code,
                          os.path.dirname(_PATH)], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert got["openblas_core"] == "Haswell"
    assert got["OPENBLAS_CORETYPE"] == "Haswell"


def test_tree_digest_names_the_src_files(tmp_path):
    import hashlib
    pkg = tmp_path / "src" / "g2flow"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_bytes(b"x = 2\n")
    (pkg / "_a.py").write_bytes(b"x = 1\n")
    (pkg / "notes.txt").write_bytes(b"not code\n")
    listing = "".join("%s  src/g2flow/%s\n" % (
        hashlib.sha256(data).hexdigest(), name)
        for name, data in (("_a.py", b"x = 1\n"), ("b.py", b"x = 2\n")))
    got = bench_pairs.tree_digest(str(tmp_path))
    assert got == {"files": 2, "sha256": hashlib.sha256(
        listing.encode()).hexdigest()}
    (pkg / "b.py").write_bytes(b"x = 3\n")
    assert bench_pairs.tree_digest(str(tmp_path))["sha256"] != got["sha256"]
