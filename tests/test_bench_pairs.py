import importlib.util
import os

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
