"""Tests of the benchmark itself.

    python3 -m pytest perfbench/check_bench.py

The file name keeps these out of the repository's default test run: the
smoke test starts every workload, which takes about a minute.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_same_thread_children():
    # a [0, 10] holds b [1, 3] and b [4, 7]; the second b holds c [5, 6]
    tr = tracing.Tracer(clock=_fake_clock([0, 1, 3, 4, 5, 6, 7, 10]))
    a = tr.enter("a")
    tr.leave(tr.enter("b"))
    b = tr.enter("b")
    tr.leave(tr.enter("c"))
    tr.leave(b)
    tr.leave(a)
    assert tr.layers() == {"a": (1, 10, 5), "b": (2, 5, 4), "c": (1, 1, 1)}
    spans = {(s["name"], s["start"]): s for s in tr.spans()}
    assert spans[("c", 5)]["parent"] == spans[("b", 4)]["id"]
    assert spans[("b", 1)]["parent"] == spans[("a", 0)]["id"]
    assert spans[("a", 0)]["parent"] is None


def test_span_on_another_thread_keeps_its_parent_but_not_its_time():
    tr = tracing.Tracer(clock=_fake_clock([0, 2, 8, 10]))
    a = tr.enter("a")
    parent = tr.current()
    worker = threading.Thread(
        target=lambda: tr.leave(tr.enter("w", parent=parent)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tr.leave(a)
    assert tr.layers() == {"a": (1, 10, 10), "w": (1, 6, 6)}
    w = [s for s in tr.spans() if s["name"] == "w"][0]
    assert w["parent"] == parent
    assert w["thread"] != threading.get_ident()


def test_hot_spans_are_aggregated_only_and_disabled_wrappers_pass_through():
    tr = tracing.Tracer()
    profile = tr.wrap(lambda t: 2 * t, "structures.profile")
    assert [profile(t) for t in range(3)] == [0, 2, 4]
    assert tr.layers()["structures.profile"][0] == 3
    assert tr.spans() == []
    tr.enabled = False
    assert profile(5) == 10
    assert tr.layers()["structures.profile"][0] == 3


def _inputs(name, seed, n=40):
    return list(itertools.islice(workload.task_inputs(name, seed), n))


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    assert first != _inputs(name, 8)
    assert len({json.dumps(x) for x in first}) == len(first)


def test_input_ranges():
    for inp in _inputs("bs-solve", 3):
        assert 40 <= inp["r_max"] <= 80 and 0.5 <= inp["t0"] <= 2
    for inp in _inputs("bs-verify", 3):
        assert 40 <= inp["r_max"] <= 80
    for inp in _inputs("linear-scan", 3):
        lim = 1.5 / inp["b0"]
        assert 0.5 <= inp["b0"] <= 2
        assert len(inp["y0"]) == workload.SCAN_POINTS
        assert all(-lim <= y <= lim for y in inp["y0"])
        # both members that reach t_end and members that blow up
        outside = sum(abs(y) > 1.0 / inp["b0"] for y in inp["y0"])
        assert 4 <= outside <= 7


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |   numpy",
        "import time:         5 |          5 |         scipy._lib",
        "import time:        20 |         25 |       scipy",
        "import time:        30 |         55 |     scipy.integrate",
        "import time:         7 |          7 |       scipy.interpolate",
        "import time:         3 |         10 |     g2flow.structures",
        "import time:         1 |         76 |   g2flow.instantons",
        "import time:         4 |         90 | g2flow",
    ])
    assert run.parse_importtime(text) == pytest.approx((90e-6, 62e-6))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
        + list(args), cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith("%s " % m["name"])
                   and line.endswith(" " + m["unit"]) for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in BENCH["end_to_end"])


def test_fails_without_the_package_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "--workload", "bs-verify", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
