import importlib.util
import os

import numpy
import pytest
from hypothesis import settings

from g2flow import make_bryant_salamon, make_linear_example

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bs():
    return make_bryant_salamon()


@pytest.fixture(scope="session")
def lin():
    return make_linear_example(1.0)


def _openblas_core():
    """openblas_core() of tools/bench_pairs.py: the OpenBLAS kernel that
    runs, or None."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.openblas_core()


@pytest.fixture
def blas_note():
    """A function naming the BLAS of this run next to the one the golden
    files were captured on, for the message of a golden bit mismatch:
    the stepper's stage sums are BLAS dgemv calls, so their last bits
    depend on the kernel."""
    def note():
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return ("goldens captured on OpenBLAS 0.3.31 running its SkylakeX "
                "kernel; this run's OpenBLAS kernel: %s, BLAS build: %s; "
                "OPENBLAS_CORETYPE=%s" % (
                    _openblas_core(),
                    blas.get("openblas configuration"),
                    os.environ.get("OPENBLAS_CORETYPE", "unset")))
    return note


ACCEPTANCE_TITLES = {
    "01": "curvature routes agree exactly on rational data",
    "02": "flat connections have exactly zero curvature",
    "03": "one-parameter family matches its closed form",
    "04": "zero-limit member matches its closed form",
    "05": "boundary linearization spectra",
    "06": "profile ODE residuals below 1e-8 on both structures",
    "07": "proven-region trajectories stay in the unit square to t=50",
    "08": "series boundary coefficients vs numerical differentiation",
    "09": "rescaled concentrating profiles approach the model bubble",
    "10": "members approach the zero-limit member at rate 1/x1",
    "11": "linear example closed forms",
    "12": "abelian decay exponents 2 and -4",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_" not in nodeid:
                continue
            num = nodeid.split("::test_")[1][:2]
            if num in ACCEPTANCE_TITLES:
                seen[num] = status
    if not seen:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_TITLES):
        if num not in seen:
            continue
        verdict = "PASS" if seen[num] == "passed" else "FAIL"
        tw.write_line("%s %s %s" % (verdict, num, ACCEPTANCE_TITLES[num]))
