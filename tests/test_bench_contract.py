"""The traced benchmark (perfbench/tracing.py) patches layer entry points
by module attribute; a refactor that removes one breaks it silently."""

import contextlib
import pathlib

from g2flow import cli, instantons, structures


def test_perfbench_tracer_installs_and_restores(monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing

    before = (instantons.malgrange_check, instantons.series_bootstrap,
              cli.ThreadPoolExecutor, structures.CoefficientFns)
    with contextlib.ExitStack() as stack:
        tracing.install(tracing.Tracer(), stack)
        assert instantons.malgrange_check is not before[0]
    assert (instantons.malgrange_check, instantons.series_bootstrap,
            cli.ThreadPoolExecutor, structures.CoefficientFns) == before
