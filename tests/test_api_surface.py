"""Every settable value of the public API, listed once.

A settable value is a defaulted parameter of a public module-level
function, or of a public method of a module-level class, in any g2flow
module.  A new keyword default therefore shows up in review as a one-line
edit to SETTABLE below.
"""

import importlib
import inspect
import pkgutil

import g2flow

SETTABLE = {
    ("cli.main", "argv"),
    ("instantons.abelian_connection", "aminus_t0"),
    ("instantons.flat_pid", "sign"),
    ("instantons.p1_ivp", "f1"),
    ("instantons.pid_ivp", "u2_0"),
    ("instantons.pid_ivp", "u3_0"),
    ("instantons.theta_y0", "eps"),
    ("instantons.theta_y0", "order"),
    ("instantons.theta_y0", "t_end"),
    ("instantons.theta_y0", "tol"),
    ("singular_ivp.series_bootstrap", "check"),
    ("singular_ivp.series_bootstrap", "order"),
    ("singular_ivp.solve_singular", "eps"),
    ("singular_ivp.solve_singular", "order"),
    ("singular_ivp.solve_singular", "t_end"),
    ("singular_ivp.solve_singular", "tol"),
    ("structures.make_bryant_salamon", "r_max"),
    ("structures.make_linear_example", "t_max"),
    ("structures.make_su23_structure", "t_max"),
    ("structures.save_structure", "n_samples"),
    ("structures.structure_to_json", "n_samples"),
    ("verify.default_battery", "residual_threshold"),
    ("verify.oracle_report", "n"),
    ("verify.oracle_report", "seed"),
    ("verify.residual_report", "threshold"),
}


def _public_callables(module):
    short = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield "%s.%s" % (short, name), obj
        elif inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield "%s.%s.%s" % (short, name, mname), member


def test_settable_values_are_listed():
    found = set()
    for info in pkgutil.iter_modules(g2flow.__path__):
        module = importlib.import_module("g2flow." + info.name)
        for qualname, fn in _public_callables(module):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add((qualname, param.name))
    assert sorted(found - SETTABLE) == []
    assert sorted(SETTABLE - found) == []
