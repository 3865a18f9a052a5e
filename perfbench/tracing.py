"""Span tracer and layer wrappers for the traced benchmark run.

Nothing under src/ is changed: each layer's public entry points are
replaced, for the duration of one traced task, at the place where the
caller looks them up (module attributes, the evaluator tuples of a
StructureData rebuilt through its public constructor, SingularIVP fields,
the coefficient tables of a CoefficientFns).

A span has a name, start, end, parent span, task id and thread.  Every
span updates per-layer call counts, inclusive time and self time (its
duration minus the duration of its children on the same thread).  Spans
of the hot leaf layers (profile, coefficient and vector-field evaluations,
up to a million per task) are aggregated only; all others are also kept
in memory and written as JSON when the benchmark ends.
"""

import contextlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from unittest import mock

# span names that are aggregated but not kept one by one
HOT = frozenset({"structures.profile", "structures.coeff",
                 "singular_ivp.field"})


class _ThreadState:
    __slots__ = ("stack", "calls", "total", "self_time", "spans", "counts",
                 "ident")

    def __init__(self):
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self.ident = threading.get_ident()


class Tracer:
    """Per-thread span stacks with self-time accounting.

    While `enabled` is false the wrappers call straight through, so
    objects that outlive the traced region (structures, solutions) stop
    counting when it ends.
    """

    def __init__(self, task_id=0, clock=time.perf_counter):
        self.task_id = task_id
        self.clock = clock
        self.enabled = True
        self.pool = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._state().stack
        return stack[-1][4] if stack else None

    def enter(self, name, parent=None):
        st = self._state()
        if parent is None and st.stack:
            parent = st.stack[-1][4]
        frame = [name, self.clock(), 0.0, parent, next(self._ids)]
        st.stack.append(frame)
        return frame

    def leave(self, frame):
        end = self.clock()
        st = self._state()
        st.stack.pop()
        name, start, child, parent, sid = frame
        dur = end - start
        st.calls[name] += 1
        st.total[name] += dur
        st.self_time[name] += dur - child
        if st.stack:
            st.stack[-1][2] += dur
        if name not in HOT:
            st.spans.append((name, start, end, parent, sid, self.task_id,
                             st.ident))
        return dur

    @contextlib.contextmanager
    def span(self, name, parent=None):
        frame = self.enter(name, parent)
        try:
            yield frame
        finally:
            self.leave(frame)

    def count(self, name, n=1):
        self._state().counts[name] += n

    def wrap(self, fn, name):
        """fn inside a span called name (straight call when disabled)."""
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def counting(self, fn, name):
        """fn with a call counter only (no span, no clock reads)."""
        def counted(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return fn(*args, **kwargs)

        return counted

    def layers(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        calls, total, self_time = Counter(), defaultdict(float), \
            defaultdict(float)
        for st in self._states:
            calls.update(st.calls)
            for k, v in st.total.items():
                total[k] += v
            for k, v in st.self_time.items():
                self_time[k] += v
        return {k: (calls[k], total[k], self_time[k]) for k in calls}

    def counts(self):
        out = Counter()
        for st in self._states:
            out.update(st.counts)
        return out

    def spans(self):
        out = []
        for st in self._states:
            out.extend({"name": n, "start": s, "end": e, "parent": p,
                        "id": i, "task": task, "thread": th}
                       for n, s, e, p, i, task, th in st.spans)
        out.sort(key=lambda d: d["start"])
        return out


# ---------------------------------------------------------------------------
# Layer wrappers


_COEFF_TABLES = ("F", "G", "phi", "gamma", "phi_hat", "dphi", "gamma_hat",
                 "a_plus_rate", "a_minus_rate")


def _traced_structure(tr, s, g2flow):
    """The same structure rebuilt with span-wrapped profile evaluators."""
    memo = {}

    def w(fn):
        if id(fn) not in memo:
            memo[id(fn)] = tr.wrap(fn, "structures.profile")
        return memo[id(fn)]

    return g2flow.StructureData(
        s.label, [w(f) for f in s.A], [w(f) for f in s.B],
        [w(f) for f in s.dA], [w(f) for f in s.dB], s.A_series, s.B_series,
        b0=s.b0, b2=s.b2, t_max=s.t_max, symmetric=s.symmetric)


def _traced_ivp(tr, ivp):
    ivp.M = tr.wrap(ivp.M, "singular_ivp.field")
    ivp.M_minus1 = tr.wrap(ivp.M_minus1, "singular_ivp.field")
    return ivp


def _counted_solution(tr, sol):
    if sol.f6 is not None:
        sol.f6 = tr.counting(sol.f6, "instantons.eval")
    return sol


def install(tr, stack):
    """Patch every layer entry point for tracer tr; stack (an ExitStack)
    undoes the patches when it closes."""
    import g2flow
    from g2flow import cli, instantons, singular_ivp, structures, verify

    def patch(owner, attr, new):
        stack.enter_context(mock.patch.object(owner, attr, new))

    def after(fn, name, post):
        """fn in a span, its result passed through post()."""
        inner = tr.wrap(fn, name)

        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            return post(out) if tr.enabled else out

        return call

    # structures: builders hand back an evaluator-wrapped rebuild
    bryant_salamon = after(structures.make_bryant_salamon,
                           "structures.build",
                           lambda s: _traced_structure(tr, s, g2flow))
    for owner in (g2flow, cli):
        patch(owner, "make_bryant_salamon", bryant_salamon)
    patch(cli, "make_linear_example",
          after(structures.make_linear_example, "structures.build",
                lambda s: _traced_structure(tr, s, g2flow)))

    def traced_tables(cf):
        for attr in _COEFF_TABLES:
            setattr(cf, attr, tuple(tr.wrap(f, "structures.coeff")
                                    for f in getattr(cf, attr)))
        if cf.scalar_F is not None:
            cf.scalar_F = tr.wrap(cf.scalar_F, "structures.coeff")
        return cf

    patch(structures, "CoefficientFns",
          after(structures.CoefficientFns, "structures.coeff_tables",
                traced_tables))

    # singular_ivp: gate, bootstrap, continuation (+ nfev/steps), fields
    def count_steps(traj):
        tr.count("singular_ivp.nfev", int(traj.meta.get("nfev") or 0))
        tr.count("singular_ivp.steps", max(traj.t.size - 1, 0))
        return traj

    gate = tr.wrap(singular_ivp.malgrange_check, "singular_ivp.gate")
    bootstrap = tr.wrap(singular_ivp.series_bootstrap,
                        "singular_ivp.bootstrap")
    continuation = after(singular_ivp.integrate, "singular_ivp.continuation",
                         count_steps)
    for owner in (singular_ivp, instantons, verify):
        patch(owner, "malgrange_check", gate)
    for owner in (singular_ivp, instantons):
        patch(owner, "series_bootstrap", bootstrap)
        patch(owner, "integrate", continuation)
    for owner, names in ((g2flow, ("pid_ivp", "p1_ivp")),
                         (verify, ("pid_ivp", "p1_ivp")),
                         (instantons, ("su23_pid_ivp",))):
        for name in names:
            patch(owner, name,
                  after(getattr(instantons, name), "instantons.ivp",
                        lambda ivp: _traced_ivp(tr, ivp)))
    patch(instantons, "su23_rhs_pm",
          after(instantons.su23_rhs_pm, "instantons.ivp",
                lambda rhs: tr.wrap(rhs, "singular_ivp.field")))

    # instantons: family builders (their f6 counts evaluations), residual
    for name in ("theta_x1", "theta_zero", "theta_y0", "abelian_connection",
                 "flat_pid"):
        span = "instantons." + {"abelian_connection": "abelian"}.get(
            name, name)
        new = after(getattr(instantons, name), span,
                    lambda sol: _counted_solution(tr, sol))
        for owner in (g2flow, cli, verify):
            if hasattr(owner, name):
                patch(owner, name, new)
    residual = tr.wrap(instantons.residual_pointwise, "instantons.residual")
    for owner in (cli, verify):
        patch(owner, "residual_pointwise", residual)

    # verify: the report battery, as default_battery looks it up
    for name in ("oracle", "spectrum", "residual", "parity", "invariance",
                 "bubbling", "convergence", "curvature_boundary"):
        fn = name + "_report"
        patch(verify, fn, tr.wrap(getattr(verify, fn), "verify." + name))

    # algebra: exact curvature routes and the bracket constraint
    for name in ("curvature_direct", "curvature_lemma2"):
        patch(verify, name, tr.wrap(getattr(verify, name),
                                    "algebra.curvature"))
    patch(verify, "constraint_value",
          tr.wrap(verify.constraint_value, "algebra.constraint"))

    # cli: report writers and the scan pool
    for name in ("report_to_json", "reports_to_csv"):
        patch(cli, name, tr.wrap(getattr(cli, name), "cli.write"))
    patch(cli, "ThreadPoolExecutor", _traced_pool(tr, cli.ThreadPoolExecutor))


def _traced_pool(tr, base):
    """ThreadPoolExecutor that times the scan: wall time from entry to
    exit, and each member's busy time on its worker thread."""

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tr.pool["workers"] = max_workers

        def __enter__(self):
            self._bench_start = tr.clock()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                end = tr.clock()
                tr.pool["wall_s"] = end - self._bench_start
                tr.pool["exit"] = end

        def map(self, fn, *iterables, **kwargs):
            parent = tr.current()

            def member(*args):
                with tr.span("cli.scan_member", parent=parent):
                    return fn(*args)

            return super().map(member, *iterables, **kwargs)

    return TracedPool
