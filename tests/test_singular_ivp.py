import math
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from g2flow import singular_ivp
from g2flow.singular_ivp import (EventSpec, IntegrationError, SingularIVP,
                                 PreconditionError, _brentq, _dop853,
                                 integrate, integrate_blowup, malgrange_check,
                                 series_bootstrap, solve_singular)


def scalar_ivp(lam, forcing=1.0, y0=0.0):
    # t y' = lam*y + forcing*t, solution y = forcing*t/(1-lam) for y0=0
    return SingularIVP(
        M_minus1=lambda y: [lam * y[0]],
        M=lambda t, y: [forcing * t / t if not isinstance(t, float)
                        else forcing],
        y0=[y0],
        label="scalar(lam=%g)" % lam,
        jacobian=[[lam]],
    )


def test_gate_passes_for_negative_eigenvalue():
    rep = malgrange_check(scalar_ivp(-2.0))
    assert rep.gate_pass
    assert rep.offending_h is None
    assert rep.residual_at_y0 == 0.0
    assert rep.eigenvalues[0] == pytest.approx(-2.0)


def test_gate_rejects_positive_integer_eigenvalue():
    rep = malgrange_check(scalar_ivp(1.0))
    assert not rep.gate_pass
    assert rep.offending_h == 1
    with pytest.raises(PreconditionError):
        series_bootstrap(scalar_ivp(1.0))


def test_gate_allows_noninteger_positive_eigenvalue():
    rep = malgrange_check(scalar_ivp(0.5))
    assert rep.gate_pass


def test_gate_rejects_nonzero_boundary_residual():
    ivp = scalar_ivp(-2.0, y0=0.3)
    rep = malgrange_check(ivp)
    assert not rep.gate_pass
    assert rep.residual_at_y0 == pytest.approx(0.6)


def test_series_bootstrap_linear_solution():
    ser = series_bootstrap(scalar_ivp(-2.0), order=6)[0]
    # y = t/3 solves t y' = -2y + t
    assert ser[0] == 0.0
    assert ser[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
    for k in (2, 3, 4, 5, 6):
        assert abs(ser[k]) < 1e-14


def test_series_bootstrap_nonlinear():
    # t y' = -y + y^2 + t; series y = t/2 + t^2/8 + ...
    ivp = SingularIVP(
        M_minus1=lambda y: [-y[0] + y[0] * y[0]],
        M=lambda t, y: [1.0 if isinstance(t, float) else t / t],
        y0=[0.0],
        jacobian=[[-1.0]],
    )
    ser = series_bootstrap(ivp, order=4)[0]
    assert ser[1] == pytest.approx(0.5, rel=1e-14)
    assert ser[2] == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_solve_singular_matches_closed_form():
    traj = solve_singular(scalar_ivp(-2.0), eps=1e-2, t_end=2.0, order=8,
                          tol=1e-12)
    for t in (1e-3, 5e-3, 0.1, 0.5, 2.0):
        got = traj(t)[0] if t > 1e-2 else traj.meta["interp"](t)[0]
        assert got == pytest.approx(t / 3.0, rel=1e-10, abs=1e-13)
    assert traj.meta["handoff_mismatch"] < 1e-10


def test_solve_singular_validates_window():
    with pytest.raises(ValueError):
        solve_singular(scalar_ivp(-2.0), eps=1.0, t_end=0.5)
    with pytest.raises(ValueError, match="t_span must be finite"):
        solve_singular(scalar_ivp(-2.0), t_end=math.inf)


@pytest.mark.parametrize("span", [(0.0, math.nan), (math.nan, 1.0),
                                  (0.0, math.inf), (-math.inf, 1.0),
                                  ("0", "1"), (0.0, 10 ** 400)])
def test_integrate_rejects_nonfinite_span(span):
    # an adaptive stepper never reaches an infinite or nan end; a string
    # is no number, and an int past the float range is not finite
    with pytest.raises(ValueError, match="t_span must be finite"):
        integrate(lambda t, y: [-y[0]], span, [1.0], 1e-10, (), "")


@pytest.mark.parametrize("y0", [["0"], [True], [10 ** 400], [[1.0]]])
def test_integrate_takes_a_y0_of_finite_numbers(y0):
    # before, "0" and true were read as 0 and 1, 10**400 raised
    # OverflowError, and a nested list got the span-order message
    with pytest.raises(ValueError, match="^y0 must be"):
        integrate(lambda t, y: [-y[0]], (0.0, 1.0), y0, 1e-10, (), "")


# an int is finite as a float below 2**1024 - 2**970, the midpoint of the
# largest double and 2**1024, where rounding reaches 2**1024
_ROUNDS_TO_INF = 2 ** 1024 - 2 ** 970
_VALUES = st.one_of(
    st.integers(), st.integers(-2 ** 1100, 2 ** 1100),
    st.sampled_from([_ROUNDS_TO_INF, _ROUNDS_TO_INF - 1, -_ROUNDS_TO_INF,
                     10 ** 400]),
    st.floats(), st.booleans(), st.text(max_size=4), st.none(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))


def _finite_number(v):
    if v is None or isinstance(v, (bool, np.bool_, str)):
        return False
    if isinstance(v, (int, np.integer)):
        return abs(int(v)) < _ROUNDS_TO_INF
    return math.isfinite(v)


@given(_VALUES)
def test_finite_takes_exactly_the_finite_ints_and_floats(value):
    if _finite_number(value):
        assert singular_ivp._finite("x1", value) == float(value)
    else:
        with pytest.raises(ValueError, match="^x1 .*finite"):
            singular_ivp._finite("x1", value)


@given(st.lists(_VALUES, max_size=4))
def test_finites_takes_lists_of_finite_numbers(values):
    n = len(values)
    if all(map(_finite_number, values)):
        want = [float(v) for v in values]
        assert singular_ivp._finites("f1", values, n) == want
        assert singular_ivp._finites("f1", tuple(values)) == want
    else:
        with pytest.raises(ValueError, match="^f1 .*finite"):
            singular_ivp._finites("f1", values, n)
    with pytest.raises(ValueError, match="^f1 .*finite"):
        singular_ivp._finites("f1", values, n + 1)


@pytest.mark.parametrize("tol", [1e-30, math.nan])
def test_integrate_rejects_tol_below_floor(tol):
    # also when a terminal event has already fired at t0, which returns
    # before any step is taken
    prefired = EventSpec("region-exit", lambda t, y: -1.0, terminal=True)
    for events in ([], [prefired]):
        with pytest.raises(ValueError, match="finite-precision floor"):
            integrate(lambda t, y: [1.0], (0.0, 1.0), [0.0], tol, events,
                      "")


def test_blowup_event_terminates():
    traj = integrate_blowup(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0],
                            1e-10, [], "y' = y^2", 1e8)
    # y = 10/(1 - 10 t) reaches 1e8 at t = (1 - 1e-7)/10
    assert traj.events == [("blow-up", pytest.approx(0.1 - 1e-8,
                                                     rel=1e-10))]
    assert type(traj.events[0][1]) is float and traj.t[-1] < 0.1
    assert traj.y[0, -1] == pytest.approx(1e8, rel=1e-7)
    # both phases stepped, and t, y and meta read y in each of them
    assert traj.t.size - 1 == traj.meta["steps"] > 0
    assert traj.meta["nfev"] >= 12 * traj.meta["steps"]
    for t in np.linspace(0.0, 0.099, 9):    # y(t) up to 1e3
        assert traj(t)[0] == pytest.approx(10 / (1 - 10 * t), rel=1e-9)


def test_integrate_blowup_hands_back_below_the_switch():
    # z = exp(10 t - 5 t^2) peaks at e^5 = 148 > 100 at t = 1: the solve
    # climbs in q = 1/z from z = 100 and hands back to z at z = 10
    def exact(t):
        return math.exp(10 * t - 5 * t * t)

    level = EventSpec("level", lambda t, z: 50.0 - z[0])
    traj = integrate_blowup(lambda t, z: [10 * (1 - t) * z[0]], (0.0, 2.0),
                            [1.0], 1e-12, [level], "peak", 1e8)
    assert traj.t[-1] == 2.0 and traj.t.size - 1 == traj.meta["steps"]
    # z = 50 on the way up (in z) and on the way down (in q); the margin
    # already crossed is not recorded again where the q phase starts
    root = math.sqrt(1 - math.log(50.0) / 5)
    assert traj.events == [("level", pytest.approx(1 - root, rel=1e-10)),
                           ("level", pytest.approx(1 + root, rel=1e-10))]
    assert max(traj.y[0]) > 100
    for t, z in zip(traj.t, traj.y[0]):
        assert z == pytest.approx(exact(t), rel=1e-10)
    for t in np.linspace(0.0, 2.0, 201):
        assert traj(t)[0] == pytest.approx(exact(t), rel=1e-10)


def test_integrate_blowup_sign_change_below_threshold_restarts():
    # z = 150 e^t (cos 5t, sin 5t) starts in q; z_1 changes sign at
    # t = pi/10, 3 pi/10, ... with |z| < 1e8, which is no blow-up
    def exact(t):
        return 150 * math.exp(t) * np.array([math.cos(5 * t),
                                             math.sin(5 * t)])

    traj = integrate_blowup(lambda t, z: [z[0] - 5 * z[1], 5 * z[0] + z[1]],
                            (0.0, 2.0), [150.0, 0.0], 1e-12, [], "spiral",
                            1e8)
    assert traj.t[-1] == 2.0 and traj.events == []
    for t in np.linspace(0.0, 2.0, 41):
        np.testing.assert_allclose(traj(t), exact(t), rtol=0,
                                   atol=1e-10 * 150 * math.exp(t))


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 100.0, -1.0])
def test_integrate_blowup_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        integrate_blowup(lambda t, y: [y[0]], (0.0, 1.0), [1.0], 1e-10, [],
                         "", threshold)


@pytest.mark.parametrize("span", [(1.0, 0.0), (1.0, 1.0)])
def test_solves_run_forward_only(span):
    with pytest.raises(ValueError, match="need t0 < t1"):
        integrate(lambda t, y: [y[0]], span, [1.0], 1e-10, (), "")
    with pytest.raises(ValueError, match="need t0 < t1"):
        _dop853(lambda t, y: [y[0]], span, [1.0], 1e-10, 1e-13, (), "")


def test_integrate_blowup_runs_forward_only():
    with pytest.raises(ValueError, match="t0 < t1"):
        integrate_blowup(lambda t, y: [y[0]], (1.0, 0.0), [1.0], 1e-10, [],
                         "", 1e8)


def test_region_exit_event_nonterminal():
    ev = EventSpec("region-exit", lambda t, y: 1.0 - y[0])
    traj = integrate(lambda t, y: [1.0], (0.0, 3.0), [0.0], 1e-10, [ev], "")
    assert traj.event_times("region-exit") == [pytest.approx(1.0, abs=1e-9)]
    assert traj.t[-1] == pytest.approx(3.0)


def test_event_prefire_at_start():
    ev = EventSpec("region-exit", lambda t, y: -1.0, terminal=True)
    traj = integrate(lambda t, y: [1.0], (0.5, 3.0), [0.0], 1e-10, [ev], "")
    assert traj.events == [("region-exit", 0.5)]
    assert traj.t[-1] == 0.5


def test_dop853_terminal_margin_not_positive_at_t0_stops_there():
    # the stepper applies the rule itself: the one sample, no rhs call
    def rhs(t, y):
        raise AssertionError("rhs called")

    for margin in (-1.0, 0.0):
        ev = EventSpec("region-exit", lambda t, y, m=margin: m, terminal=True)
        traj = _dop853(rhs, (0.5, 3.0), [2.0], 1e-10, 1e-13, [ev], "stop")
        assert traj.events == [("region-exit", 0.5)]
        assert traj.t.tolist() == [0.5] and traj.y.tolist() == [[2.0]]
        assert traj.meta["nfev"] == traj.meta["steps"] == 0
        assert traj.meta["interp"] is None


def test_dop853_nonterminal_margin_not_positive_at_t0_records_and_runs():
    ev = EventSpec("below", lambda t, y: -1.0)
    traj = _dop853(lambda t, y: [1.0], (0.5, 3.0), [0.0], 1e-10, 1e-13,
                   [ev], "run on")
    assert traj.events == [("below", 0.5)]
    assert traj.t[-1] == 3.0 and traj.meta["steps"] > 0
    assert traj(3.0)[0] == pytest.approx(2.5, rel=1e-12)


def test_dop853_margin_zero_at_t0_is_recorded_once():
    # the t0 rule records it; the first step's sign test, whose root is
    # t0, recorded it again, and a margin that stays 0 at every step
    ev = EventSpec("zero", lambda t, y: y[0])
    for slope in (1.0, 0.0):
        traj = _dop853(lambda t, y, m=slope: [m], (0, 1), [0.0], 1e-10,
                       1e-13, [ev], "")
        assert traj.events == [("zero", 0.0)]
        assert traj.t[-1] == 1.0 and traj.meta["steps"] > 1


def test_dop853_root_on_a_node_is_recorded_once():
    # a margin that reaches 0 exactly at an interior node, and crosses or
    # touches there: the step that ends at the node records it, the next
    # one, which starts at 0, does not
    def rhs(t, y):
        return [math.cos(t)]

    nodes = _dop853(rhs, (0.0, 3.0), [0.0], 1e-10, 1e-13, [], "").t
    tn = float(nodes[3])
    for margin in (lambda t, y: tn - t, lambda t, y: (t - tn) ** 2):
        traj = _dop853(rhs, (0.0, 3.0), [0.0], 1e-10, 1e-13,
                       [EventSpec("node", margin)], "")
        assert traj.t.tolist() == nodes.tolist()
        assert traj.events == [("node", tn)]


def test_integration_error_carries_partial_trajectory():
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0], 1e-10,
                  (), "")
    traj = exc.value.trajectory
    assert traj is not None
    assert traj.t[-1] < 0.11
    assert traj.t[-1] == pytest.approx(0.1, abs=2e-2)


def test_dense_output_evaluation():
    traj = integrate(lambda t, y: [2.0 * t], (0.0, 1.0), [0.0], 1e-10, (),
                     "")
    assert traj(0.5)[0] == pytest.approx(0.25, rel=1e-9)


def _radial_rate(t, y):
    x = y[0] * y[0]
    return [0.5 * math.sqrt((3.0 + x * (3.0 + x)) / (1.0 + x) ** 3)]


def _coupled_rate(t, y):
    return [math.sin((i + 1) * t) * y[(i + 1) % 6] + math.cos(y[i])
            for i in range(6)]


def _oscillator(t, y):
    return [y[1], -y[0]]


# id: (rhs, t_span, y0, rtol, atol, events, solve_ivp status) of the
# solve_ivp problem; _dop853 runs it forward (see _forward)
DOP853_CASES = {
    "1d-ascending": (_radial_rate, (0.0, 20.0), [0.0], 1e-13, 1e-14, [], 0),
    "6d-descending": (_coupled_rate, (3.0, 0.01), np.zeros(6), 1e-12,
                      1e-15, [], 0),
    "terminal-event": (_radial_rate, (0.0, 20.0), [0.0], 1e-13, 1e-14,
                       [EventSpec("two", lambda t, y: 2.0 - y[0],
                                  terminal=True)], 1),
    "nonterminal-event": (_oscillator, (0.0, 10.0), np.array([1.0, 0.0]),
                          1e-10, 1e-13,
                          [EventSpec("zero", lambda t, y: y[0]),
                           EventSpec("falling", lambda t, y: 0.5 - y[1])],
                          0),
    "step-failure": (lambda t, y: [y[0] * y[0]], (0.0, 2.0), [10.0], 1e-10,
                     1e-13, [], -1),
}


def _forward(rhs, span):
    """(field, span, sign) of the solve of rhs over span forward in time:
    a descending span becomes the reflected field -rhs(-s, y) over the
    negated span, whose every step is the exact negation of the
    descending one, so its nodes and dense output at s are the descending
    solve's at t = sign s, bit for bit."""
    t0, t1 = span
    if t0 < t1:
        return rhs, span, 1.0
    return (lambda s, y: [-v for v in rhs(-s, y)]), (-t0, -t1), -1.0


def _scipy_event(ev):
    def g(t, y):
        return float(ev.fn(t, y))
    g.terminal, g.direction = ev.terminal, 0
    return g


@pytest.mark.parametrize("case", sorted(DOP853_CASES))
def test_dense_reader_bitwise_equal_to_scipy(case):
    # the stepper is a port of solve_ivp(method="DOP853"): the same t, y,
    # nfev, events, status message and dense output, bit for bit; a
    # descending solve_ivp is matched by the forward solve in s = -t
    rhs, span, y0, rtol, atol, events, status = DOP853_CASES[case]
    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True,
                    events=[_scipy_event(ev) for ev in events] or None)
    assert sol.status == status
    field, fspan, sign = _forward(rhs, span)
    if status == -1:
        with pytest.raises(IntegrationError) as exc:
            _dop853(field, fspan, y0, rtol, atol, events, case)
        assert str(exc.value) == "integration of %r failed: %s" % (
            case, sol.message)
        traj = exc.value.trajectory
    else:
        traj = _dop853(field, fspan, y0, rtol, atol, events, case)
    assert (sign * traj.t).tobytes() == sol.t.tobytes()
    assert traj.y.tobytes() == sol.y.tobytes()
    steps, rejected = traj.meta["steps"], traj.meta["rejected"]
    assert steps == sol.t.size - 1 == sol.sol.n_segments
    assert sol.nfev == 2 + 15 * steps + 12 * rejected
    # nfev counts the stepping calls; the 3 interpolation stages of each
    # accepted step run on the first read of its segment
    assert traj.meta["nfev"] + 3 * steps == sol.nfev
    assert traj.events == sorted(
        ((ev.kind, sign * float(te)) for ev, tes
         in zip(events, sol.t_events or ()) for te in tes),
        key=lambda e: e[1])
    assert len(traj.events) == {"terminal-event": 1,
                                "nonterminal-event": 6}.get(case, 0)
    read = traj.meta["interp"]
    lo, hi = sorted((sol.t[0], sol.t[-1]))
    rng = np.random.default_rng(11)
    # every node, both ends and random interior points, each read twice
    ts = [float(t) for t in list(sol.t) + [lo, hi]
          + list(rng.uniform(lo, hi, 300))]
    for t in ts + ts[::-1]:
        got = read(sign * t)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex()
                                          for v in sol.sol(t).tolist()]


@pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, 0.01)])
def test_dense_reader_rejects_t_outside_solved_span(span):
    sol = solve_ivp(_coupled_rate, span, np.zeros(6), method="DOP853",
                    rtol=1e-12, atol=1e-15, dense_output=True)
    field, (lo, hi), sign = _forward(_coupled_rate, span)
    read = _dop853(field, (lo, hi), np.zeros(6), 1e-12, 1e-15, (),
                   "coupled").meta["interp"]
    # the top end has the 1e-9 relative slack of the profile evaluators
    for t in (lo, hi, hi + 0.5e-9 * abs(hi)):
        assert [v.hex() for v in read(t)] == [
            v.hex() for v in sol.sol(sign * t).tolist()]
    for t in (lo - 1e-12, lo - 1.0, hi + 2e-9 * abs(hi), hi + 100.0,
              math.nan):
        with pytest.raises(ValueError, match="outside the solved span"):
            read(t)


def _counted_solve(case):
    """(trajectory, [rhs calls so far]) of a DOP853_CASES solve."""
    rhs, span, y0, rtol, atol, events, _ = DOP853_CASES[case]
    field, span, _ = _forward(rhs, span)
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return field(t, y)

    try:
        return _dop853(counted, span, y0, rtol, atol, events, case), calls
    except IntegrationError as exc:
        return exc.trajectory, calls


@pytest.mark.parametrize("case", ["1d-ascending", "6d-descending",
                                  "step-failure"])
def test_segment_stages_run_on_first_read(case):
    traj, calls = _counted_solve(case)
    steps, rejected = traj.meta["steps"], traj.meta["rejected"]
    assert rejected > 0 or case != "step-failure"
    # an unread solve runs the stepping calls only
    assert calls[0] == traj.meta["nfev"] == 2 + 12 * (steps + rejected)
    read = traj.meta["interp"]
    a, b = traj.t[:2]                   # the first step, from a to b
    read(0.5 * a + 0.5 * b)
    assert calls[0] == traj.meta["nfev"] + 3
    for t in (0.3 * a + 0.7 * b, a, b, 0.9 * a + 0.1 * b):
        read(t)
    assert calls[0] == traj.meta["nfev"] + 3


@pytest.mark.parametrize("case", sorted(DOP853_CASES))
def test_every_segment_runs_its_stages_once(case):
    traj, calls = _counted_solve(case)
    # the event root search builds the segments it reads; the final
    # reader reuses them
    built = calls[0] - traj.meta["nfev"]
    assert built % 3 == 0 and (built > 0) == bool(DOP853_CASES[case][5])
    read = traj.meta["interp"]
    ts = traj.t.tolist()
    for a, b in zip(ts[:-1], ts[1:]):
        for t in (a, 0.5 * a + 0.5 * b, b, 0.25 * a + 0.75 * b):
            read(t)
    assert calls[0] == traj.meta["nfev"] + 3 * traj.meta["steps"]


@pytest.mark.parametrize("case", ["6d-descending", "nonterminal-event"])
def test_fresh_segments_read_thread_safe(case):
    # 4 threads walk the same shuffled t, so they meet on segments that
    # are still being built, of a never-read trajectory; a second solve,
    # read in sequence, is the reference
    rhs, span, y0, rtol, atol, events, _ = DOP853_CASES[case]
    field, span, _ = _forward(rhs, span)
    fresh = _dop853(field, span, y0, rtol, atol, events, case).meta["interp"]
    serial = _dop853(field, span, y0, rtol, atol, events, case).meta["interp"]
    rng = np.random.default_rng(5)
    ts = [float(t) for t in rng.uniform(*span, 400)]
    want = {t: [v.hex() for v in serial(t)] for t in ts}
    orders = [[ts[k] for k in rng.permutation(len(ts))]] * 4
    errors, wrong = [], []
    start = threading.Barrier(len(orders))

    def run(order):
        start.wait()
        try:
            wrong.extend(t for t in order
                         if [v.hex() for v in fresh(t)] != want[t])
        except Exception as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(order,))
                   for order in orders]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []


def test_dop853_tableau_pinned_to_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    pairs = [(singular_ivp._A, ref.A), (singular_ivp._B, ref.B),
             (singular_ivp._C, ref.C), (singular_ivp._E3, ref.E3),
             (singular_ivp._E5, ref.E5), (singular_ivp._D, ref.D)]
    assert sum(np.count_nonzero(mine) for mine, _ in pairs) == 169
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape
        assert [float(v).hex() for v in mine.ravel()] == [
            float(v).hex() for v in theirs.ravel()]


def _bracket_cases(rng):
    """(f, a, b) with f(a), f(b) of opposite signs, either way round."""
    shapes = (lambda r, k: lambda x: math.sinh(k * (x - r)),
              lambda r, k: lambda x: (x - r) * (1.0 + k * (x - r) ** 2),
              lambda r, k: lambda x: math.exp(k * x) - math.exp(k * r),
              lambda r, k: lambda x: math.tanh(k * (x - r)) + 1e-3 * (x - r),
              lambda r, k: lambda x: x ** 3 - r ** 3 + k * (x - r))
    for m in range(20000):
        r = rng.uniform(-5.0, 5.0)
        a, b = r - rng.uniform(1e-6, 4.0), r + rng.uniform(1e-6, 4.0)
        f = shapes[m % len(shapes)](r, rng.uniform(0.1, 5.0))
        yield (f, a, b) if m % 2 else (f, b, a)


def test_brentq_matches_scipy_bitwise():
    from scipy.optimize import brentq
    eps4 = 4 * np.finfo(float).eps
    for f, a, b in _bracket_cases(np.random.default_rng(7)):
        assert _brentq(f, a, b).hex() == brentq(
            f, a, b, xtol=eps4, rtol=eps4).hex()
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x + 1.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.0 else -1.0, 0.0, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rhs, y0, atol", [
    (lambda t, y: [math.nan], [1.0], 1e-13),
    (lambda t, y: [-math.inf], [1.0], 1e-13),
    # f(t0, y0) is finite but y0 / (atol + |y0| rtol) is 0 / 0, so the
    # initial step comes out nan
    (lambda t, y: [1.0], [0.0], 0.0)],
    ids=["nan-field", "inf-field", "nan-step"])
def test_nonfinite_start_raises_instead_of_hanging(rhs, y0, atol):
    # scipy's stepper never returns on these: a nan initial step makes
    # its rejection loop endless
    def expire(*_):
        raise TimeoutError("the solve did not return within 20 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        with pytest.raises(IntegrationError, match="not finite") as exc:
            _dop853(rhs, (0.0, 1.0), y0, 1e-10, atol, (), "nan")
        assert exc.value.trajectory.t.tolist() == [0.0]
        if atol:
            with pytest.raises(IntegrationError, match="not finite"):
                integrate(rhs, (0.0, 1.0), y0, 1e-10, (), "nan")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("jacobian", [[[1.0, 0.0]], [[1.0], [0.0]],
                                      [[-2.0]], [1.0, 2.0],
                                      [[0.0, math.nan], [0.0, 1.0]],
                                      [[-math.inf, 0.0], [0.0, 1.0]]])
def test_singular_ivp_rejects_bad_jacobian(jacobian):
    with pytest.raises(ValueError, match="finite and 2 x 2"):
        SingularIVP(lambda y: y, lambda t, y: y, [0.0, 0.0], jacobian)


def test_rhs_gets_python_floats(monkeypatch):
    # every right-hand-side call of the stepper, its dense reads included,
    # gets t as a float and y as a list of floats, so the profile
    # evaluators, coefficient rows and M do no numpy-scalar arithmetic;
    # the DOP853 solves of structures and instantons are spied on too
    from g2flow import instantons, structures

    dop853, calls = singular_ivp._dop853, []

    def spied(rhs, *args):
        def rhs_spy(t, y):
            calls.append(type(t) is float and type(y) is list
                         and all(type(v) is float for v in y))
            return rhs(t, y)
        return dop853(rhs_spy, *args)

    for module in (singular_ivp, instantons, structures):
        monkeypatch.setattr(module, "_dop853", spied)
    counts = {}

    def count(name):
        counts[name] = len(calls)

    bs = structures.make_bryant_salamon(5.0)
    count("bryant-salamon")
    pid = solve_singular(instantons.pid_ivp(bs, 0.5 / bs.b0), t_end=2.0)
    count("pid")
    a, b = pid.t[3:5]
    before = len(calls)
    pid(0.5 * a + 0.5 * b)               # builds the segment of one step
    assert len(calls) == before + 3
    count("dense read")
    instantons.abelian_connection(bs, 1.0, (1.0, 1.0, 1.0))
    count("abelian")
    instantons._eq_data(bs)
    count("(E, Q)")
    lin = structures.make_linear_example(1.0, 20.0)
    member = instantons.theta_y0(lin, 1.5)
    # the blow-up threshold 1e8 lies past INVERT_AT, so the q phase ran
    assert member.trajectory.event_times("blow-up")
    count("theta_y0 blow-up")
    assert list(counts.values()) == sorted(set(counts.values())), counts
    assert counts["bryant-salamon"] > 0 and all(calls)


def _full_length_bootstrap(ivp, order):
    """series_bootstrap's coefficients as they were computed before each
    order read series truncated at that order: every order on full-length
    series of np.float64 coefficients."""
    from g2flow._series import PowerSeries, ps_var

    J, dim = malgrange_check(ivp).jacobian, len(ivp.y0)
    coeffs = np.zeros((dim, order + 1))
    coeffs[:, 0] = np.asarray(ivp.y0, dtype=float)
    tps = ps_var(order)
    for k in range(1, order + 1):
        y_ps = [PowerSeries(list(coeffs[i])) for i in range(dim)]
        m1, mm = ivp.M_minus1(y_ps), ivp.M(tps, y_ps)
        rhs = np.array([singular_ivp._coeff(m1[i], k)
                        + singular_ivp._coeff(mm[i], k - 1)
                        for i in range(dim)], dtype=float)
        coeffs[:, k] = np.linalg.solve(k * np.eye(dim) - J, rhs)
    return coeffs.tolist()


@pytest.mark.parametrize("order", [8, 10, 14])
def test_truncated_bootstrap_matches_full_length_bits(bs, lin, order):
    from g2flow.instantons import p1_ivp, pid_ivp, su23_pid_ivp

    for s in (bs, lin):
        for ivp in (pid_ivp(s, 0.5 / s.b0), p1_ivp(s),
                    su23_pid_ivp(s, 0.5 / s.b0)):
            got = [list(p) for p in series_bootstrap(ivp, order=order)]
            assert all(type(c) is float for p in got for c in p)
            assert [[c.hex() for c in p] for p in got] == [
                [c.hex() for c in p]
                for p in _full_length_bootstrap(ivp, order)], (s.label,
                                                                ivp.label)
