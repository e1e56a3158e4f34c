import dataclasses
import io
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualq import queue_store
from dualq.queue_store import (
    BackwardCheckReport,
    BusyPeriod,
    PiecewiseLinear,
    QueueTrace,
    ZigzagTrajectory,
    backward_check,
    busy_periods,
    enumerate_trajectories,
    lindley_forward,
    queue_length,
    trace_to_csv,
    transform,
    workload_pair,
    zigzag,
    zigzag_from_trace,
)
from dualq.sampling import MarkedSequence, RateParams, Seed, sample_input


# --- independent oracles -----------------------------------------------------

def departures_brute(A, s, w1=0):
    """Sup form D_n = max(A_1 + w1 + sums, max_k [A_k + sum_{i=k..n} s_i])."""
    N = len(A)
    D = []
    for n in range(N):
        best = A[0] + w1 + sum(s[0:n + 1])
        for k in range(1, n + 1):
            best = max(best, A[k] + sum(s[k:n + 1]))
        D.append(best)
    return D


def waits_brute(a, s):
    """w_1 = 0; w_n = max over k<=n-1 of (sum_{i=k..n-1} (s_i - a_i))^+ ."""
    N = len(a) + 1
    w = [0]
    for n in range(1, N):
        best = 0
        for k in range(n):
            best = max(best, sum(s[i] - a[i] for i in range(k, n)))
        w.append(max(best, 0))
    return w


# Per-customer loops the array code replaced, kept as its oracles: numpy
# scalars indexed one at a time, periods found customer by customer.

def lindley_forward_loop(w1, a, s):
    a = np.asarray(a)
    s = np.asarray(s)
    ints = all(x.dtype.kind in "iub" for x in (a, s)) and float(w1) == int(w1)
    w = np.empty(a.size + 1, dtype=np.int64 if ints else np.float64)
    w[0] = w1
    for i in range(a.size):
        w[i + 1] = max(w[i] + s[i] - a[i], 0)
    return w


def backward_check_loop(trace, rel_tol=None):
    """Python scalars, so integers are exact at any size; a NaN error counts
    as infinite, and an infinite error is a violation."""
    if rel_tol is None:
        rel_tol = 0.0 if trace.A.dtype.kind in "iu" else 1e-12
    tol = rel_tol * max(1.0, float(np.abs(trace.D).max()))
    w, s, r, D = (x.tolist() for x in (trace.w, trace.s, trace.r, trace.D))
    worst, first = 0.0, None

    def record(kind, n, err):
        nonlocal worst, first
        if math.isnan(err):
            err = math.inf
        worst = max(worst, err)
        if (err > tol or err == math.inf) and first is None:
            first = (kind, n + 1, err)

    for n in range(len(trace) - 1):
        record("sojourn", n, abs(float((w[n] + s[n]) - (w[n + 1] + r[n]))))
    for n in range(1, len(trace) - 1):
        record("backward-lindley", n,
               abs(float(w[n] - max(w[n + 1] + r[n] - (D[n] - D[n - 1]), 0))))
    return BackwardCheckReport(ok=first is None, max_error=worst, first_violation=first)


def running_sums_loop(x, starts, stops):
    """Each segment's running sums, left to right on python floats."""
    return [list(itertools.accumulate(x[a:b])) for a, b in zip(starts, stops)]


def workload_pair_loop(trace):
    A, D, w = trace.A, trace.D, trace.w
    wt, wv, wl = [], [], []
    bt, bv, bl = [], [], []
    for per in busy_periods_loop(trace):
        first, last = per.customers.start, per.customers.stop - 1
        bt.append(float(A[first]))
        bv.append(0.0)
        bl.append(0.0)
        for n in range(first, last + 1):
            wt.append(float(A[n]))
            wv.append(float(D[n] - A[n]))
            wl.append(float(w[n]))
            if n < last:
                bt.append(float(D[n]))
                bv.append(float(D[n] - A[n + 1]))
                bl.append(float(D[n] - A[n]))
        wt.append(float(D[last]))
        wv.append(0.0)
        wl.append(0.0)
        bt.append(float(D[last]))
        bv.append(0.0)
        bl.append(float(D[last] - A[last]))
    return (PiecewiseLinear(np.array(wt), np.array(wv), np.array(wl)),
            PiecewiseLinear(np.array(bt), np.array(bv), np.array(bl)))


def busy_periods_loop(tr):
    """Customer by customer: a period ends when the next arrival comes
    strictly after the last departure."""
    out, first = [], 0
    for n in range(1, len(tr)):
        if tr.A[n] > tr.D[n - 1]:
            out.append(BusyPeriod(float(tr.A[first]), float(tr.D[n - 1]), range(first, n)))
            first = n
    out.append(BusyPeriod(float(tr.A[first]), float(tr.D[-1]), range(first, len(tr))))
    return out


def random_trace(master, model="geomgeom1", n=30, w1=0):
    params = (RateParams("geomgeom1", 0.3, 0.6) if model == "geomgeom1"
              else RateParams("mm1", 0.4, 0.9))
    return transform(sample_input(params, n, Seed(master)), w1=w1)


# --- lindley -----------------------------------------------------------------

def test_lindley_trivial_drift():
    assert lindley_forward(0, [2, 2], [1, 1]).tolist() == [0, 0, 0]


def test_lindley_hand_example():
    assert lindley_forward(0, [1, 2, 1], [3, 1, 2]).tolist() == [0, 2, 1, 2]


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=25))
def test_lindley_matches_sup_form(pairs):
    a = [p[0] for p in pairs]
    s = [p[1] for p in pairs]
    assert lindley_forward(0, a, s).tolist() == waits_brute(a, s)


def test_lindley_rejects_negative():
    with pytest.raises(ValueError):
        lindley_forward(0, [-1], [1])
    with pytest.raises(ValueError):
        lindley_forward(-1, [1], [1])


@pytest.mark.parametrize("w1", [float("inf"), float("nan")])
def test_lindley_rejects_non_finite_start(w1):
    # inf died in the dtype choice with OverflowError
    with pytest.raises(ValueError, match="w1 must be finite"):
        lindley_forward(w1, [1], [1])


@pytest.mark.parametrize("a, s", [([float("nan")], [1]), ([1.0], [float("inf")]),
                                  ([float("inf")], [1]), ([1, 2], [1, float("nan")]),
                                  ([1], [1, float("inf")])])
def test_lindley_rejects_non_finite_gaps_and_marks(a, s):
    # a NaN gap passed the sign check and max(nan, 0) kept it
    with pytest.raises(ValueError, match="gaps and marks must be finite"):
        lindley_forward(0, a, s)


# --- transform ---------------------------------------------------------------

def test_transform_single_customer():
    tr = transform(MarkedSequence(np.array([0]), np.array([5]), 0))
    assert tr.D.tolist() == [5]
    assert tr.r.size == 0
    assert tr.w.tolist() == [0]


def test_transform_hand_example():
    tr = QueueTrace([0, 3], [5, 1])
    assert tr.D.tolist() == [5, 6]
    assert tr.r.tolist() == [3]
    assert tr.w.tolist() == [0, 2]
    # conservation r_1 + d_1 = a_1 + s_2
    assert tr.r[0] + tr.d[0] == tr.a[0] + tr.s[1]


def test_transform_integer_dtype_is_exact():
    tr = random_trace(5)
    assert tr.D.dtype == np.int64


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_transform_matches_brute_force_int(master):
    tr = random_trace(master, n=25)
    assert tr.D.tolist() == departures_brute(tr.A.tolist(), tr.s.tolist())
    assert tr.w.tolist() == waits_brute(tr.a.tolist(), tr.s.tolist())


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_transform_matches_brute_force_float(master):
    tr = random_trace(master, model="mm1", n=25)
    scale = float(tr.D.max())
    D = departures_brute(tr.A.tolist(), tr.s.tolist())
    w = waits_brute(tr.a.tolist(), tr.s.tolist())
    assert np.allclose(tr.D, D, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(tr.w, w, rtol=1e-12, atol=1e-12 * scale)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32), st.integers(0, 7))
def test_trace_invariants(master, w1):
    tr = random_trace(master, n=30, w1=w1)
    assert tr.w[0] == w1
    assert np.all(tr.w >= 0)
    assert np.array_equal(tr.D, tr.A + tr.w + tr.s)
    assert np.array_equal(tr.r, np.minimum(tr.D[:-1], tr.A[1:]) - tr.A[:-1])
    assert np.array_equal(tr.r, tr.s[:-1] + tr.w[:-1] - tr.w[1:])
    assert np.array_equal(tr.r + tr.d, tr.a + tr.s[1:])


def test_transform_with_initial_backlog():
    tr = QueueTrace([0, 3], [5, 1], w1=4)
    assert tr.D.tolist() == [9, 10]
    assert tr.w.tolist() == [4, 6]


@pytest.mark.parametrize("A, s, w1, message", [
    ([1, 0], [1, 1], 0, "nondecreasing"),          # gave r = -1
    ([0, 1], [-3, 2], 0, "nonnegative"),           # gave D = -3 for an arrival at 0
    ([0, 3], [5, 1], -1, "nonnegative"),
    ([0, float("nan")], [1, 2], 0, "finite"),      # gave a NaN trace
    ([0, 3], [5.0, float("inf")], 0, "finite"),
    ([0, 3], [5, 1], float("inf"), "finite"),      # died with OverflowError
    ([0, 3], [5, 1], float("nan"), "finite"),
    # integer traces whose outputs would leave int64
    ([0, 1], [2**62, 2**62], 0, "does not fit int64"),  # gave D_2 = -2**63, backward_check ok
    ([0, 2**62], [1, 1], 2**62, "does not fit int64"),
    (np.array([0, 2**63], dtype=np.uint64), [1, 1], 0, "does not fit int64"),
    (np.array([2**63 + 5, 3], dtype=np.uint64), [1, 1], 0,  # the cast looked nondecreasing
     "does not fit int64"),
    ([-2**62, 2**62], [1, 1], 0, "does not fit int64"),  # r_1 = A_2 - A_1 reaches 2**63
    ([0, 1], [1, 1], 2**70, "does not fit int64"),
])
def test_trace_rejects_inputs_without_meaning(A, s, w1, message):
    with pytest.raises(ValueError, match=message):
        QueueTrace(A, s, w1=w1)


def test_integer_trace_just_below_the_int64_limit_is_exact():
    tr = QueueTrace([0, 0], [2**62, 2**62 - 1])
    assert tr.D.tolist() == [2**62, 2**63 - 1]
    assert backward_check(tr).ok
    tr = QueueTrace([-2**62, 2**62 - 3], [1, 1])  # span 2**63 - 1
    assert tr.r.tolist() == [1] and tr.w.tolist() == [0, 0]


def test_integer_w1_past_float_precision_stays_exact():
    # 2**53 + 1 has no float64: the trace ran in float64, D_1 = 2**53
    w1 = 2**53 + 1
    tr = QueueTrace([0, 1], [1, 1], w1=w1)
    assert tr.D.dtype == np.int64 and tr.D.tolist() == [w1 + 1, w1 + 2]
    assert lindley_forward(w1, [1], [1]).tolist() == [w1, w1]


def test_a_trace_is_built_from_its_input_alone():
    # D, w and r follow from (A, s, w1): a caller cannot pass them in
    for out in ("D", "w", "r"):
        with pytest.raises(TypeError):
            QueueTrace([0, 3], [5, 1], **{out: [5, 6]})
    base = np.array([0, 3])
    A = base.view()
    A.flags.writeable = False
    tr = QueueTrace(A, [5, 1], 4)
    base[1] = 100  # the trace holds a copy, even of a read-only view
    assert tr.A.tolist() == [0, 3] and tr.D.tolist() == [9, 10]
    assert not any(x.flags.writeable for x in (tr.A, tr.s, tr.D, tr.w, tr.r))


def test_trace_keeps_simultaneous_arrivals_and_zero_marks():
    tr = QueueTrace([0, 0, 2], [0, 3, 0])
    assert tr.D.tolist() == [0, 3, 3]
    assert tr.w.tolist() == [0, 0, 1]
    assert tr.r.tolist() == [0, 2]


# --- queue length ------------------------------------------------------------

def test_queue_length_examples():
    tr = QueueTrace([0, 3], [5, 1])
    assert queue_length(tr, [-1]).tolist() == [0]
    assert queue_length(tr, [4]).tolist() == [2]
    assert queue_length(tr, [5.5]).tolist() == [1]


def test_queue_length_jumps_exactly_at_arrivals_and_departures():
    tr = random_trace(77, model="mm1", n=40)
    eps = 1e-9
    events = np.concatenate([tr.A, tr.D])
    up = down = 0
    for t in events:
        delta = int(queue_length(tr, [t])[0] - queue_length(tr, [t - eps])[0])
        if delta > 0:
            up += delta
        else:
            down -= delta
    assert up == len(tr)
    assert down == len(tr)
    # nothing else jumps: sample midpoints between events
    grid = np.sort(events)
    mids = (grid[:-1] + grid[1:]) / 2
    q_left = queue_length(tr, mids - eps)
    q_right = queue_length(tr, mids)
    assert np.array_equal(q_left, q_right)


# --- workload ----------------------------------------------------------------

def test_workload_hand_example():
    tr = QueueTrace([0, 3], [5, 1])
    W, Wbar = workload_pair(tr)
    assert W(0) == 5
    assert W(3) == 3
    assert W.left_limit(3) == 2  # equals w_2
    assert W(6) == 0
    assert Wbar(0) == 0
    # at t=4.5 customer 1 (arrived at 0) is still the oldest in system
    assert Wbar(4.5) == 4.5
    # just after D_1=5 the head is customer 2, aged t - 3
    assert Wbar(5.2) == pytest.approx(2.2)



def test_piecewise_linear_contract():
    # zero before the first knot, linear toward the next left limit, and held
    # at the last value after the last knot (workload paths end at 0)
    p = PiecewiseLinear(np.array([0.0, 2.0]), np.array([1.0, 3.0]), np.array([0.5, 2.0]))
    assert p([-1, 0, 1, 2, 5]).tolist() == [0.0, 1.0, 1.5, 3.0, 3.0]
    assert p.left_limit([-1, 0, 1, 2, 5]).tolist() == [0.0, 0.5, 1.5, 2.0, 3.0]
    assert p(5) == 3.0 and type(p(5)) is float
    assert p.left_limit(2) == 2.0 and type(p.left_limit(2)) is float


def test_piecewise_linear_without_knots_is_zero():
    empty = np.array([])
    p = PiecewiseLinear(empty, empty, empty)
    assert p([-1.0, 0.0, 3.0]).tolist() == [0.0, 0.0, 0.0]
    assert p.left_limit([2.0]).tolist() == [0.0]
    assert p(1) == 0.0 and type(p(1)) is float

def test_workload_idle_stretch_vanishes():
    tr = QueueTrace([0, 100], [1, 1])
    W, Wbar = workload_pair(tr)
    for t in [2, 50, 99.5]:
        assert W(t) == 0
        assert Wbar(t) == 0


def test_workload_left_limit_is_wait():
    tr = random_trace(9, model="mm1", n=50)
    W, _ = workload_pair(tr)
    for n in range(len(tr)):
        assert W.left_limit(tr.A[n]) == pytest.approx(tr.w[n], rel=1e-12, abs=1e-9)


def test_workload_zero_sets_coincide():
    tr = random_trace(10, model="mm1", n=60)
    W, Wbar = workload_pair(tr)
    grid = np.linspace(-1, float(tr.D[-1]) + 1, 2000)
    wv = W(grid)
    bv = Wbar(grid)
    assert np.array_equal(wv == 0, bv == 0)
    assert np.all(wv >= 0) and np.all(bv >= 0)


def test_workload_against_definition_on_grid():
    tr = random_trace(11, model="mm1", n=40)
    W, Wbar = workload_pair(tr)
    grid = np.linspace(0, float(tr.D[-1]) + 1, 500)
    for t in grid:
        active = (tr.A <= t) & (t < tr.D)
        w_direct = float((tr.D[active] - t).max()) if active.any() else 0.0
        b_direct = float((t - tr.A[active]).max()) if active.any() else 0.0
        assert W(t) == pytest.approx(w_direct, rel=1e-12, abs=1e-9)
        assert Wbar(t) == pytest.approx(b_direct, rel=1e-12, abs=1e-9)


# --- busy periods ------------------------------------------------------------

def test_busy_single_customer():
    tr = QueueTrace([2], [3])
    periods = busy_periods(tr)
    assert len(periods) == 1
    assert (periods[0].start, periods[0].end) == (2, 5)
    assert periods[0].customers == range(0, 1)


def test_busy_hand_example():
    tr = QueueTrace([0, 3, 100], [5, 1, 2])
    periods = busy_periods(tr)
    assert [(p.start, p.end) for p in periods] == [(0, 6), (100, 102)]
    assert [p.customers for p in periods] == [range(0, 2), range(2, 3)]


def test_busy_idle_partition():
    tr = random_trace(13, n=60)
    periods = busy_periods(tr)
    busy = sum(p.length for p in periods)
    idle = sum(periods[i + 1].start - periods[i].end for i in range(len(periods) - 1))
    assert busy + idle == tr.D[-1] - tr.A[0]
    # arrival at the exact departure instant keeps the period going
    for p in periods[1:]:
        assert p.start > tr.D[p.customers.start - 1]


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=30),
       st.sampled_from([1, 0.5]))
def test_busy_periods_and_zigzags_match_loops(pairs, scale):
    # integer gaps and marks hit the tie "arrival at the departure instant"
    A = np.cumsum([g for g, _ in pairs]) * scale
    tr = QueueTrace(A, np.array([m for _, m in pairs]) * scale)
    periods = busy_periods(tr)
    assert repr(list(periods)) == repr(busy_periods_loop(tr))
    for p in periods:
        c = p.customers
        assert zigzag_from_trace(tr, p) == zigzag(tr.s[c.start:c.stop], tr.a[c.start:c.stop - 1])


def test_busy_periods_view():
    tr = QueueTrace([0, 3, 100, 200, 201], [5, 1, 2, 3, 1])
    periods = busy_periods(tr)
    assert len(periods) == 3
    assert periods[2] == periods[-1] == BusyPeriod(200.0, 204.0, range(3, 5))
    assert periods[0] == periods[-3] == BusyPeriod(0.0, 6.0, range(0, 2))
    for i in (3, -4, 2**70):
        with pytest.raises(IndexError, match="out of range"):
            periods[i]
    with pytest.raises(TypeError):
        periods[1.0]
    with pytest.raises(TypeError):
        periods[0] = periods[1]
    assert periods[1:] == [periods[1], periods[2]]
    assert periods[::-2] == [periods[2], periods[0]]
    assert periods[5:] == []
    assert list(periods) == list(periods) == periods[:] == list(reversed(periods))[::-1]
    assert periods.index(periods[1]) == 1 and periods[1] in periods
    assert type(periods[0].start) is float and type(periods[0].customers.stop) is int


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=30),
       st.sampled_from([1, 0.5]), st.data())
def test_busy_periods_view_reads_like_the_loop(pairs, scale, data):
    A = np.cumsum([g for g, _ in pairs]) * scale
    tr = QueueTrace(A, np.array([m for _, m in pairs]) * scale)
    periods, want = busy_periods(tr), busy_periods_loop(tr)
    n = len(want)
    assert len(periods) == n
    assert list(periods) == want
    assert [periods[i] for i in range(-n, n)] == want + want
    bound = st.none() | st.integers(-n - 2, n + 2)
    cut = slice(data.draw(bound), data.draw(bound), data.draw(st.sampled_from([None, 1, 2, -1, -3])))
    assert periods[cut] == want[cut]


def test_busy_periods_keep_no_object_per_period():
    # about 2.6e4 periods: as a list of BusyPeriod they kept about 5.8 MB alive
    tr = transform(sample_input(RateParams("geomgeom1", 0.3, 0.6), 50_000, Seed(0)))
    tracemalloc.start()
    try:
        periods = busy_periods(tr)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(periods) > 20_000
    assert kept < 2**20


# --- array forms against their per-customer oracles ---------------------------

# (gap, mark) per customer, the first gap being the first arrival epoch.
# Integer gaps hit the tie "arrival at the departure instant" and zero gaps
# give simultaneous arrivals; marks stay positive for the workload paths.
customers = st.one_of(
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=30),
    st.lists(st.tuples(st.floats(0, 4), st.floats(0.01, 4)), min_size=1, max_size=30))
ONE_CUSTOMER = [(2, 3)]
ONE_PERIOD = [(0, 3), (1, 2), (3, 1), (0, 2)]
AT_DEPARTURE = [(0, 2), (2, 1), (1, 1), (4, 2.5)]  # 2nd arrives as the 1st leaves


def trace_of(pairs, w1=0):
    A = np.cumsum([g for g, _ in pairs])
    return QueueTrace(A, np.array([m for _, m in pairs]), w1=w1)


def corrupted(tr, **fields):
    """``tr`` with the given fields overwritten: a trace that no input
    gives, which only a kernel bug or a test that writes a field makes."""
    for name, x in fields.items():
        object.__setattr__(tr, name, np.asarray(x))
    return tr


def assert_paths_equal(got, want):
    for name in ("times", "values", "left_values"):
        g, e = getattr(got, name), getattr(want, name)
        assert g.dtype == e.dtype, name
        assert np.array_equal(g, e), name


@settings(deadline=None, max_examples=150)
@given(customers, st.sampled_from([0, 3]))
@example(ONE_CUSTOMER, 0)
@example(ONE_PERIOD, 0)
@example(AT_DEPARTURE, 0)
@example([(0.5, 0.25), (0.25, 0.1), (0.1, 0.3)], 0)
def test_workload_pair_matches_loop(pairs, w1):
    tr = trace_of(pairs, w1)
    W, Wbar = workload_pair(tr)
    W_loop, Wbar_loop = workload_pair_loop(tr)
    assert_paths_equal(W, W_loop)
    assert_paths_equal(Wbar, Wbar_loop)



@settings(deadline=None, max_examples=150)
@given(customers, st.sampled_from([0, 3]), st.lists(st.floats(0, 1), min_size=1, max_size=5))
@example([(0.5, 0.25), (0.25, 0.1), (0.1, 0.3)], 0, [0.5, 0.3])
def test_workload_left_limit_is_value_off_knots(pairs, w1, fractions):
    # only a knot has a left limit that differs from the value, and at every
    # other time both read the same interpolation, to the last bit
    tr = trace_of(pairs, w1)
    for path in workload_pair(tr):
        times = path.times
        inner = times[:-1, None] + np.array(fractions) * np.diff(times)[:, None]
        t = np.concatenate((inner.ravel(), [times[0] - 1, times[-1] + 1]))
        t = t[~np.isin(t, times)]
        assert np.array_equal(path.left_limit(t), path(t))

@settings(deadline=None, max_examples=150)
@given(customers, st.sampled_from([0, 2, 2.0, 0.5]), st.booleans())
@example(ONE_CUSTOMER, 0, False)
@example(ONE_PERIOD, 0.5, False)
@example(AT_DEPARTURE, 0, True)
def test_lindley_forward_matches_loop(pairs, w1, float_gaps):
    a = np.array([g for g, _ in pairs[1:]], dtype=float if float_gaps else None)
    s = np.array([m for _, m in pairs])
    got = lindley_forward(w1, a, s)
    want = lindley_forward_loop(w1, a, s)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(deadline=None, max_examples=150)
@given(customers, st.sampled_from([0, 3]), st.none() | st.integers(0, 29))
@example(ONE_CUSTOMER, 0, 0)
@example(ONE_PERIOD, 0, 2)
@example(AT_DEPARTURE, 0, None)
def test_backward_check_matches_loop(pairs, w1, corrupt):
    tr = trace_of(pairs, w1)
    if corrupt is not None:  # a valid trace, then one wait written over
        w = tr.w.copy()
        w[corrupt % len(w)] += 1
        tr = corrupted(tr, w=w)
    got = backward_check(tr)
    assert got == backward_check_loop(tr)
    if corrupt is not None and len(tr) > 1:
        assert got.first_violation is not None


def test_backward_check_names_first_violation():
    tr = trace_of(ONE_PERIOD)
    w = tr.w.copy()
    w[2] += 1
    bad = corrupted(tr, w=w)  # a valid trace, then one wait written over
    got = backward_check(bad)
    assert got == backward_check_loop(bad)
    assert not got.ok
    assert got.first_violation == ("sojourn", 2, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_backward_check_counts_a_non_finite_error_as_a_violation(bad):
    # nan > tol is False, so a NaN error needs its own rule
    tr = trace_of([(0.0, 3.0), (1.0, 2.0), (3.0, 1.0), (0.5, 2.0)])
    w = tr.w.copy()
    w[1] = bad
    tr = corrupted(tr, w=w)  # a valid trace, then one wait written over
    got = backward_check(tr)
    assert got == backward_check_loop(tr)
    assert got == BackwardCheckReport(ok=False, max_error=math.inf,
                                      first_violation=("sojourn", 1, math.inf))
    assert type(got.max_error) is float and type(got.first_violation[1]) is int


@pytest.mark.parametrize("d0, first", [(-2**62, None), (0, ("backward-lindley", 2, 2.0**62))])
def test_integer_backward_check_is_exact_at_large_magnitudes(d0, first):
    # w_n + s_n = 2**63 + 2**60 leaves int64; with d_1 = 0 the corrupted
    # trace's w_3 + r_2 - d_1 does too, and a wrapped sum would clamp to 0
    W, S = 2**62 + 2**60, 2**62
    # a valid trace, then the marks and every output written over: no input
    # that fits int64 gives these
    tr = corrupted(QueueTrace(np.arange(3), np.ones(3, dtype=np.int64)), s=np.full(3, S),
                   D=np.array([d0, 0, S]), w=np.full(3, W), r=np.full(2, S))
    got = backward_check(tr)
    assert got == backward_check_loop(tr)
    assert got.first_violation == first


# --- zigzag validation ---------------------------------------------------------

def raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize("A, s", [
    ([0, 1], [0, 2]),   # zero mark first
    ([0, 1], [2, 0]),   # zero mark last
    ([0, 0], [1, 1]),   # zero gap
    ([0, 5], [1, 1]),   # gap breaks the period
    ([0, 2], [1, 1]),   # gap one past the end of the first service
])
def test_zigzag_from_trace_rejects_like_zigzag(A, s):
    A, s = np.array(A), np.array(s)
    tr = QueueTrace(A, s)
    # hand-built: the trace may split these customers into two periods
    period = BusyPeriod(0.0, float(A[-1] + s[-1]), range(0, 2))
    assert raised(zigzag_from_trace, tr, period) == raised(zigzag, s, np.diff(A))


def outcome(f, *args):
    """The run lengths f returns, types included, or the error it raises."""
    try:
        return repr(f(*args).run_lengths)
    except ValueError as e:
        return f"ValueError: {e}"


def zigzag_of_range(tr, c):
    return outcome(zigzag, tr.s[c.start:c.stop], tr.a[c.start:c.stop - 1])


def from_trace(tr, c):
    return outcome(zigzag_from_trace, tr, BusyPeriod(0.0, 0.0, c))


def twin(tr):
    """An equal trace on the same input, without the other's table."""
    return QueueTrace(tr.A, tr.s, tr.w[0])


# (gap, mark) per customer: zero gaps give simultaneous arrivals, zero marks
# give periods the per-period pass rejects, integer steps give arrivals at a
# departure instant, and tenths give float sums that round
zigzag_customers = st.one_of(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda p: (p[0] / 10, p[1] / 10)), min_size=1, max_size=40),
    st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=40))


@settings(deadline=None, max_examples=200)
@given(zigzag_customers, st.sampled_from([0, 3, 2.5]))
@example(ONE_PERIOD, 3)
@example(AT_DEPARTURE, 0)
@example([(0, 2), (1, 0), (9, 2), (1, 2), (9, 1)], 0)   # a zero mark in the first period
def test_zigzag_table_is_zigzag_on_every_period(pairs, w1):
    tr = trace_of(pairs, w1)
    for p in busy_periods(tr):
        assert from_trace(tr, p.customers) == zigzag_of_range(tr, p.customers)
    # the table fills its trajectories' slots without the constructor's checks
    assert all(z is None or ZigzagTrajectory(z.run_lengths) == z for z in tr._zigzags)


@pytest.mark.parametrize("A, s", [
    ([0.0, 1.0], [math.nan, 1.0]),   # gave the runs (nan, nan) and (nan, 1.0, 1.0, nan)
    ([0.0, 1.0], [math.inf, 1.0]),
    ([0.0, math.nan], [1.0, 1.0]),   # a NaN gap
])
def test_a_non_finite_mark_or_gap_is_refused_like_zigzag(A, s):
    # a valid trace, then its input written over: QueueTrace refuses
    # non-finite entries
    A, s = np.array(A), np.array(s)
    tr = corrupted(QueueTrace([0.0, 1.0], [1.0, 1.0]), A=A, s=s, D=A + s)
    assert [p.customers for p in busy_periods(tr)] == [range(0, 2)]
    assert queue_store._zigzag_table(tr) == [None, None]
    assert from_trace(tr, range(0, 2)) == "ValueError: marks and gaps must be finite"
    for c in (range(0, 2), range(0, 1), range(1, 2)):
        assert from_trace(tr, c) == zigzag_of_range(tr, c)


def test_a_sum_that_overflows_float64_is_refused():
    # finite marks whose running height overflows: the trace gave D = [1e308, inf]
    # with only a RuntimeWarning, and zigzag and the table the runs
    # (1e308, 1.0, 1e308, inf), which ZigzagTrajectory itself refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="does not fit float64"):
            QueueTrace([0.0, 1.0], [1e308, 1e308])
        assert raised(zigzag, [1e308, 1e308], [1.0]) == "the height of the busy period overflows"
        # a valid trace, then the marks and departures written over
        tr = corrupted(QueueTrace([0.0, 1.0], [1.0, 1.0]), s=[1e308, 1e308], D=[1e308, math.inf])
        assert queue_store._zigzag_table(tr) == [None, None]
        assert from_trace(tr, range(0, 2)) == "ValueError: the height of the busy period overflows"
        assert from_trace(tr, range(0, 1)) == "(1e+308, 1e+308)"
        # a gap that overflows lies between two periods: the table has both, with no warning
        tr = QueueTrace([-1e308, 1e308], [1.0, 1.0])
        assert [from_trace(tr, p.customers) for p in busy_periods(tr)] == ["(1.0, 1.0)"] * 2


def test_a_zero_mark_raises_only_for_its_period():
    tr = QueueTrace([0, 1, 10, 11, 20], [2, 0, 2, 2, 1])
    got = [from_trace(tr, p.customers) for p in busy_periods(tr)]
    assert got == ["ValueError: marks must be positive within a busy period",
                   "(2, 1, 2, 3)", "(1, 1)"]


@settings(deadline=None, max_examples=100)
@given(zigzag_customers, st.sampled_from([0, 2.5]), st.data())
def test_zigzag_table_answers_any_order_of_calls(pairs, w1, data):
    tr = trace_of(pairs, w1)
    ranges = [p.customers for p in busy_periods(tr)]
    want = [zigzag_of_range(tr, c) for c in ranges]
    first = range(data.draw(st.integers(0, len(tr) - 1)), len(tr))
    rev, again, foreign = twin(tr), twin(tr), twin(tr)
    assert [from_trace(rev, c) for c in ranges[::-1]] == want[::-1]
    assert [from_trace(again, c) for c in ranges + ranges] == want + want
    assert from_trace(foreign, first) == zigzag_of_range(tr, first)
    assert [from_trace(foreign, c) for c in ranges] == want


@settings(deadline=None, max_examples=200)
@given(zigzag_customers, st.sampled_from([0, 3, 2.5]), st.data())
@example(ONE_PERIOD, 0, None)
def test_zigzag_of_a_foreign_range_is_the_per_period_pass(pairs, w1, data):
    # a part of a period, periods joined, a start inside a period: whatever
    # the range, the table answers only its own periods
    tr = trace_of(pairs, w1)
    if data is None:
        ranges = [range(0, 2), range(1, 4), range(0, 4), range(2, 3)]
    else:
        i = data.draw(st.integers(0, len(tr) - 1))
        ranges = [range(i, data.draw(st.integers(i + 1, len(tr))))]
    for c in ranges:
        assert from_trace(tr, c) == zigzag_of_range(tr, c)


@pytest.mark.parametrize("model", ["geomgeom1", "mm1"])
def test_zigzag_table_is_built_once_per_trace(monkeypatch, model):
    calls = []
    build = queue_store._zigzag_table
    monkeypatch.setattr(queue_store, "_zigzag_table", lambda tr: calls.append(1) or build(tr))
    tr = random_trace(23, model=model, n=200)
    same = twin(tr)
    periods = list(busy_periods(tr))
    zigzags = [zigzag_from_trace(tr, p) for p in periods + periods[::-1]]
    from_trace(tr, range(1, 7))
    assert len(calls) == 1
    assert all(z is y for z, y in zip(zigzags, zigzags[::-1]))  # answered by the table
    # the table is no field: equality (field by field) and repr do not see it
    assert [f.name for f in dataclasses.fields(tr)] == ["A", "s", "D", "w", "r"]
    assert all(np.array_equal(getattr(tr, f.name), getattr(same, f.name))
               for f in dataclasses.fields(tr))
    assert repr(tr) == repr(same)
    with pytest.raises(ValueError, match="read-only"):
        tr.s[0] = 1.0


def test_zigzag_table_sums_a_long_period_like_the_loop():
    # one period of 3000 customers among short ones: float heights that
    # round at every step, summed in the per-period pass's order
    rng = np.random.default_rng(4)
    s = np.concatenate((rng.exponential(1.0, 3000), rng.exponential(0.2, 500)))
    A = np.cumsum(np.concatenate(([0.0], rng.exponential(0.9, 2999), rng.exponential(1.0, 500))))
    tr = QueueTrace(A, s)
    periods = busy_periods(tr)
    assert len(periods[0].customers) > 1000
    for p in periods:
        assert from_trace(tr, p.customers) == zigzag_of_range(tr, p.customers)


@pytest.mark.parametrize("A, s", [
    ([0, 1], [2**62, 2**62 - 2]),         # heights up to 2**63 - 3
    ([-2**62, 2**62 - 3], [1, 1]),        # a gap of 2**63 - 3
    ([0, 5, 2**61], [3, 3, 2**61]),
])
def test_zigzag_table_holds_every_period_of_a_trace_at_the_int64_edge(A, s):
    # QueueTrace's int64 bound covers every partial sum of the runs: these
    # traces got an empty table from a cruder bound of 3N times the largest entry
    tr = QueueTrace(A, s)
    table = queue_store._zigzag_table(tr)
    periods = busy_periods(tr)
    assert [i for i, z in enumerate(table) if z is not None] == [
        p.customers.start for p in periods]
    for p in periods:
        assert repr(table[p.customers.start].run_lengths) == zigzag_of_range(tr, p.customers)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 70), min_size=1, max_size=30), st.integers(0, 2**32))
@example([1], 0)
@example([1000, 1, 3], 1)
def test_running_sums_match_a_scalar_loop(lengths, seed):
    x = np.random.default_rng(seed).standard_normal(sum(lengths) + 3) * 1e3
    stops = np.cumsum(lengths) + 1
    starts = stops - np.array(lengths)
    got = queue_store._running_sums(x, starts, stops)
    want = running_sums_loop(x.tolist(), starts.tolist(), stops.tolist())
    assert [got[a:b].tolist() for a, b in zip(starts, stops)] == want


@pytest.mark.parametrize("runs, message", [
    ((), "even, positive number of runs"),
    ((3,), "even, positive number of runs"),
    ((2, 1, 1), "even, positive number of runs"),
    ((2, 0, 1, 3), "run lengths must be positive"),
    ((2, -1, 1, 4), "run lengths must be positive"),
    ((1, 2, 2, 1), "dips below zero"),
    ((2, 1), "total increase must equal total decrease"),
])
def test_trajectory_constructor_still_validates(runs, message):
    with pytest.raises(ValueError, match=message):
        ZigzagTrajectory(runs)


# --- zigzag ------------------------------------------------------------------

def test_zigzag_one_customer():
    assert zigzag([4], []).run_lengths == (4, 4)


def test_zigzag_hand_example():
    # second customer arrives during the first service
    assert zigzag([3, 2], [1]).run_lengths == (3, 1, 2, 4)


def test_zigzag_balance_property():
    tr = random_trace(17, n=80)
    for p in busy_periods(tr):
        t = zigzag_from_trace(tr, p)
        assert sum(t.run_lengths[::2]) == sum(t.run_lengths[1::2])


def test_zigzag_rejects_broken_period():
    with pytest.raises(ValueError):
        zigzag([1, 1], [5])


def test_zigzag_touching_zero_inside_is_fine():
    # gap equal to the current height: path touches zero and continues
    t = zigzag([2, 3], [2])
    assert t.run_lengths == (2, 2, 3, 3)


def test_enumerate_trajectories_catalan_counts():
    assert [len(enumerate_trajectories(L)) for L in range(1, 5)] == [1, 2, 5, 14]


def test_trajectory_reversal_is_valid():
    for t in enumerate_trajectories(4):
        r = ZigzagTrajectory(t.run_lengths[::-1])  # the constructor checks it
        assert r.total_rise == t.total_rise
        assert r.n_peaks == t.n_peaks


# --- backward relations ------------------------------------------------------

def test_backward_check_hand_example():
    assert backward_check(QueueTrace([0, 3], [5, 1])).ok


def test_backward_check_all_idle():
    tr = QueueTrace([0, 100, 200], [1, 1, 1])
    assert np.all(tr.w == 0)
    assert backward_check(tr).ok


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32))
def test_backward_check_random(master):
    assert backward_check(random_trace(master, n=40)).ok
    assert backward_check(random_trace(master, model="mm1", n=40)).ok


# --- csv ---------------------------------------------------------------------

def test_trace_csv():
    tr = QueueTrace([0, 3], [5, 1])
    buf = io.StringIO()
    trace_to_csv(tr, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,A,s,D,r,w"
    assert lines[1] == "1,0,5,5,3,0"
    assert lines[2] == "2,3,1,6,,2"


# --- input checks --------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: lindley_forward(0, [1, 2], [3]), "at least one mark per gap"),
    (lambda: lindley_forward(2**62, [0], [2**62]), "not fit int64"),  # was OverflowError
    (lambda: lindley_forward(0, np.array([2**63], dtype=np.uint64),
                             np.array([1, 1], dtype=np.uint64)), "gaps must lie below 2"),
    (lambda: QueueTrace([], []), "at least one customer"),
    (lambda: QueueTrace([0, 1], [1]), "1-d of equal length"),
    (lambda: transform(MarkedSequence(np.array([]), np.array([]), 0.0)), "at least one customer"),
    (lambda: workload_pair(QueueTrace([0, 1], [2, 0])), "strictly positive marks"),
    (lambda: zigzag([3, 2], [1, 1]), "k marks and k-1 internal gaps"),
    (lambda: zigzag([], []), "k marks and k-1 internal gaps"),
    # non-real inputs: parsed from the strings, cast with a ComplexWarning,
    # rounded to float64, UFuncTypeError, TypeError
    (lambda: QueueTrace(np.array(["0", "3"]), np.array(["5", "1"])), "real numbers"),
    (lambda: QueueTrace(np.array([0, 3 + 1j]), [5, 1]), "real numbers"),
    (lambda: QueueTrace(np.array([0, 2**70], dtype=object), [1, 1]), "real numbers"),
    (lambda: QueueTrace([0, 3], [5, 1], w1="1"), "real numbers"),
    (lambda: QueueTrace([0, 3], [5, 1], w1=1j), "real numbers"),
    (lambda: lindley_forward(0, np.array([1 + 1j]), [1]), "real numbers"),
    (lambda: lindley_forward(0, [1], np.array([2**70], dtype=object)), "real numbers"),
    (lambda: lindley_forward(0, np.array(["1"]), np.array(["1"])), "real numbers"),
    (lambda: lindley_forward("1", [1], [1]), "real numbers"),
    # not 1-d: TypeError from the per-customer loop
    (lambda: lindley_forward(0, [[1, 2]], [[1, 2]]), "1-d sequences"),
    (lambda: lindley_forward(0, 1, [1]), "1-d sequences"),
    # NaN passed the sign tests: run lengths (nan, nan) and (1.0, 0.5, nan, nan)
    (lambda: zigzag([np.nan], []), "finite"),
    (lambda: zigzag([np.inf], []), "finite"),
    (lambda: zigzag([1.0, np.nan], [0.5]), "finite"),
    (lambda: zigzag([1.0, 1.0], [np.nan]), "finite"),
    (lambda: zigzag(1.0, []), "k marks and k-1 internal gaps"),  # was TypeError from list(1.0)
], ids=["lindley-marks", "lindley-int64", "lindley-gap", "no-customer", "unequal-shapes", "empty-input",
        "zero-mark", "zigzag-gaps", "zigzag-empty", "trace-strings", "trace-complex",
        "trace-object", "trace-string-w1", "trace-complex-w1", "lindley-complex",
        "lindley-object", "lindley-strings", "lindley-string-w1", "lindley-2-d",
        "lindley-0-d-gaps", "zigzag-nan", "zigzag-inf", "zigzag-nan-mark",
        "zigzag-nan-gap", "zigzag-0-d-marks"])
def test_queue_inputs_are_checked(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal, not a cast with a warning
        with pytest.raises(ValueError, match=message):
            call()


def test_backward_check_names_a_backward_lindley_violation():
    # a valid trace, then its departures written over: the sojourn identity
    # holds at every customer, but the first departure gap d_1 = 0 breaks
    # w_2 = (w_3 + r_2 - d_1)^+
    tr = corrupted(QueueTrace(np.arange(3), np.ones(3, dtype=np.int64)), D=[1, 1, 2])
    got = backward_check(tr)
    assert got == backward_check_loop(tr)
    assert got.first_violation == ("backward-lindley", 2, 1.0)
