"""Exact pathwise dynamics of the single-server queue / storage model.

One set of recursions serves both readings.  For the queue, ``A`` are
arrival epochs, ``s`` service times, ``D`` departure epochs and ``w``
waiting times.  For the store, ``s`` is the amount supplied, ``A``-gaps
the amounts requested, ``w`` the stock level and ``r`` the amount sold.
``r_n`` doubles as the time customer n spends at the very back of the
queue; ``(D, r)`` is the output marked sequence.

Everything here is deterministic: integer inputs stay in exact integer
arithmetic, real inputs in double precision, and inputs of any other dtype
raise ValueError (:func:`_run_dtype`).

The trace (:func:`_fifo_series`, shared with the tandem kernels: customers
first, replications innermost), the busy-period bounds and the knots of
:func:`workload_pair` are array closed forms.  :func:`backward_check` tests
the backward identities as pointwise array expressions over neighbouring
entries, sharing no code with the closed forms; :func:`lindley_forward`
stays an element-by-element loop on Python scalars, the remaining
per-customer witness.  :func:`busy_periods` is a read-only sequence over
the period bounds that builds each :class:`BusyPeriod` only when it is
read.  The zigzags of a trace's own busy periods come from one table per
trace (:func:`_zigzag_table`, cached on the trace, whose arrays are
therefore read-only); :func:`zigzag`, the per-period pass, serves any
other customer range.  The table's runs come from
:func:`_period_run_tuples`, a lazy iterator of one tuple per period, and
zigzag-law in :mod:`~dualq.stattest` counts the same tuples as they
stream.  A period with a non-finite mark, gap or closing height has no
table entry, and :func:`zigzag` refuses it.  Scans over customers use
:func:`_accumulate`: a loop over rows when the rows are wider than the
customer axis is long, ``ufunc.accumulate`` otherwise, with the same values
either way.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .sampling import MarkedSequence, _below_int64

__all__ = [
    "QueueTrace",
    "PiecewiseLinear",
    "BusyPeriod",
    "ZigzagTrajectory",
    "lindley_forward",
    "transform",
    "queue_length",
    "workload_pair",
    "busy_periods",
    "zigzag",
    "zigzag_from_trace",
    "enumerate_trajectories",
    "backward_check",
    "trace_to_csv",
]


def _run_dtype(w1, *arrays):
    """The dtype a run of the recursions takes: int64 when every array holds
    booleans or integers and ``w1`` is integral, float64 otherwise.  Arrays
    of any other dtype, a ``w1`` that is not a real number, and a ``w1``
    that is not finite and nonnegative raise ValueError."""
    if any(np.asarray(x).dtype.kind not in "biuf" for x in arrays) or not (
            isinstance(w1, numbers.Real) or np.asarray(w1).dtype.kind in "biuf"):
        raise ValueError("inputs must be real numbers")
    if not 0 <= w1 < math.inf:
        raise ValueError("w1 must be finite and nonnegative")
    if all(np.asarray(x).dtype.kind in "biu" for x in arrays) and w1 == int(w1):
        return np.int64
    return np.float64


@dataclass(frozen=True, init=False, eq=False)
class QueueTrace:
    """Per-customer input and output of one model run, built from the
    input alone: ``QueueTrace(A, s, w1=0)``.

    ``A`` are the arrival epochs, ``s`` the marks and ``w1`` the initial
    wait; the constructor computes the departures ``D``, waits ``w`` and
    ``r``, which can be read but not passed in.  ``A, s, D, w`` have length
    N; ``r`` has length N-1 because r_n needs the next arrival.  Gaps ``a``
    and ``d`` are the first differences of ``A`` and ``D``.

    D is the closed form (:func:`_fifo_series`) of the recursion
    D_{n+1} = max(D_n, A_{n+1}) + s_{n+1} from D_1 = A_1 + w1 + s_1.  A, s
    and w1 must be real and finite (:func:`_run_dtype`), w1 and s
    nonnegative and A nondecreasing; marks may be zero and arrivals
    simultaneous (the saturated-tandem sections need that).  Integer inputs
    whose total A_N + w1 + sum(s) (less A_1 if A_1 is negative) reaches
    2**63, and real inputs whose D, w or r overflow float64, raise
    ValueError.  The arrays are read-only, ``A`` and ``s`` copies of the
    input: the trace caches its zigzag table, which must not go stale.
    The trace compares and hashes by identity, as its fields are arrays.
    """

    A: np.ndarray
    s: np.ndarray
    D: np.ndarray
    w: np.ndarray
    r: np.ndarray

    def __init__(self, A, s, w1=0):
        A = np.asarray(A)
        s = np.asarray(s)
        if A.size == 0:
            raise ValueError("need at least one customer")
        if A.shape != s.shape or A.ndim != 1:
            raise ValueError("A and s must be 1-d of equal length")
        dtype = _run_dtype(w1, A, s)
        # on the inputs as given: the cast to int64 wraps uint64 entries from
        # 2**63, and max and min bound A before it is known to be nondecreasing
        if dtype is np.int64 and not _below_int64(
                s, max(int(A.max()), 0) - min(int(A.min()), 0) + int(w1)):
            raise ValueError("integer trace does not fit int64: "
                             "max(A_N, 0) - min(A_1, 0) + w1 + sum(s) reaches 2**63")
        A, s = A.astype(dtype), s.astype(dtype)  # copies: no caller can write them
        if not (np.isfinite(A).all() and np.isfinite(s).all()) or s.min() < 0:
            raise ValueError("A and s must be finite and the marks nonnegative")
        if (A[1:] < A[:-1]).any():
            raise ValueError("arrival epochs must be nondecreasing")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            arrivals = A.copy()
            arrivals[0] += dtype(w1)       # the first customer finds w1 of work ahead
            D = _fifo_series(arrivals[:, None], s[:, None, None])[:, 0, 0]
            # w via w_{n+1} = (D_n - A_{n+1})^+ rather than D - s - A: the clamp
            # makes idle arrivals exactly zero, with no float residue
            w = np.empty_like(D)
            w[0] = dtype(w1)
            np.maximum(D[:-1] - A[1:], 0, out=w[1:])
            r = np.minimum(D[:-1], A[1:]) - A[:-1]
        if not all(np.isfinite(x).all() for x in (D, w, r)):
            raise ValueError("real trace does not fit float64: a departure, wait or r overflows")
        for name, x in zip(("A", "s", "D", "w", "r"), (A, s, D, w, r)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    @cached_property
    def _zigzags(self) -> list:
        return _zigzag_table(self)

    @property
    def a(self) -> np.ndarray:
        return np.diff(self.A)

    @property
    def d(self) -> np.ndarray:
        return np.diff(self.D)

    def __len__(self) -> int:
        return int(self.A.size)


def lindley_forward(w1, a, s) -> np.ndarray:
    """Waiting times by the forward recursion w_{n+1} = (w_n + s_n - a_n)^+.

    ``a`` holds the gaps between consecutive arrivals (length N-1 for N
    customers), ``s`` the marks, all real, finite and nonnegative, as is
    ``w1`` (:func:`_run_dtype`); only the first len(a) marks are consumed.
    Returns len(a)+1 values starting at ``w1``.  Every wait lies within w1
    plus the marks consumed, so integer inputs whose total reaches 2**63, or
    an integer gap from 2**63, raise ValueError rather than leave int64.
    """
    a = np.asarray(a)
    s = np.asarray(s)
    if a.ndim != 1 or s.ndim != 1:
        raise ValueError("gaps and marks must be 1-d sequences")
    if s.size < a.size:
        raise ValueError("need at least one mark per gap")
    dtype = _run_dtype(w1, a, s)
    if (a.size and a.min() < 0) or (s.size and s.min() < 0):
        raise ValueError("gaps and marks must be nonnegative")
    # on the inputs as given: the cast to int64 wraps uint64 entries from 2**63
    if dtype is np.int64 and not _below_int64(s[:a.size], int(w1)):
        raise ValueError("integer waits would not fit int64: "
                         "w1 + the sum of the consumed marks reaches 2**63")
    if dtype is np.int64 and int(a.max(initial=0)) >= 2**63:
        raise ValueError("integer gaps must lie below 2**63")
    a, s = a.astype(dtype), s.astype(dtype)
    if not (np.isfinite(a).all() and np.isfinite(s).all()):
        raise ValueError("gaps and marks must be finite")
    # one step per customer, on python scalars of the output dtype
    x = dtype(w1).item()
    w = [x]
    append = w.append
    for ai, si in zip(a.tolist(), s[:a.size].tolist()):
        x = x + si - ai
        if x < 0:
            x = 0
        append(x)
    return np.array(w, dtype=dtype)


def _accumulate(ufunc, x, out=None):
    """``ufunc.accumulate(x, axis=0, out=out)``: the same values, dtype and order.

    numpy's accumulate walks the axis one element at a time for each position
    of the other axes, which is slow when the axis is short and its rows are
    wide.  When a row holds more elements than the axis is long, the rows are
    combined one ufunc call at a time instead; otherwise accumulate runs.
    The choice rests on the shape alone.  ``out`` may be ``x``.
    """
    if len(x) and x[0].size > len(x):
        if out is None:  # accumulate's own dtype: small integers widen as in cumsum
            out = np.empty(x.shape, ufunc.accumulate(x[:1], axis=0).dtype)
        out[0] = x[0]
        for n in range(1, len(x)):
            ufunc(out[n - 1], x[n], out=out[n])
        return out
    return ufunc.accumulate(x, axis=0, out=out)


def _fifo_series(A, s, out=None):
    """Departure epochs of K FIFO queues in series, in closed form.

    ``s[n, k, b]`` is customer n's service at queue k in replication b: the
    replications are the innermost axis, so every step runs over a
    contiguous row of them.  Customer n reaches queue 1 at ``A[n]`` (an
    (N, B) array or a scalar) and queue k when it leaves queue k-1.  Each
    queue solves D_n = max(D_{n-1}, A_n) + s_n by one scan over the
    customers, D = S + cummax(A - (S - s)) with S the partial sums of its
    services; the scans go through :func:`_accumulate`.  Returns the
    departures, shaped like ``s``, written into ``out`` if given.
    """
    D = S = _accumulate(np.add, s, out)  # each queue's D overwrites its S
    gap = S - s  # sum_{i<n} s_i, then A - that
    for k in range(s.shape[1]):
        g = np.subtract(A, gap[:, k], out=gap[:, k])
        A = np.add(S[:, k], _accumulate(np.maximum, g, g), out=D[:, k])
    return D


def transform(inp: MarkedSequence, w1=0) -> QueueTrace:
    """Map the input marked sequence to the full output trace."""
    return QueueTrace(inp.epochs, inp.marks, w1)


def queue_length(trace: QueueTrace, t_grid) -> np.ndarray:
    """Q(t) = #{n : A_n <= t < D_n} on each grid point, right-continuous."""
    t = np.asarray(t_grid)
    arrived = np.searchsorted(trace.A, t, side="right")
    departed = np.searchsorted(trace.D, t, side="right")
    return (arrived - departed).astype(np.int64)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Right-continuous piecewise-linear path.

    Knots carry the value at the knot and the left limit there; the path is
    linear between knots (toward the next knot's left limit), zero before
    the first knot and held at the last knot's value after it.  A path
    without knots is zero everywhere.  Paths compare and hash by identity.
    """

    times: np.ndarray
    values: np.ndarray
    left_values: np.ndarray

    def __call__(self, t):
        return self._eval(np.asarray(t, dtype=float), from_left=False)

    def left_limit(self, t):
        return self._eval(np.asarray(t, dtype=float), from_left=True)

    def _eval(self, t, from_left):
        times = self.times
        if not len(times):
            out = np.zeros(t.shape)
        else:
            # each knot twice, (time, left limit) then (time, value): at a
            # repeated abscissa np.interp reads the later point
            out = np.interp(t, np.repeat(times, 2),
                            np.column_stack((self.left_values, self.values)).ravel(),
                            left=0.0, right=self.values[-1])
            if from_left:
                i = np.minimum(np.searchsorted(times, t), len(times) - 1)
                out = np.where(times[i] == t, self.left_values[i], out)
        return float(out) if t.ndim == 0 else out


def _period_bounds(A, D):
    """First customer and one-past-last customer (0-based) of each busy
    period: a period starts at 0 and wherever A_{n+1} > D_n."""
    firsts = np.concatenate(([0], np.flatnonzero(A[1:] > D[:-1]) + 1))
    return firsts, np.append(firsts[1:], A.size)


def workload_pair(trace: QueueTrace) -> tuple[PiecewiseLinear, PiecewiseLinear]:
    """Workload W and its dual W-bar as exact piecewise-linear paths.

    W(t) = max over customers in system of (D_n - t), the remaining work;
    W-bar(t) = max of (t - A_n), the age of the oldest customer present.
    Customers count on [A_n, D_n) so both paths are right-continuous and
    vanish exactly off busy periods.  The declared left limit of W at A_n
    is w_n.

    Both are built in closed form from the period bounds.  W has a knot at
    every arrival (value D_n - A_n, left limit w_n) and one end knot per
    period after its last customer.  W-bar has one start knot per period
    before its first customer, then a knot at every departure: inside a
    period the dual drops to the next head's age D_n - A_{n+1}, at the end
    of the period to 0; its left limit there is D_n - A_n.
    """
    if np.any(trace.s <= 0):
        raise ValueError("workload paths need strictly positive marks")
    A, D, w = trace.A, trace.D, trace.w
    firsts, stops = _period_bounds(A, D)
    f = np.float64
    sojourn = (D - A).astype(f)
    drop = np.zeros(len(trace))
    drop[:-1] = D[:-1] - A[1:]
    drop[stops - 1] = 0.0

    W = PiecewiseLinear(np.insert(A.astype(f), stops, D[stops - 1]),
                        np.insert(sojourn, stops, 0.0),
                        np.insert(w.astype(f), stops, 0.0))
    Wbar = PiecewiseLinear(np.insert(D.astype(f), firsts, A[firsts]),
                           np.insert(drop, firsts, 0.0),
                           np.insert(sojourn, firsts, 0.0))
    return W, Wbar


class BusyPeriod(NamedTuple):
    """Maximal stretch with work in the system: [start, end) plus the
    contiguous (0-based) customer indices served in it."""

    start: float
    end: float
    customers: range

    @property
    def length(self) -> float:
        return self.end - self.start


def busy_periods(trace: QueueTrace) -> Sequence[BusyPeriod]:
    """Split the trace into busy periods.

    A new period starts whenever a customer arrives strictly after the
    previous departure; an arrival at the exact departure instant keeps the
    server busy and extends the current period.  Returns a read-only
    sequence over the period bounds that builds each :class:`BusyPeriod`
    as it is read; a slice of it is a list.
    """
    return _BusyPeriods(trace.A, trace.D)


class _BusyPeriods(Sequence):
    """The busy periods of one trace: the trace's own ``A`` and ``D`` and the
    arrays of :func:`_period_bounds`, no object per period until one is read."""

    __slots__ = ("_A", "_D", "_firsts", "_stops")

    def __init__(self, A, D):
        self._A, self._D = A, D
        self._firsts, self._stops = _period_bounds(A, D)

    def __len__(self) -> int:
        return len(self._firsts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._periods(self._firsts[i], self._stops[i]))
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError("busy period index out of range")
        i %= n
        return self[i:i + 1][0]  # through the slice, so its floats are those iteration gives

    def __iter__(self):
        return self._periods(self._firsts, self._stops)

    def _periods(self, firsts, stops):
        # tuple.__new__ builds each period in C, where _make adds a Python call
        return map(tuple.__new__, itertools.repeat(BusyPeriod), zip(
            self._A[firsts].astype(float).tolist(), self._D[stops - 1].astype(float).tolist(),
            map(range, firsts.tolist(), stops.tolist())))


@dataclass(frozen=True, slots=True)
class ZigzagTrajectory:
    """Alternating run lengths (up, down, ..., up, down) of one excursion.

    Total rise equals total fall and every partial height stays
    nonnegative; touching zero in the interior is allowed.  A slot, not an
    instance dict, holds the runs: a trace's table keeps one trajectory per
    busy period.
    """

    run_lengths: tuple

    def __post_init__(self):
        runs = tuple(self.run_lengths)
        object.__setattr__(self, "run_lengths", runs)
        if len(runs) == 0 or len(runs) % 2:
            raise ValueError("need an even, positive number of runs")
        if any(l <= 0 for l in runs):
            raise ValueError("run lengths must be positive")
        h = 0
        for i, l in enumerate(runs):
            h = h + l if i % 2 == 0 else h - l
            if h < 0:
                raise ValueError("trajectory dips below zero")
        if h != 0:
            raise ValueError("total increase must equal total decrease")

    @property
    def total_rise(self):
        return sum(self.run_lengths[::2])

    @property
    def n_peaks(self) -> int:
        return len(self.run_lengths) // 2


def zigzag(s, a) -> ZigzagTrajectory:
    """Zigzag trajectory of one busy period.

    ``s`` holds the k marks of the period's customers, ``a`` the k-1 gaps
    between them.  Up-runs are the marks; down-runs are the gaps, and the
    final down-run is whatever height is left when the last service ends.
    Raises ValueError if the gaps would break the period in two, or if a
    mark, a gap or the closing height is not finite.  The height is summed
    left to right, as in :func:`_period_run_tuples`.
    """
    s, a = np.asarray(s), np.asarray(a)
    if s.ndim != 1 or a.ndim != 1 or s.size == 0 or a.size != s.size - 1:
        raise ValueError("need k marks and k-1 internal gaps")
    s, a = s.tolist(), a.tolist()
    # NaN passes the sign tests below, so it is refused here
    if not all(-math.inf < x < math.inf for x in s + a):
        raise ValueError("marks and gaps must be finite")
    runs = []
    h = 0
    for si, ai in zip(s, a):
        if si <= 0:
            raise ValueError("marks must be positive within a busy period")
        h += si
        if ai <= 0:
            raise ValueError("gaps must be positive")
        if ai > h:
            raise ValueError("gap exceeds current workload: not a single busy period")
        runs += (si, ai)
        h -= ai
    if s[-1] <= 0:
        raise ValueError("marks must be positive within a busy period")
    h += s[-1]
    if h == math.inf:  # finite marks whose sum overflows float64
        raise ValueError("the height of the busy period overflows")
    runs += (s[-1], h)
    return ZigzagTrajectory(tuple(runs))


def zigzag_from_trace(trace: QueueTrace, period: BusyPeriod) -> ZigzagTrajectory:
    """:func:`zigzag` of one busy period of ``trace``.

    The first call builds the zigzags of all the trace's own busy periods at
    once (:func:`_zigzag_table`); a customer range that is one of them is
    answered from that table.  Any other range, such as a hand-built period,
    a part of a period or two periods joined, goes through :func:`zigzag`
    on the same customers.
    """
    c = period.customers
    table = trace._zigzags
    z = table[c.start] if 0 <= c.start < len(table) else None
    if z is not None and len(z.run_lengths) == 2 * (c.stop - c.start):
        return z
    A = trace.A[c.start:c.stop].tolist()  # gaps of Python numbers: exact for integers
    return zigzag(trace.s[c.start:c.stop].tolist(), list(map(operator.sub, A[1:], A)))


def _magnitude(x) -> int:
    """Largest absolute entry of a nonempty integer array, as a Python int."""
    return max(int(x.max()), -int(x.min()))


def _running_sums(x, starts, stops):
    """Running sums of ``x`` over each segment [start, stop), restarted at
    every segment and taken left to right, so float sums agree bit for bit
    with a scalar loop.  Entries outside every segment are left undefined.

    Segments are grouped by length rounded up to a power of two, and each
    group is summed as the columns of one zero-padded block through
    :func:`_accumulate`: the work stays within twice the segments' total
    length however long the longest one is.
    """
    out = np.empty_like(x)
    _, octave = np.frexp(stops - starts - 1)  # 2**octave >= length
    for e in range(int(octave.max(initial=0)) + 1):
        group = octave == e
        pos = starts[group] + np.arange(1 << e)[:, None]
        inside = pos < stops[group]
        block = np.where(inside, x[np.minimum(pos, x.size - 1)], 0)
        out[pos[inside]] = _accumulate(np.add, block, block)[inside]
    return out


def _period_run_tuples(A, s, D):
    """The first customers of the busy periods :func:`zigzag` accepts, as an
    array, and a lazy iterator over their run tuples, in order.

    The running height of every period is summed left to right by
    :func:`_running_sums`, so the checks (finite marks and gaps, positive
    marks, positive gaps, no gap above the height, a finite closing height)
    and the closing heights are those of :func:`zigzag`, bit for bit.  Each
    run tuple is a slice of one tuple of all the runs, taken as the
    iterator is read.
    """
    firsts, stops = _period_bounds(A, D)
    last = stops - 1
    runs = np.empty(2 * A.size, s.dtype)
    runs[::2] = s
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite hand-built entries
        g = np.diff(A)
        # the height steps s_0, -g_0, s_1, ..., s_{N-1}: period p sums 2 f_p to 2 last_p
        np.negative(g, out=runs[1:-1:2])
        h = _running_sums(runs[:-1], 2 * firsts, 2 * last + 1)
        inner = np.ones(g.size, dtype=bool)  # gap n lies inside a period
        inner[last[:-1]] = False
        # each test is what must hold, so a NaN, which fails them all, is refused
        bad = ~((s > 0) & (s < math.inf))
        bad[:-1] |= inner & ~((g > 0) & (g <= h[:-1:2]) & (g < math.inf))
        bad[last] |= ~(h[2 * last] < math.inf)  # finite marks whose sum overflows
    runs[1:-1:2] = g
    runs[2 * last + 1] = h[2 * last]
    keep = ~np.logical_or.reduceat(bad, firsts)
    flat = tuple(runs.tolist())  # a slice of a tuple is the period's tuple
    bounds = (2 * np.append(firsts, A.size)).tolist()
    tuples = map(flat.__getitem__, itertools.starmap(slice, itertools.pairwise(bounds)))
    return firsts[keep], itertools.compress(tuples, keep.tolist())


def _zigzag_table(trace: QueueTrace) -> list:
    """The zigzag of every busy period of ``trace`` that :func:`zigzag`
    accepts, at the index of the period's first customer (None elsewhere).

    The trajectories are made and filled by ``map`` in C, with no Python
    frame per period, and skip the constructor's checks, which the runs
    already passed: this is the one place a :class:`ZigzagTrajectory` is
    built without them.
    """
    A = trace.A
    firsts, runs = _period_run_tuples(A, trace.s, trace.D)
    zigzags = list(map(object.__new__, itertools.repeat(ZigzagTrajectory, len(firsts))))
    # the slot's own setter: the runs are already checked, and frozen refuses setattr
    deque(map(ZigzagTrajectory.run_lengths.__set__, zigzags, runs), maxlen=0)
    table = [None] * A.size
    deque(map(table.__setitem__, firsts.tolist(), zigzags), maxlen=0)
    return table


def enumerate_trajectories(total_rise: int) -> list[ZigzagTrajectory]:
    """All integer trajectories with the given total rise, by direct walk."""
    out = []

    def grow(runs, h, rise_left):
        up = len(runs) % 2 == 0
        if up:
            if rise_left == 0:
                return
            for l in range(1, rise_left + 1):
                grow(runs + [l], h + l, rise_left - l)
        else:
            for l in range(1, h + 1):
                if l == h and rise_left == 0:
                    out.append(ZigzagTrajectory(tuple(runs + [l])))
                elif l < h or rise_left > 0:
                    grow(runs + [l], h - l, rise_left)

    grow([], 0, total_rise)
    return out


@dataclass(frozen=True)
class BackwardCheckReport:
    ok: bool
    max_error: float
    first_violation: tuple | None


def _exact_ints(*arrays):
    """``arrays`` with the integer ones as int64, or as Python ints (object
    arrays) when an entry reaches 2**60: sums of four entries then never
    wrap.  Other arrays are returned as they are."""
    ints = [x.dtype.kind in "iub" for x in arrays]
    big = any(i and x.size and _magnitude(x) >= 2**60 for i, x in zip(ints, arrays))
    return [x.astype(object if big else np.int64, copy=False) if i else x
            for i, x in zip(ints, arrays)]


def backward_check(trace: QueueTrace) -> BackwardCheckReport:
    """Verify the backward Lindley recursion and the sojourn identity.

    Checks w_n = (w_{n+1} + r_n - d_{n-1})^+ on interior indices and
    v_n = w_n + s_n = w_{n+1} + r_n wherever r is defined.  Exact for
    integer traces; relative 1e-12 for real ones.  Each identity is one
    array expression over neighbouring entries; the first violation is
    the first in customer order, sojourn before backward Lindley.  A NaN
    error counts as an infinite one, and an infinite error is a violation.

    It is the oracle of :class:`QueueTrace`'s closed form, sharing no code
    with it, so only a corrupted trace can fail it: a kernel bug, or a test
    that writes a field.
    """
    rel_tol = 0.0 if trace.A.dtype.kind in "iu" else 1e-12
    tol = rel_tol * max(1.0, float(np.abs(trace.D).max()))
    w, s, r, D = _exact_ints(trace.w, trace.s, trace.r, trace.D)
    m = len(w) - 1
    with np.errstate(invalid="ignore", over="ignore"):  # as python floats: no warnings
        sojourn = (w[:m] + s[:m]) - (w[1:] + r[:m])
        lindley = w[1:m] - np.maximum((w[2:] + r[1:m]) - np.diff(D[:m]), 0)
        err = np.abs(np.concatenate((sojourn, lindley)).astype(np.float64))
    err[np.isnan(err)] = np.inf
    bad = np.flatnonzero((err > tol) | (err == np.inf))
    first = None
    if bad.size:
        i = int(bad[0])
        kind, n = ("sojourn", i + 1) if i < m else ("backward-lindley", i - m + 2)
        first = (kind, n, float(err[i]))
    return BackwardCheckReport(ok=first is None, max_error=float(err.max(initial=0.0)),
                               first_violation=first)


def trace_to_csv(trace: QueueTrace, fh) -> None:
    """Write the per-customer table (n, A, s, D, r, w); r is blank on the last row."""
    writer = csv.writer(fh)
    writer.writerow(["n", "A", "s", "D", "r", "w"])
    for n in range(len(trace)):
        r = trace.r[n] if n < len(trace) - 1 else ""
        writer.writerow([n + 1, trace.A[n], trace.s[n], trace.D[n], r, trace.w[n]])
