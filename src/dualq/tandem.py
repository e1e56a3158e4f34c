"""Saturated tandems of K queues and of K stores driven by one matrix.

``u[i, j]`` (1-based in the math, 0-based in the arrays) is the service of
customer i at queue j, and equally the request at time slot i in store
K+1-j: the stages are crossed in opposite orders by the two readings.
Queue 1 starts with infinitely many customers; store 1 with infinite
stock; everything else starts empty.

The two observables are D(N, K), the departure instant of customer N from
the last queue, and R(N), the cumulative amount shipped by the last store
over slots 1..N.

Every matrix and batch enters by one rule, :func:`_entries`: a batch is
(B, N, K) with N, K >= 1, integer and boolean entries run exactly in int64,
real ones in float64, and anything else raises ValueError.  An rsk call
applies it once, and the two public batches here again at their boundary.

Each tandem has one kernel, shared by the batched entry points and the
scalar ones (a batch of one).  The kernels work on (N, K, reps) arrays,
the replications innermost, so each numpy call runs over a contiguous row
of replications; the batched outputs are views with the replication axis
back in front.  Scans over customers go through
:func:`queue_store._accumulate`: a loop over rows when a row holds more
entries than there are customers, ``ufunc.accumulate`` otherwise, chosen
from the shape alone and adding in the same order either way.

The queue kernel is a closed-form scan over the customers, stage by stage
(:func:`queue_store._fifo_series`).  The store kernel has its min-plus
mirror (:func:`_store_series`) and a slot-by-slot loop, picked from the
dtype and the shape alone: integer batches whose slot axis is longer than
a slot's row (N > K * reps, the rule of ``_accumulate``) take the closed
form; real entries take the loop, the only path that adds in the cell
recursion's order and so gives its bits, and so do wide integer batches,
where the loop is the faster.  Integer outputs are equal on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .queue_store import _accumulate, _fifo_series
from .sampling import _below_int64

__all__ = [
    "ServiceMatrix",
    "TandemTrace",
    "queue_departures",
    "store_flow",
    "tandem_outputs",
    "tandem_trace",
    "queue_departures_batch",
    "store_departures_batch",
]


def _entries(u) -> np.ndarray:
    """A (B, N, K) batch with its entries as the kernels take them: boolean
    and integer entries as int64, real ones as float64.

    A batch that is not 3-d, or whose slices have no row or no column,
    raises ValueError; a batch of no slices is fine.  Every departure epoch
    and store total of a slice of nonnegative entries lies within the sum
    of its entries, so a non-real dtype, a negative or non-finite entry, or
    an integer slice whose entries sum to 2**63 or more raises ValueError,
    rather than wrap in int64 or run in another dtype.  The slices are
    summed only when the largest entry times the slice size comes within a
    factor of two of 2**63, and only a slice whose float sum does is summed
    again exactly.
    """
    u = np.asarray(u)
    if u.ndim != 3 or 0 in u.shape[1:]:
        raise ValueError(f"a batch must be (B, N, K) with N, K >= 1, not of shape {u.shape}")
    if u.dtype.kind not in "biuf":
        raise ValueError("entries must be real numbers")
    # reductions, not masks: cheaper on the small matrices; NaN fails both
    lo, hi = u.min(initial=0), u.max(initial=0)
    if not (lo >= 0 and hi < np.inf):
        raise ValueError("entries must be finite and nonnegative")
    if u.dtype.kind == "f":
        return u.astype(np.float64, copy=False)
    if float(hi) * math.prod(u.shape[1:]) >= 2**62:
        sums = u.sum(axis=(1, 2), dtype=np.float64)
        if not all(_below_int64(u[b]) for b in np.flatnonzero(sums >= 2**62)):
            raise ValueError("integer entries of each slice must sum below 2**63")
    return u.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class ServiceMatrix:
    """N x K array of nonnegative service requirements / requests.

    The matrix enters by the batches' rule, :func:`_entries`, as a batch of
    one, so N and K are at least 1: integer entries give exact int64
    dynamics, real ones (used by the exponential ensemble checks) run in
    float64, and zeros are allowed everywhere.  Matrices compare and hash
    by identity.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        if u.ndim != 2:
            raise ValueError(f"u must be an N x K matrix, not of shape {u.shape}")
        object.__setattr__(self, "u", _entries(u[None])[0])

    @property
    def N(self) -> int:
        return self.u.shape[0]

    @property
    def K(self) -> int:
        return self.u.shape[1]


def _as_matrix(U) -> ServiceMatrix:
    return U if isinstance(U, ServiceMatrix) else ServiceMatrix(np.asarray(U))


@dataclass(frozen=True, eq=False)
class TandemTrace:
    """Joint queue/store run of one saturated tandem.

    ``Dmat`` is (N+1) x (K+1) with a zero boundary so that
    D(n, k) = max(D(n-1, k), D(n, k-1)) + u(n, k).  ``rmat[n-1, k-1]`` is
    the amount store k ships during slot n, and ``wmat[n-1, k-1]`` the
    stock of store k at the start of slot n (so w(k, k) = 0: material
    needs k-1 slots to propagate down the line).  Store 1 is the infinite
    reservoir; its tracked stock is recorded as zero.  Traces compare and
    hash by identity, as their fields are arrays.
    """

    Dmat: np.ndarray
    rmat: np.ndarray
    wmat: np.ndarray
    R_seq: np.ndarray
    D_seq: np.ndarray


def _rows_last(u) -> np.ndarray:
    """:func:`_entries` of a (B, N, K) batch as the contiguous (N, K, B)
    array the kernels scan; free when ``u`` is already a view of one."""
    return np.ascontiguousarray(np.moveaxis(_entries(u), 0, -1))


def _queue_scan(u: np.ndarray) -> np.ndarray:
    """Zero-padded departure epochs D (N+1, K+1, B) of each (N, K) slice
    u[:, :, b]: every customer waits at queue 1 from time 0."""
    N, K, B = u.shape
    D = np.zeros((N + 1, K + 1, B), dtype=u.dtype)
    _fifo_series(0, u, out=D[1:, 1:])
    return D


def _store_scan(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot shipments r (N, K, B) and stocks w (N+1, K, B) of the store
    tandem of each (N, K) slice u[:, :, b].

    Store j requests u(., K+1-j); store 1 always meets its request, and
    stores 2..K receive what their predecessors shipped the slot before,
    ship min(stock + inflow, request) and keep the rest.  Integer batches
    whose slot axis is longer than a slot's row (N > K * B, the shape rule
    of :func:`queue_store._accumulate`) run that recursion stage by stage
    in closed form (:func:`_store_series`).  Real entries and wide batches
    step slot by slot, updating every store at once: in floats only the
    slot loop adds in the cell recursion's order, so only it gives the
    cell recursion's bits, and on wide integer batches it is the faster.
    """
    N, K, B = u.shape
    req = u[:, ::-1]  # store j requests u(., K+1-j)
    r = np.empty_like(u)
    w = np.zeros((N + 1, K, B), dtype=u.dtype)
    r[:, 0] = req[:, 0]  # store 1 always meets its request
    if u.dtype.kind == "i" and N > K * B:
        _store_series(req, r, w)
        return r, w
    for n in range(N if K > 1 else 0):
        avail = w[n + 1, 1:]  # stock + inflow, then what is kept
        if n:
            np.add(w[n, 1:], r[n - 1, :-1], out=avail)
        np.minimum(avail, req[n, 1:], out=r[n, 1:])
        avail -= r[n, 1:]
    return r, w


def _store_series(req: np.ndarray, r: np.ndarray, w: np.ndarray) -> None:
    """Stores 2..K of an integer store tandem in closed form, written into
    ``r`` and ``w``, whose store-1 column is already set.

    The min-plus mirror of :func:`queue_store._fifo_series`: with Q_j the
    partial sums of store j's requests and I_j(n) = R_{j-1}(n-1) its
    cumulative inflow, store j's cumulative output is
    R_j = Q_j + min(0, cummin(I_j - Q_j)), its shipments r = diff(R) and
    its stocks w = I_j - R_j.  I_j(1) = 0, so the cummin starts at
    -Q_j(1) <= 0 and the min with 0 is already taken.  Every scan goes
    through :func:`queue_store._accumulate`; the scratch is three (N, B)
    arrays.
    """
    N, K, B = req.shape
    R = _accumulate(np.add, req[:, 0])  # R_1: the requests of store 1
    Q, I = np.empty((2, N, B), dtype=req.dtype)
    I[0] = 0  # nothing reaches a store in the first slot
    for j in range(1, K):
        _accumulate(np.add, req[:, j], Q)
        I[1:] = R[:-1]
        np.subtract(I, Q, out=R)  # R_j overwrites R_{j-1}, already copied into I
        _accumulate(np.minimum, R, R)
        R += Q
        np.subtract(I, R, out=w[1:, j])
        r[0, j] = R[0]
        np.subtract(R[1:], R[:-1], out=r[1:, j])


def queue_departures(U) -> np.ndarray:
    """Departure epochs of the queue tandem, zero-padded boundary included."""
    return _queue_scan(_as_matrix(U).u[:, :, None])[:, :, 0]


def store_flow(U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot store departures, stocks, and cumulative output of store K.

    Store j's request at slot n is u(n, K+1-j); what store j ships at slot
    n reaches store j+1 at slot n+1.  Store 1 always meets its request.
    Returns (rmat, wmat, R_seq) with R_seq the running total shipped by
    store K.
    """
    r, w = _store_scan(_as_matrix(U).u[:, :, None])
    return r[:, :, 0], w[:, :, 0], np.cumsum(r[:, -1, 0])


def tandem_trace(U) -> TandemTrace:
    U = _as_matrix(U)
    Dmat = queue_departures(U)
    rmat, wmat, R_seq = store_flow(U)
    return TandemTrace(Dmat=Dmat, rmat=rmat, wmat=wmat, R_seq=R_seq,
                       D_seq=Dmat[1:, U.K])


def tandem_outputs(U) -> tuple[np.ndarray, np.ndarray]:
    """The two departure sequences (D(1..N, K), R(1..N)); a prefix is a slice."""
    trace = tandem_trace(U)
    return trace.D_seq.copy(), trace.R_seq.copy()


def queue_departures_batch(u: np.ndarray) -> np.ndarray:
    """:func:`queue_departures` of each (N, K) slice,
    (reps, N, K) -> (reps, N+1, K+1)."""
    return _queue_scan(_rows_last(u)).transpose(2, 0, 1)


def store_departures_batch(u: np.ndarray) -> np.ndarray:
    """R_seq (cumulative output of store K) of each (N, K) slice,
    (reps, N, K) -> (reps, N)."""
    last = _store_scan(_rows_last(u))[0][:, -1]
    return _accumulate(np.add, last).T

