import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualq import tandem
from dualq.queue_store import _accumulate
from dualq.rsk import (
    growth_shapes,
    lambda_operators,
    path_max,
    path_min,
    tableau_of,
    verify_row_queue,
    verify_row_queue_batch,
    word_of,
)
from dualq.sampling import Seed
from dualq.tandem import (
    ServiceMatrix,
    queue_departures,
    queue_departures_batch,
    store_departures_batch,
    store_flow,
    tandem_outputs,
    tandem_trace,
)

U22 = ServiceMatrix(np.array([[1, 2], [3, 4]]))


# --- independent oracle: walk-based path enumeration -------------------------

def path_max_walk(u):
    """Max node sum over monotone (right/down) walks, by direct recursion."""
    n, k = u.shape
    best = [-1]

    def rec(i, j, acc):
        acc += u[i, j]
        if i == n - 1 and j == k - 1:
            best[0] = max(best[0], acc)
            return
        if i + 1 < n:
            rec(i + 1, j, acc)
        if j + 1 < k:
            rec(i, j + 1, acc)

    rec(0, 0, 0)
    return best[0]


def matrices(max_n=5, max_k=4, max_entry=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, max_entry), min_size=k, max_size=k),
                min_size=n, max_size=n,
            )
        )
    ).map(lambda rows: ServiceMatrix(np.array(rows)))


# --- queue side ---------------------------------------------------------------

def test_single_stage_is_cumsum():
    u = np.array([[2], [0], [5]])
    D = queue_departures(ServiceMatrix(u))
    assert D[1:, 1].tolist() == [2, 2, 7]


def test_two_by_two_departure():
    D = queue_departures(U22)
    assert D[2, 2] == 8


def test_all_zero_matrix():
    D = queue_departures(ServiceMatrix(np.zeros((3, 3), dtype=int)))
    assert not D.any()


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_departure_equals_path_max_oracle(U):
    D = queue_departures(U)
    assert D[U.N, U.K] == path_max_walk(U.u)


def test_dmat_boundary_and_monotonicity():
    D = queue_departures(U22)
    assert not D[0, :].any() and not D[:, 0].any()
    assert np.all(np.diff(D[1:, 1:], axis=0) >= 0)
    assert np.all(np.diff(D[1:, 1:], axis=1) >= 0)


# --- store side ---------------------------------------------------------------

def test_store_single_stage_meets_all_requests():
    u = np.array([[2], [0], [5]])
    r, w, R = store_flow(ServiceMatrix(u))
    assert r[:, 0].tolist() == [2, 0, 5]
    assert R.tolist() == [2, 2, 7]


def test_store_two_by_two():
    r, w, R = store_flow(U22)
    assert R[-1] == 2 == min(U22.u[0, 1], U22.u[1, 0])


def test_store_no_full_passthrough_when_short():
    # with fewer slots than stages nothing reaches the last store
    _, _, R = store_flow(ServiceMatrix(np.array([[3, 4]])))
    assert R.tolist() == [0]


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_store_invariants(U):
    r, w, R = store_flow(U)
    assert np.all(r >= 0) and np.all(w >= 0)
    assert np.all(np.diff(R) >= 0)
    # diagonal stocks vanish: material needs k-1 slots to reach store k
    for k in range(1, min(U.K, U.N + 1) + 1):
        assert w[k - 1, k - 1] == 0
    # per-slot conservation r(n,k) = r(n-1,k-1) + w(n,k) - w(n+1,k)
    for k in range(2, U.K + 1):
        for n in range(1, U.N + 1):
            inflow = r[n - 2, k - 2] if n >= 2 else 0
            assert r[n - 1, k - 1] == inflow + w[n - 1, k - 1] - w[n, k - 1]


@settings(deadline=None, max_examples=40)
@given(matrices(max_n=4, max_k=3, max_entry=4), st.integers(0, 3), st.integers(0, 2))
def test_monotone_in_entries(U, di, dj):
    i, j = di % U.N, dj % U.K
    u2 = U.u.copy()
    u2[i, j] += 3
    U2 = ServiceMatrix(u2)
    assert queue_departures(U2)[U2.N, U2.K] >= queue_departures(U)[U.N, U.K]
    # more requested means weakly more shipped, never less
    assert store_flow(U2)[2][-1] >= store_flow(U)[2][-1]


# --- joint outputs -------------------------------------------------------------

def test_tandem_outputs_prefix_short_horizon():
    D_seq, R_seq = tandem_outputs(U22)
    assert R_seq[:1].tolist() == [0]
    assert D_seq[:1].tolist() == [int(U22.u[0, 0] + U22.u[0, 1])]


def test_tandem_outputs_two_by_two():
    D_seq, R_seq = tandem_outputs(U22)
    assert (D_seq[-1], R_seq[-1]) == (8, 2)


@settings(deadline=None, max_examples=30)
@given(matrices(max_n=4, max_k=3, max_entry=4))
def test_prefixes_match_rsk_shapes(U):
    D_seq, R_seq = tandem_outputs(U)
    for n in range(1, U.N + 1):
        sh = tableau_of(word_of(ServiceMatrix(U.u[:n]))).shape()
        lam1 = sh[0] if sh else 0
        lamK = sh[U.K - 1] if len(sh) >= U.K else 0
        assert D_seq[n - 1] == lam1
        assert R_seq[n - 1] == lamK


def test_d_seq_strictly_increasing_when_positive():
    gen = Seed(3).generator()
    u = gen.integers(1, 6, size=(6, 3))
    trace = tandem_trace(ServiceMatrix(u))
    assert np.all(np.diff(trace.D_seq) > 0)


def test_shape_mass_and_ordering():
    sh = tableau_of(word_of(U22)).shape()
    assert sum(sh) == U22.u.sum()
    D_seq, R_seq = tandem_outputs(U22)
    assert D_seq[-1] >= R_seq[-1]


# --- kernels against a cell-by-cell recursion ------------------------------------

def queue_cells(u):
    """D(n, k) = max(D(n-1, k), D(n, k-1)) + u(n, k), one cell at a time."""
    N, K = u.shape
    D = np.zeros((N + 1, K + 1), dtype=u.dtype)
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            D[n, k] = max(D[n - 1, k], D[n, k - 1]) + u[n - 1, k - 1]
    return D


def store_cells(u):
    """Store k ships min(stock + inflow, u(n, K+1-k)) at slot n, one cell at a time."""
    N, K = u.shape
    r = np.zeros((N, K), dtype=u.dtype)
    w = np.zeros((N + 1, K), dtype=u.dtype)
    r[:, 0] = u[:, K - 1]
    for k in range(2, K + 1):
        for n in range(1, N + 1):
            inflow = r[n - 2, k - 2] if n >= 2 else 0
            avail = w[n - 1, k - 1] + inflow
            r[n - 1, k - 1] = min(avail, u[n - 1, K - k])
            w[n, k - 1] = avail - r[n - 1, k - 1]
    return r, w, np.cumsum(r[:, K - 1])


@st.composite
def batches(draw, floats=False):
    """(reps, N, K) arrays, some with an all-zero row or column."""
    reps, n, k = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = (st.floats(0, 10, allow_nan=False, allow_infinity=False) if floats
             else st.integers(0, 6))
    size = reps * n * k
    u = np.array(draw(st.lists(entry, min_size=size, max_size=size)),
                 dtype=np.float64 if floats else np.int64).reshape(reps, n, k)
    if draw(st.booleans()):
        u[:, draw(st.integers(0, n - 1)), :] = 0
    if draw(st.booleans()):
        u[:, :, draw(st.integers(0, k - 1))] = 0
    return u


@settings(deadline=None, max_examples=80)
@given(batches())
@example(np.zeros((2, 3, 3), dtype=np.int64))
@example(np.arange(4, dtype=np.int64).reshape(1, 1, 4))  # N = 1
@example(np.arange(5, dtype=np.int64).reshape(1, 5, 1))  # K = 1
@example(np.arange(20, dtype=np.int64).reshape(2, 2, 5) % 6)  # N < K
def test_batches_match_scalar_paths(u):
    # every tandem and rsk entry point, scalar and batch alike, runs boolean
    # and integer entries exactly in int64 and real ones in float64; the
    # word, and what is built on it, refuses real entries
    B, N, K = u.shape
    for dtype in (np.int64, np.bool_, np.int8, np.int32, np.uint64, np.float32, np.float64):
        v = u.astype(dtype)
        x = v.astype(np.float64 if v.dtype.kind == "f" else np.int64)
        D3, R2 = queue_departures_batch(v), store_departures_batch(v)
        if x.dtype == np.int64:
            lam1, lamK, ok = verify_row_queue_batch(v)
        else:
            for integer_only in (verify_row_queue_batch, growth_shapes,
                                 lambda v: lambda_operators(v[0]), lambda v: word_of(v[0])):
                with pytest.raises(ValueError, match="integer entries"):
                    integer_only(v)
        for i in range(B):
            D, (r, w, R) = queue_cells(x[i]), store_cells(x[i])
            tr = tandem_trace(ServiceMatrix(v[i]))
            for got, want in ((D3[i], D), (queue_departures(v[i]), D), (tr.Dmat, D),
                              (R2[i], R), (tr.rmat, r), (tr.wmat, w), (tr.R_seq, R),
                              (path_max(v[i]), D[N, K]), (path_min(v[i]), R[-1])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            if x.dtype == np.int64:
                rep = verify_row_queue(v[i])
                assert lambda_operators(v[i]) == (lam1[i, 1], lamK[i, 1]) == (D[N, K], R[-1])
                assert rep.ok and ok[i]
                assert rep.lambda1 == tuple(lam1[i].tolist()) == (D[N, K],) * 4
                assert rep.lambdaK == tuple(lamK[i].tolist()) == (R[-1],) * 4


@settings(deadline=None, max_examples=60)
@given(batches(floats=True))
@example(np.random.default_rng(0).exponential(size=(4, 3, 5)))
def test_float_kernels_against_cell_recursion(u):
    # the store kernel does each cell's arithmetic in the same order, so it
    # is bit-identical; the queue scan is a closed form, within 1e-12 relative
    D3 = queue_departures_batch(u)
    R2 = store_departures_batch(u)
    for i in range(u.shape[0]):
        D, (r, w, R) = queue_cells(u[i]), store_cells(u[i])
        scale = max(1.0, float(D.max()))
        assert np.max(np.abs(D3[i] - D)) <= 1e-12 * scale
        assert np.max(np.abs(queue_departures(u[i]) - D)) <= 1e-12 * scale
        r1, w1, R1 = store_flow(u[i])
        for got, want in ((R2[i], R), (r1, r), (w1, w), (R1, R)):
            assert np.array_equal(got, want)


# --- layouts: wide batches of short matrices, one long matrix ---------------------
#
# The kernels scan (N, K, B) arrays and accumulate over customers through
# queue_store._accumulate: a loop over rows when a row (K * B entries) is wider
# than N is long, ufunc.accumulate otherwise.  The wide-short batches take the
# loop and the long-thin inputs take accumulate.

@pytest.mark.parametrize("shape", [(3, 5000), (4, 1), (2000, 2), (1, 7)])
@pytest.mark.parametrize("ufunc", [np.add, np.maximum])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
def test_accumulate_matches_ufunc_accumulate(shape, ufunc, dtype):
    x = Seed(20).generator().exponential(5.0, shape).astype(dtype)
    want = ufunc.accumulate(x, axis=0)
    got = _accumulate(ufunc, x)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(_accumulate(ufunc, x.copy(), x), want.astype(dtype))  # in place


WIDE_SHORT = [(3000, 1, 4), (2500, 3, 2), (2000, 4, 4)]  # (B, N, K)
LONG_THIN = [(1, 1500, 1), (1, 1200, 3)]


@pytest.mark.parametrize("B, N, K", WIDE_SHORT + LONG_THIN)
def test_integer_layouts_match_cell_recursion(B, N, K):
    u = Seed(21).generator().integers(0, 7, size=(B, N, K))
    D3, R2 = queue_departures_batch(u), store_departures_batch(u)
    assert D3.shape == (B, N + 1, K + 1) and R2.shape == (B, N)
    assert D3.dtype == R2.dtype == np.int64
    for i in range(B):
        assert np.array_equal(D3[i], queue_cells(u[i]))
        assert np.array_equal(R2[i], store_cells(u[i])[2])


@pytest.mark.parametrize("B, N, K", WIDE_SHORT + LONG_THIN)
def test_float_layouts_equal_scalar_entry_points(B, N, K):
    # batch and scalar entry points add in the same sequential order, so they
    # agree bit for bit; the cell recursion stays within 1e-12 relative
    u = Seed(22).generator().exponential(1.0, size=(B, N, K))
    D3, R2 = queue_departures_batch(u), store_departures_batch(u)
    for i in range(B):
        D = queue_departures(u[i])
        r, w, R = store_flow(u[i])
        assert np.array_equal(D3[i], D) and np.array_equal(R2[i], R)
    D = queue_cells(u[-1])
    assert np.max(np.abs(D3[-1] - D)) <= 1e-12 * max(1.0, float(D.max()))
    assert np.array_equal(R2[-1], store_cells(u[-1])[2])


# --- the store scan's two paths ----------------------------------------------------
#
# Integer batches whose slot axis is longer than a slot's row (N > K * B) run the
# store recursion stage by stage in closed form; real entries and wide batches step
# slot by slot.  Both must give the cell recursion's integers.

def closed_form_calls(monkeypatch):
    """Record the shape of every batch the closed form runs on."""
    calls = []
    real = tandem._store_series

    def recording(req, r, w):
        calls.append(req.shape)
        return real(req, r, w)

    monkeypatch.setattr(tandem, "_store_series", recording)
    return calls


@pytest.mark.parametrize("B, K, extra, closed", [
    (1, 1, 0, False), (1, 1, 1, True), (2, 3, 0, False), (2, 3, 1, True),
    (3, 4, 0, False), (3, 4, 1, True)])
def test_store_path_boundary(monkeypatch, B, K, extra, closed):
    N = K * B + extra
    u = Seed(23).generator().integers(0, 7, size=(B, N, K))
    calls = closed_form_calls(monkeypatch)
    R2 = store_departures_batch(u)
    assert calls == ([(N, K, B)] if closed else [])
    for i in range(B):
        assert np.array_equal(R2[i], store_cells(u[i])[2])


def test_store_closed_form_on_a_long_matrix(monkeypatch):
    u = Seed(24).generator().integers(0, 6, size=(3000, 7))
    calls = closed_form_calls(monkeypatch)
    got, want = store_flow(u), store_cells(u)
    assert calls == [(3000, 7, 1)]
    for g, x in zip(got, want):
        assert g.dtype == x.dtype == np.int64 and np.array_equal(g, x)


def test_store_closed_form_just_below_the_int64_limit(monkeypatch):
    # K = 3 and N = 4 > K: every stage runs on the closed path, on a slice whose
    # entries sum to 2**63 - 1, the largest R(N) that fits
    u = np.full((4, 3), 2**59 + 2**57 + 2**55, dtype=np.int64)
    u[0, 0] = u[-1, -1] = 0
    u[-1, -1] = 2**63 - 1 - int(u.sum())
    assert sum(u.ravel().tolist()) == 2**63 - 1 and u.min() >= 0
    calls = closed_form_calls(monkeypatch)
    r, w, R = store_flow(u)
    assert calls == [(4, 3, 1)]
    for got, want in zip((r, w, R), store_cells(u)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_real_entries_keep_the_slot_loop(monkeypatch):
    u = Seed(25).generator().exponential(1.0, size=(1, 500, 3))
    calls = closed_form_calls(monkeypatch)
    R2 = store_departures_batch(u)
    assert calls == [] and np.array_equal(R2[0], store_cells(u[0])[2])


def test_matrix_validation():
    with pytest.raises(ValueError):
        ServiceMatrix(np.array([[-1, 2]]))
    for u in (np.array([1, 2]), np.zeros((1, 2, 2)), np.zeros((0, 3)), np.zeros((3, 0)),
              np.array([[]])):
        with pytest.raises(ValueError, match="not of shape"):  # 1-d, 3-d, N = 0, K = 0
            ServiceMatrix(u)
    for u in (np.array([[2**62, 2**62]]),            # D(1, 2) wrapped to -2**63
              np.array([[2**63]], dtype=np.uint64),  # the cast wrapped it to -2**63
              np.full((3, 3), 2**60 + 2**59)):
        with pytest.raises(ValueError, match="sum below 2\\*\\*63"):
            queue_departures(u)


def test_matrix_just_below_the_int64_limit_is_exact():
    # the entries sum to 2**63 - 1, the largest D(N, K) and R(N) that fit
    u = np.array([[2**62, 2**62 - 1]])
    assert queue_departures(u)[1, 2] == 2**63 - 1
    assert store_flow(u.T)[2].tolist() == [2**62, 2**63 - 1]


def service_matrices(u):
    return [ServiceMatrix(m) for m in u]


def each_slice(fn):
    """``fn`` of each (N, K) slice of a batch, in order."""
    def batch(u):
        return [fn(m) for m in np.asarray(u)]
    batch.__name__ = f"{fn.__name__}_batch"
    return batch


# every batch entry point, ServiceMatrix's batch of one and the rsk scalar
# witnesses on each slice too, enters by the one rule of tandem._entries
@pytest.mark.parametrize("batch", [
    queue_departures_batch, store_departures_batch, growth_shapes, service_matrices,
    each_slice(lambda_operators), each_slice(path_max), each_slice(path_min),
    verify_row_queue_batch])
@pytest.mark.parametrize("u, message", [
    (np.array([[[2**62, 2**62]]]), "sum below 2\\*\\*63"),            # D(1, 2) wrapped to -2**63
    (np.array([[[2**62], [2**62]]]), "sum below 2\\*\\*63"),          # R(2) wrapped to -2**63
    (np.array([[[1, 1]], [[2**62, 2**62]]]), "sum below 2\\*\\*63"),  # one slice of two
    (np.array([[[2**63]]], dtype=np.uint64), "sum below 2\\*\\*63"),
    (np.array([[[2**62, 2**62], [-2**62, 0]]]), "finite and nonnegative"),  # D = -2**63
    (np.array([[[1.0, np.nan]]]), "finite and nonnegative"),
    (np.array([[[np.inf, 1.0]]]), "finite and nonnegative"),  # D = NaN, with a RuntimeWarning
    (np.array([[["1", "2"]]]), "real numbers"),
    (np.zeros((2, 0, 3), dtype=np.int64), "not of shape"),  # IndexError, or (2, 1, 4) outputs
    (np.zeros((2, 3, 0), dtype=np.int64), "not of shape"),
    (np.zeros((2, 3), dtype=np.int64), "not of shape"),  # "not enough values to unpack"
    (np.zeros((1, 2, 2, 2), dtype=np.int64), "not of shape"),
], ids=["queue", "store", "second-slice", "uint64", "negative", "nan", "inf", "string",
        "no-rows", "no-columns", "2-d", "4-d"])
def test_batches_reject_a_slice_past_int64(batch, u, message):
    with pytest.raises(ValueError, match=message):
        batch(u)


def test_batches_of_no_slices():
    u = np.zeros((0, 2, 3), dtype=np.int64)
    assert queue_departures_batch(u).shape == (0, 3, 4)
    assert store_departures_batch(u).shape == (0, 2)
    assert growth_shapes(u).shape == (0, 3, 3)
    assert [x.shape for x in verify_row_queue_batch(u)] == [(0, 4), (0, 4), (0,)]


def test_batch_just_below_the_int64_limit_is_exact():
    # each slice sums to 2**63 - 1 and the batch to 2**64 - 2: the rule is per slice
    u = np.array([[[2**62, 2**62 - 1]]] * 2)
    assert queue_departures_batch(u)[:, 1, 2].tolist() == [2**63 - 1] * 2
    assert store_departures_batch(u.transpose(0, 2, 1)).tolist() == [[2**62, 2**63 - 1]] * 2
