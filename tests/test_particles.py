import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualq import particles
from dualq.particles import (
    bus_stop_run,
    bus_stop_step,
    exclusion_step,
    from_exclusion,
    occupancy_history,
    to_exclusion,
    zero_range_run,
)
from dualq.sampling import Seed
from dualq.tandem import ServiceMatrix, queue_departures, store_flow

U22 = ServiceMatrix(np.array([[1, 2], [3, 4]]))
# zero entries, N = 1, K = 1 and N < K, for the core-against-wrapper checks
EDGE_MATRICES = [ServiceMatrix(np.array(u)) for u in (
    [[0]], [[3]], [[0, 0], [0, 0]], [[2], [0], [5]], [[1, 0, 4]], [[0, 2, 2], [3, 0, 1]])]


def matrices(max_n=5, max_k=5, max_entry=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, max_entry), min_size=k, max_size=k),
                min_size=n, max_size=n,
            )
        )
    ).map(lambda rows: ServiceMatrix(np.array(rows)))


def jump_table(U):
    return {(e.particle, e.site): e.slot for e in zero_range_run(U)}


# --- zero-range ---------------------------------------------------------------

def test_zero_range_single_site():
    u = np.array([[2], [3], [1]])
    jumps = jump_table(ServiceMatrix(u))
    assert jumps == {(1, 1): 2, (2, 1): 5, (3, 1): 6}


def test_zero_range_two_by_two():
    jumps = jump_table(U22)
    assert jumps[(2, 2)] == 8


def test_zero_range_zero_clocks_cascade():
    # a zero service passes through its stage within the slot
    u = np.array([[1, 0], [0, 2]])
    D = queue_departures(ServiceMatrix(u))
    assert jump_table(ServiceMatrix(u)) == {
        (1, 1): D[1, 1], (1, 2): D[1, 2], (2, 1): D[2, 1], (2, 2): D[2, 2]}


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_zero_range_matches_departure_matrix(U):
    D = queue_departures(U)
    jumps = jump_table(U)
    assert len(jumps) == U.N * U.K  # every particle crosses every site once
    for n in range(1, U.N + 1):
        for j in range(1, U.K + 1):
            assert jumps[(n, j)] == D[n, j]


def test_zero_range_rejects_float_entries():
    with pytest.raises(ValueError):
        zero_range_run(ServiceMatrix(np.array([[1.5]])))


# --- bus stop -----------------------------------------------------------------

def test_bus_stop_single_site():
    u = np.array([[2], [0], [5]])
    out = bus_stop_run(ServiceMatrix(u))
    assert out[:, 0].tolist() == [2, 0, 5]


def test_bus_stop_two_by_two():
    out = bus_stop_run(U22)
    assert out[:, -1].sum() == 2


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_bus_stop_matches_store_flow(U):
    assert np.array_equal(bus_stop_run(U), store_flow(U)[0])


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6).flatmap(lambda n: st.integers(1, 5).flatmap(
    lambda k: st.lists(st.floats(0, 10, allow_nan=False, allow_infinity=False),
                       min_size=n * k, max_size=n * k).map(
        lambda x: np.array(x).reshape(n, k)))))
@example(np.random.default_rng(0).exponential(size=(12, 4)))
def test_bus_stop_matches_store_flow_on_real_entries(u):
    # each slot adds and clips in the store kernel's order: the same bits
    out = bus_stop_run(ServiceMatrix(u))
    r = store_flow(u)[0]
    assert out.dtype == r.dtype == np.float64 and np.array_equal(out, r)


def test_oracles_keep_their_dtypes():
    for u, dtype in ((U22.u, np.int64), (U22.u * 0.5, np.float64)):
        assert bus_stop_run(ServiceMatrix(u)).dtype == dtype
        assert occupancy_history(ServiceMatrix(u)).dtype == dtype
    stepped = exclusion_step(np.array([1, 0, 1, 0], dtype=np.int64), [1, 1])
    assert stepped.dtype == np.int8 and stepped.tolist() == [0, 1, 0, 1]
    assert all(type(e.slot) is int for e in zero_range_run(U22))
    assert from_exclusion(np.array([1, 0, 1], dtype=np.int8)) == [0, 1]


def test_bus_stop_step_conserves():
    counts = [9, 2, 0, 4]
    nxt, moved = bus_stop_step(counts, [3, 5, 1, 2])
    assert moved == [3, 2, 0, 2]
    assert sum(nxt) == sum(counts) - moved[-1]
    assert all(c >= 0 for c in nxt)


# --- occupancy snapshots ---------------------------------------------------------

def test_zero_range_occupancy_history():
    hist = occupancy_history(U22, model="zero-range")
    assert hist[0].tolist() == [2, 0]      # all particles queued at stage 1
    assert hist[-1].tolist() == [0, 0]     # everyone has left
    assert np.all(hist >= 0)
    # within the horizon the total in-system count never increases
    assert np.all(np.diff(hist.sum(axis=1)) <= 0)


def test_bus_stop_occupancy_history():
    hist = occupancy_history(U22, model="bus-stop")
    moved = bus_stop_run(U22)
    # what leaves the system each slot is exactly the last site's transport
    totals = hist.sum(axis=1)
    assert np.array_equal(totals[:-1] - totals[1:], moved[:, -1])


def test_bus_stop_occupancy_keeps_real_counts():
    # the counts were cast to int64: [3, 0], [2, 0], [1, 1]
    hist = occupancy_history(np.array([[0.5, 0.7], [0.25, 1.5]]))
    assert hist.dtype == np.float64
    assert hist.tolist() == [[3.2, 0], [2.5, 0.7], [1.0, 1.95]]


def test_bus_stop_occupancy_of_an_integer_matrix_stays_int64():
    hist = occupancy_history(np.array([[1, 2], [3, 1]], dtype=np.int8))
    assert hist.dtype == np.int64
    assert hist.tolist() == [[4, 0], [2, 2], [1, 1]]


def test_occupancy_unknown_model():
    with pytest.raises(ValueError):
        occupancy_history(U22, model="tasep")


# --- exclusion mapping ----------------------------------------------------------

def test_to_exclusion_reservoir_only():
    # all sites empty except the (truncated) reservoir at site 1
    cells = to_exclusion([5, 0, 0])
    assert cells.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]


def test_from_exclusion_requires_leading_marker():
    with pytest.raises(ValueError):
        from_exclusion([0, 1, 0])


@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_exclusion_round_trip(counts):
    assert from_exclusion(to_exclusion(counts)) == counts


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6),
       st.integers(0, 2**32))
def test_exclusion_step_commutes_with_bus_stop(counts, master):
    gen = Seed(master).generator()
    buses = gen.integers(0, 6, size=len(counts)).tolist()
    stepped = exclusion_step(to_exclusion(counts), buses)
    lhs = np.trim_zeros(stepped, "f")
    rhs = to_exclusion(bus_stop_step(counts, buses)[0])
    assert np.array_equal(lhs, rhs)
    # departures show up as holes at the left edge
    assert stepped.size - lhs.size == bus_stop_step(counts, buses)[1][-1]


# --- input checks --------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: bus_stop_step([1, 2], [1]), "one bus size per site"),
    (lambda: bus_stop_step([1], [1, 2]), "one bus size per site"),
    (lambda: exclusion_step([1, 0, 1, 0], [1]), "one bus size per marker"),
    (lambda: exclusion_step([1, 0], [1, 1]), "one bus size per marker"),
    (lambda: to_exclusion([2, -1]), "nonnegative integers"),
    (lambda: to_exclusion([1.5, 2]), "nonnegative integers"),
    (lambda: bus_stop_step([3, 1], [-2, 1]), "nonnegative"),  # counts were [5, -2]
    (lambda: exclusion_step([1, 0, 0, 1, 0], [0, -2]), "nonnegative integers"),  # a marker lost
    (lambda: exclusion_step([1, 0, 0, 1, 0], [1.5, 1.7]), "nonnegative integers"),  # truncated
    (lambda: to_exclusion([np.inf]), "nonnegative integers"),  # OverflowError
    (lambda: from_exclusion([1, 2, 0]), "0 or 1"),  # returned [2]
    (lambda: from_exclusion([1, 0.5, 1]), "0 or 1"),  # returned [0, 1]
    (lambda: from_exclusion([[1, 0], [1, 0]]), "1-d"),
    (lambda: exclusion_step([1, 0.5, 0, 1], [1, 1]), "0 or 1"),  # 0.5 truncated to 0
    (lambda: exclusion_step([1, 0, 300, 1], [1, 1]), "0 or 1"),  # OverflowError
    (lambda: bus_stop_step([-3, 2], [1, 1]), "finite and nonnegative"),  # loads [-3, 1]
    (lambda: bus_stop_step([np.nan, 2], [1, 1]), "finite and nonnegative"),
    (lambda: bus_stop_step([np.inf, 2], [1, 1]), "finite and nonnegative"),
    (lambda: bus_stop_step([3, 2], [np.inf, 1]), "finite and nonnegative"),
    # not 1-d: each raised TypeError comparing a list with a number
    (lambda: to_exclusion([[1, 2]]), "counts must be a 1-d sequence"),
    (lambda: exclusion_step([1, 0, 1], [[1], [1]]), "bus sizes must be a 1-d sequence"),
    (lambda: bus_stop_step([[1, 2]], [[1, 2]]), "counts must be a 1-d sequence"),
    (lambda: bus_stop_step([1, 2], [[1], [2]]), "bus sizes must be a 1-d sequence"),
], ids=["too-few-buses", "too-many-buses", "too-few-exclusion-buses",
        "too-many-exclusion-buses", "negative-count", "fractional-count",
        "negative-bus", "negative-exclusion-bus", "fractional-exclusion-bus",
        "infinite-count", "cell-of-two", "fractional-cell", "2-d-configuration",
        "fractional-exclusion-cell", "exclusion-cell-past-int8", "negative-bus-count",
        "nan-bus-count", "infinite-bus-count", "infinite-bus", "2-d-counts",
        "2-d-exclusion-buses", "2-d-bus-counts", "2-d-buses"])
def test_particle_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- list-level cores against their public wrappers -------------------------------

def _on_edges(*more):
    """Add each of EDGE_MATRICES as an example, with the arguments ``more``."""
    def add(test):
        for U in EDGE_MATRICES:
            test = example(U, *more)(test)
        return test
    return add


@settings(deadline=None, max_examples=80)
@_on_edges()
@given(matrices())
def test_zero_range_log_is_the_run_without_its_records(U):
    log = list(particles._zero_range_log(U.u.tolist(), U.N, U.K))
    assert log == [(e.particle, e.site, e.slot) for e in zero_range_run(U)]
    assert all(type(x) is int for jump in log for x in jump)


@settings(deadline=None, max_examples=80)
@_on_edges(0)
@given(matrices(), st.integers(0, 50))
def test_bus_stop_slots_give_the_run_for_any_ample_reservoir(U, extra):
    # a reservoir is ample when it holds the last column's total, all that
    # site 1's buses take: the subcommand's check passes site 1's count, its
    # draw plus the whole matrix's total, and the wrappers that column's total plus one
    reservoir = int(U.u[:, -1].sum()) + extra
    history, moves = particles._bus_stop_slots(U.u.tolist(), reservoir)
    assert moves == bus_stop_run(U).tolist()
    # the reservoir's surplus stays at site 1; the other sites never see it
    expected = occupancy_history(U).tolist()
    assert [h[1:] for h in history] == [h[1:] for h in expected]
    assert {h[0] - e[0] for h, e in zip(history, expected)} == {extra - 1}


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6), st.integers(0, 2**32))
@example([0], 0)
@example([0, 0, 0], 1)
def test_exclusion_cores_match_their_wrappers(counts, master):
    buses = Seed(master).generator().integers(0, 6, size=len(counts)).tolist()
    cells = particles._gap_cells(counts)
    assert cells == to_exclusion(counts).tolist()
    assert particles._gap_counts(cells) == from_exclusion(to_exclusion(counts)) == counts
    stepped = exclusion_step(to_exclusion(counts), buses).tolist()
    assert particles._exclusion_slot(cells, buses) is cells  # in place
    assert cells == stepped
