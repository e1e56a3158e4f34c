import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualq import cli, rsk, tandem
from dualq.rsk import (
    growth_shapes,
    BRUTE_FORCE_LIMIT,
    SizeLimitError,
    Tableau,
    is_partition,
    lambda_operators,
    nabla,
    normalize_partition,
    path_max,
    path_min,
    pretty,
    tableau_of,
    triangle,
    verify_row_queue,
    verify_row_queue_batch,
    word_of,
)
from dualq.sampling import Seed
from dualq.tandem import ServiceMatrix, queue_departures, store_flow

U22 = ServiceMatrix(np.array([[1, 2], [3, 4]]))


# --- independent oracle: longest weakly increasing subsequence ----------------

def lwis(word):
    """Quadratic DP for the longest weakly increasing subsequence."""
    word = list(word)
    if not word:
        return 0
    best = [1] * len(word)
    for i in range(len(word)):
        for j in range(i):
            if word[j] <= word[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


# --- independent oracle: row insertion by its definition ----------------------

def scan_insert(row, x):
    """Put ``x`` in place of the leftmost entry of ``row`` greater than it,
    found by scanning, and return that entry; append ``x`` and return None
    when there is none."""
    j = next((j for j, y in enumerate(row) if y > x), len(row))
    if j == len(row):
        row.append(x)
        return None
    row[j], x = x, row[j]
    return x


def bump_rows(word):
    """Rows of the insertion tableau of ``word``, letter by letter: each
    letter goes into the first row by :func:`scan_insert`, the displaced
    entry into the next row, and so on; past the last row it starts a new
    one.  The rows are lists."""
    rows = []
    for x in word:
        for row in rows:
            x = scan_insert(row, x)
            if x is None:
                break
        else:
            rows.append([x])
    return rows


def frozen(rows):
    """``rows`` as a :class:`Tableau` holds them: a tuple of tuples."""
    return tuple(map(tuple, rows))


def words(max_len=30, k=4):
    return st.lists(st.integers(1, k), max_size=max_len)


def matrices(max_n=5, max_k=4, max_entry=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, max_entry), min_size=k, max_size=k),
                min_size=n, max_size=n,
            )
        )
    ).map(lambda rows: ServiceMatrix(np.array(rows)))


# --- partitions ----------------------------------------------------------------

def test_partition_helpers():
    assert normalize_partition((3, 1, 0, 0)) == (3, 1)
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 3))
    assert is_partition(())


# --- word ----------------------------------------------------------------------

def test_word_empty():
    assert word_of(ServiceMatrix(np.zeros((2, 3), dtype=int))).size == 0


def test_word_single_row():
    assert word_of(ServiceMatrix(np.array([[1, 2]]))).tolist() == [1, 2, 2]


def test_word_two_by_two():
    w = word_of(U22)
    assert w.tolist() == [1, 2, 2, 1, 1, 1, 2, 2, 2, 2]
    assert w.size == U22.u.sum()


def test_word_rejects_floats():
    with pytest.raises(ValueError):
        word_of(ServiceMatrix(np.array([[1.5]])))


# --- insertion -----------------------------------------------------------------

@pytest.mark.parametrize("bad", [1.7, 0, -3, float("nan"), float("inf")])
def test_tableau_of_rejects_what_insert_rejects(bad):
    # the letters row insertion cannot place; tableau_of once cast to int64:
    # [1.7, 1] gave [[1, 1]], [0, 2] gave [[0, 2]]
    for word in ([bad], [bad, 2], [2, bad]):
        with pytest.raises(ValueError, match="letters are positive integers"):
            tableau_of(word)


@pytest.mark.parametrize("word", [[[1, 2], [3, 4]], [[1]], 3, np.ones((2, 0), dtype=int)])
def test_tableau_of_refuses_a_word_that_is_not_1d(word):
    # a 2-d word raised TypeError from comparing a row with 1
    with pytest.raises(ValueError, match="1-d sequence of letters"):
        tableau_of(word)


def test_integral_float_letters_still_insert():
    assert tableau_of([2.0]).rows == ((2,),)
    assert tableau_of([2**70]).rows == ((2**70,),)
    assert tableau_of([2.0, 1.0, 3.0]).rows == tableau_of([2, 1, 3]).rows == ((1, 3), (2,))
    assert tableau_of(np.array([2, 1], dtype=np.uint8)).rows == ((1,), (2,))
    assert tableau_of([]).rows == ()


@given(words())
def test_insert_maximal_letter_appends(word):
    T = tableau_of(word)
    T2 = tableau_of(word + [4])
    assert T2.rows == (T.rows[0] + (4,),) + T.rows[1:] if T.rows else T2.rows == ((4,),)


@given(words(), st.integers(1, 4))
def test_insert_valid_and_adds_one_box(word, letter):
    T = tableau_of(word)
    assert sum(T.weight(4)) == sum(T.shape()) == len(word)
    rows = [list(r) for r in T.rows]
    rsk._insert_word(rows, [letter])
    T2 = Tableau(rows)
    assert sum(T2.weight(4)) == sum(T2.shape()) == len(word) + 1
    assert T2 == tableau_of(word + [letter])


def insertion_words():
    """Words with the shapes that stress row insertion: empty, one letter
    repeated, decreasing, long runs, and any word."""
    runs = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 15)), max_size=8)
    return st.one_of(
        st.just([]),
        st.tuples(st.integers(1, 6), st.integers(1, 30)).map(lambda t: [t[0]] * t[1]),
        st.lists(st.integers(1, 9), max_size=15).map(lambda w: sorted(w, reverse=True)),
        st.lists(st.integers(1, 9), unique=True, max_size=9).map(
            lambda w: sorted(w, reverse=True)),
        runs.map(lambda rs: [y for y, n in rs for _ in range(n)]),
        words(max_len=40, k=7),
    )


_BIG = 10**9
big_letter_words = st.lists(st.sampled_from([1, 2, _BIG - 1, _BIG]), max_size=20)


@settings(max_examples=300)
@given(st.one_of(insertion_words(), big_letter_words), st.integers(1, 9),
       st.one_of(insertion_words(), big_letter_words))
def test_insertion_matches_the_scan_oracle(word, letter, more):
    T = tableau_of(word)
    assert T.rows == frozen(bump_rows(word))
    assert Tableau(T.rows) == T  # the checked constructor takes the unchecked build
    assert tableau_of(word + [letter]).rows == frozen(bump_rows(word + [letter]))
    rows = [list(r) for r in T.rows]
    rsk._insert_word(rows, list(more))  # a whole word onto a filled tableau
    assert rows == bump_rows(word + more)


@settings(max_examples=300)
@example(start=[], word=[])
@example(start=[], word=list(range(2000, 0, -1)))
@example(start=[3, 1, 2], word=list(range(2000, 0, -1)))
@example(start=[1, _BIG], word=[_BIG, 1, _BIG, _BIG - 1])
@given(st.one_of(insertion_words(), big_letter_words),
       st.one_of(insertion_words(), big_letter_words))
def test_row_pass_is_the_scan_oracle_letter_by_letter(start, word):
    row = bump_rows(start)[0] if start else []
    expect_row = list(row)
    expect = [y for y in (scan_insert(expect_row, x) for x in word) if y is not None]
    assert rsk._row_pass(row, list(word)) == expect
    assert row == expect_row


def test_insertion_cost_follows_the_letters_present():
    # a decreasing permutation bumps every letter down a column of n rows
    n = 2000
    assert tableau_of(range(n, 0, -1)).rows == tuple((y,) for y in range(1, n + 1))
    assert tableau_of([_BIG]).rows == ((_BIG,),)
    assert tableau_of([3, 1, 2, _BIG]).rows == ((1, 2, _BIG), (3,))
    assert tableau_of([_BIG, 1]).rows == ((1,), (_BIG,))


def test_tableau_of_empty_word():
    assert tableau_of([]).rows == ()
    assert tableau_of([]).shape() == ()


def test_tableau_of_two_by_two_word():
    assert tableau_of(word_of(U22)).shape() == (8, 2)


@given(st.integers(0, 12))
def test_single_letter_word(n):
    assert tableau_of([1] * n).shape() == ((n,) if n else ())


@given(words())
def test_shape_bounded_by_alphabet(word):
    sh = tableau_of(word).shape()
    assert len(sh) <= 4
    assert sum(sh) == len(word)
    assert all(sh[i] >= sh[i + 1] for i in range(len(sh) - 1))


def test_shape_examples():
    assert Tableau([[1, 1, 2], [2]]).shape() == (3, 1)


def test_pretty():
    assert pretty(Tableau([[1, 2], [2]])) == "|1|2|\n|2|"
    assert "empty" in pretty(Tableau())


# --- operator chains -------------------------------------------------------------

def test_nabla_triangle_small():
    # by hand: nabla(2) = max(0+1-0, 1+1-0, 1) = 2,
    #          triangle(1) = min(0+0-0, 1+0-0) = 0, triangle(2) = min(1, 2, 1) = 1
    x = np.array([0, 1, 1])
    y = np.array([0, 0, 1])
    assert nabla(x, y).tolist() == [0, 1, 2]
    assert triangle(x, y).tolist() == [0, 0, 1]


def test_lambda_single_stage():
    U = ServiceMatrix(np.array([[2], [3]]))
    assert lambda_operators(U) == (5, 5)


def test_lambda_two_by_two():
    assert lambda_operators(U22) == (8, 2)


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_lambda1_is_longest_weakly_increasing_subsequence(U):
    lam1, _ = lambda_operators(U)
    assert lam1 == lwis(word_of(U).tolist())


# --- path oracles ----------------------------------------------------------------

def test_paths_single_stage():
    U = ServiceMatrix(np.array([[2], [0], [5]]))
    assert path_max(U) == 7
    assert path_min(U) == 7


def test_paths_two_by_two():
    assert path_max(U22) == 8
    assert path_min(U22) == 2


def test_path_min_empty_set():
    assert path_min(ServiceMatrix(np.array([[1, 2]]))) == 0


def test_path_guard(monkeypatch):
    big = ServiceMatrix(np.ones((10, 6), dtype=int))
    with pytest.raises(SizeLimitError):
        path_max(big)
    monkeypatch.setattr(rsk, "BRUTE_FORCE_LIMIT", 16)
    assert path_max(big) == 15
    assert 10 + 6 > BRUTE_FORCE_LIMIT


# --- the six-way identity ----------------------------------------------------------

def test_verify_two_by_two():
    rep = verify_row_queue(U22)
    assert rep.ok
    assert rep.lambda1 == (8, 8, 8, 8)
    assert rep.lambdaK == (2, 2, 2, 2)


def test_verify_all_zero():
    rep = verify_row_queue(ServiceMatrix(np.zeros((2, 2), dtype=int)))
    assert rep.ok
    assert rep.lambda1 == (0, 0, 0, 0)


@settings(deadline=None, max_examples=150)
@given(matrices(max_n=5, max_k=4, max_entry=5))
def test_verify_random(U):
    assert verify_row_queue(U).ok


# --- growth diagram against insertion ----------------------------------------------

@settings(deadline=None, max_examples=80)
@given(matrices(max_n=5, max_k=4, max_entry=4))
def test_growth_shapes_match_insertion_on_every_prefix(U):
    grown = growth_shapes(U.u[None])[0]
    assert not grown[0].any()
    for n in range(1, U.N + 1):
        sh = tableau_of(word_of(ServiceMatrix(U.u[:n]))).shape()
        assert tuple(x for x in grown[n].tolist() if x) == sh


@pytest.mark.parametrize("B, N, K", [(3000, 2, 3), (2000, 4, 4), (2500, 3, 1)])
def test_growth_shapes_wide_batches_match_insertion(B, N, K):
    u = np.random.default_rng(30).integers(0, 4, size=(B, N, K))
    grown = growth_shapes(u)
    assert grown.shape == (B, N + 1, K) and grown.dtype == np.int64
    for b in range(B):
        for n in (N - 1, N):
            sh = tableau_of(word_of(ServiceMatrix(u[b, :n]))).shape()
            assert tuple(x for x in grown[b, n].tolist() if x) == sh


def test_growth_shapes_long_matrix():
    # one matrix of 1500 rows: insertion at a few prefixes, and on every prefix
    # lambda_1 = D(n, K) and lambda_K = R(n) of the tandem kernels
    u = np.random.default_rng(31).integers(0, 3, size=(1, 1500, 3))
    grown = growth_shapes(u)[0]
    for n in (1, 2, 700, 1500):
        sh = tableau_of(word_of(ServiceMatrix(u[0, :n]))).shape()
        assert tuple(x for x in grown[n].tolist() if x) == sh
    assert np.array_equal(grown[1:, 0], queue_departures(u[0])[1:, -1])
    assert np.array_equal(grown[1:, -1], store_flow(u[0])[2])


def test_growth_shapes_rejects_non_integer_entries():
    # the entries were cast to int64, giving shapes [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="integer"):
        growth_shapes([[[0.5, 1.7]]])


# --- batched witnesses against per-case loops ----------------------------------

def chain_loop(word, K):
    """(lambda_1, lambda_K) by folding nabla/triangle over plain lists."""
    x = [[0] * (len(word) + 1) for _ in range(K)]
    for n, letter in enumerate(word, 1):
        for i in range(K):
            x[i][n] = x[i][n - 1] + (letter == i + 1)

    def fold(x, y, pick):
        best, out = None, []
        for xm, ym, yn in zip(x, y, y):
            best = xm - ym if best is None else pick(best, xm - ym)
            out.append(best + yn)
        return out

    top = x[0]
    for i in range(1, K):
        top = fold(top, x[i], max)
    bottom = x[K - 1]
    for i in range(K - 2, -1, -1):
        bottom = fold(bottom, x[i], min)
    return top[-1], bottom[-1]


def dual_path_sums(u):
    """Node sums over the dual set, each path built from its cut rows
    i_{K-1} < ... < i_1: column K above i_{K-1}, column j strictly
    between i_j and i_{j-1}, column 1 below i_1."""
    N, K = u.shape
    sums = []
    for cuts in combinations(range(1, N + 1), K - 1):
        bounds = (0,) + cuts + (N + 1,)
        sums.append(sum(int(u[row - 1, K - 1 - c])
                        for c in range(K)
                        for row in range(bounds[c] + 1, bounds[c + 1])))
    return sums


def stacks(max_b=4, max_n=6, max_k=5, max_entry=4):
    """(B, N, K) integer stacks; N < K, N = 1 and K = 1 included."""
    return st.tuples(st.integers(1, max_b), st.integers(1, max_n),
                     st.integers(1, max_k)).flatmap(
        lambda bnk: st.lists(st.integers(0, max_entry), min_size=bnk[0] * bnk[1] * bnk[2],
                             max_size=bnk[0] * bnk[1] * bnk[2]
                             ).map(lambda flat: np.array(flat, dtype=np.int64).reshape(bnk)))


EDGE_STACKS = (np.zeros((3, 2, 2), dtype=np.int64),         # all zero
               np.array([[[0, 0], [0, 0]], [[2, 1], [0, 3]]]),  # a zero case beside another
               np.array([[[2], [0], [5]], [[1], [1], [0]]]),  # K = 1
               np.array([[[1, 0, 4]], [[0, 2, 2]]]),         # N = 1 < K
               np.array([[[3, 1, 0], [2, 0, 1]]]))           # N < K, empty dual set


def _example_all(test):
    for u in EDGE_STACKS:
        test = example(u)(test)
    return test


@settings(deadline=None, max_examples=80)
@_example_all
@given(stacks())
def test_chain_batch_matches_per_case_loops(u):
    # the chain column of the six-way batch, and the scalar chains
    lam1, lamK, _ = verify_row_queue_batch(u)
    for b in range(u.shape[0]):
        expected = chain_loop(word_of(u[b]).tolist(), u.shape[2])
        assert (int(lam1[b, 1]), int(lamK[b, 1])) == expected == lambda_operators(u[b])


@settings(deadline=None, max_examples=80)
@_example_all
@given(stacks())
def test_path_batches_match_per_case_loops(u):
    # the path columns of the six-way batch, and the scalar oracles
    lam1, lamK, _ = verify_row_queue_batch(u)
    for b in range(u.shape[0]):
        hi, lo = path_max(u[b]), path_min(u[b])
        assert hi.dtype == lo.dtype == u.dtype
        sums = dual_path_sums(u[b])
        assert lam1[b, 2] == hi
        assert lamK[b, 2] == lo == (min(sums) if sums else 0)


@settings(deadline=None, max_examples=80)
@_example_all
@example(np.array([[[3, 2], [1, 4]]], dtype=np.uint64))  # the tandem column read D = 5
@given(stacks())
def test_six_way_batch_matches_per_case_loops(u):
    lam1, lamK, ok = verify_row_queue_batch(u)
    assert ok.all()
    N, K = u.shape[1:]
    for b in range(u.shape[0]):
        sh = [len(row) for row in bump_rows(word_of(u[b]).tolist())] + [0] * K
        rep = verify_row_queue(u[b])
        assert tuple(lam1[b].tolist()) == rep.lambda1
        assert tuple(lamK[b].tolist()) == rep.lambdaK
        assert rep.lambda1[0] == sh[0]
        assert rep.lambdaK[0] == sh[K - 1]
        assert rep.lambda1[3] == queue_departures(u[b])[N, K]
        assert rep.lambdaK[3] == store_flow(u[b])[2][-1]


@settings(deadline=None, max_examples=80)
@_example_all
@given(stacks())
def test_six_way_tableau_column_is_the_tableau_of_each_word(u):
    # the batch inserts each case's row of one tolist() of the stack's words;
    # tableau_of, the checking entry point, gives the same two row lengths
    lam1, lamK, _ = verify_row_queue_batch(u)
    K = u.shape[2]
    for b in range(u.shape[0]):
        rows = tableau_of(word_of(ServiceMatrix(u[b]))).rows
        assert lam1[b, 0] == (len(rows[0]) if rows else 0)
        assert lamK[b, 0] == (len(rows[K - 1]) if len(rows) >= K else 0)


@settings(deadline=None, max_examples=150)
@_example_all
@example(np.array([[[1, 2, 0], [0, 0, 0], [3, 0, 1]],   # an all-zero row between others
                   [[0, 0, 0], [0, 0, 0], [0, 4, 0]]]))  # all-zero rows first
@given(stacks())
def test_matrix_words_insert_as_the_scan_oracle_inserts_them(u):
    for case in u:
        word = word_of(case).tolist()
        assert tableau_of(word).rows == frozen(bump_rows(word))


def seed_case(seed, i):
    """Case i of verify-identities at its default sizes, from fresh generators
    of streams 0-2: n in 1..6, k in 1..4, then a 6 x 4 entry draw per case."""
    n, k = (Seed(seed).substream(j).generator().integers(1, top + 1, size=i + 1)[i]
            for j, top in ((0, 6), (1, 4)))
    return Seed(seed).substream(2).generator().integers(0, 6, size=(i + 1, 6, 4))[i, :n, :k]


def test_broken_insertion_kernel_is_named_by_the_six_way_check(monkeypatch, capsys):
    def no_bumps(row, word):  # every letter stays in the first row
        row.extend(word)
        return []

    monkeypatch.setattr(rsk, "_row_pass", no_bumps)
    lam1, lamK, ok = verify_row_queue_batch(np.array([[[1, 2], [3, 4]], [[1, 2], [0, 0]]]))
    assert ok.tolist() == [False, True]
    assert lam1.tolist() == [[10, 8, 8, 8], [3, 3, 3, 3]]
    assert lamK.tolist() == [[0, 2, 2, 2], [0, 0, 0, 0]]
    code = cli.main(["verify-identities", "--cases", "50", "--seed", "28"])
    payload = json.loads(capsys.readouterr().out)
    first = payload["diagnostics"]["first_failure"]
    assert code == 1
    # a case fails exactly when its word bumps a letter out of the first row
    cases = [seed_case(28, i) for i in range(50)]
    bumps = [len(bump_rows(word_of(u).tolist())) > 1 for u in cases]
    assert payload["tests"][0]["statistic"] == sum(bumps)
    assert first["case"] == bumps.index(True) == 1  # case 0 keeps one row
    assert first["matrix"] == cases[1].tolist()
    assert first["lambda1"][0] != first["lambda1"][1] or first["lambdaK"][0] != first["lambdaK"][1]


def test_six_way_batch_names_the_failing_witness(monkeypatch):
    from dualq import tandem
    real = tandem.store_departures_batch
    monkeypatch.setattr(tandem, "store_departures_batch", lambda u: real(u) + 1)
    lam1, lamK, ok = verify_row_queue_batch(np.array([[[1, 2], [3, 4]]] * 2))
    assert not ok.any()
    assert lam1.tolist() == [[8, 8, 8, 8]] * 2
    assert lamK.tolist() == [[2, 2, 2, 3]] * 2


def each_slice(fn):
    """``fn`` of each (N, K) slice of a batch, in order."""
    def batch(u):
        return [fn(m) for m in np.asarray(u)]
    batch.__name__ = f"{fn.__name__}_batch"
    return batch


@pytest.mark.parametrize("fn", [each_slice(path_max), each_slice(path_min),
                                verify_row_queue_batch])
def test_batches_keep_the_brute_force_limit(fn, monkeypatch):
    u = np.ones((2, 10, 6), dtype=np.int64)
    assert 10 + 6 > BRUTE_FORCE_LIMIT
    with pytest.raises(SizeLimitError):
        fn(u)
    monkeypatch.setattr(rsk, "BRUTE_FORCE_LIMIT", 16)
    assert fn(u) is not None


@pytest.mark.parametrize("call, checks", [
    (lambda u: verify_row_queue(u[0]), 3),
    (verify_row_queue_batch, 3),
    (lambda u: lambda_operators(u[0]), 1),
    (lambda u: path_max(u[0]), 1),
    (lambda u: path_min(u[0]), 1),
    (lambda u: word_of(u[0]), 1),
], ids=["verify_row_queue", "verify_row_queue_batch", "lambda_operators", "path_max",
        "path_min", "word_of"])
def test_each_call_checks_its_matrix_once(call, checks, monkeypatch):
    # one check where the matrix enters rsk (ServiceMatrix for the scalar
    # calls), plus the two tandem batches' own check at their boundary
    real, seen = tandem._entries, []
    monkeypatch.setattr(tandem, "_entries", lambda u: seen.append(u) or real(u))
    call(np.array([[[1, 2, 0], [3, 4, 1]]] * 2))
    assert len(seen) == checks



# --- Tableau's checks ------------------------------------------------------------

@pytest.mark.parametrize("rows, alphabet, message", [
    ([[1], [2, 2]], None, "no longer than the row above"),  # a lower row longer than the one above
    ([[0, 1]], None, "positive integers"),                  # a letter below 1
    # a letter above the alphabet: weight raised IndexError
    ([[1, 3]], 2, r"letter 3 lies above the alphabet 1\.\.2"),
    ([[2, 1]], None, "weakly increase"),                    # a row that decreases
    ([[1, 2], [1]], None, "strictly increase"),             # a column that does not strictly increase
    # built, and weight(2) counted the 0 as the letter 2: (1, 2)
    ([[2, 1], [0]], None, "weakly increase"),
    ([[1], []], None, "nonempty"),                          # an empty row: (1,) and (1, 0) are one shape
    ([[1.0]], None, "positive integers"),                   # a letter that is no integer
], ids=["shape", "letter-zero", "letter-past-alphabet", "row", "column", "row-over-zero",
        "empty-row", "float-letter"])
def test_tableau_is_valid_rejects(rows, alphabet, message):
    with pytest.raises(ValueError, match=message):
        Tableau(rows).weight(alphabet)


def test_tableau_is_a_frozen_value():
    T = Tableau([[1, 1, 2], [2]])
    assert T.rows == ((1, 1, 2), (2,))
    assert T == tableau_of([1, 2, 1, 2]) and hash(T) == hash(tableau_of([1, 2, 1, 2]))
    assert T.weight(3) == (2, 2, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.rows = ()
