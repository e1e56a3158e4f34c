import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq.rsk import (
    growth_shapes,
    BRUTE_FORCE_LIMIT,
    SizeLimitError,
    Tableau,
    insert,
    is_partition,
    lambda_operators,
    nabla,
    normalize_partition,
    path_max,
    path_min,
    pretty,
    shape,
    tableau_of,
    triangle,
    verify_row_queue,
    word_of,
)
from dualq.tandem import ServiceMatrix

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

def test_insert_into_empty():
    assert insert(Tableau(), 1).rows == [[1]]


def test_insert_bump():
    assert insert(Tableau([[1, 2]]), 1).rows == [[1, 1], [2]]


def test_insert_rejects_bad_letter():
    with pytest.raises(ValueError):
        insert(Tableau(), 0)


@given(words())
def test_insert_maximal_letter_appends(word):
    T = tableau_of(word)
    T2 = insert(T, 4)
    assert len(T2.rows[0]) == len(T.rows[0]) + 1 if T.rows else T2.rows == [[4]]


@given(words(), st.integers(1, 4))
def test_insert_valid_and_adds_one_box(word, letter):
    T = tableau_of(word)
    assert T.is_valid(alphabet=4)
    T2 = insert(T, letter)
    assert T2.is_valid(alphabet=4)
    assert T2.size() == T.size() + 1
    # the original is untouched
    assert T.size() == len(word)


def test_tableau_of_empty_word():
    assert tableau_of([]).rows == []
    assert shape(tableau_of([])) == ()


def test_tableau_of_two_by_two_word():
    assert shape(tableau_of(word_of(U22))) == (8, 2)


@given(st.integers(0, 12))
def test_single_letter_word(n):
    assert shape(tableau_of([1] * n)) == ((n,) if n else ())


@given(words())
def test_shape_bounded_by_alphabet(word):
    sh = shape(tableau_of(word))
    assert len(sh) <= 4
    assert sum(sh) == len(word)
    assert all(sh[i] >= sh[i + 1] for i in range(len(sh) - 1))


def test_shape_examples():
    assert shape(Tableau([[1, 1, 2], [2]])) == (3, 1)


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


def test_path_guard():
    big = ServiceMatrix(np.ones((10, 6), dtype=int))
    with pytest.raises(SizeLimitError):
        path_max(big)
    assert path_max(big, limit=16) == 15
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
        sh = shape(tableau_of(word_of(ServiceMatrix(U.u[:n]))))
        assert tuple(x for x in grown[n].tolist() if x) == sh
