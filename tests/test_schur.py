from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq import schur
from dualq.rsk import SizeLimitError
from dualq.schur import (
    empty_row_prob,
    interlaces,
    schur_eval,
    shape_distribution,
    shape_pmf,
    ssyt_count,
    ssyt_enumerate,
    transition_distribution,
    transition_prob,
)

F = Fraction


def small_partitions(max_boxes=6, max_parts=3):
    out = [()]
    def rec(prefix, last, left):
        for v in range(min(last, left), 0, -1):
            p = prefix + (v,)
            if len(p) <= max_parts:
                out.append(p)
                rec(p, v, left - v)
    rec((), max_boxes, max_boxes)
    return sorted(set(out))


# --- enumeration ----------------------------------------------------------------

def test_ssyt_small_shapes():
    assert len(ssyt_enumerate((1,), 2)) == 2
    twos = {tuple(T.rows[0]) for T in ssyt_enumerate((2,), 2)}
    assert twos == {(1, 1), (1, 2), (2, 2)}
    col = ssyt_enumerate((1, 1), 2)
    assert len(col) == 1 and col[0].rows == ((1,), (2,))


def test_ssyt_more_parts_than_letters():
    assert ssyt_enumerate((1, 1, 1), 2) == []


def test_ssyt_all_valid():
    # the constructor checks each tableau; weight checks the alphabet
    for T in ssyt_enumerate((3, 2), 3):
        assert sum(T.weight(3)) == 5


def test_ssyt_count_matches_enumeration():
    for shape in small_partitions():
        for k in (1, 2, 3, 4):
            assert ssyt_count(shape, k) == len(ssyt_enumerate(shape, k))


def interlacing_below(l):
    """All partitions m with l_1 >= m_1 >= l_2 >= m_2 >= ..., trailing zeros dropped."""
    bounds = [(l[i + 1] if i + 1 < len(l) else 0, l[i]) for i in range(len(l))]
    for m in product(*[range(lo, hi + 1) for lo, hi in bounds]):
        yield tuple(x for x in m if x)


@lru_cache(maxsize=None)
def ssyt_count_chains(shape, n):
    """Independent route: peeling the largest letter off a tableau leaves a
    tableau over one letter fewer whose shape interlaces the original."""
    if len(shape) > n:
        return 0
    if not shape:
        return 1
    return sum(ssyt_count_chains(m, n - 1) for m in interlacing_below(shape))


@lru_cache(maxsize=None)
def schur_chains(shape, x):
    """s_shape(x) over every interlacing m, including those with more parts
    than the remaining variables (they add nothing)."""
    if not shape:
        return 1
    if not x:
        return 0
    total = 0
    for m in interlacing_below(shape):
        inner = schur_chains(m, x[:-1])
        if inner:
            total = total + inner * x[-1] ** (sum(shape) - sum(m))
    return total


def test_ssyt_count_hook_content_matches_chain_recursion():
    # every shape with <= 4 parts and l_1 <= 8, including the empty shape,
    # over n = 0..7 letters (so n < len(shape) and n = 0 occur)
    shapes = small_partitions(max_boxes=32, max_parts=4)
    shapes = [l for l in shapes if not l or l[0] <= 8]
    assert len(shapes) == comb(12, 4)
    for l in shapes:
        for n in range(8):
            assert ssyt_count(l, n) == ssyt_count_chains(l, n), (l, n)
    assert ssyt_count((3, 1, 0, 0), 3) == ssyt_count((3, 1), 3)


def test_schur_eval_bits_match_unpruned_recursion():
    # the pruned recursion sums the same nonzero terms in the same order,
    # so float results agree to the last bit, not just to rounding
    weights = [(0.3,), (0.2, 0.3), (0.2, 0.3, 0.4), (0.5, 0.5, 0.5),
               (0.1, 0.7, 0.3, 0.4), (F(1, 3), F(1, 2), F(2, 7))]
    for x in weights:
        for l in small_partitions(max_boxes=8, max_parts=len(x)):
            got, want = schur_eval(l, x), schur_chains(l, x)
            assert repr(got) == repr(want), (l, x)


def test_ssyt_count_single_row_binomial():
    # stars and bars: weakly increasing words of length m over n letters
    for m in range(6):
        for n in range(1, 5):
            assert ssyt_count((m,), n) == comb(m + n - 1, n - 1)


# --- schur polynomials ------------------------------------------------------------

def test_schur_linear():
    assert schur_eval((1,), [F(1, 3), F(1, 7)]) == F(1, 3) + F(1, 7)


def test_schur_degree_two():
    x1, x2 = F(1, 3), F(1, 7)
    assert schur_eval((2,), [x1, x2]) == x1**2 + x1 * x2 + x2**2
    assert schur_eval((1, 1), [x1, x2]) == x1 * x2


def test_schur_at_ones_counts_tableaux():
    for shape in small_partitions():
        assert schur_eval(shape, [1, 1, 1]) == ssyt_count(shape, 3)


def test_schur_too_many_parts():
    assert schur_eval((1, 1, 1), [0.5, 0.5]) == 0


def test_schur_exact_after_equal_float_weights():
    # 0.5 == Fraction(1, 2) with equal hashes: the float result must not be
    # handed back for the exact call
    assert schur_eval((2, 1), (0.5, 0.25)) == 0.09375
    exact = schur_eval((2, 1), (F(1, 2), F(1, 4)))
    assert isinstance(exact, Fraction) and exact == F(3, 32)


def test_schur_symmetric_exact():
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    for shape in small_partitions():
        vals = {schur_eval(shape, list(p)) for p in permutations(xs)}
        assert len(vals) == 1


def test_schur_matches_monomial_sum_over_enumeration():
    # independent route: literally add up x^T over the enumerated tableaux
    xs = (F(1, 2), F(2, 3), F(1, 7))
    for shape in small_partitions(max_boxes=5):
        brute = F(0)
        for T in ssyt_enumerate(shape, 3):
            term = F(1)
            for e, xi in zip(T.weight(3), xs):
                term *= xi**e
            brute += term
        assert schur_eval(shape, xs) == brute


# --- shape law ----------------------------------------------------------------------

def test_weight_vector_validation():
    with pytest.raises(ValueError, match="strictly in"):
        shape_pmf((), (0.3, 1.0), 4)
    with pytest.raises(ValueError, match="strictly in"):
        shape_pmf((), (), 4)


def test_empty_shape_mass():
    q = (F(3, 10), F(1, 2))
    assert shape_pmf((), q, 4) == empty_row_prob(q) ** 4


def test_shape_pmf_single_stage_negative_binomial():
    # K=1: the shape is the sum of N zero-inclusive geometrics, so
    # P{(m,)} = C(m+N-1, N-1) (1-q)^N q^m  -- checked by exact convolution
    q = F(2, 5)
    N = 4
    base = {0: 1 - q, 1: (1 - q) * q, 2: (1 - q) * q**2}
    for extra in range(3, 40):
        base[extra] = (1 - q) * q**extra
    conv = {0: F(1)}
    for _ in range(N):
        nxt = {}
        for tot, ptot in conv.items():
            for v, pv in base.items():
                nxt[tot + v] = nxt.get(tot + v, F(0)) + ptot * pv
        conv = nxt
    for m in range(12):
        assert shape_pmf((m,), (q,), N) == conv[m]
        assert shape_pmf((m,), (q,), N) == comb(m + N - 1, N - 1) * (1 - q) ** N * q**m


def test_shape_distribution_normalizes_exactly():
    dist = shape_distribution((F(3, 10), F(1, 2)), 4, residual=1e-10)
    total = sum(dist.values())
    assert 0 <= 1 - total < 1e-10


def test_shape_pmf_symmetric_in_weights():
    q = (F(3, 10), F(1, 2), F(1, 5))
    for shape in [(2,), (2, 1), (3, 1, 1)]:
        vals = {shape_pmf(shape, tuple(p), 3) for p in permutations(q)}
        assert len(vals) == 1


def test_shape_law_for_a_weight_vector():
    q = [0.3, 0.5]
    assert shape_pmf((), q, 4) == pytest.approx(0.35**4)
    assert abs(sum(shape_distribution(q, 4).values()) - 1) < 1e-9


# --- interlacing and transitions ------------------------------------------------------

def test_interlaces_examples():
    assert interlaces((3, 1), (2, 1))
    assert not interlaces((1,), (2,))
    assert interlaces((2,), ())
    assert not interlaces((2, 2), (1,))  # m_1=1 < l_2=2 breaks the weave
    with pytest.raises(ValueError):
        interlaces((2, 2), (1, 3))


def test_transition_from_empty():
    q = (F(3, 10), F(1, 2))
    assert transition_prob((), (), q) == empty_row_prob(q)


def test_transition_non_interlacing_is_zero():
    assert transition_prob((2,), (1,), (0.3,)) == 0


def test_transition_single_stage_value():
    # a(q) s_(5)/s_(2) = (1-q) q^3
    assert transition_prob((2,), (5,), (F(3, 10),)) == F(7, 10) * F(3, 10) ** 3


def test_transition_distribution_row_matches_transition_prob():
    # values bit for bit, including float weights
    for q in [(F(3, 10), F(1, 2)), (0.3, 0.5), (0.2, 0.3, 0.4)]:
        for m in [(), (1,), (3, 1), (2, 2), (4, 2, 1)[:len(q)]]:
            row = transition_distribution(m, q, residual=1e-8)
            assert all(interlaces(l, m) for l in row)
            assert {l: repr(p) for l, p in row.items()} == {
                l: repr(transition_prob(m, l, q)) for l in row}


def test_transition_distribution_rejects_bad_rows():
    with pytest.raises(ValueError):
        transition_distribution((1, 2), (0.3, 0.5))
    with pytest.raises(ValueError):
        transition_distribution((1, 1, 1), (0.3, 0.5))


def test_transition_distribution_normalizes():
    q = (F(3, 10), F(1, 2))
    for m in [(), (1,), (3, 1), (2, 2)]:
        row = transition_distribution(m, q, residual=1e-10)
        assert 0 <= 1 - sum(row.values()) < 1e-10


def chain_pmf(l, q, N):
    """Independent route: sum transition products over interlacing chains."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(shape, n):
        if n == 0:
            return F(1) if shape == () else F(0)
        total = F(0)
        for m in _sub_interlacing(shape):
            p = rec(m, n - 1)
            if p:
                total += p * transition_prob(m, shape, q)
        return total

    def _sub_interlacing(shape):
        from itertools import product as iproduct
        bounds = [(shape[i + 1] if i + 1 < len(shape) else 0, shape[i])
                  for i in range(len(shape))]
        seen = set()
        for tup in iproduct(*[range(lo, hi + 1) for lo, hi in bounds]):
            m = tuple(x for x in tup if x)
            if m not in seen:
                seen.add(m)
                yield m

    return rec(tuple(l), N)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from([(), (1,), (2,), (2, 1), (3, 2), (2, 1, 1), (3, 2, 1)]),
       st.integers(1, 4))
def test_chain_reproduces_shape_law_exactly(l, N):
    q = (F(3, 10), F(1, 2), F(1, 5))
    assert chain_pmf(l, q, N) == shape_pmf(l, q, N)


@pytest.mark.parametrize("q", [(0.5, 1.0), (1.5, 0.3), (0.3, -0.5), (0.0,), ()])
def test_weights_checked_where_they_enter(q):
    # (0.5, 1.0) made shape_distribution widen its cap 10000 times
    for call in (lambda: shape_distribution(q, 2), lambda: shape_pmf((1,), q, 2),
                 lambda: empty_row_prob(q), lambda: transition_prob((), (1,), q),
                 lambda: transition_distribution((), q)):
        with pytest.raises(ValueError, match="strictly in"):
            call()


@pytest.mark.parametrize("pmf", [lambda: shape_distribution((0.3, 0.5, 0.4), 4, residual=1e-4),
                                 lambda: transition_distribution((3, 1), (0.3, 0.5, 0.4))],
                         ids=["shape_distribution", "transition_distribution"])
def test_a_truncated_pmf_holds_at_most_the_shape_budget(monkeypatch, pmf):
    full = pmf()
    monkeypatch.setattr(schur, "SHAPE_BUDGET", len(full))
    assert pmf() == full
    # a budget one smaller refuses the last leading part
    monkeypatch.setattr(schur, "SHAPE_BUDGET", len(full) - 1)
    with pytest.raises(SizeLimitError, match=f"past the shape budget {len(full) - 1}$"):
        pmf()


# --- the partition rule, checked once for every entry point ---------------------

Q2 = (0.3, 0.5)
PARTITION_ENTRIES = {
    "ssyt_enumerate": lambda l: ssyt_enumerate(l, 3),
    "ssyt_count": lambda l: ssyt_count(l, 3),
    "schur_eval": lambda l: schur_eval(l, Q2),
    "shape_pmf": lambda l: shape_pmf(l, Q2, 3),
    "interlaces-l": lambda l: interlaces(l, ()),
    "interlaces-m": lambda l: interlaces((3, 3), l),
    "transition_distribution": lambda l: transition_distribution(l, Q2),
}
BAD_SHAPES = [(1.5,), (1, 2), (-1,), (2, 0.5)]
NOT_FINITE = [(float("nan"),), (float("inf"),)]  # int() raised on these, inf an OverflowError
# pairs that already raised this error: the entry checked before it normalized,
# or normalizing left a shape that its Schur evaluation rejected
GUARDED = ({(e, l) for e in ("ssyt_enumerate", "schur_eval", "interlaces-l", "interlaces-m")
            for l in BAD_SHAPES}
           | {(e, l) for e in ("shape_pmf", "transition_distribution") for l in [(1, 2), (-1,)]})


@pytest.mark.parametrize("entry, l", [
    pytest.param(e, l, id=("guard-" if (e, l) in GUARDED else "") + f"{e}-{l}")
    for e in PARTITION_ENTRIES for l in BAD_SHAPES + NOT_FINITE])
def test_every_entry_point_rejects_a_non_partition(entry, l):
    # ssyt_count((1, 2), 3) returned 0, shape_pmf((1.5,), q, N) the mass of (1,),
    # transition_distribution((1.7,), q) the row of (1,)
    with pytest.raises(ValueError, match=re.escape(f"{l!r} is not a partition")):
        PARTITION_ENTRIES[entry](l)


@pytest.mark.parametrize("q", [(0.3, 0.5), (F(3, 10), F(1, 2))], ids=["float", "Fraction"])
def test_trailing_zeros_and_numpy_parts_keep_their_values(q):
    # guard: (2, 1, 0) and numpy integers are the partition (2, 1), value for value
    plain = (2, 1)
    for l in [(2, 1, 0), (2, 1, 0, 0), tuple(np.array([2, 1, 0], dtype=np.int64)),
              [np.int32(2), np.uint8(1)]]:
        assert repr(ssyt_count(l, 3)) == repr(ssyt_count(plain, 3))
        assert ssyt_enumerate(l, 3) == ssyt_enumerate(plain, 3)
        assert repr(schur_eval(l, q)) == repr(schur_eval(plain, q))
        assert repr(shape_pmf(l, q, 3)) == repr(shape_pmf(plain, q, 3))
        assert interlaces(l, (1, 0)) and interlaces((3, 1, 0), l)
        assert repr(transition_prob(l, (3, 1, 0), q)) == repr(transition_prob(plain, (3, 1), q))
        assert ({k: repr(v) for k, v in transition_distribution(l, q).items()}
                == {k: repr(v) for k, v in transition_distribution(plain, q).items()})


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 4), max_size=4), st.integers(1, 4))
def test_ssyt_count_matches_enumeration_on_random_shapes(parts, k):
    # guard: any valid shape, trailing zeros included, in either entry point
    l = tuple(sorted(parts, reverse=True))
    assert ssyt_count(l, k) == len(ssyt_enumerate(l, k))


# --- input checks --------------------------------------------------------------

# one weight: without the check, the pmf at N < 0 finds no mass and gives up fast
@pytest.mark.parametrize("call", [lambda: shape_pmf((1,), (0.3, 0.5), -1),
                                  lambda: shape_distribution((0.5,), -1)],
                         ids=["shape_pmf", "shape_distribution"])
def test_negative_row_counts_are_refused(call):
    with pytest.raises(ValueError, match="N must be >= 0"):
        call()


def test_more_parts_never_interlace():
    # every part of m that l has is interlaced; the extra part is not
    assert not interlaces((2,), (1, 1))
    assert interlaces((2, 1), (1, 1))
