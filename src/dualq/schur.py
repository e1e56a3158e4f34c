"""Partitions, semistandard tableau enumeration, Schur polynomials, and the
law of the insertion shape under geometric entries.

With independent entries u(i, j) ~ (1-q_j) q_j^k on {0, 1, ...}, the shape
of the insertion tableau of an N x K matrix is distributed as

    P{shape = l} = prod_j (1-q_j)^N  *  s_l(q_1..q_K)  *  #SSYT(l over N letters),

and the shape sequence in N is a Markov chain whose transitions multiply
a(q) s_l(q) / s_m(q) on interlacing pairs.  #SSYT is the hook-content
formula; s_l sums over interlacing chains.  Both truncated pmfs, of the
shape and of one transition row, come from one loop that widens the leading
part, and refuse to hold more than :data:`SHAPE_BUDGET` shapes.  Everything
is exact when the q_j are ``fractions.Fraction``; floats work too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, count, product
from math import comb, factorial, perm, prod

from .rsk import SizeLimitError, Tableau, _partition, normalize_partition

__all__ = [
    "empty_row_prob",
    "ssyt_enumerate",
    "ssyt_count",
    "schur_eval",
    "shape_pmf",
    "shape_distribution",
    "interlaces",
    "transition_prob",
    "transition_distribution",
    "SHAPE_BUDGET",
]

# the most shapes a truncated pmf may hold: its cost grows faster than its
# shape count, and a weight near 1 or many rows need millions of shapes
SHAPE_BUDGET = 20_000


def _weights(q) -> tuple:
    """The weights q_j as a tuple, each checked to lie strictly in (0, 1)."""
    q = tuple(q)
    if not q or any(not 0 < qj < 1 for qj in q):
        raise ValueError("every weight must lie strictly in (0, 1)")
    return q


def empty_row_prob(q):
    """a(q) = prod_j (1 - q_j): the chance one row of entries is all zero."""
    out = 1
    for qj in _weights(q):
        out = out * (1 - qj)
    return out


def _fillings(shape: tuple, k: int):
    """Yield all SSYT fillings of the normalized ``shape`` over {1..k} as row tuples."""
    if len(shape) > k:
        return
    if not shape:
        yield ()
        return
    rows = [[0] * r for r in shape]
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]

    def rec(ci):
        if ci == len(cells):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = cells[ci]
        lo = 1
        if j:
            lo = max(lo, rows[i][j - 1])
        if i:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, k + 1):
            rows[i][j] = v
            yield from rec(ci + 1)
        rows[i][j] = 0

    yield from rec(0)


def ssyt_enumerate(shape, k: int) -> list[Tableau]:
    """All semistandard tableaux of the given shape over {1..k}."""
    return [Tableau(rows) for rows in _fillings(_partition(shape), k)]


def ssyt_count(shape: tuple, n: int) -> int:
    """#SSYT of ``shape`` over {1..n}, by the hook-content formula.

    count(l, n) = prod over boxes u of (n + c(u)) / h(u) (Stanley, EC2,
    Cor. 7.21.4), exactly in integers.  Row i (from 0) has contents n-i ..
    n-i+l_i-1; with b_i = l_i + k-1-i over k parts, the hooks multiply to
    prod b_i! / prod_{i<j} (b_i - b_j).
    """
    shape = _partition(shape)
    if len(shape) > n:
        return 0
    if not shape:
        return 1
    k = len(shape)
    b = [r + k - 1 - i for i, r in enumerate(shape)]
    num = prod(perm(n - i + r - 1, r) for i, r in enumerate(shape))
    num *= prod(b[i] - b[j] for i in range(k) for j in range(i + 1, k))
    return num // prod(map(factorial, b))


@lru_cache(maxsize=None)
def _schur_rec(shape: tuple, x: tuple, kinds: tuple):
    # peel the largest letter: its boxes form a horizontal strip, so
    # s_l(x_1..x_k) = sum over interlacing m of x_k^{|l|-|m|} s_m(x_1..x_{k-1}).
    # a non-empty l has at most k >= 1 parts; an m with more than k-1 has
    # s_m = 0 and is not generated.  kinds = the types of x, since 0.5 and
    # Fraction(1, 2) hash alike
    if not shape:
        return 1
    xk = x[-1]
    boxes = sum(shape)
    total = 0
    ranges = [range(shape[i + 1] if i + 1 < len(shape) else 0, shape[i] + 1)
              for i in range(min(len(shape), len(x) - 1))]
    for m in product(*ranges):
        if m and not m[-1]:
            m = m[:-1]
        inner = _schur_rec(m, x[:-1], kinds[:-1])
        if inner:
            total = total + inner * xk ** (boxes - sum(m))
    return total


def schur_eval(shape, x):
    """s_shape(x): the sum of x^T over semistandard tableaux of the shape.

    Evaluated by stripping the tableaux letter by letter: each letter
    occupies a horizontal strip, so the sum runs over chains of
    interlacing shapes, and only chains whose shapes fit the remaining
    variables are walked.  Exact whenever the inputs are exact (ints,
    Fractions); returns 0 for a shape with more parts than variables.
    """
    shape, x = _partition(shape), tuple(x)
    if len(shape) > len(x):
        return 0
    return _schur_rec(shape, x, tuple(map(type, x)))


def shape_pmf(l, q, N: int):
    """P{shape = l} for the N-row geometric model with weights q."""
    q = _weights(q)
    if N < 0:
        raise ValueError("N must be >= 0")
    l = _partition(l)
    return empty_row_prob(q) ** N * schur_eval(l, q) * ssyt_count(l, N)


def _truncated_pmf(c, tails, width, prob, residual) -> dict:
    """``prob`` of the partition (c, *tail) for every tail in ``tails(c)``,
    then ``tails(c + 1)``, ... until less than ``residual`` of the mass is left.

    ``width(c)`` is the number of tails of ``c``.  SizeLimitError before the
    first leading part whose tails would take the pmf past :data:`SHAPE_BUDGET`.
    """
    out: dict[tuple, object] = {}
    total = 0
    for c in count(c):
        if len(out) + width(c) > SHAPE_BUDGET:
            raise SizeLimitError(
                f"{len(out)} shapes with leading part below {c} leave "
                f"{float(1 - total):.3g} of the mass; leading part {c} would add "
                f"{width(c)} more, past the shape budget {SHAPE_BUDGET}")
        for tail in tails(c):
            l = normalize_partition((c,) + tail)
            out[l] = p = prob(l)
            total = total + p
        if 1 - total < residual:
            return out


def shape_distribution(q, N: int, residual: float = 1e-10) -> dict:
    """Truncated pmf over partitions with at most K parts.

    Widens the cap on the leading part until the captured mass exceeds
    1 - residual (the full sum telescopes to one by the Cauchy identity).
    """
    q = _weights(q)
    if N < 0:
        raise ValueError("N must be >= 0")
    aN, kinds, K = empty_row_prob(q) ** N, tuple(map(type, q)), len(q)
    return _truncated_pmf(0, lambda c: combinations_with_replacement(range(c, -1, -1), K - 1),
                          lambda c: comb(c + K - 1, K - 1),
                          lambda l: aN * _schur_rec(l, q, kinds) * ssyt_count(l, N), residual)


def interlaces(l, m) -> bool:
    """l_1 >= m_1 >= l_2 >= m_2 >= ... (l grows from m by a horizontal strip)."""
    l, m = _partition(l), _partition(m)
    if len(m) > len(l):
        return False
    for i in range(len(l)):
        mi = m[i] if i < len(m) else 0
        if l[i] < mi:
            return False
        if i + 1 < len(l) and mi < l[i + 1]:
            return False
    return True


def transition_prob(m, l, q):
    """One-row growth probability a(q) s_l(q) / s_m(q), zero off interlacing pairs."""
    q = _weights(q)
    if not interlaces(l, m):
        return 0
    sm = schur_eval(m, q)
    sl = schur_eval(l, q)
    a = empty_row_prob(q)
    return a * sl / sm


def transition_distribution(m, q, residual: float = 1e-10) -> dict:
    """Truncated transition row from ``m``; sums to one by the Pieri rule."""
    q, m = _weights(q), _partition(m)
    K = len(q)
    if len(m) > K:
        raise ValueError(f"{m!r} has more parts than the {K} weights")
    a, sm, kinds = empty_row_prob(q), schur_eval(m, q), tuple(map(type, q))
    pad = list(m) + [0] * (K - len(m))
    # interlacing forces l_i in [m_i, m_{i-1}] for i >= 2; only l_1 is free
    inner_ranges = [range(pad[i], pad[i - 1] + 1) for i in range(1, K)]
    size = prod(map(len, inner_ranges))
    return _truncated_pmf(pad[0], lambda c: product(*inner_ranges), lambda c: size,
                          lambda l: a * _schur_rec(l, q, kinds) / sm, residual)
