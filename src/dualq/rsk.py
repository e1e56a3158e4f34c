"""Row insertion, growth-diagram shapes, the service-matrix word, min/max
operator chains, and brute-force lattice-path oracles.

The central identity: writing w(U) for the word of the N x K matrix U and
(lambda_1 >= ... >= lambda_K) for the shape of its insertion tableau,
lambda_1 equals both the up-right path maximum over U and the last queue
departure D(N, K), while lambda_K equals the skew path minimum and the
cumulative store output R(N).  :func:`verify_row_queue_batch` checks all
six numbers against each other on a stack of same-shape matrices, each
computed independently: the operator chains, both path enumerations and
the two tandem kernels run once per stack, row insertion once per case, on
that case's row of one ``tolist()`` of the stack's words, with no numpy
call and no :class:`Tableau` per case: it reads only two row lengths.
Row insertion takes a word one tableau row at a time (:func:`_insert_word`),
letter by letter within a row, with no shortcut through the letter counts,
so the tableau stays a witness independent of the chains and the kernels.
:func:`tableau_of` is the checking entry point to the same insertion.
The scalar witnesses are the same computations on a batch of one.
:func:`growth_shapes` gives the same shapes from Fomin's local rule, batched
over replications, for the Monte Carlo shape law; its first coordinate is
the queue recursion, so it is not one of the six witnesses.  It fills each
cell for all replications at once on (K, reps) arrays, the replications
innermost, as the tandem kernels do.
Each public call checks its matrix once, by the tandem kernels' rule
(``tandem._entries``; through :class:`~dualq.tandem.ServiceMatrix` for the
scalar calls), and its witnesses compute on the array that check returns;
the two tandem batches check it again at their own boundary.  The word
also needs integer entries.  The path oracles refuse matrices with N + K
above :data:`BRUTE_FORCE_LIMIT`.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import tandem

__all__ = [
    "Tableau",
    "SizeLimitError",
    "BRUTE_FORCE_LIMIT",
    "normalize_partition",
    "is_partition",
    "word_of",
    "growth_shapes",
    "tableau_of",
    "pretty",
    "nabla",
    "triangle",
    "lambda_operators",
    "path_max",
    "path_min",
    "verify_row_queue",
    "verify_row_queue_batch",
    "RowQueueReport",
]

BRUTE_FORCE_LIMIT = 14


class SizeLimitError(ValueError):
    """Exhaustive path enumeration, or a truncated shape pmf
    (:data:`dualq.schur.SHAPE_BUDGET`), would be too large."""


def normalize_partition(parts) -> tuple:
    """Drop trailing zeros; partitions equal up to them are identified."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def is_partition(parts) -> bool:
    parts = tuple(parts)
    # the range test first: int() raises on NaN and inf
    return all(0 <= p < math.inf and int(p) == p for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def _partition(parts) -> tuple:
    """``parts`` as a normalized partition; ValueError unless it is one."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts!r} is not a partition")
    return normalize_partition(parts)


@dataclass(frozen=True, slots=True)
class Tableau:
    """Semistandard Young tableau: nonempty rows of positive integer letters
    that weakly increase left to right, no row longer than the one above it,
    and columns that strictly increase downward.

    The rows are held as a tuple of tuples, and the constructor raises
    ValueError unless they form such a tableau.  :func:`tableau_of` is the
    one place a tableau is built without the check: row insertion keeps
    the rows semistandard.
    """

    rows: tuple = ()

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            if not row or (i and len(row) > len(rows[i - 1])):
                raise ValueError("rows must be nonempty and no longer than the row above")
            for j, x in enumerate(row):
                if not (isinstance(x, numbers.Integral) and x >= 1):
                    raise ValueError("letters are positive integers")
                if j and row[j - 1] > x:
                    raise ValueError("rows must weakly increase")
                if i and rows[i - 1][j] >= x:
                    raise ValueError("columns must strictly increase")

    def shape(self) -> tuple:
        return tuple(map(len, self.rows))

    def weight(self, alphabet: int) -> tuple:
        counts = [0] * alphabet
        for row in self.rows:
            for x in row:
                if x > alphabet:
                    raise ValueError(f"letter {x} lies above the alphabet 1..{alphabet}")
                counts[x - 1] += 1
        return tuple(counts)


def pretty(T: Tableau) -> str:
    if not T.rows:
        return "(empty tableau)"
    return "\n".join("|" + "|".join(str(x) for x in row) + "|" for row in T.rows)


def _row_pass(row: list[int], word: list[int]) -> list[int]:
    """Row-insert the letters of ``word`` into ``row``, in order and in
    place, and return the letters bumped out of it, in the order bumped."""
    bumped = []
    for x in word:
        if row and x < row[-1]:  # else x goes at the end, with no search
            j = bisect.bisect_right(row, x)
            bumped.append(row[j])
            row[j] = x
        else:
            row.append(x)
    return bumped


def _insert_word(rows: list[list[int]], word: list[int]) -> None:
    """Row-insert ``word`` letter by letter, in place, one tableau row at a
    time: row i sees only the ordered stream of letters bumped out of row
    i-1, so passing the whole stream through row i before row i+1 gives
    the tableau of the letter-by-letter fold.  A stream past the last row
    starts a new one."""
    i = 0
    while word:
        if i == len(rows):
            rows.append([])
        word = _row_pass(rows[i], word)
        i += 1


def growth_shapes(u) -> np.ndarray:
    """Zero-padded shapes of ``tableau_of(word_of(u[b, :n]))`` for every rep b
    and prefix n = 0..N of a (reps, N, K) integer array, shape (reps, N+1, K).

    Fomin's growth-diagram rule (Krattenthaler 2006; O'Connell 2003): with
    mu, nu, rho the shapes at cells (i-1, j-1), (i-1, j), (i, j-1),
    lambda_1 = max(nu_1, rho_1) + u(i, j) and, for k >= 2,
    lambda_k = max(nu_k, rho_k) + min(nu_{k-1}, rho_{k-1}) - mu_{k-1}.
    The cells are filled on (K, reps) arrays, the replications innermost,
    and the result is a (reps, N+1, K) view of an (N+1, K, reps) array.
    The entries follow the tandem batches' rule (``tandem._entries``), and
    real entries raise ValueError too.
    """
    u = tandem._rows_last(u)  # (N, K, reps)
    if u.dtype.kind != "i":
        raise ValueError("growth shapes need integer entries")
    N, K, reps = u.shape
    out = np.zeros((N + 1, K, reps), dtype=np.int64)
    # lambda(i-1, 0..K) and lambda(i, 0..K); column 0 stays empty
    prev, cur = np.zeros((2, K + 1, K, reps), dtype=np.int64)
    carry = np.empty((K - 1, reps), dtype=np.int64)
    for i in range(N):
        for j in range(1, K + 1):
            mu, nu, rho, lam = prev[j - 1], prev[j], cur[j - 1], cur[j]
            np.maximum(nu, rho, out=lam)
            lam[0] += u[i, j - 1]
            np.minimum(nu[:-1], rho[:-1], out=carry)
            carry -= mu[:-1]
            lam[1:] += carry
        out[i + 1] = cur[K]
        prev, cur = cur, prev
    return out.transpose(2, 0, 1)


def _letters(word) -> list:
    """The word as a list of ints; ValueError unless it is 1-d and every
    letter is a positive integer (integral floats count)."""
    word = np.asarray(word)
    if word.ndim != 1:
        raise ValueError("a word is a 1-d sequence of letters")
    letters = word.tolist()
    if word.dtype.kind not in "iu":
        # the range test first: int() raises on NaN and inf
        if not all(1 <= x < math.inf and int(x) == x for x in letters):
            raise ValueError("letters are positive integers")
        return [int(x) for x in letters]
    if letters and min(letters) < 1:
        raise ValueError("letters are positive integers")
    return letters


def tableau_of(word) -> Tableau:
    """Left fold of row insertion over the word, starting from empty,
    computed one tableau row at a time (:func:`_insert_word`)."""
    rows: list[list[int]] = []
    _insert_word(rows, _letters(word))
    out = object.__new__(Tableau)  # no check: insertion keeps the rows semistandard
    object.__setattr__(out, "rows", tuple(map(tuple, rows)))
    return out


def _words(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Words of each (N, K) slice of a checked batch ``u``, zero-padded to
    the longest: (B, max M) letters and the word lengths M (B,)."""
    if u.dtype.kind != "i":
        raise ValueError("the word construction needs integer entries")
    B, N, K = u.shape
    runs = np.empty((B, N * K + 1), dtype=np.int64)  # one per entry, then the padding
    runs[:, :-1] = u.reshape(B, N * K)
    M = runs[:, :-1].sum(axis=1)
    width = int(M.max(initial=0))
    runs[:, -1] = width - M
    letters = np.append(np.arange(N * K) % K + 1, 0)
    words = np.repeat(np.broadcast_to(letters, runs.shape), runs.reshape(-1))
    return words.reshape(B, width), M


def word_of(U) -> np.ndarray:
    """Word of the matrix: row i contributes 1^u(i,1) 2^u(i,2) ... K^u(i,K)."""
    return _words(tandem._as_matrix(U).u[None])[0][0]


def nabla(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x nabla y)(n) = max_{0<=m<=n} [x(m) + y(n) - y(m)], along the last axis."""
    return np.maximum.accumulate(x - y, axis=-1) + y


def triangle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x triangle y)(n) = min_{0<=m<=n} [x(m) + y(n) - y(m)], along the last axis."""
    return np.minimum.accumulate(x - y, axis=-1) + y


def _operator_chains(words: np.ndarray, M: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The two chains over the prefix letter counts x_i(n) = #{j <= n :
    word_j = i} of each zero-padded word (B, max M), read at its length M_b.
    nabla and triangle at n read only 0..n, and the padding letter 0 counts
    for no i, so running the chains over the padded counts is exact."""
    x = np.zeros((words.shape[0], K, words.shape[1] + 1), dtype=np.int64)
    np.cumsum(words[:, None, :] == np.arange(1, K + 1)[:, None], axis=2, out=x[:, :, 1:])
    top = x[:, 0]
    for i in range(1, K):
        top = nabla(top, x[:, i])
    bottom = x[:, K - 1]
    for i in range(K - 2, -1, -1):
        bottom = triangle(bottom, x[:, i])
    rows = np.arange(x.shape[0])
    return top[rows, M], bottom[rows, M]


def lambda_operators(U) -> tuple[int, int]:
    """(lambda_1, lambda_K) via the operator chains, evaluated left to right.

    lambda_1 = x_1 nabla x_2 nabla ... nabla x_K (M) and
    lambda_K = x_K triangle ... triangle x_2 triangle x_1 (M); the
    operations are non-associative, so the fold order matters.
    """
    U = tandem._as_matrix(U)
    top, bottom = _operator_chains(*_words(U.u[None]), U.K)
    return int(top[0]), int(bottom[0])


@lru_cache(maxsize=None)
def _up_right_paths(N: int, K: int) -> np.ndarray:
    """Flat node indices of every up-right path (1,1) -> (N,K); each path
    has N+K-1 nodes."""
    paths = []
    for rights in combinations(range(N + K - 2), N - 1):
        rights = set(rights)
        i = j = 0  # 0-based (customer, stage)
        nodes = [0]
        for step in range(N + K - 2):
            if step in rights:
                i += 1
            else:
                j += 1
            nodes.append(i * K + j)
        paths.append(nodes)
    return np.array(paths, dtype=np.intp)


@lru_cache(maxsize=None)
def _skew_paths(N: int, K: int) -> np.ndarray:
    """Flat node indices of every path in the dual set, one path per row.

    A path is determined by strictly increasing rows i_{K-1} < ... < i_1;
    it collects column K up to row i_{K-1}-1, column j between i_j and
    i_{j-1} exclusive, and column 1 after i_1.  All paths have (N-K+1)^+
    nodes.  The set is empty when N < K; one path without nodes stands in
    for it, so its minimum reads 0.
    """
    if K == 1:
        return np.arange(N, dtype=np.intp)[None]
    if N < K:
        return np.empty((1, 0), dtype=np.intp)
    paths = []
    for combo in combinations(range(1, N + 1), K - 1):
        cuts = (0,) + combo + (N + 1,)  # i_K=0, i_{K-1}..i_1, i_0=N+1
        nodes = []
        for idx in range(K):
            col = K - idx  # 1-based column, from K down to 1
            lo, hi = cuts[idx] + 1, cuts[idx + 1] - 1
            for row in range(lo, hi + 1):
                nodes.append((row - 1) * K + (col - 1))
        paths.append(nodes)
    return np.array(paths, dtype=np.intp)


def _path_sums(u: np.ndarray, paths_of) -> np.ndarray:
    """Node sums (B, P) of the P paths ``paths_of(N, K)`` over each (N, K)
    slice of a checked batch ``u``."""
    B, N, K = u.shape
    if N + K > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"N+K = {N + K} exceeds the brute-force limit {BRUTE_FORCE_LIMIT}")
    return u.reshape(B, N * K)[:, paths_of(N, K)].sum(axis=-1)


def path_max(U):
    """Exhaustive maximum of node sums over up-right paths (1,1)->(N,K)."""
    return _path_sums(tandem._as_matrix(U).u[None], _up_right_paths).max()


def path_min(U):
    """Exhaustive minimum of node sums over the dual path set; 0 when empty."""
    return _path_sums(tandem._as_matrix(U).u[None], _skew_paths).min()


@dataclass(frozen=True)
class RowQueueReport:
    """The six-way identity, reported as two quadruples
    (tableau, operator chain, path oracle, tandem recursion)."""

    lambda1: tuple
    lambdaK: tuple
    ok: bool


def verify_row_queue_batch(u) -> tuple:
    """The six-way identity on each (N, K) integer slice of ``u``: the (B, 4)
    quadruples lambda1 and lambdaK, columns (tableau, operator chain, path
    oracle, tandem recursion), and ok (B,), whether each holds one value."""
    return _six_way(tandem._entries(u))


def _six_way(u: np.ndarray) -> tuple:
    """:func:`verify_row_queue_batch` of a checked batch ``u``."""
    B, N, K = u.shape
    lam1, lamK = np.empty((2, B, 4), dtype=np.int64)
    words, M = _words(u)  # one word build for the chains and the insertions
    lam1[:, 1], lamK[:, 1] = _operator_chains(words, M, K)
    lam1[:, 2] = _path_sums(u, _up_right_paths).max(axis=-1)
    lamK[:, 2] = _path_sums(u, _skew_paths).min(axis=-1)
    # row insertion: one fold per case, on one tolist() of the stack's
    # words; the lengths of the first and K-th rows are lambda_1 and
    # lambda_K, 0 for a row the tableau lacks
    first, last = [], []
    for word, m in zip(words.tolist(), M.tolist()):
        rows: list[list[int]] = []
        _insert_word(rows, word[:m])
        first.append(len(rows[0]) if rows else 0)
        last.append(len(rows[K - 1]) if len(rows) >= K else 0)
    lam1[:, 0], lamK[:, 0] = first, last
    lam1[:, 3] = tandem.queue_departures_batch(u)[:, N, K]
    lamK[:, 3] = tandem.store_departures_batch(u)[:, -1]
    ok = (lam1 == lam1[:, :1]).all(axis=1) & (lamK == lamK[:, :1]).all(axis=1)
    return lam1, lamK, ok


def verify_row_queue(U) -> RowQueueReport:
    lam1, lamK, ok = _six_way(tandem._as_matrix(U).u[None])
    return RowQueueReport(tuple(lam1[0].tolist()), tuple(lamK[0].tolist()), bool(ok[0]))
