"""Monte Carlo verification of the distributional results, and the report type.

Each experiment is a pure function of its parameters and a
:class:`~dualq.sampling.Seed`: rerunning with the same arguments rebuilds
the identical report, byte for byte.  Their verdicts are goodness-of-fit
tests, never exact-equality claims.  The test primitives return a statistic,
a p-value and the sample size as a :class:`GofResult`, bit for bit what
scipy's ``stats`` test of the same kind returns: every law comes from
:mod:`~dualq._laws`, which evaluates scipy's own expressions over
``scipy.special`` and so spares a run the import of scipy's ``stats``.

:class:`ExperimentReport` is the package's one report type; the CLI's
random-case checks report through it too.  It holds the one pre-registered
significance level ``alpha`` and tests of two kinds.  A statistical test,
a :class:`GofResult`, passes when its p-value is at least ``alpha``.  An
exact test, an :class:`ExactResult`, passes when none of its cases failed,
whatever ``alpha`` is.  A report with empty ``diagnostics`` leaves that key
out of :meth:`~ExperimentReport.to_dict`.

burke's queue is in equilibrium from customer 1, whose wait is a stationary
draw; zigzag-law counts the run tuples that
:func:`~dualq.queue_store._period_run_tuples` streams for the busy periods of
one queue trace, the tuples of :func:`~dualq.queue_store.zigzag_from_trace`'s
table; noncolliding's walks are conditioned step by step by an h-transform,
and its reference pair is (D(n, 2), R(n)) from the :mod:`~dualq.tandem`
kernels.
The test resolutions are the constants :data:`MIN_EXPECTED` and :data:`MAX_RISE`.

Replications stay in numpy arrays from the draw to the contingency table.
Every replication loop follows one rule: :func:`_blocks` cuts the
replications into blocks of at most :data:`_BLOCK` entries, and each block
is drawn, scanned by the kernels and reduced to the values the tests read
before the next is drawn, so memory beyond those values does not grow with
the replications.  A substream's generator draws block after block, one
uniform per draw, so no report depends on the block size.  The tandem
matrices are drawn straight into the (N, K, block) layout the kernels scan,
replications innermost.  zigzag-law cuts its periods into blocks by the
same rule.  :func:`ks_test` computes the statistic itself, from one sorted
copy of the sample walked :data:`_BLOCK` values at a time by
:func:`_ks_sorted`, and takes the p-value from the exact two-sided law
:func:`~dualq._laws.kstwo_sf`.  laguerre owns its sample R, so it sorts R
in place and calls the walk itself, and then reuses R for its squared
deviations: R is the only array of replications it holds.  The
categorical experiments (interchange, shape-law, noncolliding) count the
distinct rows of their outcome array with :func:`_row_counts`, which sorts
one int64 key per row and builds a Python tuple only per distinct row (rows
too wide to key are counted as tuples); :func:`_pool` merges rows into
categories, and the counts go to the chi-square tests.  A test that cannot be formed
raises :class:`DegenerateTestError` naming the test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tandem
from ._commands import DEFAULT_ALPHA
from .rsk import growth_shapes, normalize_partition
from .queue_store import (
    ZigzagTrajectory,
    _period_bounds,
    _period_run_tuples,
    enumerate_trajectories,
    transform,
)
from .sampling import (
    RateParams,
    Seed,
    _stationary_wait,
    _wait_below,
    draw_exponential,
    draw_geometric0,
    model_draw,
    sample_input,
)
from .schur import (
    shape_distribution,
    transition_distribution,
    _weights,
)

__all__ = [
    "GofResult",
    "ExactResult",
    "ExperimentReport",
    "DegenerateTestError",
    "ks_test",
    "chi2_test",
    "chi2_two_sample",
    "independence_test",
    "lag1_test",
    "geometric_fit_test",
    "trajectory_pmf",
    "burke_experiment",
    "zigzag_law_experiment",
    "noncolliding_experiment",
    "interchange_experiment",
    "shape_law_experiment",
    "laguerre_check",
]


MIN_EXPECTED = 5.0  # expected count below which a chi-square cell is pooled
MAX_RISE = 4  # zigzag-law's catalog: every trajectory up to this rise (Catalan growth)


class DegenerateTestError(ValueError):
    """Too few usable bins to form a test statistic."""


@dataclass(frozen=True)
class GofResult:
    """A statistical test's outcome, its statistic and p-value as scipy's
    ``stats`` test of its kind gives them; the report's alpha judges it: it
    passes when its p-value is at least that level."""

    name: str
    statistic: float
    p_value: float
    n_samples: int

    def passes(self, alpha: float) -> bool:
        return self.p_value >= alpha

    def to_dict(self, alpha: float) -> dict:
        return {"name": self.name, "statistic": float(self.statistic),
                "p_value": float(self.p_value), "n_samples": int(self.n_samples),
                "alpha": alpha, "passed": self.passes(alpha)}


@dataclass(frozen=True)
class ExactResult:
    """An exact check over ``n_samples`` cases, ``failures`` of which broke
    it.  It passes when none did, at any alpha, and serializes as a test at
    level 0.0 whose statistic is the failure count and whose p-value is 1.0
    on a pass and 0.0 on a fail."""

    name: str
    failures: int
    n_samples: int

    def passes(self, alpha: float) -> bool:
        return self.failures == 0

    def to_dict(self, alpha: float) -> dict:
        ok = self.passes(alpha)
        return {"name": self.name, "statistic": int(self.failures),
                "p_value": 1.0 if ok else 0.0, "n_samples": int(self.n_samples),
                "alpha": 0.0, "passed": ok}


@dataclass
class ExperimentReport:
    """A run's tests, statistical and exact, judged at one significance
    level ``alpha``, which only the statistical tests read.  Each experiment
    checks its inputs and builds its report before it imports
    :mod:`~dualq._laws` (and with it scipy) or draws, so bad input, a bad
    ``alpha`` included, costs no run."""

    name: str
    params: dict
    seed: Seed
    alpha: float
    results: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.alpha < 1:  # NaN fails too
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")

    @property
    def passed(self) -> bool:
        return all(r.passes(self.alpha) for r in self.results)

    def to_dict(self) -> dict:
        report = {
            "name": self.name,
            "params": self.params,
            "seed": {"master": self.seed.master, "stream": self.seed.stream},
            "tests": [r.to_dict(self.alpha) for r in self.results],
            "verdict": "pass" if self.passed else "fail",
        }
        if self.diagnostics:
            report["diagnostics"] = self.diagnostics
        return report


# ---------------------------------------------------------------------------
# test primitives


_BLOCK = 1 << 16  # entries per block of every blocked loop (replications, or ks_test's values)


def _blocks(reps: int, entries: int):
    """(lo, hi) ranges that cut ``range(reps)`` into consecutive blocks of
    at most :data:`_BLOCK` entries, ``entries`` per replication, and at
    least one replication each; only the last block can be short."""
    step = max(1, _BLOCK // entries)
    for lo in range(0, reps, step):
        yield lo, min(lo + step, reps)


def ks_test(sample, cdf, *, name: str = "ks") -> GofResult:
    """Two-sided one-sample Kolmogorov-Smirnov against a callable CDF.

    ``cdf`` must be elementwise: its value at a point may not depend on the
    other points of the array it is given.  The sample is sorted once, into
    a float64 copy (the caller's array keeps its order), and
    :func:`_ks_sorted` walks the copy :data:`_BLOCK` values at a time: the
    CDF of a block, then its D+ = max(i/n - F(x_i)) and
    D- = max(F(x_i) - (i-1)/n) by the elementwise expressions of scipy's
    ``kstest``, so memory beyond the copy stays a few blocks.  D is D+ when
    D+ > D-, else D-, as in scipy; the p-value is the exact two-sided law
    :func:`~dualq._laws.kstwo_sf`, scipy's ``stats.kstwo.sf(D, n)``, which
    is the method ``kstest`` picks by default.  Statistic and p-value equal
    ``stats.kstest``'s bit for bit.  A NaN in the sample makes both NaN, so
    the test fails at any level.
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    # the CDF gets floats
    return _ks_sorted(np.sort(sample).astype(np.float64, copy=False), cdf, name=name)


def _ks_sorted(x: np.ndarray, cdf, *, name: str) -> GofResult:
    """The walk of :func:`ks_test` on ``x``, a non-empty float64 sample
    already sorted; ``x`` is only read, so a caller that owns its sample
    can sort it in place and skip the copy."""
    from . import _laws

    n = x.size
    d_plus = d_minus = -np.inf
    for lo, hi in _blocks(n, 1):
        values = cdf(x[lo:hi])
        grid = np.arange(float(lo), hi + 1) / n  # (i-1)/n and i/n for the block's i
        # np.maximum and ndarray.max keep a NaN, where Python's max drops it
        d_plus = np.maximum(d_plus, (grid[1:] - values).max())
        d_minus = np.maximum(d_minus, (values - grid[:-1]).max())
    d = d_plus if d_plus > d_minus else d_minus
    return GofResult(name, float(d), float(_laws.kstwo_sf(d, n)), n)


def _pool_bins(observed, expected):
    obs_out, exp_out = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= MIN_EXPECTED:
            obs_out.append(o_acc)
            exp_out.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc or o_acc:
        if exp_out:
            obs_out[-1] += o_acc
            exp_out[-1] += e_acc
        else:
            obs_out, exp_out = [o_acc], [e_acc]
    return np.asarray(obs_out, dtype=float), np.asarray(exp_out, dtype=float)


def chi2_test(observed, expected, *, name: str = "chi2") -> GofResult:
    """Pearson chi-square with adjacent pooling of thin bins.

    Totals must agree to 1e-9 (relative); anything thinner than
    :data:`MIN_EXPECTED` is merged with its neighbour before testing.
    """
    from . import _laws

    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape or observed.ndim != 1:
        raise ValueError("observed and expected must be 1-d of equal length")
    so, se = observed.sum(), expected.sum()
    if abs(so - se) > 1e-9 * max(1.0, abs(se)):
        raise ValueError(f"totals differ: observed {so}, expected {se}")
    obs, exp = _pool_bins(observed, expected)
    if len(obs) < 2:
        raise DegenerateTestError(f"{name}: fewer than two bins after pooling")
    stat, p = _laws.chisquare(obs, exp)
    return GofResult(name, float(stat), float(p), int(round(so)))


def chi2_two_sample(keys_x, keys_y, *, name: str = "chi2-2samp") -> GofResult:
    """Homogeneity chi-square of two samples of hashable categories, each
    given as a sequence of keys or as a mapping of key to count.

    Rare categories (combined expected below :data:`MIN_EXPECTED` in
    either group) are lumped into one rest cell; categories are ordered by
    combined count so the binning is deterministic.
    """
    from . import _laws

    cx = Counter(keys_x)
    cy = Counter(keys_y)
    nx, ny = sum(cx.values()), sum(cy.values())
    total = nx + ny
    order = sorted((cx + cy).items(), key=lambda kv: (-kv[1], repr(kv[0])))
    frac = min(nx, ny) / total
    keep = [k for k, c in order if c * frac >= MIN_EXPECTED]
    kept = set(keep)
    rest = [k for k, _ in order if k not in kept]
    row_x = [cx.get(k, 0) for k in keep]
    row_y = [cy.get(k, 0) for k in keep]
    if rest:
        row_x.append(sum(cx.get(k, 0) for k in rest))
        row_y.append(sum(cy.get(k, 0) for k in rest))
    table = np.array([row_x, row_y], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        raise DegenerateTestError(f"{name}: fewer than two categories after pooling")
    stat, p = _laws.chi2_contingency(table)
    return GofResult(name, float(stat), float(p), total)


def _margin_bins(values, n_bins):
    """Deterministic per-value binning into roughly equal-mass groups."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        want = values.size / n_bins
        bins = []  # one bin per distinct value, in increasing order
        b, acc = 0, 0
        for c in counts.tolist():
            bins.append(b)
            acc += c
            if acc >= want and b < n_bins - 1:
                b += 1
                acc = 0
        return np.array(bins)[inverse]
    edges = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1]))
    return np.searchsorted(edges, values, side="right")


def independence_test(x, y, *, name: str = "independence") -> GofResult:
    """Contingency chi-square of the joint, each margin binned into 8
    groups, against the product of the empirical marginals."""
    from . import _laws

    x = np.asarray(x)
    y = np.asarray(y)
    bx = _margin_bins(x, 8)
    by = _margin_bins(y, 8)
    nx, ny = int(bx.max()) + 1, int(by.max()) + 1
    table = np.bincount(bx * ny + by, minlength=nx * ny).reshape(nx, ny).astype(np.float64)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        raise DegenerateTestError(f"{name}: need at least a 2x2 table")
    stat, p = _laws.chi2_contingency(table)
    return GofResult(name, float(stat), float(p), x.size)


def lag1_test(x, *, name: str = "lag1") -> GofResult:
    """Pearson correlation between consecutive terms; i.i.d. data pass.

    It needs at least 4 values, 3 pairs: 2 pairs give r = +-1 and p = 1
    whatever the data.  Nor is r defined when the earlier or the later terms
    are all equal.  Both raise :class:`DegenerateTestError`.
    """
    from . import _laws

    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise DegenerateTestError(f"{name}: need at least 4 values, got {x.size}")
    before, after = x[:-1], x[1:]
    if (before == before[0]).all() or (after == after[0]).all():
        raise DegenerateTestError(f"{name}: constant terms, the correlation is undefined")
    r, p = _laws.pearsonr(before, after)
    return GofResult(name, float(r), float(p), x.size)


def geometric_fit_test(sample, p, *, name: str = "geometric-fit") -> GofResult:
    """Chi-square of integer draws against P{X=k} = (1-p)^(k-1) p."""
    sample = np.asarray(sample)
    if sample.min() < 1:
        raise ValueError("geometric samples live on {1, 2, ...}")
    n = sample.size
    vmax = int(sample.max())
    observed = np.bincount(sample, minlength=vmax + 1)[1:]
    k = np.arange(1, vmax + 1)
    expected = n * (1 - p) ** (k - 1) * p
    expected[-1] = n * (1 - p) ** (vmax - 1)  # fold the whole tail into the last cell
    return chi2_test(observed, expected, name=name)


# ---------------------------------------------------------------------------
# experiments


def _geometric0_matrices(weights, reps: int, N: int, seed: Seed, base: int):
    """(lo, hi, u) for each block of :func:`_blocks`, u the (hi - lo, N, K)
    tandem entries of replications lo..hi-1; column j is zero-inclusive
    geometric with parameter weights[j], drawn from substream base + j.  Each
    column's generator is made once and draws block after block, and one
    uniform makes one draw, so the entries do not depend on the blocks.  u is
    a view of an (N, K, hi - lo) array, the layout the tandem kernels scan."""
    gens = [seed.substream(base + j).generator() for j in range(len(weights))]
    for lo, hi in _blocks(reps, N * len(weights)):
        u = np.empty((N, len(weights), hi - lo), dtype=np.int64)
        for j, (gen, w) in enumerate(zip(gens, weights)):
            u[:, j] = draw_geometric0(gen, w, (hi - lo, N)).T
        yield lo, hi, u.transpose(2, 0, 1)


_KEY_LIMIT = 2**63  # row keys are int64: every key stays below this


def _row_counts(rows: np.ndarray) -> Counter:
    """Counter of the rows of a 2-d integer array, as tuples of ints.

    Each row is folded into one int64 mixed-radix key: column j, shifted by
    its minimum, is a digit of radix span_j = max_j - min_j + 1.  One
    numeric sort of the keys counts the rows, and only the distinct keys are
    decoded back into tuples.  Rows whose key could pass int64 are counted
    plainly, one tuple per row.
    """
    rows = np.asarray(rows)
    # column by column: a reduction over axis 0 of a C-ordered array walks its short rows
    lows = [int(col.min()) for col in rows.T]
    spans = [int(col.max()) - low + 1 for col, low in zip(rows.T, lows)]
    if math.prod(spans) >= _KEY_LIMIT:
        return Counter(map(tuple, rows.tolist()))
    key = np.zeros(len(rows), dtype=np.int64)
    for j, (low, span) in enumerate(zip(lows, spans)):
        key *= span
        key += np.subtract(rows[:, j], low, dtype=np.int64)
    distinct, counts = np.unique(key, return_counts=True)
    decoded = np.empty((distinct.size, len(spans)), dtype=np.int64)
    for j in range(len(spans) - 1, -1, -1):
        distinct, decoded[:, j] = np.divmod(distinct, spans[j])
        decoded[:, j] += lows[j]
    return Counter(dict(zip(map(tuple, decoded.tolist()), counts.tolist())))


def _pool(counts: Counter, key) -> Counter:
    """Counts of ``key(category)``: categories with one key add up, and
    ``key`` runs once per category."""
    out = Counter()
    for category, c in counts.items():
        out[key(category)] += c
    return out


def burke_experiment(params: RateParams, horizon: int, seed: Seed, alpha: float = DEFAULT_ALPHA,
                     samples_path: str | None = None) -> ExperimentReport:
    """Joint output test: departure gaps against the arrival law, dual marks
    against the mark law, independence across the pair, and vanishing lag-1
    correlation within each sequence.

    Customer 1's wait is drawn from the queue's stationary law (substream
    2; the input keeps substreams 0 and 1), so the queue is in equilibrium
    from customer 1 and all ``horizon`` gaps and marks are tested.  When
    ``samples_path`` is given, the raw (d, r) pairs are dumped there as CSV.
    """
    if horizon < 1:
        raise ValueError("need horizon >= 1")
    report = ExperimentReport(
        "burke", {"model": params.model, "arrival": params.arrival,
                  "service": params.service, "horizon": horizon}, seed, alpha)
    from . import _laws
    w1 = _stationary_wait(params, seed.substream(2).generator())
    tr = transform(sample_input(params, horizon + 1, seed), w1=w1)
    d, r = tr.d, tr.r
    if samples_path is not None:
        with open(samples_path, "w") as fh:
            fh.write("n,d,r\n")
            for i in range(horizon):
                fh.write(f"{i + 1},{d[i]},{r[i]}\n")
    def fit(x, rate, name):  # against the input law of the same parameter
        if params.model == "geomgeom1":
            return geometric_fit_test(x, rate, name=name)
        return ks_test(x, lambda t: _laws.expon_cdf(t, 1 / rate), name=name)

    report.results = [fit(d, params.arrival, "gaps-fit-arrival-law"),
                      fit(r, params.service, "marks-fit-mark-law"),
                      independence_test(d, r, name="gap-mark-independence"),
                      lag1_test(d, name="gap-lag1"),
                      lag1_test(r, name="mark-lag1")]
    report.diagnostics = {"utilization": params.utilization, "initial_wait": w1}
    return report


def trajectory_pmf(runs, p: float, q: float) -> float:
    """Probability that one busy period realizes the given zigzag trajectory.

    Up-runs are geometric(q) marks and interior down-runs geometric(p)
    gaps; the closing run is censored by the gap that ends the period.
    Summing over all trajectories gives exactly one.
    """
    t = runs if isinstance(runs, ZigzagTrajectory) else ZigzagTrajectory(tuple(runs))
    L, k = t.total_rise, t.n_peaks
    return q**k * (1 - q) ** (L - k) * p ** (k - 1) * (1 - p) ** (L - k + 1)


def _sample_busy_trajectories(params: RateParams, n_periods: int, seed: Seed):
    """Runs of the first ``n_periods`` busy periods of one queue trace that
    starts empty, as a lazy iterator of one tuple per period, read once by
    the caller.  They are built by
    :func:`~dualq.queue_store._period_run_tuples` on the customers of those
    periods: the same tuples (runs, period checks and left-to-right closing
    heights) as the table of :func:`~dualq.queue_store.zigzag_from_trace`.
    The trace is that of the first k customers of ``sample_input``, k
    doubling until the last period kept is closed (a stream's first k draws
    do not depend on k).  k starts at 2 * n_periods: k customers start at
    most k periods, and n_periods + 1 must start.

    The periods go to :func:`~dualq.queue_store._period_run_tuples` in the
    blocks of :func:`_blocks`, a period counting as many entries as a mean
    period has runs (two per customer: a mark and a gap).  A block's
    customers are cut at the first customer of a period, where a period's
    runs depend on no other customer, so the tuples do not depend on the
    blocks, and only one block's flat run tuple is alive at a time."""
    k = 2 * n_periods
    while True:
        tr = transform(sample_input(params, k, seed))
        firsts = _period_bounds(tr.A, tr.D)[0]
        if firsts.size > n_periods:
            break
        k *= 2
    # two runs per customer of a mean period, its customers rounded up
    runs_per_period = 2 * -(-int(firsts[n_periods]) // n_periods)
    return itertools.chain.from_iterable(
        _period_run_tuples(tr.A[a:b], tr.s[a:b], tr.D[a:b])[1]
        for a, b in (firsts[[lo, hi]] for lo, hi in _blocks(n_periods, runs_per_period)))


def zigzag_law_experiment(p: float, q: float, seed: Seed, n_periods: int = 100_000,
                          alpha: float = DEFAULT_ALPHA) -> ExperimentReport:
    """Distribution of busy-period zigzag trajectories.

    Checks the frequencies of the trajectories of rise up to :data:`MAX_RISE`
    against :func:`trajectory_pmf`, equiprobability inside each (length,
    peaks) class, and invariance under time reversal.  The busy periods are
    those of one queue trace that starts empty, split by the queue's own rule.
    """
    params = RateParams("geomgeom1", p, q)
    if n_periods < 1:
        raise ValueError("need n_periods >= 1")
    report = ExperimentReport(
        "zigzag-law", {"p": p, "q": q, "n_periods": n_periods, "max_rise": MAX_RISE},
        seed, alpha)
    from . import _laws
    counts = Counter(_sample_busy_trajectories(params, n_periods, seed))
    catalog = []
    for L in range(1, MAX_RISE + 1):
        catalog.extend(enumerate_trajectories(L))
    results = report.results

    observed = [counts.get(t.run_lengths, 0) for t in catalog]
    expected = [n_periods * trajectory_pmf(t, p, q) for t in catalog]
    observed.append(n_periods - sum(observed))
    expected.append(n_periods - sum(expected))
    results.append(chi2_test(observed, expected, name=f"trajectory-frequencies-rise<={MAX_RISE}"))

    by_class: dict[tuple, list] = {}
    for t in catalog:
        by_class.setdefault((t.total_rise, t.n_peaks), []).append(t)
    for (L, k), members in sorted(by_class.items()):
        if len(members) < 2:
            continue
        obs = np.array([counts.get(t.run_lengths, 0) for t in members], dtype=float)
        if obs.sum() < MIN_EXPECTED * len(members):
            continue
        exp = np.full(len(members), obs.sum() / len(members))
        results.append(chi2_test(obs, exp, name=f"uniform-within-class-L{L}-k{k}"))

    stat = 0.0
    dof = 0
    n_pairs_total = 0
    for t in catalog:
        rev = t.run_lengths[::-1]
        if rev <= t.run_lengths:
            continue  # count each unordered pair once; skip palindromes
        n1, n2 = counts.get(t.run_lengths, 0), counts.get(rev, 0)
        if n1 + n2 < 2 * MIN_EXPECTED:  # each of the two cells expects (n1 + n2) / 2
            continue
        stat += (n1 - n2) ** 2 / (n1 + n2)
        dof += 1
        n_pairs_total += n1 + n2
    if dof:
        results.append(GofResult("time-reversal-symmetry", stat,
                                 float(_laws.chi2_sf(stat, dof)), n_pairs_total))

    report.diagnostics = {"distinct_trajectories": len(counts)}
    return report


def _minmax_functionals(a, s):
    """Row-wise (max_j [sum a_{1..j} + sum s_{j+1..n+1}],
                  min_j [sum s_{2..j} + sum a_{j+1..n}]).

    ``a`` has n columns (a_1..a_n); ``s`` has n columns holding s_2..s_{n+1}.
    """
    # D(n, 2) and R(n) of the two-stage tandem, on a (reps, n, 2) view of
    # the (n, 2, reps) layout the kernels scan; views, which the caller
    # copies into its own arrays block by block
    u = np.stack([a.T, s.T], axis=1).transpose(2, 0, 1)
    return (tandem.queue_departures_batch(u)[:, -1, -1],
            tandem.store_departures_batch(u)[:, -1])


def _conditioned_walks(params: RateParams, n: int, reps: int, seed: Seed):
    """``reps`` walks of ``n`` steps conditioned never to collide, by a Doob
    h-transform: the heights A_n, S_n and S_{n-1}, and the proposals drawn.

    Step j adds a gap a_j to the height A_j and a mark s_{j+1} to S_j; the
    walks are conditioned on A_j > S_j for every j >= 1.  From height
    x = A_j - S_j (0 at the start), a step proposes (a, s) from the input law
    and is accepted with probability h(x + a - s), where h(y) = P(W < y) is
    the probability that a walk at height y never collides, W being the
    queue's equilibrium wait (:func:`~dualq.sampling._wait_below`).  h is
    harmonic above 0, so the accepted step has the law P(a, s) h(x + a - s) /
    h(x) of the conditioned walk: the conditioning is exact, with no horizon.
    Rows whose proposal is refused draw again.  Gaps, marks and acceptance
    uniforms come from substreams 0, 1 and 4, drawn step by step, so the
    walks of n steps are the first n steps of the walks of n + 1 steps.
    Memory is a few arrays of ``reps`` values, whatever n is.
    """
    draw = model_draw(params)
    gaps, marks, coins = (seed.substream(i).generator() for i in (0, 1, 4))
    A, S = np.zeros((2, reps), dtype=np.int64 if params.model == "geomgeom1" else np.float64)
    proposals = 0
    for j in range(n):
        if j == n - 1:
            before = S.copy()  # S_{n-1}
        todo = np.arange(reps)
        while todo.size:
            a = A[todo] + draw(gaps, params.arrival, todo.size)
            s = S[todo] + draw(marks, params.service, todo.size)
            ok = coins.random(todo.size) < _wait_below(params, a - s)
            proposals += todo.size
            A[todo[ok]] = a[ok]
            S[todo[ok]] = s[ok]
            todo = todo[~ok]
    return A, S, before, proposals


def noncolliding_experiment(params: RateParams, n: int, reps: int, seed: Seed,
                            alpha: float = DEFAULT_ALPHA) -> ExperimentReport:
    """Conditioned random-walk pair against the unconditional max/min pair.

    Draws the gap walk conditioned to stay strictly above the running mark
    sums forever (:func:`_conditioned_walks`), then compares the joint law of
    (sum of the first n gaps, sum of the marks 2..n) with the unconditional
    law of (D(n, 2), R(n)) of the two-stage tandem whose columns are fresh
    gaps and marks (substreams 2 and 3), computed by the tandem kernels.
    ``diagnostics.acceptance_rate`` is the accepted steps, n * reps, over
    the proposals, ``diagnostics.proposals``.
    """
    if n < 1 or reps < 1:
        raise ValueError("need n >= 1 and reps >= 1")
    report = ExperimentReport(
        "noncolliding", {"model": params.model, "arrival": params.arrival,
                         "service": params.service, "n": n, "reps": reps}, seed, alpha)
    cond_x, _, cond_y, proposals = _conditioned_walks(params, n, reps, seed)

    draw = model_draw(params)
    gaps, marks = seed.substream(2).generator(), seed.substream(3).generator()
    hi = np.empty(reps, dtype=cond_x.dtype)
    lo = np.empty(reps, dtype=cond_x.dtype)
    for start, stop in _blocks(reps, 2 * n):
        hi[start:stop], lo[start:stop] = _minmax_functionals(
            draw(gaps, params.arrival, (stop - start, n)),
            draw(marks, params.service, (stop - start, n)))

    if params.model == "geomgeom1":
        counts_c = _row_counts(np.stack([cond_x, cond_y], axis=1))
        counts_u = _row_counts(np.stack([hi, lo], axis=1))
    else:
        bins = np.stack([_margin_bins(np.concatenate([cond_x, hi]), 6),
                         _margin_bins(np.concatenate([cond_y, lo]), 6)], axis=1)
        counts_c, counts_u = _row_counts(bins[:reps]), _row_counts(bins[reps:])
    report.results = [chi2_two_sample(counts_c, counts_u, name="conditioned-vs-maxmin-joint")]
    report.diagnostics = {"acceptance_rate": n * reps / proposals, "proposals": proposals}
    return report


def interchange_experiment(q, sigma, N: int, reps: int, seed: Seed,
                           alpha: float = DEFAULT_ALPHA) -> ExperimentReport:
    """Reordering the stages leaves the joint output law unchanged.

    Samples the tandem observables under weights q and under the permuted
    weights, then runs two-sample tests on the joint (D, R), on the full
    departure prefix vector, and on the mean of D.
    """
    if N < 1 or reps < 1:
        raise ValueError("need N >= 1 and reps >= 1")
    q = _weights(q)
    K = len(q)
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(K)):
        raise ValueError("sigma must be a 0-based permutation of the stages")
    q_perm = tuple(q[sigma[j]] for j in range(K))
    report = ExperimentReport(
        "interchange", {"q": list(map(float, q)), "sigma": list(sigma), "N": N, "reps": reps},
        seed, alpha)
    from . import _laws

    def sample_outputs(weights, base):
        # D.T, of shape (N, reps), and R filled block by block, then reduced
        # to what the tests read before the next pass draws.  D.T keeps the
        # replications innermost, so the mean and variance of D's last column
        # sum one contiguous row, in the same order whatever the blocks
        Dt, R = np.empty((N, reps), dtype=np.int64), np.empty(reps, dtype=np.int64)
        for lo, hi, u in _geometric0_matrices(weights, reps, N, seed, base):
            Dt[:, lo:hi] = tandem.queue_departures_batch(u)[:, 1:, K].T
            R[lo:hi] = tandem.store_departures_batch(u)[:, -1]
        last = Dt[-1]
        return (_row_counts(np.stack([last, R], axis=1)), _row_counts(Dt.T),
                last.mean(), last.var(ddof=1), R.mean())

    joint1, prefix1, m1, v1, r1 = sample_outputs(q, 0)
    joint2, prefix2, m2, v2, r2 = sample_outputs(q_perm, K)
    results = report.results
    results.append(chi2_two_sample(joint1, joint2, name="joint-D-R-two-sample"))
    results.append(chi2_two_sample(prefix1, prefix2, name="departure-prefix-two-sample"))
    se = np.sqrt(v1 / reps + v2 / reps)
    z = (m1 - m2) / se
    results.append(GofResult("mean-D-equal", float(z),
                             float(_laws.normal_two_sided(z)), 2 * reps))
    report.diagnostics = {"mean_D": [float(m1), float(m2)],
                          "mean_R": [float(r1), float(r2)]}
    return report


def _pmf_chi2(counter: Counter, pmf: dict, total: int, *, name: str) -> GofResult:
    """Chi-square of observed categories against a (possibly truncated) pmf;
    everything outside the well-supported cells pools into a rest cell."""
    cells = sorted((k for k, p in pmf.items() if total * p >= MIN_EXPECTED),
                   key=lambda k: (-pmf[k], repr(k)))
    observed = [counter.get(k, 0) for k in cells]
    expected = [total * pmf[k] for k in cells]
    observed.append(total - sum(observed))
    expected.append(total - sum(expected))
    return chi2_test(observed, expected, name=name)


def shape_law_experiment(q, N: int, reps: int, seed: Seed,
                         alpha: float = DEFAULT_ALPHA) -> ExperimentReport:
    """Insertion-shape law and its one-row growth transitions.

    Samples matrices with zero-inclusive geometric entries, checks the
    shape frequencies at N rows against the closed-form pmf, the empirical
    (shape at N, shape at N+1) pairs against pmf times transition kernel,
    and the invariance of the shape law under permuting the weights.
    """
    if N < 1 or reps < 1:
        raise ValueError("need N >= 1 and reps >= 1")
    q = _weights(q)
    K = len(q)
    report = ExperimentReport(
        "shape-law", {"q": [float(x) for x in q], "N": N, "reps": reps}, seed, alpha)

    # Cut each pmf where _pmf_chi2 stops seeing it: a shape left out has p < cut, a
    # pair left out of row m has pm * pt < cut, so reps times either is below
    # MIN_EXPECTED / 2 and it pools into the rest cell, a complement, anyway.
    # Both pmfs come first: one past schur.SHAPE_BUDGET is refused before any draw.
    cut = MIN_EXPECTED / reps / 2
    dist = {k: float(v) for k, v in shape_distribution(q, N, residual=cut).items()}
    pair_pmf: dict[tuple, float] = {}
    for m, pm in dist.items():
        if reps * pm < 25:
            continue
        for l, pt in transition_distribution(m, q, residual=cut / pm).items():
            pair_pmf[(m, l)] = pm * float(pt)

    def shape_rows(weights, rows, base):
        # the shapes at N..rows of each replication as one row, block by block
        out = np.empty((reps, (rows + 1 - N) * K), dtype=np.int64)
        for lo, hi, u in _geometric0_matrices(weights, reps, rows, seed, base):
            out[lo:hi] = growth_shapes(u)[:, N:].reshape(hi - lo, -1)
        return out

    # one count of the distinct (shape at N, shape at N+1) rows serves both laws
    pair_rows = _row_counts(shape_rows(q, N + 1, 0))
    count_n = _pool(pair_rows, lambda row: normalize_partition(row[:K]))
    pair_counts = _pool(pair_rows, lambda row: (normalize_partition(row[:K]),
                                                normalize_partition(row[K:])))
    count_rev = _pool(_row_counts(shape_rows(q[::-1], N, K)), normalize_partition)

    results = report.results
    results.append(_pmf_chi2(count_n, dist, reps, name="shape-frequencies"))
    results.append(_pmf_chi2(pair_counts, pair_pmf, reps, name="growth-transitions"))
    results.append(chi2_two_sample(count_n, count_rev, name="weight-permutation-two-sample"))
    report.diagnostics = {"distinct_shapes": len(count_n)}
    return report


def laguerre_check(K: int, reps: int, seed: Seed, reference_mean: float | None = None,
                   alpha: float = DEFAULT_ALPHA) -> ExperimentReport:
    """Exponentiality of the square-case cumulative store output.

    With K x K mean-one exponential entries, R is the minimum over the K
    single-node dual paths, i.e. exponential with mean 1/K; that is the
    default reference.  A different ``reference_mean``, positive and
    finite, can be supplied to test against an externally quoted value.

    R is the only array of ``reps`` values the check holds.  Its mean is
    summed in drawing order; then R is sorted in place, walked by
    :func:`_ks_sorted`, and turned in place into its squared deviations
    from that mean, whose sum, in sorted order, gives the sample standard
    deviation (ddof 1).  The statistic, p-value and mean equal those of
    ``ks_test(R)`` and ``R.mean()`` bit for bit; the standard deviation may
    differ from ``R.std(ddof=1)``, which sums in drawing order, in its last
    digit.
    """
    if K < 1 or reps < 2:
        # the sample standard deviation needs two values
        raise ValueError("need K >= 1 and reps >= 2")
    ref = (1.0 / K) if reference_mean is None else float(reference_mean)
    if not 0 < ref < np.inf:  # NaN fails too
        raise ValueError(f"reference_mean must be positive and finite, got {reference_mean}")
    report = ExperimentReport("laguerre", {"K": K, "reps": reps, "reference_mean": ref},
                              seed, alpha)
    from . import _laws
    gen = seed.substream(0).generator()
    R = np.empty(reps)
    for lo, hi in _blocks(reps, K * K):  # one stream, so any block gives one R
        u = draw_exponential(gen, 1.0, (hi - lo, K, K))
        R[lo:hi] = tandem.store_departures_batch(u)[:, -1]
    mean = R.mean()
    R.sort()  # nothing reads R's drawing order after its mean
    report.results = [_ks_sorted(R, lambda t: _laws.expon_cdf(t, ref),
                                 name=f"R-exponential-mean-{ref:g}")]
    np.subtract(R, mean, out=R)
    np.multiply(R, R, out=R)
    std = np.sqrt(np.add.reduce(R) / (reps - 1))
    report.diagnostics = {"sample_mean": float(mean), "sample_std": float(std)}
    return report
