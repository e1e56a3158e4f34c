"""Monte Carlo verification of the distributional results.

Each experiment is a pure function of its parameters and a
:class:`~dualq.sampling.Seed`: rerunning with the same arguments rebuilds
the identical report, byte for byte.  Verdicts are goodness-of-fit tests
at a pre-registered significance level, never exact-equality claims.

zigzag-law reads its busy periods off a :mod:`~dualq.queue_store` trace;
noncolliding's reference pair is (D(n, 2), R(n)) from the :mod:`~dualq.tandem` kernels.
The test resolutions are the constants :data:`MIN_EXPECTED`, :data:`MAX_RISE`
and :data:`MIN_ACCEPTANCE`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tandem
from .rsk import growth_shapes
from .queue_store import (
    ZigzagTrajectory,
    _period_bounds,
    enumerate_trajectories,
    trace_from_arrays,
    transform,
)
from .sampling import (
    RateParams,
    Seed,
    draw_exponential,
    draw_geometric,
    draw_geometric0,
    sample_input,
)
from .schur import (
    shape_distribution,
    transition_distribution,
    _weights,
)

__all__ = [
    "GofResult",
    "ExperimentReport",
    "DegenerateTestError",
    "InfeasibleError",
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
MIN_ACCEPTANCE = 1e-4  # noncolliding gives up when bound to accept fewer walks


class DegenerateTestError(ValueError):
    """Too few usable bins to form a test statistic."""


class InfeasibleError(RuntimeError):
    """Rejection sampling cannot reach the requested sample size."""


@dataclass(frozen=True)
class GofResult:
    name: str
    statistic: float
    p_value: float
    n_samples: int
    alpha: float = 0.01

    @property
    def passed(self) -> bool:
        return self.p_value >= self.alpha

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "n_samples": int(self.n_samples),
            "alpha": self.alpha,
            "passed": self.passed,
        }


@dataclass
class ExperimentReport:
    name: str
    params: dict
    seed: Seed
    results: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "seed": {"master": self.seed.master, "stream": self.seed.stream},
            "tests": [r.to_dict() for r in self.results],
            "diagnostics": self.diagnostics,
            "verdict": "pass" if self.passed else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# test primitives


def ks_test(sample, cdf, *, name: str = "ks", alpha: float = 0.01) -> GofResult:
    """One-sample Kolmogorov-Smirnov against a callable CDF."""
    from scipy import stats

    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    res = stats.kstest(sample, cdf)
    return GofResult(name, float(res.statistic), float(res.pvalue), sample.size, alpha)


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


def chi2_test(observed, expected, *, name: str = "chi2", alpha: float = 0.01) -> GofResult:
    """Pearson chi-square with adjacent pooling of thin bins.

    Totals must agree to 1e-9 (relative); anything thinner than
    :data:`MIN_EXPECTED` is merged with its neighbour before testing.
    """
    from scipy import stats

    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape or observed.ndim != 1:
        raise ValueError("observed and expected must be 1-d of equal length")
    so, se = observed.sum(), expected.sum()
    if abs(so - se) > 1e-9 * max(1.0, abs(se)):
        raise ValueError(f"totals differ: observed {so}, expected {se}")
    obs, exp = _pool_bins(observed, expected)
    if len(obs) < 2:
        raise DegenerateTestError("fewer than two bins after pooling")
    stat, p = stats.chisquare(obs, exp)
    return GofResult(name, float(stat), float(p), int(round(so)), alpha)


def chi2_two_sample(keys_x, keys_y, *, name: str = "chi2-2samp",
                    alpha: float = 0.01) -> GofResult:
    """Homogeneity chi-square of two samples of hashable categories.

    Rare categories (combined expected below :data:`MIN_EXPECTED` in
    either group) are lumped into one rest cell; categories are ordered by
    combined count so the binning is deterministic.
    """
    from scipy import stats

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
        raise DegenerateTestError("fewer than two categories after pooling")
    res = stats.chi2_contingency(table, correction=False)
    return GofResult(name, float(res.statistic), float(res.pvalue), total, alpha)


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


def independence_test(x, y, *, name: str = "independence", alpha: float = 0.01) -> GofResult:
    """Contingency chi-square of the joint, each margin binned into 8
    groups, against the product of the empirical marginals."""
    from scipy import stats

    x = np.asarray(x)
    y = np.asarray(y)
    bx = _margin_bins(x, 8)
    by = _margin_bins(y, 8)
    table = np.zeros((bx.max() + 1, by.max() + 1))
    np.add.at(table, (bx, by), 1)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        raise DegenerateTestError("need at least a 2x2 table")
    res = stats.chi2_contingency(table, correction=False)
    return GofResult(name, float(res.statistic), float(res.pvalue), x.size, alpha)


def lag1_test(x, *, name: str = "lag1", alpha: float = 0.01) -> GofResult:
    """Pearson correlation between consecutive terms; i.i.d. data pass."""
    from scipy import stats

    x = np.asarray(x, dtype=float)
    r, p = stats.pearsonr(x[:-1], x[1:])
    return GofResult(name, float(r), float(p), x.size, alpha)


def geometric_fit_test(sample, p, *, name: str = "geometric-fit",
                       alpha: float = 0.01) -> GofResult:
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
    return chi2_test(observed, expected, name=name, alpha=alpha)


# ---------------------------------------------------------------------------
# experiments


def _geometric0_matrices(weights, reps: int, N: int, seed: Seed, base: int) -> np.ndarray:
    """(reps, N, K) tandem entries; column j is zero-inclusive geometric with
    parameter weights[j], drawn from substream base + j."""
    return np.stack([draw_geometric0(seed.substream(base + j).generator(), w, (reps, N))
                     for j, w in enumerate(weights)], axis=2)


def _relaxation_customers(params: RateParams) -> int:
    # geometric mixing scale of the waiting-time chain near saturation
    rho = params.utilization
    return int(np.ceil(10.0 / (1.0 - rho) ** 2))


def burke_experiment(params: RateParams, horizon: int, burn_in: int,
                     seed: Seed, alpha: float = 0.01,
                     samples_path: str | None = None) -> ExperimentReport:
    """Joint output test: departure gaps against the arrival law, dual marks
    against the mark law, independence across the pair, and vanishing lag-1
    correlation within each sequence.

    The system starts empty and the first ``burn_in`` customers are
    discarded in place of the two-sided stationary construction; the
    report flags a burn-in that looks short for the drift.  When
    ``samples_path`` is given, the raw (d, r) pairs are dumped there as CSV.
    """
    from scipy import stats

    if horizon < 1 or burn_in < 0:
        raise ValueError("need horizon >= 1 and burn_in >= 0")
    ms = sample_input(params, burn_in + horizon + 1, seed)
    tr = transform(ms, w1=0)
    d = tr.d[burn_in:burn_in + horizon]
    r = tr.r[burn_in:burn_in + horizon]
    if samples_path is not None:
        with open(samples_path, "w") as fh:
            fh.write("n,d,r\n")
            for i in range(horizon):
                fh.write(f"{i + 1},{d[i]},{r[i]}\n")
    results = []
    if params.model == "geomgeom1":
        results.append(geometric_fit_test(d, params.arrival, name="gaps-fit-arrival-law", alpha=alpha))
        results.append(geometric_fit_test(r, params.service, name="marks-fit-mark-law", alpha=alpha))
    else:
        results.append(ks_test(d, stats.expon(scale=1 / params.arrival).cdf,
                               name="gaps-fit-arrival-law", alpha=alpha))
        results.append(ks_test(r, stats.expon(scale=1 / params.service).cdf,
                               name="marks-fit-mark-law", alpha=alpha))
    results.append(independence_test(d, r, name="gap-mark-independence", alpha=alpha))
    results.append(lag1_test(d, name="gap-lag1", alpha=alpha))
    results.append(lag1_test(r, name="mark-lag1", alpha=alpha))
    relax = _relaxation_customers(params)
    diagnostics = {
        "utilization": params.utilization,
        "relaxation_customers": relax,
        "burn_in": burn_in,
        "burn_in_ok": burn_in >= relax,
    }
    if burn_in < relax:
        diagnostics["note"] = (
            f"burn-in {burn_in} is below the relaxation scale {relax}; "
            "equilibrium tests may be biased"
        )
    return ExperimentReport(
        name="burke",
        params={"model": params.model, "arrival": params.arrival,
                "service": params.service, "horizon": horizon, "burn_in": burn_in},
        seed=seed,
        results=results,
        diagnostics=diagnostics,
    )


def trajectory_pmf(runs, p: float, q: float) -> float:
    """Probability that one busy period realizes the given zigzag trajectory.

    Up-runs are geometric(q) marks and interior down-runs geometric(p)
    gaps; the closing run is censored by the gap that ends the period.
    Summing over all trajectories gives exactly one.
    """
    t = runs if isinstance(runs, ZigzagTrajectory) else ZigzagTrajectory(tuple(runs))
    L, k = t.total_rise, t.n_peaks
    return q**k * (1 - q) ** (L - k) * p ** (k - 1) * (1 - p) ** (L - k + 1)


def _sample_busy_trajectories(p, q, n_periods, seed):
    """Runs of the first ``n_periods`` busy periods of one Geom/Geom/1 queue
    trace: each period's (mark, gap) pairs, its last gap replaced by the last
    customer's D - A.  The trace takes the first k marks (substream 0) and
    gaps (substream 1), k doubling from ``n_periods`` until the last period
    kept is closed; a stream's first k draws do not depend on k."""
    k = n_periods
    while True:
        s = draw_geometric(seed.substream(0).generator(), q, k)
        a = draw_geometric(seed.substream(1).generator(), p, k)
        tr = trace_from_arrays(np.concatenate(([0], np.cumsum(a[:-1]))), s)
        firsts, stops = _period_bounds(tr.A, tr.D)
        if firsts.size > n_periods:
            break
        k *= 2
    firsts, stops = firsts[:n_periods], stops[:n_periods]
    runs = np.stack([s, a], axis=1)[:stops[-1]]
    runs[stops - 1, 1] = (tr.D - tr.A)[stops - 1]
    flat = runs.ravel().tolist()
    return [tuple(flat[2 * f:2 * e]) for f, e in zip(firsts.tolist(), stops.tolist())]


def zigzag_law_experiment(p: float, q: float, seed: Seed,
                          n_periods: int = 100_000, alpha: float = 0.01) -> ExperimentReport:
    """Distribution of busy-period zigzag trajectories.

    Checks the frequencies of the trajectories of rise up to :data:`MAX_RISE`
    against :func:`trajectory_pmf`, equiprobability inside each (length,
    peaks) class, and invariance under time reversal.  The busy periods are
    those of one queue trace that starts empty, split by the queue's own rule.
    """
    from scipy import stats

    if not 0 < p < q < 1:
        raise ValueError("need 0 < p < q < 1")
    if n_periods < 1:
        raise ValueError("need n_periods >= 1")
    trajs = _sample_busy_trajectories(p, q, n_periods, seed)
    counts = Counter(trajs)
    catalog = []
    for L in range(1, MAX_RISE + 1):
        catalog.extend(enumerate_trajectories(L))
    results = []

    observed = [counts.get(t.run_lengths, 0) for t in catalog]
    expected = [n_periods * trajectory_pmf(t, p, q) for t in catalog]
    observed.append(n_periods - sum(observed))
    expected.append(n_periods - sum(expected))
    results.append(chi2_test(observed, expected,
                             name=f"trajectory-frequencies-rise<={MAX_RISE}", alpha=alpha))

    by_class: dict[tuple, list] = {}
    for t in catalog:
        by_class.setdefault((t.total_rise, t.n_peaks), []).append(t)
    for (L, k), members in sorted(by_class.items()):
        if len(members) < 2:
            continue
        obs = np.array([counts.get(t.run_lengths, 0) for t in members], dtype=float)
        if obs.sum() < 5 * len(members):
            continue
        exp = np.full(len(members), obs.sum() / len(members))
        results.append(chi2_test(obs, exp, name=f"uniform-within-class-L{L}-k{k}",
                                 alpha=alpha))

    stat = 0.0
    dof = 0
    n_pairs_total = 0
    for t in catalog:
        rev = t.run_lengths[::-1]
        if rev <= t.run_lengths:
            continue  # count each unordered pair once; skip palindromes
        n1, n2 = counts.get(t.run_lengths, 0), counts.get(rev, 0)
        if n1 + n2 < 10:
            continue
        stat += (n1 - n2) ** 2 / (n1 + n2)
        dof += 1
        n_pairs_total += n1 + n2
    if dof:
        results.append(GofResult("time-reversal-symmetry", stat,
                                 float(stats.chi2.sf(stat, dof)), n_pairs_total, alpha))

    return ExperimentReport(
        name="zigzag-law",
        params={"p": p, "q": q, "n_periods": n_periods, "max_rise": MAX_RISE},
        seed=seed,
        results=results,
        diagnostics={"distinct_trajectories": len(counts)},
    )


def _minmax_functionals(a, s):
    """Row-wise (max_j [sum a_{1..j} + sum s_{j+1..n+1}],
                  min_j [sum s_{2..j} + sum a_{j+1..n}]).

    ``a`` has n columns (a_1..a_n); ``s`` has n columns holding s_2..s_{n+1}.
    """
    u = np.stack([a, s], axis=2)  # D(n, 2) and R(n) of the two-stage tandem
    return tandem.queue_departures_batch(u)[:, -1, -1], tandem.store_departures_batch(u)[:, -1]


def noncolliding_experiment(params: RateParams, n: int, horizon_trunc: int,
                            reps: int, seed: Seed, alpha: float = 0.01) -> ExperimentReport:
    """Conditioned random-walk pair against the unconditional max/min pair.

    Conditions the gap walk to stay strictly above the running mark sums
    (truncated at ``horizon_trunc`` steps) by rejection, then compares the
    joint law of (sum of the first n gaps, sum of the marks 2..n) with the
    unconditional law of (D(n, 2), R(n)) of the two-stage tandem whose
    columns are fresh gaps and marks, computed by the tandem kernels.
    """
    if n < 1 or horizon_trunc < n or reps < 1:
        raise ValueError("need 1 <= n <= horizon_trunc and reps >= 1")
    geometric = params.model == "geomgeom1"
    draw = draw_geometric if geometric else draw_exponential
    gen_a = seed.substream(0).generator()
    gen_s = seed.substream(1).generator()

    batch = max(4096, min(reps, 1 << 16))
    checked_at = 50  # batches drawn before the acceptance rate is judged
    acc_x, acc_y = [], []
    accepted = attempts = 0
    while accepted < reps:
        A = np.cumsum(draw(gen_a, params.arrival, (batch, horizon_trunc)), axis=1)
        S = np.cumsum(draw(gen_s, params.service, (batch, horizon_trunc)), axis=1)  # s_2..s_{T+1}
        ok = (A > S).all(axis=1)
        attempts += batch
        accepted += int(ok.sum())
        acc_x.append(A[ok, n - 1])
        acc_y.append(S[ok, n - 2] if n >= 2 else np.zeros(int(ok.sum()), dtype=A.dtype))
        # The rate is judged after `checked_at` batches and every batch after.
        # Raise as soon as the run is bound to fail that: it cannot reach reps
        # first, and even accepting every walk up to the check keeps it low.
        done = attempts // batch
        best = accepted + max(checked_at - done, 0) * batch
        if ((done >= checked_at or accepted + (checked_at - 1 - done) * batch < reps)
                and best / max(attempts, checked_at * batch) < MIN_ACCEPTANCE):
            raise InfeasibleError(
                f"acceptance rate {accepted / attempts:.2e} below {MIN_ACCEPTANCE:.0e} "
                f"after {attempts} attempts"
            )
    cond_x = np.concatenate(acc_x)[:reps]
    cond_y = np.concatenate(acc_y)[:reps]

    a2 = draw(seed.substream(2).generator(), params.arrival, (reps, n))
    s2 = draw(seed.substream(3).generator(), params.service, (reps, n))
    hi, lo = _minmax_functionals(a2, s2)

    if geometric:
        keys_c = list(zip(cond_x.tolist(), cond_y.tolist()))
        keys_u = list(zip(hi.tolist(), lo.tolist()))
    else:
        bx = _margin_bins(np.concatenate([cond_x, hi]), 6)
        by = _margin_bins(np.concatenate([cond_y, lo]), 6)
        keys = list(zip(bx.tolist(), by.tolist()))
        keys_c, keys_u = keys[:reps], keys[reps:]
    res = chi2_two_sample(keys_c, keys_u, name="conditioned-vs-maxmin-joint", alpha=alpha)

    return ExperimentReport(
        name="noncolliding",
        params={"model": params.model, "arrival": params.arrival,
                "service": params.service, "n": n,
                "horizon_trunc": horizon_trunc, "reps": reps},
        seed=seed,
        results=[res],
        diagnostics={"acceptance_rate": accepted / attempts, "attempts": attempts},
    )


def interchange_experiment(q, sigma, N: int, reps: int, seed: Seed,
                           alpha: float = 0.01) -> ExperimentReport:
    """Reordering the stages leaves the joint output law unchanged.

    Samples the tandem observables under weights q and under the permuted
    weights, then runs two-sample tests on the joint (D, R), on the full
    departure prefix vector, and on the mean of D.
    """
    from scipy import stats

    if N < 1 or reps < 1:
        raise ValueError("need N >= 1 and reps >= 1")
    q = _weights(q)
    K = len(q)
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(K)):
        raise ValueError("sigma must be a 0-based permutation of the stages")
    q_perm = tuple(q[sigma[j]] for j in range(K))

    def sample_outputs(weights, base):
        u = _geometric0_matrices(weights, reps, N, seed, base)
        D = tandem.queue_departures_batch(u)[:, 1:, K]
        R = tandem.store_departures_batch(u)[:, -1]
        return D, R

    D1, R1 = sample_outputs(q, 0)
    D2, R2 = sample_outputs(q_perm, K)

    joint1 = list(zip(D1[:, -1].tolist(), R1.tolist()))
    joint2 = list(zip(D2[:, -1].tolist(), R2.tolist()))
    prefix1, prefix2 = _row_keys(D1), _row_keys(D2)
    results = [
        chi2_two_sample(joint1, joint2, name="joint-D-R-two-sample", alpha=alpha),
        chi2_two_sample(prefix1, prefix2, name="departure-prefix-two-sample", alpha=alpha),
    ]
    m1, m2 = D1[:, -1].mean(), D2[:, -1].mean()
    se = np.sqrt(D1[:, -1].var(ddof=1) / reps + D2[:, -1].var(ddof=1) / reps)
    z = (m1 - m2) / se
    results.append(GofResult("mean-D-equal", float(z),
                             float(2 * stats.norm.sf(abs(z))), 2 * reps, alpha))

    return ExperimentReport(
        name="interchange",
        params={"q": list(map(float, q)), "sigma": list(sigma), "N": N, "reps": reps},
        seed=seed,
        results=results,
        diagnostics={"mean_D": [float(m1), float(m2)],
                     "mean_R": [float(R1.mean()), float(R2.mean())]},
    )


def _row_keys(rows: np.ndarray, key=tuple) -> list:
    """``key`` of each row (as a list of ints), computed once per distinct row."""
    rows = np.ascontiguousarray(rows)
    raw = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    keys = [key(row) for row in rows[first].tolist()]
    return [keys[i] for i in inverse.tolist()]


def _shape_keys(shapes: np.ndarray) -> list[tuple]:
    """Rows of a zero-padded shape array as tuples of ints, zeros dropped."""
    return _row_keys(shapes, lambda row: tuple(x for x in row if x))


def _pmf_chi2(counter: Counter, pmf: dict, total: int, *, name: str,
              alpha: float) -> GofResult:
    """Chi-square of observed categories against a (possibly truncated) pmf;
    everything outside the well-supported cells pools into a rest cell."""
    cells = sorted((k for k, p in pmf.items() if total * p >= MIN_EXPECTED),
                   key=lambda k: (-pmf[k], repr(k)))
    observed = [counter.get(k, 0) for k in cells]
    expected = [total * pmf[k] for k in cells]
    observed.append(total - sum(observed))
    expected.append(total - sum(expected))
    return chi2_test(observed, expected, name=name, alpha=alpha)


def shape_law_experiment(q, N: int, reps: int, seed: Seed,
                         alpha: float = 0.01) -> ExperimentReport:
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
    u = _geometric0_matrices(q, reps, N + 1, seed, 0)
    grown = growth_shapes(u)
    shapes_n, shapes_n1 = _shape_keys(grown[:, N]), _shape_keys(grown[:, N + 1])
    count_n = Counter(shapes_n)

    u2 = _geometric0_matrices(q[::-1], reps, N, seed, K)
    shapes_rev = _shape_keys(growth_shapes(u2)[:, N])

    dist = {k: float(v) for k, v in shape_distribution(q, N, residual=1e-12).items()}
    results = [_pmf_chi2(count_n, dist, reps, name="shape-frequencies", alpha=alpha)]

    pair_pmf: dict[tuple, float] = {}
    for m, pm in dist.items():
        if reps * pm < 25:
            continue
        for l, pt in transition_distribution(m, q, residual=1e-9).items():
            pair_pmf[(m, l)] = pm * float(pt)
    pair_counts = Counter(zip(shapes_n, shapes_n1))
    results.append(_pmf_chi2(pair_counts, pair_pmf, reps,
                             name="growth-transitions", alpha=alpha))

    results.append(chi2_two_sample(shapes_n, shapes_rev,
                                   name="weight-permutation-two-sample", alpha=alpha))

    return ExperimentReport(
        name="shape-law",
        params={"q": [float(x) for x in q], "N": N, "reps": reps},
        seed=seed,
        results=results,
        diagnostics={"distinct_shapes": len(count_n)},
    )


LAGUERRE_BLOCK = 200_000  # matrices per draw: bounds the memory of one laguerre run


def laguerre_check(K: int, reps: int, seed: Seed, reference_mean: float | None = None,
                   alpha: float = 0.01) -> ExperimentReport:
    """Exponentiality of the square-case cumulative store output.

    With K x K mean-one exponential entries, R is the minimum over the K
    single-node dual paths, i.e. exponential with mean 1/K; that is the
    default reference.  A different ``reference_mean`` can be supplied to
    test against an externally quoted value.
    """
    from scipy import stats

    if K < 1 or reps < 1:
        raise ValueError("need K >= 1 and reps >= 1")
    gen = seed.substream(0).generator()
    values = []
    remaining = reps
    while remaining > 0:
        b = min(LAGUERRE_BLOCK, remaining)
        u = draw_exponential(gen, 1.0, (b, K, K))
        values.append(tandem.store_departures_batch(u)[:, -1])
        remaining -= b
    R = np.concatenate(values)
    ref = (1.0 / K) if reference_mean is None else float(reference_mean)
    res = ks_test(R, stats.expon(scale=ref).cdf,
                  name=f"R-exponential-mean-{ref:g}", alpha=alpha)
    return ExperimentReport(
        name="laguerre",
        params={"K": K, "reps": reps, "reference_mean": ref},
        seed=seed,
        results=[res],
        diagnostics={"sample_mean": float(R.mean()),
                     "sample_std": float(R.std(ddof=1))},
    )
