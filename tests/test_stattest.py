import json
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from dualq import _laws, cli, particles, stattest
from dualq.sampling import (
    RateParams,
    Seed,
    _stationary_wait,
    _wait_below,
    draw_exponential,
    draw_geometric,
    sample_exponential,
    sample_input,
)
from dualq.stattest import (
    DegenerateTestError,
    ExactResult,
    ExperimentReport,
    GofResult,
    burke_experiment,
    chi2_test,
    chi2_two_sample,
    geometric_fit_test,
    independence_test,
    interchange_experiment,
    ks_test,
    lag1_test,
    laguerre_check,
    noncolliding_experiment,
    shape_law_experiment,
    trajectory_pmf,
    zigzag_law_experiment,
    _conditioned_walks,
    _ks_sorted,
    _margin_bins,
    _minmax_functionals,
    _pmf_chi2,
    _pool,
    _row_counts,
    _sample_busy_trajectories,
)
from dualq.queue_store import busy_periods, enumerate_trajectories, transform, zigzag_from_trace
from dualq.rsk import normalize_partition
from dualq.schur import shape_distribution
from test_cli import RECORDED_WITH

GEOM = RateParams("geomgeom1", 0.3, 0.6)
EXPO = RateParams("mm1", 0.3, 0.7)


# --- primitives ----------------------------------------------------------------

def test_ks_self_consistency_over_seeds():
    # ~1% of well-specified runs reject at alpha=0.01
    rejections = 0
    cdf = stats.expon(scale=1.0).cdf
    for i in range(100):
        x = sample_exponential(1.0, 10_000, Seed(1000, i))
        if not ks_test(x, cdf).p_value >= 0.01:
            rejections += 1
    assert rejections <= 4


def test_ks_constant_sample_rejects():
    r = ks_test(np.ones(1000), stats.expon().cdf)
    assert r.p_value < 1e-10


def test_ks_against_own_ecdf():
    x = np.sort(sample_exponential(1.0, 500, Seed(2)))

    def ecdf(t):
        return np.searchsorted(x, t, side="right") / x.size

    r = ks_test(x, ecdf)
    assert r.statistic <= 1.0 / x.size + 1e-12


def _ks_samples():
    x = sample_exponential(1.0, 2000, Seed(7))
    shuffled = np.random.default_rng(1).permutation(x)
    return {
        "shuffled": shuffled,
        "ties": draw_geometric(Seed(8).generator(), 0.4, 2000).astype(float),
        "reversed": np.sort(x)[::-1],
        "constant": np.full(1000, 0.5),
        "n=1": x[:1],
        "n=1-inf": np.array([np.inf]),
        "n=1-minus-inf": np.array([-np.inf]),
        "infinities": np.concatenate([shuffled[:500], [np.inf, -np.inf, np.inf]]),
        "nan": np.array([0.5, np.nan, 0.2]),
        "nan-only": np.array([np.nan]),
        "nan-and-infinities": np.concatenate([[np.nan, -np.inf], shuffled, [np.inf]]),
    }


def _same_ks(got: GofResult, want) -> bool:
    # equal bits, NaN included (0.0 and -0.0 cannot meet here: D >= 1/(2n))
    return np.array_equal([got.statistic, got.p_value], [want.statistic, want.pvalue],
                          equal_nan=True)


@pytest.mark.parametrize("kind", sorted(_ks_samples()))
def test_ks_matches_scipy_on_unsorted_sample(kind):
    x = _ks_samples()[kind]
    before = x.copy()
    cdf = stats.expon().cdf
    got = ks_test(x, cdf)
    assert _same_ks(got, stats.kstest(x, cdf))
    assert np.array_equal(x, before, equal_nan=True)  # the caller's array keeps its order


@pytest.mark.parametrize("kind", sorted(_ks_samples()))
def test_ks_is_the_walk_of_the_sorted_sample(kind):
    # laguerre_check sorts R in place and calls the walk itself
    x = _ks_samples()[kind]
    before = x.copy()
    cdf = stats.expon().cdf
    got, want = ks_test(x, cdf, name="t"), _ks_sorted(np.sort(x), cdf, name="t")
    assert np.array_equal([got.statistic, got.p_value], [want.statistic, want.p_value],
                          equal_nan=True)
    assert (got.name, got.n_samples) == (want.name, want.n_samples)
    assert np.array_equal(x, before, equal_nan=True)


def test_ks_nan_fails_the_test():
    # the NaN sorts into the last of three blocks; a running max taken with
    # Python's max dropped it and passed the sample with D = -inf and p = 1.0
    x = sample_exponential(1.0, 3 * stattest._BLOCK, Seed(5))
    x[0] = np.nan
    got = ks_test(x, stats.expon().cdf)
    assert np.isnan(got.statistic) and np.isnan(got.p_value)
    report = ExperimentReport("ks", {}, Seed(0), 0.01, [got])
    assert not report.passed and report.to_dict()["verdict"] == "fail"


def test_ks_nan_from_the_cdf_propagates():
    # the NaN comes from the CDF in the first block, and the later blocks are finite
    x = sample_exponential(1.0, 2 * stattest._BLOCK, Seed(6))
    first = np.sort(x)[0]
    got = ks_test(x, lambda t: np.where(t == first, np.nan, stats.expon.cdf(t)))
    assert np.isnan(got.statistic) and np.isnan(got.p_value)


_ECDF_POINTS = np.sort(sample_exponential(1.0, 500, Seed(3)))
# the two kinds of CDF the code and its tests pass: scipy's frozen expon and an ECDF
_BLOCK_CDFS = {
    "expon": stats.expon(scale=0.8).cdf,
    "ecdf": lambda t: np.searchsorted(_ECDF_POINTS, t, side="right") / _ECDF_POINTS.size,
}


@pytest.mark.parametrize("cdf_name", ["expon", "ecdf"])
@pytest.mark.parametrize("size", [1, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
def test_ks_blocks_keep_the_bits_of_one_call(size, cdf_name):
    # guard: the CDF evaluated block by block gives scipy's whole-array values
    x = sample_exponential(1.2, size, Seed(size))
    cdf = _BLOCK_CDFS[cdf_name]
    got = ks_test(x, cdf)
    assert _same_ks(got, stats.kstest(x, cdf))


def test_ks_calls_the_cdf_in_blocks():
    sizes = []

    def cdf(t):
        sizes.append(t.size)
        return stats.expon.cdf(t)

    ks_test(sample_exponential(1.0, 3 * stattest._BLOCK + 5, Seed(4)), cdf)
    assert sizes == [stattest._BLOCK] * 3 + [5]


def test_chi2_exact_match_is_zero():
    r = chi2_test([10, 20, 30], [10.0, 20.0, 30.0])
    assert r.statistic == 0.0 and r.p_value == 1.0


def test_chi2_disjoint_supports_rejects(monkeypatch):
    monkeypatch.setattr(stattest, "MIN_EXPECTED", 0.0)
    r = chi2_test([0.0, 100.0], [99.99, 0.01])
    assert r.p_value < 1e-12


def test_chi2_requires_matching_totals():
    with pytest.raises(ValueError):
        chi2_test([1, 2], [1.0, 2.5])


def test_chi2_degenerate_after_pooling():
    with pytest.raises(DegenerateTestError):
        chi2_test([3, 1], [3.0, 1.0])  # pools into one bin


def test_chi2_pools_thin_tail():
    observed = [50, 30, 3, 1, 1]
    expected = [50.0, 30.0, 3.0, 1.0, 1.0]
    r = chi2_test(observed, expected)
    assert r.statistic == 0.0  # pooled cells still agree exactly


def test_geometric_fit_detects_wrong_parameter():
    from dualq.sampling import sample_geometric

    x = sample_geometric(0.5, 100_000, Seed(3))
    assert geometric_fit_test(x, 0.5).p_value >= 0.01
    assert not geometric_fit_test(x, 0.47).p_value >= 0.01


def test_two_sample_same_law_passes():
    gen1 = Seed(4, 0).generator()
    gen2 = Seed(4, 1).generator()
    x = gen1.poisson(3.0, 20_000).tolist()
    y = gen2.poisson(3.0, 20_000).tolist()
    assert chi2_two_sample(x, y).p_value >= 0.01


def test_two_sample_shifted_law_fails():
    gen1 = Seed(5, 0).generator()
    gen2 = Seed(5, 1).generator()
    x = gen1.poisson(3.0, 20_000).tolist()
    y = gen2.poisson(3.2, 20_000).tolist()
    assert not chi2_two_sample(x, y).p_value >= 0.01


def chi2_two_sample_reference(x, y, name, min_expected=5.0):
    """Homogeneity chi-square built cell by cell: categories by combined
    count (ties by repr), thin ones pooled into one rest cell."""
    cx, cy = Counter(x), Counter(y)
    cats = sorted(set(x) | set(y), key=lambda k: (-(cx[k] + cy[k]), repr(k)))
    frac = min(len(x), len(y)) / (len(x) + len(y))
    table, rest = [], [0, 0]
    for k in cats:
        if (cx[k] + cy[k]) * frac >= min_expected:
            table.append([cx[k], cy[k]])
        else:
            rest[0] += cx[k]
            rest[1] += cy[k]
    if any(rest):
        table.append(rest)
    res = stats.chi2_contingency(np.array(table, dtype=float).T, correction=False)
    return GofResult(name, float(res.statistic), float(res.pvalue), len(x) + len(y))


def test_two_sample_many_categories_matches_reference():
    # > 5000 categories, most of them rare, so both kept cells and the
    # rest cell are large
    gen = Seed(8).generator()
    x = (gen.geometric(0.3, 6000).tolist() + gen.integers(100, 20_000, 6000).tolist())
    y = (gen.geometric(0.3, 5000).tolist() + gen.integers(100, 20_000, 5000).tolist())
    assert len(set(x) | set(y)) > 5000
    assert chi2_two_sample(x, y, name="many") == chi2_two_sample_reference(x, y, "many")


def test_two_sample_counts_match_reference_on_keys():
    # the experiments hand over per-category counts; the table is the same
    gen = Seed(10).generator()
    x = list(zip(gen.integers(0, 6, 3000).tolist(), gen.geometric(0.2, 3000).tolist()))
    y = list(zip(gen.integers(0, 6, 2500).tolist(), gen.geometric(0.2, 2500).tolist()))
    assert (chi2_two_sample(Counter(x), Counter(y), name="counts")
            == chi2_two_sample(x, Counter(y), name="counts")
            == chi2_two_sample_reference(x, y, "counts"))


@pytest.mark.parametrize("shapes", [
    np.zeros((4, 3), dtype=np.int64),
    np.array([[0], [3], [0], [3], [1]]),
    np.array([[2, 1, 0]]),
    np.array([[3, 1, 0], [0, 0, 0], [3, 1, 0], [2, 2, 1], [0, 0, 0]])[:, :2],
])
def test_shape_keys_match_rowwise_tuples(shapes):
    # shape-law's categories: zero-padded shape rows, counted with zeros dropped
    counts = _pool(_row_counts(shapes), normalize_partition)
    assert counts == Counter(tuple(x for x in row if x) for row in shapes.tolist())
    assert all(type(x) is int for key in counts for x in key)


def _first_and_last(row):
    return row[0], row[-1]  # maps distinct rows to one key


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
           st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=1, max_size=40)),
       st.sampled_from([None, _first_and_last, sum]),
       st.sampled_from([np.int64, np.int32]))
@example([[5, -1, 2]], None, np.int64)             # one row
@example([[2, 2]] * 7, None, np.int64)             # all rows equal
@example([[1, 0, 2], [1, 5, 2], [1, 0, 2]], _first_and_last, np.int64)
# 30 columns spanning about 1000 values each, and two spanning 2**62 + 1:
# rows too wide to key, counted as tuples
@example([[(389 * (i % 9) + 97 * j) % 1001 for j in range(30)] for i in range(14)],
         None, np.int64)
@example([[0, 0], [2**62, 2**62], [0, 0]], None, np.int64)
# spans 2 and 2**62 multiply to 2**63, so the rows are counted as tuples;
# one value less and they are keyed, the largest key 2**63 - 3
@example([[0, 0], [1, 2**62 - 1], [0, 0]], None, np.int64)
@example([[0, 0], [1, 2**62 - 2], [1, 2**62 - 2]], None, np.int64)
@example([[3], [-2], [3], [0]], None, np.int64)    # a single column
# negative int32 entries whose column spans pass int32
@example([[-5, 7], [-5, 7], [2**31 - 1, -2**31], [-2**31, 0]], None, np.int32)
def test_row_counts_match_counter_of_rows(rows, key, dtype):
    rows = np.array(rows, dtype=dtype)
    want = Counter((key or tuple)(tuple(r)) for r in rows.tolist())
    got = _row_counts(rows[::-1])  # a view with negative strides counts the same
    if key is not None:
        got = _pool(got, key)
    assert got == want
    # python ints, not numpy scalars: chi2_two_sample orders ties by repr
    assert all(type(x) is int for k in got for x in (k if isinstance(k, tuple) else (k,)))


def test_independence_detects_coupling():
    gen = Seed(6).generator()
    x = gen.integers(1, 20, 20_000)
    y_indep = gen.integers(1, 20, 20_000)
    assert independence_test(x, y_indep).p_value >= 0.01
    assert not independence_test(x, x + gen.integers(0, 2, 20_000)).p_value >= 0.01


@pytest.mark.parametrize("seed", range(5))
def test_independence_table_counts_as_add_at(monkeypatch, seed):
    # bins drawn with gaps, so the table has empty rows and columns to drop
    gen = Seed(seed).generator()
    bx = gen.choice([0, 2, 3, 7], size=500)
    by = gen.choice([1, 4, 5], size=500, p=[0.2, 0.5, 0.3])
    want = np.zeros((bx.max() + 1, by.max() + 1))
    np.add.at(want, (bx, by), 1)
    want = want[want.sum(axis=1) > 0][:, want.sum(axis=0) > 0]
    tables = []
    real = _laws.chi2_contingency
    monkeypatch.setattr(_laws, "chi2_contingency", lambda t: tables.append(t) or real(t))
    monkeypatch.setattr(stattest, "_margin_bins", lambda values, n_bins: values)
    got = independence_test(bx, by)
    [table] = tables
    assert want.shape == (4, 3) and table.dtype == np.float64
    assert np.array_equal(table, want)
    stat, p = real(want)
    assert (got.statistic, got.p_value, got.n_samples) == (stat, p, 500)


def margin_bins_reference(values, n_bins):
    """Integer binning value by value: bins fill in increasing value order and
    close once they hold values.size / n_bins samples, the last takes the rest."""
    uniq, counts = np.unique(values, return_counts=True)
    mapping = {}
    b, acc = 0, 0
    for v, c in zip(uniq.tolist(), counts.tolist()):
        mapping[v] = b
        acc += c
        if acc >= len(values) / n_bins and b < n_bins - 1:
            b += 1
            acc = 0
    return [mapping[v] for v in values.tolist()]


@pytest.mark.parametrize("values, n_bins", [
    (np.full(50, 4), 6),                                   # one distinct value
    (np.array([1] * 90 + [2] * 5 + [3] * 5), 8),           # heavy ties
    (np.array([3, 1, 2, 1]), 10),                          # more bins than values
    (Seed(9).generator().geometric(0.3, 100_000), 8),
])
def test_margin_bins_match_per_value_reference(values, n_bins):
    bins = _margin_bins(values, n_bins)
    assert bins.dtype == np.int64
    assert bins.tolist() == margin_bins_reference(values, n_bins)


def test_lag1_detects_autocorrelation():
    gen = Seed(7).generator()
    x = gen.normal(size=20_000)
    assert lag1_test(x).p_value >= 0.01
    walk = np.cumsum(x)
    assert not lag1_test(walk).p_value >= 0.01


# --- burke ----------------------------------------------------------------------

def test_burke_geometric_smoke():
    rep = burke_experiment(GEOM, 20_000, Seed(100))
    assert rep.passed
    names = [r.name for r in rep.results]
    assert "gaps-fit-arrival-law" in names
    assert "marks-fit-mark-law" in names
    assert "gap-mark-independence" in names


def test_burke_exponential_smoke():
    assert burke_experiment(EXPO, 20_000, Seed(101)).passed


def test_burke_reports_are_reproducible():
    a = burke_experiment(GEOM, 5_000, Seed(102))
    b = burke_experiment(GEOM, 5_000, Seed(102))
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("params", [RateParams("geomgeom1", 0.5, 0.55),
                                    RateParams("mm1", 0.69, 0.7)])
def test_burke_tests_the_trace_started_at_the_stationary_draw(params, tmp_path):
    seed = Seed(100)
    rep = burke_experiment(params, 1_000, seed, samples_path=str(tmp_path / "dr.csv"))
    w1 = rep.diagnostics["initial_wait"]
    assert w1 > 0 and w1 == _stationary_wait(params, seed.substream(2).generator())
    tr = transform(sample_input(params, 1_001, seed), w1=w1)
    dumped = np.loadtxt(tmp_path / "dr.csv", delimiter=",", skiprows=1)
    assert np.array_equal(dumped[:, 1], tr.d) and np.array_equal(dumped[:, 2], tr.r)


def test_burke_rejects_bad_sizes():
    with pytest.raises(ValueError):
        burke_experiment(GEOM, 0, Seed(0))


# --- zigzag law -------------------------------------------------------------------

def test_trajectory_pmf_examples():
    from math import comb

    p, q = 0.3, 0.7
    # single customer with one unit of work: P{s=1} * P{a > 1}
    assert trajectory_pmf((1, 1), p, q) == pytest.approx(q * (1 - p))
    # every trajectory in a (rise, peaks) class has the same probability and
    # the class sizes are the Narayana numbers, so the law sums to one
    total = 0.0
    for L in range(1, 120):
        for k in range(1, L + 1):
            runs = (1, 1) * (k - 1) + (L - k + 1, L - k + 1)
            total += comb(L, k) * comb(L, k - 1) // L * trajectory_pmf(runs, p, q)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_trajectory_pmf_classes_cover_enumeration():
    # the enumerated catalog and the Narayana class counts agree
    from math import comb

    for L in range(1, 5):
        byclass = {}
        for t in enumerate_trajectories(L):
            byclass[t.n_peaks] = byclass.get(t.n_peaks, 0) + 1
        assert byclass == {k: comb(L, k) * comb(L, k - 1) // L
                           for k in range(1, L + 1) if comb(L, k) * comb(L, k - 1) // L}


def test_zigzag_law_smoke():
    rep = zigzag_law_experiment(0.3, 0.7, Seed(0), n_periods=30_000)
    assert rep.passed
    assert any(r.name.startswith("uniform-within-class") for r in rep.results)
    assert any(r.name == "time-reversal-symmetry" for r in rep.results)


def test_zigzag_law_validates_params():
    with pytest.raises(ValueError):
        zigzag_law_experiment(0.7, 0.3, Seed(0))
    with pytest.raises(ValueError):
        zigzag_law_experiment(0.3, 0.7, Seed(0), n_periods=0)


def busy_trajectories_loop(p, q, n_periods, seed, chunk=1 << 15):
    """Independent busy-period sampler: one customer at a time, marks and gaps
    read from chunk-buffered streams, a period ending when the next gap
    exceeds the height left.  The streams are sample_input's: gaps from
    substream 0, marks from substream 1; the first gap only places the
    first arrival, so it is skipped."""
    gen_s = seed.substream(1).generator()
    gen_a = seed.substream(0).generator()
    buf_s, buf_a = draw_geometric(gen_s, q, chunk), draw_geometric(gen_a, p, chunk)
    is_, ia = 0, 1
    out = []
    for _ in range(n_periods):
        runs = []
        h = 0
        while True:
            if is_ == chunk:
                buf_s, is_ = draw_geometric(gen_s, q, chunk), 0
            s = int(buf_s[is_])
            is_ += 1
            runs.append(s)
            h += s
            if ia == chunk:
                buf_a, ia = draw_geometric(gen_a, p, chunk), 0
            a = int(buf_a[ia])
            ia += 1
            if a > h:
                runs.append(h)
                break
            runs.append(a)
            h -= a
        out.append(tuple(runs))
    return out


# Utilization p/q stays at most 0.95 so the customer-by-customer oracle keeps
# to a few thousand customers per period.
@settings(deadline=None, max_examples=40)
@given(st.floats(0.01, 0.99).flatmap(
           lambda q: st.tuples(st.floats(0.005, 0.95 * q), st.just(q))),
       st.integers(0, 2**32), st.integers(1, 2000), st.sampled_from([64, 1 << 15]))
def test_busy_trajectories_match_loop(pq, master, n_periods, chunk):
    p, q = pq
    seed = Seed(master)
    got = list(_sample_busy_trajectories(RateParams("geomgeom1", p, q), n_periods, seed))
    assert got == busy_trajectories_loop(p, q, n_periods, seed, chunk)
    assert all(type(x) is int for runs in got for x in runs)


def test_busy_trajectories_span_several_blocks():
    # near saturation 3000 periods need many blocks of 3000 customers
    p, q, seed = 0.55, 0.6, Seed(5)
    got = list(_sample_busy_trajectories(RateParams("geomgeom1", p, q), 3000, seed))
    assert sum(len(runs) for runs in got) // 2 > 3 * 3000
    assert got == busy_trajectories_loop(p, q, 3000, seed)



def test_busy_trajectories_first_trace_can_close_the_periods(monkeypatch):
    # k customers start at most k periods, and n_periods + 1 must start, so a
    # first trace of n_periods customers could never be enough
    lengths = []

    def spy(ms, *args, **kwargs):
        lengths.append(len(ms))
        return transform(ms, *args, **kwargs)

    monkeypatch.setattr(stattest, "transform", spy)
    list(_sample_busy_trajectories(GEOM, 50, Seed(7)))
    assert lengths[0] > 50


@settings(deadline=None, max_examples=40)
@given(st.floats(0.01, 0.99).flatmap(
           lambda q: st.tuples(st.floats(0.005, 0.95 * q), st.just(q))),
       st.integers(0, 2**32), st.integers(1, 2000))
def test_busy_trajectories_are_the_traces_zigzags(pq, master, n_periods):
    # zigzag-law counts exactly what zigzag_from_trace gives for the periods
    # of the same input: a stream's first k draws do not depend on k, and
    # one customer more than the sampled periods hold starts the next period
    p, q = pq
    params, seed = RateParams("geomgeom1", p, q), Seed(master)
    runs = _sample_busy_trajectories(params, n_periods, seed)
    assert iter(runs) is runs  # an iterator, read once, never a list
    got = list(runs)
    tr = transform(sample_input(params, sum(map(len, got)) // 2 + 1, seed))
    periods = busy_periods(tr)
    assert len(periods) == n_periods + 1
    assert got == [zigzag_from_trace(tr, b).run_lengths for b in periods[:n_periods]]


def test_zigzag_law_counts_the_runs_as_they_stream(monkeypatch):
    # the memory peak comes while the trace is built, before the counting, so
    # a list of the run tuples would not show in it: check what is counted
    counted = []
    real = stattest.Counter
    monkeypatch.setattr(stattest, "Counter", lambda *a: counted.append(a) or real(*a))
    zigzag_law_experiment(0.3, 0.7, Seed(0), n_periods=500)
    runs = counted[0][0]
    assert iter(runs) is runs
    assert next(runs, None) is None  # read to the end by the count


# --- noncolliding ----------------------------------------------------------------

def test_minmax_functionals_single_step():
    a = np.array([[5], [2]])
    s = np.array([[3], [9]])
    hi, lo = _minmax_functionals(a, s)
    assert hi.tolist() == [8, 11]  # a_1 + s_2
    assert lo.tolist() == [0, 0]


def minmax_functionals_loop(a, s):
    """Independent max/min pair: one candidate split j at a time over the
    prefix sums of ``a`` and ``s``."""
    n = a.shape[1]
    ca = np.cumsum(a, axis=1)
    cs = np.cumsum(s, axis=1)  # cs[:, j-1] = s_2 + ... + s_{j+1}
    hi = None
    lo = None
    for j in range(1, n + 1):
        tail_s = cs[:, n - 1] - (cs[:, j - 2] if j >= 2 else 0)
        cand_hi = ca[:, j - 1] + tail_s
        hi = cand_hi if hi is None else np.maximum(hi, cand_hi)
        head_s = cs[:, j - 2] if j >= 2 else np.zeros(len(a), dtype=a.dtype)
        cand_lo = head_s + (ca[:, n - 1] - ca[:, j - 1])
        lo = cand_lo if lo is None else np.minimum(lo, cand_lo)
    return hi, lo


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32), st.booleans())
def test_minmax_functionals_match_loop(n, reps, master, floats):
    gen = Seed(master).generator()
    if floats:
        a, s = gen.exponential(1.0, (2, reps, n))
    else:
        a, s = gen.integers(0, 9, (2, reps, n))
    hi, lo = _minmax_functionals(a, s)
    ref_hi, ref_lo = minmax_functionals_loop(a, s)
    assert hi.dtype == ref_hi.dtype and lo.dtype == ref_lo.dtype
    if floats:
        for got, ref in ((hi, ref_hi), (lo, ref_lo)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    else:
        assert np.array_equal(hi, ref_hi) and np.array_equal(lo, ref_lo)


def test_noncolliding_geometric_smoke():
    rep = noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 3, 20_000, Seed(300))
    assert rep.passed
    assert rep.diagnostics["acceptance_rate"] > 0.3


def test_noncolliding_exponential_smoke():
    rep = noncolliding_experiment(RateParams("mm1", 0.3, 0.8), 2, 20_000, Seed(301))
    assert rep.passed


@pytest.mark.parametrize("model", ["geomgeom1", "mm1"])
def test_noncolliding_single_step(model):
    # n = 1: the pair is (a_1, 0), and every walk is one accepted step
    params = RateParams(model, 0.3, 0.7)
    rep = noncolliding_experiment(params, 1, 20_000, Seed(305))
    assert rep.passed
    assert rep.params == {"model": model, "arrival": 0.3, "service": 0.7, "n": 1,
                          "reps": 20_000}
    d = rep.diagnostics
    assert set(d) == {"acceptance_rate", "proposals"}
    assert d["acceptance_rate"] == 20_000 / d["proposals"]
    A, S, before, proposals = _conditioned_walks(params, 1, 20_000, Seed(305))
    assert A.shape == S.shape == before.shape == (20_000,) and proposals == d["proposals"]
    assert not before.any()
    assert np.all(A > S)


@pytest.mark.parametrize("model", ["geomgeom1", "mm1"])
def test_conditioned_walks_never_collide(model):
    # the walks of n steps are the first n steps of the walks of n + 1 steps,
    # so the heights of n = 1..8 are one set of walks, step by step
    params = RateParams(model, 0.3, 0.6)
    prev_A = prev_S = np.zeros(5000)
    prev_proposals = 0
    for n in range(1, 9):
        A, S, before, proposals = _conditioned_walks(params, n, 5000, Seed(306))
        assert A.dtype == S.dtype == (np.int64 if model == "geomgeom1" else np.float64)
        assert np.array_equal(before, prev_S)
        assert np.all(A > S) and np.all(A > prev_A) and np.all(S > prev_S)
        assert proposals >= prev_proposals + 5000
        prev_A, prev_S, prev_proposals = A, S, proposals


def test_conditioned_first_step_law():
    # the first step (a, s) has the law P(a) P(s) h(a - s) / E h(a - s)
    p, q, reps = 0.3, 0.6, 50_000
    params = RateParams("geomgeom1", p, q)
    A, S, _, _ = _conditioned_walks(params, 1, reps, Seed(307))
    k = np.arange(1, 200)
    a, s = np.meshgrid(k, k, indexing="ij")
    joint = (1 - p) ** (a - 1) * p * (1 - q) ** (s - 1) * q * _wait_below(params, a - s)
    joint /= joint.sum()
    counts = Counter(zip(A.tolist(), S.tolist()))
    pmf = {(int(x), int(y)): float(w) for x, y, w in zip(a.ravel(), s.ravel(), joint.ravel())}
    assert set(counts) <= set(pmf)
    assert _pmf_chi2(counts, pmf, reps, name="first-step").p_value >= 0.01


def _rejection_walks(params, n, reps, seed, horizon=100):
    """Test oracle: whole walks of ``horizon`` steps, kept when A_j > S_j at
    every step; (A_n, s_2 + ... + s_n) of the first ``reps`` kept.  The
    horizon truncates the conditioning, which changes this law by less than
    the chance of a first collision after ``horizon`` steps."""
    draw = draw_geometric if params.model == "geomgeom1" else draw_exponential
    gaps, marks = seed.substream(0).generator(), seed.substream(1).generator()
    xs, ys, kept = [], [], 0
    while kept < reps:
        A = np.cumsum(draw(gaps, params.arrival, (reps, horizon)), axis=1)
        S = np.cumsum(draw(marks, params.service, (reps, horizon)), axis=1)
        ok = (A > S).all(axis=1)
        xs.append(A[ok, n - 1])
        ys.append(S[ok, n - 2] if n >= 2 else np.zeros(int(ok.sum()), dtype=S.dtype))
        kept += int(ok.sum())
    return np.concatenate(xs)[:reps], np.concatenate(ys)[:reps]


@pytest.mark.parametrize("model, n", [("geomgeom1", 3), ("geomgeom1", 1), ("mm1", 2)])
def test_conditioned_walks_match_the_rejection_oracle(model, n):
    params, reps = RateParams(model, 0.3, 0.7), 10_000
    A, _, before, _ = _conditioned_walks(params, n, reps, Seed(308))
    oracle_x, oracle_y = _rejection_walks(params, n, reps, Seed(309))
    x = np.concatenate([A, oracle_x])
    y = np.concatenate([before, oracle_y])
    if model == "mm1":
        x, y = _margin_bins(x, 6), _margin_bins(y, 6)
    pairs = np.stack([x, y], axis=1)
    assert chi2_two_sample(_row_counts(pairs[:reps]), _row_counts(pairs[reps:])).p_value >= 0.01


# --- interchange -------------------------------------------------------------------

def test_interchange_identity_permutation():
    rep = interchange_experiment((0.3, 0.6), (0, 1), 4, 20_000, Seed(400))
    assert rep.passed


def test_interchange_swap_smoke():
    rep = interchange_experiment((0.3, 0.6), (1, 0), 4, 20_000, Seed(401))
    assert rep.passed


def test_interchange_validates_permutation():
    with pytest.raises(ValueError):
        interchange_experiment((0.3, 0.6), (0, 0), 4, 100, Seed(0))


# --- shape law --------------------------------------------------------------------

def test_shape_law_smoke():
    rep = shape_law_experiment((0.3, 0.5), 3, 20_000, Seed(500))
    assert rep.passed
    names = [r.name for r in rep.results]
    assert names == ["shape-frequencies", "growth-transitions",
                     "weight-permutation-two-sample"]


def test_shape_law_single_stage_matches_convolution():
    # K=1 reduces to the negative-binomial total of the entries
    rep = shape_law_experiment((0.4,), 4, 20_000, Seed(501))
    assert rep.passed


def test_pmf_chi2_needs_the_pmf_only_down_to_half_its_cell_bound():
    # reps puts one shape's expected count just under MIN_EXPECTED; cutting
    # the pmf at residual MIN_EXPECTED / reps / 2, as shape-law does, gives
    # the same test as the pmf cut at 1e-12
    q, N = (0.3, 0.5), 4
    full = {k: float(v) for k, v in shape_distribution(q, N, residual=1e-12).items()}
    edge = min(full, key=lambda k: abs(full[k] - 1e-3))
    reps = int(np.ceil(stattest.MIN_EXPECTED / full[edge])) - 1
    assert stattest.MIN_EXPECTED - full[edge] <= reps * full[edge] < stattest.MIN_EXPECTED
    cut = {k: float(v) for k, v in
           shape_distribution(q, N, residual=stattest.MIN_EXPECTED / reps / 2).items()}
    assert edge in cut and len(cut) < len(full)
    shapes = list(full)
    p = np.array([full[k] for k in shapes])
    drawn = Seed(502).generator().choice(len(shapes), size=reps, p=p / p.sum())
    counts = Counter(shapes[i] for i in drawn.tolist())
    results = [_pmf_chi2(counts, pmf, reps, name="shape-frequencies")
               for pmf in (full, cut)]
    assert results[0] == results[1]


# --- laguerre ---------------------------------------------------------------------

def test_laguerre_single_stage_is_unit_exponential():
    rep = laguerre_check(1, 100_000, Seed(600))
    assert rep.passed
    assert rep.diagnostics["sample_mean"] == pytest.approx(1.0, abs=0.02)


def test_laguerre_two_stages():
    rep = laguerre_check(2, 100_000, Seed(601))
    assert rep.passed
    assert rep.diagnostics["sample_mean"] == pytest.approx(0.5, abs=0.01)


def test_laguerre_blocks_do_not_change_the_report(monkeypatch):
    whole = laguerre_check(3, 50, Seed(604)).to_dict()
    monkeypatch.setattr(stattest, "_BLOCK", 7 * 9)  # 50 matrices in 8 blocks, the last short
    assert laguerre_check(3, 50, Seed(604)).to_dict() == whole


def test_laguerre_blocks_count_entries(monkeypatch):
    # at K = 8 a block of 200 000 matrices held 100 MB; blocks now hold at
    # most _BLOCK entries whatever K is
    blocks = []
    kernel = stattest.tandem.store_departures_batch

    def spy(u):
        blocks.append(u.shape)
        return kernel(u)

    monkeypatch.setattr(stattest.tandem, "store_departures_batch", spy)
    laguerre_check(8, 5000, Seed(605))
    per_block = stattest._BLOCK // 64
    assert blocks == [(per_block, 8, 8)] * (5000 // per_block) + [(5000 % per_block, 8, 8)]


@pytest.mark.parametrize("K, reps", [(1, 2), (3, 2), (3, 1000),
                                     (2, 3 * stattest._BLOCK // 4 + 1)])  # four blocks
def test_laguerre_moments_and_ks_of_the_drawn_sample(monkeypatch, K, reps):
    # R is sorted in place: the KS test and the mean keep ks_test's and
    # R.mean()'s bits, and the std is summed over the sorted deviations
    columns = []
    kernel = stattest.tandem.store_departures_batch
    monkeypatch.setattr(stattest.tandem, "store_departures_batch",
                        lambda u: columns.append(kernel(u)[:, -1]) or kernel(u))
    report = laguerre_check(K, reps, Seed(606))
    R = np.concatenate(columns)
    assert R.size == reps
    want = ks_test(R, stats.expon(scale=1 / K).cdf)
    assert (report.results[0].statistic, report.results[0].p_value) == (want.statistic,
                                                                        want.p_value)
    assert report.diagnostics["sample_mean"] == float(R.mean())
    sorted_sum = np.add.reduce((np.sort(R) - R.mean()) ** 2)
    assert report.diagnostics["sample_std"] == float(np.sqrt(sorted_sum / (reps - 1)))
    assert report.diagnostics["sample_std"] == pytest.approx(R.std(ddof=1), rel=1e-14)


def test_laguerre_quoted_reference_fails():
    # testing against mean K instead of 1/K must reject decisively
    rep = laguerre_check(3, 50_000, Seed(602), reference_mean=3.0)
    assert not rep.passed


_TEST_KEYS = {"name", "statistic", "p_value", "n_samples", "alpha", "passed"}


def test_report_schema(capsys, monkeypatch):
    # one schema for every report: the experiments' and the random-case checks'
    d = laguerre_check(1, 1_000, Seed(603)).to_dict()
    assert set(d) == {"name", "params", "seed", "tests", "diagnostics", "verdict"}
    assert set(d["tests"][0]) == _TEST_KEYS
    for argv in (["verify-identities", "--cases", "20"], ["particles", "--cases", "20"]):
        assert cli.main(argv) == 0
        d = json.loads(capsys.readouterr().out)
        assert set(d) == {"name", "params", "seed", "tests", "verdict"}  # nothing to diagnose
        assert [set(t) for t in d["tests"]] == [_TEST_KEYS]
    real = particles._gap_counts  # the subcommand's exclusion-inverse core
    monkeypatch.setattr(particles, "_gap_counts", lambda cells: real(cells) + [0])
    assert cli.main(["particles", "--cases", "20"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"name", "params", "seed", "tests", "diagnostics", "verdict"}
    assert [set(t) for t in d["tests"]] == [_TEST_KEYS]
    assert set(d["diagnostics"]) == {"first_failure"}


@pytest.mark.parametrize("alpha", [1e-12, 0.01, 0.5, 1 - 1e-12])
@pytest.mark.parametrize("failures", [0, 1, 7])
def test_exact_test_passes_iff_no_case_fails(alpha, failures):
    rep = ExperimentReport("exact", {}, Seed(0), alpha, [ExactResult("t", failures, 10)])
    assert rep.passed is (failures == 0)
    assert rep.to_dict()["verdict"] == ("pass" if failures == 0 else "fail")


@pytest.mark.parametrize("failures", [0, 3])
def test_exact_test_serializes_as_a_p_value_at_level_zero(failures):
    rep = ExperimentReport("exact", {}, Seed(0), 0.3, [ExactResult("t", failures, 10)])
    (test,) = rep.to_dict()["tests"]
    assert test == {"name": "t", "statistic": failures, "p_value": 0.0 if failures else 1.0,
                    "n_samples": 10, "alpha": 0.0, "passed": failures == 0}
    assert type(test["statistic"]) is int  # written as 3, not 3.0


def test_mixed_report_judges_each_test_by_its_kind():
    for exact, gof, alpha, verdicts in (
            (ExactResult("e", 0, 5), GofResult("g", 1.0, 0.02, 5), 0.01, [True, True]),
            (ExactResult("e", 0, 5), GofResult("g", 1.0, 0.02, 5), 0.05, [True, False]),
            (ExactResult("e", 2, 5), GofResult("g", 1.0, 0.5, 5), 0.05, [False, True])):
        rep = ExperimentReport("mixed", {}, Seed(0), alpha, [exact, gof])
        tests = rep.to_dict()["tests"]
        assert [t["passed"] for t in tests] == verdicts
        assert [t["alpha"] for t in tests] == [0.0, alpha]
        assert rep.passed is all(verdicts)


@pytest.mark.parametrize("diagnostics, present", [
    ({}, False), ({"first_failure": {}}, True), ({"proposals": 0}, True)])
def test_report_omits_only_empty_diagnostics(diagnostics, present):
    d = ExperimentReport("d", {}, Seed(0), 0.01, [], diagnostics).to_dict()
    assert ("diagnostics" in d) is present
    if present:
        assert d["diagnostics"] == diagnostics


def test_report_applies_its_alpha_to_every_test():
    # a test result carries no level; the report's alpha decides each verdict
    assert [f.name for f in fields(GofResult)] == ["name", "statistic", "p_value", "n_samples"]
    results = [GofResult("wide", 1.0, 0.5, 100), GofResult("narrow", 2.0, 0.02, 100)]
    for alpha, verdict in ((0.01, "pass"), (0.05, "fail")):
        rep = ExperimentReport("levels", {}, Seed(0), alpha, results)
        assert rep.passed is (verdict == "pass")
        d = rep.to_dict()
        assert d["verdict"] == verdict
        assert "alpha" not in d
        assert d["tests"][0]["passed"] is True
        assert d["tests"][1]["alpha"] == alpha
        assert d["tests"][1]["passed"] is (verdict == "pass")


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, float("nan"), float("inf")])
def test_report_rejects_alpha_outside_the_open_unit_interval(alpha):
    # NaN made the JSON report invalid; a negative level passed every test
    with pytest.raises(ValueError, match="alpha must lie strictly in"):
        ExperimentReport("levels", {}, Seed(0), alpha, [GofResult("t", 1.0, 1e-9, 10)])


def test_experiment_alpha_reaches_every_test():
    rep = burke_experiment(GEOM, 2000, Seed(104), alpha=0.3)
    tests = rep.to_dict()["tests"]
    assert all(t["alpha"] == 0.3 for t in tests)
    passed = [t["passed"] for t in tests]
    assert passed == [r.p_value >= 0.3 for r in rep.results]
    assert set(passed) == {True, False}  # this seed has tests on both sides of 0.3


# --- blocks -----------------------------------------------------------------------

# each experiment at 2003 replications (periods for zigzag-law), which a
# block of 100 entries cuts into blocks of a few replications, the last short
_BLOCKED_RUNS = {
    "interchange-2": lambda: interchange_experiment((0.3, 0.6), (1, 0), 4, 2003, Seed(0)),
    "interchange-3": lambda: interchange_experiment((0.3, 0.6, 0.45), (2, 0, 1), 3, 2003, Seed(1)),
    "shape-law-2": lambda: shape_law_experiment((0.3, 0.5), 4, 2003, Seed(2)),
    "shape-law-3": lambda: shape_law_experiment((0.3, 0.5, 0.4), 3, 2003, Seed(3)),
    "noncolliding-geom": lambda: noncolliding_experiment(GEOM, 3, 2003, Seed(4)),
    "noncolliding-exp": lambda: noncolliding_experiment(EXPO, 3, 2003, Seed(5)),
    # near saturation: the trace doubles three times, and a period counts 28 entries
    "zigzag-law": lambda: zigzag_law_experiment(0.55, 0.6, Seed(6), n_periods=2003),
    "laguerre": lambda: laguerre_check(3, 2003, Seed(7)),
}


@pytest.mark.parametrize("name", sorted(_BLOCKED_RUNS))
def test_blocks_do_not_change_the_report(name, monkeypatch):
    run = _BLOCKED_RUNS[name]
    whole = run().to_dict()
    cuts = []
    blocks = stattest._blocks

    def spy(reps, entries):
        cuts.append(list(blocks(reps, entries)))
        return iter(cuts[-1])

    monkeypatch.setattr(stattest, "_BLOCK", 100)
    monkeypatch.setattr(stattest, "_blocks", spy)
    assert run().to_dict() == whole
    # every loop ran on several blocks, and its last block was short
    assert cuts
    for (lo, hi), *_, (last_lo, last_hi) in cuts:
        assert last_hi - last_lo < hi - lo


def test_blocks_cut_the_replications():
    assert list(stattest._blocks(10, stattest._BLOCK // 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(stattest._blocks(3, 2 * stattest._BLOCK)) == [(0, 1), (1, 2), (2, 3)]
    assert list(stattest._blocks(0, 1)) == []


@pytest.mark.parametrize("run", [
    lambda: interchange_experiment((0.3, 0.6), (1, 0), 4, 100_000, Seed(0)),
    lambda: shape_law_experiment((0.3, 0.5), 4, 100_000, Seed(0)),
    lambda: noncolliding_experiment(GEOM, 3, 100_000, Seed(0)),
], ids=["interchange", "shape-law", "noncolliding"])
def test_kernels_see_at_most_a_block(run, monkeypatch):
    # at CLI sizes a whole batch holds 600 000 to 1 000 000 entries
    sizes = []
    for module, kernel in [(stattest.tandem, "queue_departures_batch"),
                           (stattest.tandem, "store_departures_batch"),
                           (stattest, "growth_shapes")]:
        real = getattr(module, kernel)
        monkeypatch.setattr(module, kernel, lambda u, real=real: sizes.append(u.size) or real(u))
    run()
    assert len(sizes) > 2 and max(sizes) <= stattest._BLOCK


# --- memory -----------------------------------------------------------------------

def _peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# each run at its CLI defaults, with its bound in MB: about 1.2 times the
# traced peak.  In brackets, the peak before: for ks when ks_test handed
# scipy the whole sample, for laguerre when it gave ks_test R to copy and
# R.std a full-size temporary, for the others when the experiment drew and
# scanned all of its replications at once instead of block by block
_AT_DEFAULTS = {
    "zigzag-law": (lambda: zigzag_law_experiment(0.3, 0.7, Seed(0)), 15),  # 12.4 (25.9)
    "laguerre": (lambda: laguerre_check(3, 10**6, Seed(0)), 13),  # 10.3 (17.9 before)
    "ks": (lambda: ks_test(sample_exponential(2.0, 10**6, Seed(1)),
                           stats.expon(scale=0.5).cdf), 23),  # 19.3 (53.4)
    "noncolliding": (lambda: noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 3,
                                                     100_000, Seed(0)), 11),  # 8.5 (29.8)
    "interchange": (lambda: interchange_experiment((0.3, 0.6), (1, 0), 4, 100_000, Seed(0)),
                    10),  # 7.7 (27.5)
    "shape-law": (lambda: shape_law_experiment((0.3, 0.5), 4, 100_000, Seed(0)),
                  6),  # 4.8 (26.7)
}


# numpy's and scipy's temporaries count toward the peak, so the bounds hold on the pinned versions
@pytest.mark.skipif((np.__version__, scipy.__version__) != RECORDED_WITH,
                    reason="peaks measured with numpy %s, scipy %s" % RECORDED_WITH)
@pytest.mark.parametrize("name", sorted(_AT_DEFAULTS))
def test_memory_peak_at_default_sizes(name):
    run, bound = _AT_DEFAULTS[name]
    run()  # first call: imports and caches stay out of the peak
    assert _peak_mb(run) < bound


# --- input checks --------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: ks_test([], stats.expon().cdf), ValueError, "non-empty"),
    (lambda: chi2_test([1, 2, 3], [3, 3]), ValueError, "1-d of equal length"),
    (lambda: independence_test(np.ones(50, dtype=np.int64), np.arange(50)),
     DegenerateTestError, "at least a 2x2 table"),
    (lambda: geometric_fit_test(np.array([0, 1, 2, 3]), 0.5), ValueError, "live on {1, 2"),
    # two pairs give r = +-1 and p = 1.0; scipy passed them
    (lambda: lag1_test([0.5, 2.0, 1.0], name="gap-lag1"), DegenerateTestError,
     "gap-lag1: need at least 4 values, got 3"),
    # scipy returned NaN with a ConstantInputWarning, a traceback under -W error
    (lambda: lag1_test([1.0, 1.0, 1.0, 2.0]), DegenerateTestError, "lag1: constant terms"),
    (lambda: lag1_test([2.0, 1.0, 1.0, 1.0]), DegenerateTestError, "lag1: constant terms"),
], ids=["ks-empty", "chi2-shapes", "constant-margin", "geometric-zero",
        "lag1-two-pairs", "lag1-constant-before", "lag1-constant-after"])
def test_primitive_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_ks_calls_the_cdf_on_floats():
    seen = []

    def cdf(x):
        seen.append(x.dtype)
        return stats.geom(0.5).cdf(x)

    got = ks_test(np.array([3, 1, 2, 1]), cdf)
    assert seen == [np.float64]
    assert got == ks_test(np.array([3.0, 1.0, 2.0, 1.0]), stats.geom(0.5).cdf)
