from collections import Counter

import numpy as np
import pytest
from scipy import stats

from dualq.sampling import RateParams, Seed, sample_exponential
from dualq.stattest import (
    DegenerateTestError,
    GofResult,
    InfeasibleError,
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
    _minmax_functionals,
    _shape_keys,
)
from dualq.queue_store import enumerate_trajectories

GEOM = RateParams("geomgeom1", 0.3, 0.6)
EXPO = RateParams("mm1", 0.3, 0.7)


# --- primitives ----------------------------------------------------------------

def test_ks_self_consistency_over_seeds():
    # ~1% of well-specified runs reject at alpha=0.01
    rejections = 0
    cdf = stats.expon(scale=1.0).cdf
    for i in range(100):
        x = sample_exponential(1.0, 10_000, Seed(1000, i))
        if not ks_test(x, cdf).passed:
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


def test_chi2_exact_match_is_zero():
    r = chi2_test([10, 20, 30], [10.0, 20.0, 30.0])
    assert r.statistic == 0.0 and r.p_value == 1.0


def test_chi2_disjoint_supports_rejects():
    r = chi2_test([0.0, 100.0], [99.99, 0.01], min_expected=0.0)
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
    assert geometric_fit_test(x, 0.5).passed
    assert not geometric_fit_test(x, 0.47).passed


def test_two_sample_same_law_passes():
    gen1 = Seed(4, 0).generator()
    gen2 = Seed(4, 1).generator()
    x = gen1.poisson(3.0, 20_000).tolist()
    y = gen2.poisson(3.0, 20_000).tolist()
    assert chi2_two_sample(x, y).passed


def test_two_sample_shifted_law_fails():
    gen1 = Seed(5, 0).generator()
    gen2 = Seed(5, 1).generator()
    x = gen1.poisson(3.0, 20_000).tolist()
    y = gen2.poisson(3.2, 20_000).tolist()
    assert not chi2_two_sample(x, y).passed


def chi2_two_sample_reference(x, y, name, alpha=0.01, min_expected=5.0):
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
    return GofResult(name, float(res.statistic), float(res.pvalue), len(x) + len(y), alpha)


def test_two_sample_many_categories_matches_reference():
    # > 5000 categories, most of them rare, so both kept cells and the
    # rest cell are large
    gen = Seed(8).generator()
    x = (gen.geometric(0.3, 6000).tolist() + gen.integers(100, 20_000, 6000).tolist())
    y = (gen.geometric(0.3, 5000).tolist() + gen.integers(100, 20_000, 5000).tolist())
    assert len(set(x) | set(y)) > 5000
    assert chi2_two_sample(x, y, name="many") == chi2_two_sample_reference(x, y, "many")


@pytest.mark.parametrize("shapes", [
    np.zeros((4, 3), dtype=np.int64),
    np.array([[0], [3], [0], [3], [1]]),
    np.array([[2, 1, 0]]),
    np.array([[3, 1, 0], [0, 0, 0], [3, 1, 0], [2, 2, 1], [0, 0, 0]])[:, :2],
])
def test_shape_keys_match_rowwise_tuples(shapes):
    keys = _shape_keys(shapes)
    assert keys == [tuple(x for x in row if x) for row in shapes.tolist()]
    assert all(type(x) is int for key in keys for x in key)


def test_independence_detects_coupling():
    gen = Seed(6).generator()
    x = gen.integers(1, 20, 20_000)
    y_indep = gen.integers(1, 20, 20_000)
    assert independence_test(x, y_indep).passed
    assert not independence_test(x, x + gen.integers(0, 2, 20_000)).passed


def test_lag1_detects_autocorrelation():
    gen = Seed(7).generator()
    x = gen.normal(size=20_000)
    assert lag1_test(x).passed
    walk = np.cumsum(x)
    assert not lag1_test(walk).passed


# --- burke ----------------------------------------------------------------------

def test_burke_geometric_smoke():
    rep = burke_experiment(GEOM, 20_000, 2_000, Seed(100))
    assert rep.passed
    names = [r.name for r in rep.results]
    assert "gaps-fit-arrival-law" in names
    assert "marks-fit-mark-law" in names
    assert "gap-mark-independence" in names


def test_burke_exponential_smoke():
    assert burke_experiment(EXPO, 20_000, 2_000, Seed(101)).passed


def test_burke_reports_are_reproducible():
    a = burke_experiment(GEOM, 5_000, 500, Seed(102))
    b = burke_experiment(GEOM, 5_000, 500, Seed(102))
    assert a.to_json() == b.to_json()


def test_burke_flags_short_burn_in_near_criticality():
    rep = burke_experiment(RateParams("mm1", 0.69, 0.7), 2_000, 100, Seed(103))
    assert rep.diagnostics["burn_in_ok"] is False
    assert "note" in rep.diagnostics


def test_burke_rejects_bad_sizes():
    with pytest.raises(ValueError):
        burke_experiment(GEOM, 0, 10, Seed(0))


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


# --- noncolliding ----------------------------------------------------------------

def test_minmax_functionals_single_step():
    a = np.array([[5], [2]])
    s = np.array([[3], [9]])
    hi, lo = _minmax_functionals(a, s)
    assert hi.tolist() == [8, 11]  # a_1 + s_2
    assert lo.tolist() == [0, 0]


def test_noncolliding_geometric_smoke():
    rep = noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 3, 40,
                                  20_000, Seed(300))
    assert rep.passed
    assert rep.diagnostics["acceptance_rate"] > 0.3


def test_noncolliding_exponential_smoke():
    rep = noncolliding_experiment(RateParams("mm1", 0.3, 0.8), 2, 40,
                                  20_000, Seed(301))
    assert rep.passed


def test_noncolliding_truncation_stability():
    a = noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 3, 25,
                                15_000, Seed(302))
    b = noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 3, 50,
                                15_000, Seed(303))
    assert a.passed and b.passed


def test_noncolliding_infeasibility_guard():
    with pytest.raises(InfeasibleError):
        noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 2, 30,
                                10**7, Seed(304), min_acceptance=0.9999)


def test_noncolliding_guard_spares_runs_that_finish_early():
    # the rate stays far below min_acceptance, but reps is reached within a few
    # batches, long before the 50-batch check, so the run returns
    rep = noncolliding_experiment(RateParams("geomgeom1", 0.3, 0.7), 2, 30,
                                  4096, Seed(304), min_acceptance=0.9999)
    assert rep.diagnostics["acceptance_rate"] < 0.9
    assert rep.diagnostics["attempts"] < 50 * 4096


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


# --- laguerre ---------------------------------------------------------------------

def test_laguerre_single_stage_is_unit_exponential():
    rep = laguerre_check(1, 100_000, Seed(600))
    assert rep.passed
    assert rep.diagnostics["sample_mean"] == pytest.approx(1.0, abs=0.02)


def test_laguerre_two_stages():
    rep = laguerre_check(2, 100_000, Seed(601))
    assert rep.passed
    assert rep.diagnostics["sample_mean"] == pytest.approx(0.5, abs=0.01)


def test_laguerre_quoted_reference_fails():
    # testing against mean K instead of 1/K must reject decisively
    rep = laguerre_check(3, 50_000, Seed(602), reference_mean=3.0)
    assert not rep.passed


def test_report_schema():
    rep = laguerre_check(1, 1_000, Seed(603))
    d = rep.to_dict()
    assert set(d) == {"name", "params", "seed", "tests", "diagnostics", "verdict"}
    assert set(d["tests"][0]) == {"name", "statistic", "p_value", "n_samples",
                                  "alpha", "passed"}
