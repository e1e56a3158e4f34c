"""Every law of :mod:`dualq._laws` against its counterpart in scipy's
``stats``, which stays the independent oracle here: the same bits, NaN for
NaN, and never a tolerance.  A law whose scipy computes it by other
expressions on some supported version is compared only from the version
its expressions were copied from on.
"""

import numpy as np
import pytest
import scipy
from scipy import stats

from dualq import _laws

# pearsonr's expressions are those of scipy 1.17, where r is scaled by the
# largest deviation, summed by a vector dot product and tested by betaincc
PEARSONR_FROM = (1, 17)
_SCIPY = tuple(int(part) for part in scipy.__version__.split(".")[:2])


def _same_bits(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


# --- the Kolmogorov-Smirnov law ---------------------------------------------------

# n on both sides of the method switches at n = 140 and n = 10^5
_KS_N = (1, 2, 3, 139, 140, 141, 10**3, 10**5, 10**5 + 1, 10**6)
# the n d^2 where the method changes, and where the survival function is 0
_KS_ND2 = (0.754693, 2.2, 4, 18, 370)


def _ks_grid():
    """(n, d) on and on both sides of every switch of the survival path: the
    support's ends, the Ruben-Gambino ends d = 1/n and 1 - 1/n, d = 1/2,
    the n d^2 of :data:`_KS_ND2` and n d^(3/2) = 1.4.  n = 10^6 keeps to
    n d^2 < 2.2, since scipy's smirnov takes about a second a call above."""
    grid = []
    for n in _KS_N:
        switches = [0.0, 1 / (2 * n), 1 / n, 0.5, 1 - 1 / n, 1.0, (1.4 / n) ** (2 / 3)]
        switches += [np.sqrt(c / n) for c in _KS_ND2]
        for d in sorted({min(s * f, 1.0) for s in switches for f in (1 - 1e-9, 1.0, 1 + 1e-9)}):
            if n < 10**6 or n * d * d < 2.2:
                grid.append((n, d))
    return grid


def test_kstwo_sf_matches_scipy_on_the_grid():
    grid = _ks_grid()
    assert len(grid) == 251  # 12 to 30 points for each n
    differ = [(n, d) for n, d in grid if not _same_bits(_laws.kstwo_sf(d, n), stats.kstwo.sf(d, n))]
    assert differ == []


@pytest.mark.parametrize("n, nd2", [(140, 0.5), (140, 2.0)], ids=["durbin", "pomeranz"])
def test_kstwo_sf_rounds_a_long_double_to_float64(n, nd2):
    # at n = 140 both paths rescale by 2^128 as long doubles, and scipy's
    # nditer rounds what they return to float64
    d = np.sqrt(nd2 / n)
    assert type(_laws._kolmogn_sf(n, np.asarray(d))) is np.longdouble
    assert type(_laws.kstwo_sf(d, n)) is np.float64
    assert _same_bits(_laws.kstwo_sf(d, n), stats.kstwo.sf(d, n))


def test_kstwo_sf_of_nan_is_nan():
    for n in (1, 10, 1000):
        assert np.isnan(_laws.kstwo_sf(np.nan, n)) and np.isnan(stats.kstwo.sf(np.nan, n))


# --- single calls -----------------------------------------------------------------

def test_expon_cdf_matches_scipy():
    x = np.array([-np.inf, -800.0, -1.0, -0.0, 0.0, 1e-300, 0.3, 1.0, 5.0, 800.0, np.inf, np.nan])
    for scale in (1.0, 0.5, 1 / 0.3, 2.5):
        assert _same_bits(_laws.expon_cdf(x, scale), stats.expon(scale=scale).cdf(x))


def test_chi2_sf_matches_scipy():
    x = np.array([0.0, 1e-8, 0.5, 1.0, 3.7, 20.0, 150.0, 1e4, np.inf, np.nan])
    for df in (1, 2, 3, 7, 40, 1000):
        assert _same_bits(_laws.chi2_sf(x, df), stats.chi2.sf(x, df))


def test_normal_two_sided_matches_scipy():
    z = np.array([-np.inf, -40.0, -3.1, -1.0, -0.0, 0.0, 1e-9, 0.7, 2.5, 8.0, 40.0, np.inf, np.nan])
    assert _same_bits(_laws.normal_two_sided(z), 2 * stats.norm.sf(np.abs(z)))


# --- tests over random tables and samples ----------------------------------------

_RANDOM_CASES = 300


def test_chisquare_matches_scipy():
    gen = np.random.default_rng(20)
    differ = []
    for case in range(_RANDOM_CASES):
        k = int(gen.integers(2, 30))
        observed = gen.integers(0, 200, k).astype(float)
        observed[0] += 1
        expected = gen.random(k) + 0.05
        expected *= observed.sum() / expected.sum()
        want = stats.chisquare(observed, expected)
        got = _laws.chisquare(observed, expected)
        if not _same_bits(got, [want.statistic, want.pvalue]):
            differ.append(case)
    assert differ == []


def _random_table(gen):
    rows, cols = int(gen.integers(2, 6)), int(gen.integers(2, 12))
    table = gen.integers(0, gen.choice([5, 50, 5000]), (rows, cols)).astype(float)
    table[:, 0] += 1  # every row and column a positive margin
    table[0] += 1
    return table


def test_chi2_contingency_matches_scipy():
    gen = np.random.default_rng(21)
    differ = []
    for case in range(_RANDOM_CASES):
        table = _random_table(gen)
        want = stats.chi2_contingency(table, correction=False)
        if not _same_bits(_laws.chi2_contingency(table), [want.statistic, want.pvalue]):
            differ.append(case)
    assert differ == []


@pytest.mark.parametrize("table", [[[1.0, -1.0], [2.0, 3.0]], [[0.0, 1.0], [0.0, 3.0]]],
                         ids=["negative-cell", "zero-expected"])
def test_chi2_contingency_raises_as_scipy_does(table):
    with pytest.raises(ValueError):
        stats.chi2_contingency(np.array(table), correction=False)
    with pytest.raises(ValueError):
        _laws.chi2_contingency(np.array(table))


@pytest.mark.skipif(_SCIPY < PEARSONR_FROM,
                    reason="pearsonr compared from scipy %d.%d on" % PEARSONR_FROM)
def test_pearsonr_matches_scipy():
    gen = np.random.default_rng(22)
    differ = []
    for case in range(_RANDOM_CASES):
        n = int(gen.integers(3, 2000))
        kind = case % 3
        if kind == 0:  # burke's exponential gaps and marks
            x = gen.exponential(size=n + 1)
        elif kind == 1:  # its geometric ones, as floats
            x = gen.geometric(0.3, size=n + 1).astype(float)
        else:  # a correlated sequence
            x = np.cumsum(gen.normal(size=n + 1)) * 1e3
        if (x[:-1] == x[0]).all() or (x[1:] == x[1]).all():
            continue
        want = stats.pearsonr(x[:-1], x[1:])
        if not _same_bits(_laws.pearsonr(x[:-1], x[1:]), [want.statistic, want.pvalue]):
            differ.append(case)
    assert differ == []
