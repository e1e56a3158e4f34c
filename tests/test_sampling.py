import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dualq.sampling import (
    MarkedSequence,
    RateParams,
    Seed,
    _stationary_wait,
    _wait_below,
    draw_exponential,
    draw_geometric,
    model_draw,
    reverse,
    sample_exponential,
    sample_geometric,
    sample_geometric0,
    sample_input,
)
from dualq.queue_store import transform
from dualq.stattest import chi2_test, geometric_fit_test, ks_test
from scipy import stats


def test_seed_determinism():
    a = sample_geometric(0.4, 1000, Seed(7, 3))
    b = sample_geometric(0.4, 1000, Seed(7, 3))
    assert np.array_equal(a, b)
    c = sample_geometric(0.4, 1000, Seed(7, 4))
    assert not np.array_equal(a, c)


def test_substreams_are_distinct():
    s = Seed(1)
    children = {s.substream(i) for i in range(100)}
    assert len(children) == 100
    assert s not in children


def test_substream_keys_in_use_are_unchanged():
    assert Seed(4).substream(3) == Seed(4, 4)
    assert Seed(4).substream(3).substream(0) == Seed(4, (4 << 32) + 1)


def test_substream_refuses_colliding_paths():
    # depth three shifted the outermost index out of the 64-bit stream
    # (paths (1, 2, 3) and (7, 2, 3) shared a key), and an index of 2**32
    # reached the key of path (0, 0)
    with pytest.raises(ValueError):
        Seed(0).substream(1).substream(2).substream(3)
    with pytest.raises(ValueError):
        Seed(0).substream(2**32)
    with pytest.raises(ValueError):
        Seed(0).substream(2**32 - 1)
    with pytest.raises(ValueError):
        Seed(0).substream(-1)
    assert Seed(0).substream(2**32 - 2).substream(2**32 - 2).stream == 2**64 - 1


@pytest.mark.parametrize("master, stream", [(2**64, 0), (-1, 0), (0, -1), (0, 2**64)])
def test_seed_refuses_words_outside_64_bits(master, stream):
    # masked to 64 bits, Seed(2**64) drew Seed(0)'s stream, Seed(-1) drew
    # Seed(2**64 - 1)'s, and Seed(0, -1) had the key of a depth-two path
    with pytest.raises(ValueError, match=r"must lie in 0\.\.2\*\*64 - 1"):
        Seed(master, stream)
    assert Seed(2**64 - 1, 2**64 - 1)._key().tolist() == [2**64 - 1] * 2


def _key(master, path):
    s = Seed(master)
    for i in path:
        s = s.substream(i)
    return s


# the accepted domain only: depth at most two, indices 0..2**32 - 2; the
# refusals outside it are test_substream_refuses_colliding_paths
paths = st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 2)), max_size=2)


@given(st.integers(0, 2**64 - 1), paths, paths)
def test_distinct_accepted_paths_give_distinct_keys(master, p1, p2):
    assume(p1 != p2)
    assert _key(master, p1) != _key(master, p2)


def test_geometric_degenerate_p_one():
    assert sample_geometric(1.0, 4, Seed(0)).tolist() == [1, 1, 1, 1]


def test_geometric_mean():
    # mean 1/p oracle; +-0.01 is ~7 standard errors at this size
    x = sample_geometric(0.5, 10**6, Seed(11))
    assert 1.99 <= x.mean() <= 2.01


def test_geometric_head_probabilities():
    # pmf (1-p)^{k-1} p: P{X=1}=0.3, P{X=2}=0.21
    x = sample_geometric(0.3, 10**6, Seed(12))
    p1 = np.mean(x == 1)
    p2 = np.mean(x == 2)
    assert abs(p1 - 0.3) < 0.005
    assert abs(p2 - 0.21) < 0.005


def test_geometric_gof():
    x = sample_geometric(0.3, 10**6, Seed(13))
    assert geometric_fit_test(x, 0.3).p_value >= 0.01


def test_geometric_param_errors():
    with pytest.raises(ValueError):
        sample_geometric(0.0, 1, Seed(0))
    with pytest.raises(ValueError):
        sample_geometric(1.5, 1, Seed(0))
    with pytest.raises(ValueError):
        sample_geometric(0.5, -1, Seed(0))
    # draws past int64 gave -2**63 with a RuntimeWarning (a floating-point
    # error under errstate "raise"); a subnormal p overflows the quotient
    for p in (1e-30, 1e-320):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=f"p = {p!r} is too small"):
            sample_geometric(p, 5, Seed(0))
    # each draw fits, but the epochs wrapped and fooled MarkedSequence's check
    with pytest.raises(ValueError, match="epochs of 1000 customers do not fit int64"):
        sample_input(RateParams("geomgeom1", 1e-16, 0.5), 1000, Seed(0))


def test_geometric0_law():
    q = 0.4
    x = sample_geometric0(q, 10**6, Seed(21))
    assert x.min() == 0
    assert abs(x.mean() - q / (1 - q)) < 0.005
    # exact pmf check by chi-square: P{X=k} = (1-q) q^k
    vmax = int(x.max())
    observed = np.bincount(x, minlength=vmax + 1)
    k = np.arange(vmax + 1)
    expected = x.size * (1 - q) * q**k
    expected[-1] = x.size * q**vmax
    from dualq.stattest import chi2_test

    assert chi2_test(observed, expected).p_value >= 0.01


def test_geometric0_zero_parameter():
    assert sample_geometric0(0.0, 5, Seed(0)).tolist() == [0] * 5


def test_exponential_mean():
    x = sample_exponential(2.0, 10**6, Seed(31))
    assert 0.499 <= x.mean() <= 0.501


def test_exponential_empty():
    assert sample_exponential(1.0, 0, Seed(0)).size == 0


def test_exponential_tail():
    x = sample_exponential(1.0, 10**6, Seed(32))
    assert abs(np.mean(x > 1.0) - np.exp(-1)) < 0.002


def test_exponential_gof():
    x = sample_exponential(1.7, 10**6, Seed(33))
    assert ks_test(x, stats.expon(scale=1 / 1.7).cdf).p_value >= 0.01


def test_exponential_param_error():
    with pytest.raises(ValueError):
        sample_exponential(0.0, 1, Seed(0))


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams("mm1", 0.7, 0.3)
    with pytest.raises(ValueError):
        RateParams("geomgeom1", 0.6, 0.3)
    with pytest.raises(ValueError):
        RateParams("geomgeom1", 0.3, 1.2)
    with pytest.raises(ValueError):
        RateParams("mmmm", 0.3, 0.6)
    assert RateParams("geomgeom1", 0.3, 0.6).utilization == 0.5


def test_sample_input_geometric_gap_law():
    # gaps of a Bernoulli(p) point process are geometric(p)
    ms = sample_input(RateParams("geomgeom1", 0.4, 0.8), 10**6, Seed(41))
    gaps = np.diff(ms.epochs)
    assert geometric_fit_test(gaps, 0.4).p_value >= 0.01


def test_sample_input_single_customer():
    ms = sample_input(RateParams("geomgeom1", 0.3, 0.6), 1, Seed(0))
    assert len(ms) == 1
    assert ms.window_end == ms.epochs[-1]


def test_sample_input_poisson_rate():
    # arrival count over time ~ rate: A_N / N -> 1/lambda within 1%
    lam = 0.5
    ms = sample_input(RateParams("mm1", lam, 1.0), 500_000, Seed(42))
    rate = len(ms) / ms.epochs[-1]
    assert abs(rate - lam) < 0.01 * lam


def test_sample_input_dtypes():
    geo = sample_input(RateParams("geomgeom1", 0.3, 0.6), 10, Seed(1))
    assert geo.epochs.dtype == np.int64 and geo.marks.dtype == np.int64
    exp = sample_input(RateParams("mm1", 0.3, 0.7), 10, Seed(1))
    assert exp.epochs.dtype == np.float64


# the second pair of each model is near saturation (rho 0.91 and 0.99)
STATIONARY = [RateParams("geomgeom1", 0.3, 0.6), RateParams("geomgeom1", 0.5, 0.55),
              RateParams("mm1", 0.3, 0.7), RateParams("mm1", 0.69, 0.7)]


def _case_id(params):
    return f"{params.model}-{params.arrival}-{params.service}"


def _assert_stationary_wait_law(w, params):
    """Geom/Geom/1: chi-square of the pmf, tail folded into the last cell.
    M/M/1: a binomial test of the atom at zero and KS of the positive part."""
    w = np.asarray(w)
    if params.model == "geomgeom1":
        eta = (1 - params.service) / (1 - params.arrival)
        busy = params.utilization * eta
        k = np.arange(int(w.max()) + 1)
        expected = w.size * np.where(k == 0, 1 - busy, busy * (1 - eta) * eta ** (k - 1.0))
        expected[-1] = w.size * busy * eta ** (k[-1] - 1.0)
        assert chi2_test(np.bincount(w), expected).p_value >= 0.01
    else:
        idle = int((w == 0).sum())
        assert stats.binomtest(idle, w.size, 1 - params.utilization).pvalue >= 0.01
        rate = params.service - params.arrival
        assert ks_test(w[w > 0], stats.expon(scale=1 / rate).cdf).p_value >= 0.01


@pytest.mark.parametrize("params", STATIONARY, ids=_case_id)
def test_stationary_wait_draws_follow_the_law(params):
    w = [_stationary_wait(params, Seed(5).substream(i).generator()) for i in range(20_000)]
    assert {type(x) for x in w} == {int if params.model == "geomgeom1" else float}
    _assert_stationary_wait_law(w, params)


@pytest.mark.parametrize("params", STATIONARY, ids=_case_id)
def test_stationary_start_stays_stationary(params):
    # customer 50 of a queue started from the stationary draw, one seed per
    # trace, the way burke_experiment starts it
    w50 = []
    for master in range(3000):
        seed = Seed(master)
        w1 = _stationary_wait(params, seed.substream(2).generator())
        w50.append(transform(sample_input(params, 50, seed), w1=w1).w[-1])
    _assert_stationary_wait_law(w50, params)


HARMONIC = [(0.3, 0.7), (0.3, 0.6), (0.5, 0.55)]


@pytest.mark.parametrize("p, q", HARMONIC)
def test_wait_below_is_harmonic_geometric(p, q):
    # h(x) = P(W < x) is the chance a walk at height x never collides:
    # E h(x + a - s) = h(x) for x >= 1, by exact summation over a, s < 300
    # (the mass left out is below 0.7**299, about 1e-46)
    params = RateParams("geomgeom1", p, q)
    k = np.arange(1, 300)
    pa, ps = (1 - p) ** (k - 1) * p, (1 - q) ** (k - 1) * q
    weights = pa[:, None] * ps[None, :]
    for x in range(1, 30):
        mean = (weights * _wait_below(params, x + k[:, None] - k[None, :])).sum()
        assert abs(mean - _wait_below(params, np.int64(x))) <= 1e-12
    assert _wait_below(params, np.arange(-3, 1)).tolist() == [0.0] * 4


@pytest.mark.parametrize("lam, mu", HARMONIC)
def test_wait_below_is_harmonic_exponential(lam, mu):
    # a - s has density c e^{-lam t} above 0 and c e^{mu t} below, c = lam mu / (lam + mu)
    from scipy import integrate

    params = RateParams("mm1", lam, mu)
    c = lam * mu / (lam + mu)

    def h(y):
        return float(_wait_below(params, np.float64(y)))

    for x in range(1, 30):
        below = integrate.quad(lambda t: c * np.exp(mu * t) * h(x + t), -x, 0,
                               epsabs=1e-14, epsrel=1e-13)[0]
        above = integrate.quad(lambda t: c * np.exp(-lam * t) * h(x + t), 0, np.inf,
                               epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(below + above - h(x)) <= 1e-12
    assert _wait_below(params, np.array([-1.0, -0.0, 0.0])).tolist() == [0.0] * 3


@pytest.mark.parametrize("params", STATIONARY, ids=_case_id)
def test_wait_below_is_the_law_of_the_stationary_wait(params):
    # the h of noncolliding and the first wait of burke share one law
    w = np.array([_stationary_wait(params, Seed(6).substream(i).generator())
                  for i in range(20_000)])
    for x in (1, 2, 3, 5):  # integers: the geometric formula holds there
        below = int((w < x).sum())
        assert stats.binomtest(below, w.size, float(_wait_below(params, np.float64(x)))
                               ).pvalue >= 0.01


class _Uniforms:
    """A generator that draws the given uniforms, so a test can read them."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape).copy()


@pytest.mark.parametrize("rate", [0.3, 0.7, 1.0, 1.7, 3.0, 1e-3, 1e3])
def test_to_exponential_keeps_the_bits_of_negating_first(rate):
    # draw_exponential's log1p(-u) / -rate against the two-step -(log1p(-u)) / rate
    u = np.concatenate([[0.0, 5e-324, 1 - 2**-53], Seed(9).generator().random(10**5)])
    two_step = np.log1p(-u)
    two_step = np.negative(two_step) / rate
    got = draw_exponential(_Uniforms(u), rate, u.shape)
    assert got.tobytes() == two_step.tobytes()


def test_marked_sequence_validation():
    with pytest.raises(ValueError):
        MarkedSequence(np.array([1, 1]), np.array([1, 1]), 5)
    with pytest.raises(ValueError):
        MarkedSequence(np.array([1, 2]), np.array([1, 0]), 5)
    with pytest.raises(ValueError):
        MarkedSequence(np.array([1, 9]), np.array([1, 1]), 5)


def test_reverse_singleton():
    ms = MarkedSequence(np.array([3]), np.array([5]), 10)
    rev = reverse(ms)
    assert rev.epochs.tolist() == [7]
    assert rev.marks.tolist() == [5]


def test_reverse_hand_example():
    ms = MarkedSequence(np.array([1, 4, 9]), np.array([10, 20, 30]), 10)
    rev = reverse(ms)
    assert rev.epochs.tolist() == [1, 6, 9]
    assert rev.marks.tolist() == [30, 20, 10]


@given(st.integers(0, 2**32), st.integers(1, 40))
def test_reverse_involution(master, n):
    ms = sample_input(RateParams("geomgeom1", 0.3, 0.6), n, Seed(master))
    rev2 = reverse(reverse(ms))
    assert np.array_equal(rev2.epochs, ms.epochs)
    assert np.array_equal(rev2.marks, ms.marks)
    assert rev2.window_end == ms.window_end


# --- input checks --------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: MarkedSequence(np.array([1, 2]), np.array([1]), 2), "1-d and of equal length"),
    (lambda: sample_geometric0(1.0, 3, Seed(0)), r"q must lie in \[0, 1\)"),
    (lambda: sample_geometric0(-0.1, 3, Seed(0)), r"q must lie in \[0, 1\)"),
    (lambda: sample_geometric0(0.5, -1, Seed(0)), "n must be >= 0"),
    (lambda: sample_exponential(1.0, -1, Seed(0)), "n must be >= 0"),
    (lambda: sample_input(RateParams("mm1", 1, 2), 0, Seed(0)), "horizon must be >= 1"),
], ids=["unequal-shapes", "q-one", "q-negative", "geometric0-n", "exponential-n",
        "horizon-zero"])
def test_sampling_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("model, draw", [("geomgeom1", draw_geometric),
                                         ("mm1", draw_exponential)])
def test_model_draw_picks_the_models_sampler(model, draw):
    assert model_draw(RateParams(model, 0.3, 0.6)) is draw
