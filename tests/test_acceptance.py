"""Acceptance suite: one test per criterion, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
Sizes, tolerances and significance levels are pinned here; every
statistical criterion runs on fixed seeds.
"""

import time
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from dualq.particles import (
    bus_stop_run,
    bus_stop_step,
    exclusion_step,
    from_exclusion,
    to_exclusion,
    zero_range_run,
)
from dualq.queue_store import (
    QueueTrace,
    backward_check,
    busy_periods,
    enumerate_trajectories,
    transform,
    zigzag_from_trace,
)
from dualq.rsk import verify_row_queue
from dualq.sampling import RateParams, Seed, sample_input
from dualq.schur import (
    schur_eval,
    shape_distribution,
    transition_distribution,
)
from dualq.stattest import (
    burke_experiment,
    chi2_test,
    interchange_experiment,
    laguerre_check,
    shape_law_experiment,
    zigzag_law_experiment,
)
from dualq.tandem import ServiceMatrix, queue_departures, store_flow

ALPHA = 0.01
F = Fraction


def _line(num, label, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {num:>2} {label}: {'PASS' if ok else 'FAIL'}{tail}")


# --------------------------------------------------------------------------
# 1. exact six-way identity on 10^4 random matrices

def test_criterion_01_six_way_identity():
    t0 = time.time()
    seed = Seed(7)
    failures = 0
    for i in range(10_000):
        gen = seed.substream(i).generator()
        n = int(gen.integers(1, 7))
        k = int(gen.integers(1, 7))
        U = ServiceMatrix(gen.integers(0, 6, size=(n, k)))
        if not verify_row_queue(U).ok:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 120
    _line(1, "six-way identity, 10^4 matrices N,K<=6", ok,
          f"failures={failures}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120


# --------------------------------------------------------------------------
# 2. pathwise identities on 10^3 random traces, N <= 50

def _departures_brute(A, s):
    S = np.concatenate([[0], np.cumsum(s)])
    return np.array([max(A[k] + S[n + 1] - S[k] for k in range(n + 1))
                     for n in range(len(A))])


def _waits_brute(a, s):
    n_cust = len(a) + 1
    T = np.concatenate([[0], np.cumsum(np.asarray(s[:n_cust - 1]) - np.asarray(a))])
    w = [0]
    for n in range(1, n_cust):
        w.append(max(0, max(T[n] - T[k] for k in range(n))))
    return np.array(w)


def _check_identities(trace, exact):
    rel = 0 if exact else 1e-12
    scale = max(1.0, float(np.abs(trace.D).max()))

    def close(x, y):
        return np.allclose(x, y, rtol=rel, atol=rel * scale)

    assert close(trace.r + trace.d, trace.a + trace.s[1:])        # conservation
    assert backward_check(trace).ok                                # backward Lindley
    assert close(trace.D, _departures_brute(trace.A, trace.s))     # sup form of D
    assert close(trace.w, _waits_brute(trace.a, trace.s))          # sup form of w


def _check_representation(a, marks, exact):
    """Prefix formulas on a trace with no initial work and a zero first mark."""
    rel = 0 if exact else 1e-12
    A = np.concatenate([[0], np.cumsum(a)])
    s = np.concatenate([[0], marks])           # s_1 = 0
    trace = QueueTrace(A, s, w1=0)
    scale = max(1.0, float(np.abs(trace.D).max()))
    ca = np.concatenate([[0], np.cumsum(a)])   # ca[j] = a_1 + ... + a_j
    cs = np.concatenate([[0, 0], np.cumsum(marks)])  # cs[j] = s_2 + ... + s_j
    N = len(A)
    sum_d = np.cumsum(trace.d)
    sum_r = np.cumsum(trace.r)
    for n in range(1, N):
        hi = max(ca[j] + cs[n + 1] - cs[j] for j in range(1, n + 1))
        lo = min(cs[j] + ca[n] - ca[j] for j in range(1, n + 1))
        assert np.allclose(sum_d[n - 1], hi, rtol=rel, atol=rel * scale)
        assert np.allclose(sum_r[n - 1], lo, rtol=rel, atol=rel * scale)


def test_criterion_02_pathwise_identities():
    t0 = time.time()
    geom = RateParams("geomgeom1", 0.3, 0.6)
    expo = RateParams("mm1", 0.4, 0.9)
    seed = Seed(2)
    count = 0
    for i in range(250):
        gen = seed.substream(i).generator()
        n = int(gen.integers(2, 51))
        _check_identities(transform(sample_input(geom, n, seed.substream(1000 + i))), True)
        _check_identities(transform(sample_input(expo, n, seed.substream(2000 + i))), False)
        count += 2
    for i in range(250):
        gen = seed.substream(3000 + i).generator()
        n = int(gen.integers(2, 51))
        a_int = (np.floor(np.log1p(-gen.random(n - 1)) / np.log1p(-0.3)) + 1).astype(np.int64)
        s_int = (np.floor(np.log1p(-gen.random(n - 1)) / np.log1p(-0.6)) + 1).astype(np.int64)
        _check_representation(a_int, s_int, True)
        a_f = -np.log1p(-gen.random(n - 1)) / 0.4
        s_f = -np.log1p(-gen.random(n - 1)) / 0.9
        _check_representation(a_f, s_f, False)
        count += 2
    _line(2, "pathwise identities, 10^3 traces N<=50", True,
          f"{count} traces, {time.time()-t0:.1f}s")


# --------------------------------------------------------------------------
# 3./4. joint output law on >= 9 of 10 fixed seeds

_BURKE_NAMED = ("gaps-fit-arrival-law", "marks-fit-mark-law", "gap-mark-independence")


def _burke_criterion(num, params, label, budget):
    t0 = time.time()
    passes = 0
    for master in range(10):
        rep = burke_experiment(params, 100_000, Seed(master), alpha=ALPHA)
        by_name = {r.name: r.p_value >= ALPHA for r in rep.results}
        passes += all(by_name[n] for n in _BURKE_NAMED)
    elapsed = time.time() - t0
    ok = passes >= 9 and elapsed < budget
    _line(num, label, ok, f"{passes}/10 seeds, {elapsed:.1f}s")
    assert passes >= 9
    assert elapsed < budget


def test_criterion_03_burke_geometric():
    _burke_criterion(3, RateParams("geomgeom1", 0.3, 0.6),
                     "joint output law, geometric", budget=300)


def test_criterion_04_burke_exponential():
    _burke_criterion(4, RateParams("mm1", 0.3, 0.7),
                     "joint output law, exponential", budget=300)


# --------------------------------------------------------------------------
# 5. zigzag trajectory frequencies, 10^5 busy periods, p=0.3, q=0.7

def _stated_class_weight(L, k, p, q):
    return (1 - p) ** (L - k) * p**k * (1 - q) ** (L - k) * q ** (k - 1)


def test_criterion_05_zigzag_law():
    p, q = 0.3, 0.7
    wanted = 100_000
    # end-to-end route: simulate the queue, split into busy periods
    trace = transform(sample_input(RateParams("geomgeom1", p, q), 500_000, Seed(5)))
    periods = busy_periods(trace)[:-1]          # drop the possibly-censored last
    assert len(periods) >= wanted
    counts = {}
    for per in periods[:wanted]:
        runs = zigzag_from_trace(trace, per).run_lengths
        counts[runs] = counts.get(runs, 0) + 1

    # expected frequencies from the stated class weight, normalized over the
    # full trajectory family (class sizes are Narayana numbers)
    Z = sum(comb(L, k) * comb(L, k - 1) // L * _stated_class_weight(L, k, p, q)
            for L in range(1, 400) for k in range(1, L + 1))
    catalog = [t for L in range(1, 5) for t in enumerate_trajectories(L)]
    observed = [counts.get(t.run_lengths, 0) for t in catalog]
    expected = [wanted * _stated_class_weight(t.total_rise, t.n_peaks, p, q) / Z
                for t in catalog]
    observed.append(wanted - sum(observed))
    expected.append(wanted - sum(expected))
    res = chi2_test(observed, expected, name="zigzag-stated-formula")

    # the packaged experiment must agree as well
    rep = zigzag_law_experiment(p, q, Seed(0), n_periods=wanted, alpha=ALPHA)
    ok = res.p_value >= ALPHA and rep.passed
    _line(5, "zigzag trajectory law, L<=4", ok,
          f"formula-fit p={res.p_value:.3f}, experiment verdict {rep.passed}")
    assert res.p_value >= ALPHA
    assert rep.passed


# --------------------------------------------------------------------------
# 6. shape law at K=2, q=(0.3, 0.5), N=4, 10^5 samples

def test_criterion_06_shape_law():
    t0 = time.time()
    rep = shape_law_experiment((0.3, 0.5), 4, 100_000, Seed(0), alpha=ALPHA)
    by_name = {r.name: r for r in rep.results}
    ok = rep.passed
    _line(6, "insertion-shape law, K=2 N=4", ok,
          ", ".join(f"{n.split('-')[0]} p={r.p_value:.3f}" for n, r in by_name.items())
          + f", {time.time()-t0:.1f}s")
    assert by_name["shape-frequencies"].p_value >= ALPHA
    assert by_name["weight-permutation-two-sample"].p_value >= ALPHA
    assert by_name["growth-transitions"].p_value >= ALPHA


# --------------------------------------------------------------------------
# 7. interchangeability at K=2, q=(0.3, 0.6) vs swapped, N=4, 10^5 reps

def test_criterion_07_interchangeability():
    t0 = time.time()
    rep = interchange_experiment((0.3, 0.6), (1, 0), 4, 100_000, Seed(0), alpha=ALPHA)
    joint = next(r for r in rep.results if r.name == "joint-D-R-two-sample")
    _line(7, "stage interchangeability", joint.p_value >= ALPHA,
          f"joint p={joint.p_value:.3f}, {time.time()-t0:.1f}s")
    assert joint.p_value >= ALPHA


# --------------------------------------------------------------------------
# 8. the square exponential case: R is exponential

@pytest.mark.xfail(
    strict=True,
    reason="R at N=K is the minimum of K unit exponentials, mean 1/K; "
           "a mean-3 window cannot be met at K=3",
)
def test_criterion_08_laguerre_as_stated():
    rep = laguerre_check(3, 1_000_000, Seed(0), reference_mean=3.0, alpha=ALPHA)
    mean = rep.diagnostics["sample_mean"]
    _line(8, "square-case output, quoted mean 3", False, f"sample mean {mean:.4f}")
    assert 2.94 <= mean <= 3.06
    assert rep.passed


def test_criterion_08_laguerre_exact_law():
    t0 = time.time()
    rep = laguerre_check(3, 1_000_000, Seed(0), alpha=ALPHA)
    elapsed = time.time() - t0
    mean = rep.diagnostics["sample_mean"]
    # same +-2% band as the stated window, centred on the exact mean 1/3
    ok = rep.passed and (0.98 / 3 <= mean <= 1.02 / 3) and elapsed < 180
    _line(8, "square-case output, exponential mean 1/K", ok,
          f"mean={mean:.4f}, KS p={rep.results[0].p_value:.3f}, {elapsed:.1f}s")
    assert 0.98 / 3 <= mean <= 1.02 / 3
    assert rep.passed
    assert elapsed < 180


# --------------------------------------------------------------------------
# 9. particle-system equivalences, 10^3 instances each

def test_criterion_09_particle_equivalence():
    t0 = time.time()
    seed = Seed(9)
    for i in range(1000):
        gen = seed.substream(i).generator()
        n = int(gen.integers(1, 6))
        k = int(gen.integers(1, 6))
        U = ServiceMatrix(gen.integers(0, 6, size=(n, k)))
        Dmat = queue_departures(U)
        jumps = {(e.particle, e.site): e.slot for e in zero_range_run(U)}
        assert all(jumps[(p, j)] == Dmat[p, j]
                   for p in range(1, n + 1) for j in range(1, k + 1))
        assert np.array_equal(bus_stop_run(U), store_flow(U)[0])
    for i in range(1000):
        gen = seed.substream(10_000 + i).generator()
        k = int(gen.integers(1, 7))
        counts = gen.integers(0, 7, size=k).tolist()
        assert from_exclusion(to_exclusion(counts)) == counts
        buses = gen.integers(0, 7, size=k).tolist()
        stepped = exclusion_step(to_exclusion(counts), buses)
        assert np.array_equal(np.trim_zeros(stepped, "f"),
                              to_exclusion(bus_stop_step(counts, buses)[0]))
    _line(9, "particle equivalences, 10^3 instances", True,
          f"{time.time()-t0:.1f}s")


# --------------------------------------------------------------------------
# 10. exact algebra: symmetry and normalization

def _partitions_up_to(boxes, parts):
    out = [()]

    def rec(prefix, last, left):
        for v in range(min(last, left), 0, -1):
            p = prefix + (v,)
            if len(p) <= parts:
                out.append(p)
                rec(p, v, left - v)

    rec((), boxes, boxes)
    return sorted(set(out))


def test_criterion_10_exact_algebra():
    t0 = time.time()
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    for shape in _partitions_up_to(6, 3):
        values = {schur_eval(shape, list(perm)) for perm in permutations(xs)}
        assert len(values) == 1

    dist = shape_distribution((F(3, 10), F(1, 2)), 4, residual=1e-10)
    gap = 1 - sum(dist.values())
    assert 0 <= gap < 1e-10

    dist3 = shape_distribution((0.2, 0.3, 0.4), 3, residual=1e-10)
    gap3 = 1 - sum(dist3.values())
    assert 0 <= gap3 < 1e-10

    qf = (F(1, 5), F(3, 10), F(2, 5))
    for m in [(), (2,), (2, 1), (3, 2, 1)]:
        row = transition_distribution(m, qf, residual=1e-10)
        assert 0 <= 1 - sum(row.values()) < 1e-10
    _line(10, "exact symmetry and normalization", True,
          f"exact gaps {float(gap):.1e}, {float(gap3):.1e}; {time.time()-t0:.1f}s")
