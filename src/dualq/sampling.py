"""Seeded samplers for the model input laws and marked-sequence reversal.

All randomness flows through counter-based Philox streams keyed by
``(master, stream)``; identical keys reproduce identical draws regardless
of execution order, and distinct keys give independent streams, so
replications can be farmed out in any schedule.

Every law is drawn by inverse CDF, one uniform per value: each ``draw_*``
function turns an array of fresh uniforms on [0, 1) into its law in place,
and :func:`model_draw` picks the one that draws a model's gaps and marks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Seed",
    "MarkedSequence",
    "RateParams",
    "draw_geometric",
    "draw_geometric0",
    "draw_exponential",
    "model_draw",
    "sample_geometric",
    "sample_geometric0",
    "sample_exponential",
    "sample_input",
    "reverse",
]

_MASK64 = (1 << 64) - 1
_CHILDREN = (1 << 32) - 1  # substream indices per parent


@dataclass(frozen=True)
class Seed:
    """Philox key: ``master`` names the experiment, ``stream`` the sub-stream.

    Both are the key's 64-bit words, so each must lie in 0..2**64 - 1;
    a value outside would wrap onto another seed's key, so it raises.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            value = operator.index(getattr(self, name))
            if not 0 <= value <= _MASK64:
                raise ValueError(f"seed {name} must lie in 0..2**64 - 1, got {value}")

    def _key(self) -> np.ndarray:
        return np.array([self.master, self.stream], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def substream(self, index: int) -> "Seed":
        """Child seed ``index``; children occupy a disjoint block of the stream space.

        The child stream is ``stream * 2**32 + index + 1``, which is
        injective only while ``stream < 2**32`` and ``index < 2**32 - 1``;
        outside that range two paths would share a key, so it raises.
        From ``Seed(master)`` this allows paths of depth two.
        """
        if not 0 <= index < _CHILDREN:
            raise ValueError(f"substream index must lie in 0..{_CHILDREN - 1}")
        if not 0 <= self.stream < 1 << 32:
            raise ValueError("stream too large to derive collision-free substreams")
        return Seed(self.master, (self.stream << 32) + index + 1)


@dataclass(frozen=True, eq=False)
class MarkedSequence:
    """Finite window of strictly increasing epochs carrying positive marks.

    Epochs are real for the exponential model and integer for the geometric
    one; the window is ``[0, window_end]`` with every epoch inside it.
    Sequences compare and hash by identity, as their fields are arrays.
    """

    epochs: np.ndarray
    marks: np.ndarray
    window_end: float

    def __post_init__(self):
        epochs = np.asarray(self.epochs)
        marks = np.asarray(self.marks)
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "marks", marks)
        if epochs.ndim != 1 or epochs.shape != marks.shape:
            raise ValueError("epochs and marks must be 1-d and of equal length")
        if epochs.size:
            if np.any(np.diff(epochs) <= 0):
                raise ValueError("epochs must be strictly increasing")
            if np.any(marks <= 0):
                raise ValueError("marks must be positive")
            if epochs[-1] > self.window_end:
                raise ValueError("epochs must not exceed window_end")

    def __len__(self) -> int:
        return int(self.epochs.size)


@dataclass(frozen=True)
class RateParams:
    """Input law of the single-server model.

    ``mm1``: Poisson arrivals of rate ``arrival``, exponential marks of rate
    ``service``.  ``geomgeom1``: geometric gaps with parameter ``arrival``
    (p) and geometric marks with parameter ``service`` (q), both on
    {1, 2, ...}.  Construction enforces the stability condition.
    """

    model: str
    arrival: float
    service: float

    def __post_init__(self):
        if self.model not in ("mm1", "geomgeom1"):
            raise ValueError(f"unknown model {self.model!r}; use 'mm1' or 'geomgeom1'")
        if self.model == "mm1":
            if not 0 < self.arrival < self.service:
                raise ValueError("mm1 requires 0 < arrival rate < service rate")
        else:
            if not 0 < self.arrival < self.service < 1:
                raise ValueError("geomgeom1 requires 0 < p < q < 1")

    @property
    def utilization(self) -> float:
        # traffic intensity; same ratio in both models
        return self.arrival / self.service


def _below_int64(x: np.ndarray, head: int = 0) -> bool:
    """Whether ``head`` plus the sum of the nonnegative integers ``x`` stays
    below 2**63, decided exactly: a float sum screens, and only a total
    within a factor of two of 2**63 is summed again as Python ints."""
    if head + float(x.sum(dtype=np.float64)) < 2**62:
        return True
    return head + sum(x.ravel().tolist()) < 2**63


def draw_geometric(gen: np.random.Generator, p: float, shape) -> np.ndarray:
    """Inverse CDF of P{X=k} = (1-p)^(k-1) p on {1, 2, ...}: one uniform per
    draw, floor(log1p(-u) / log1p(-p)) + 1.

    Raises ValueError when a draw does not fit int64, which takes p below
    about 4e-18 (a subnormal p overflows the quotient to inf).
    """
    x = gen.random(shape)
    with np.errstate(divide="ignore", over="ignore"):
        scale = np.log1p(-p)
        np.log1p(np.negative(x, out=x), out=x)
        np.floor(np.divide(x, scale, out=x), out=x)
    np.add(x, 1, out=x)
    if x.size and x.max() >= 2**63:
        raise ValueError(f"p = {p!r} is too small: a geometric draw does not fit int64")
    return x.astype(np.int64)


def draw_geometric0(gen: np.random.Generator, q: float, shape) -> np.ndarray:
    """Inverse CDF of P{X=k} = (1-q) q^k on {0, 1, 2, ...}: one uniform per
    draw, floor(log1p(-u) / log(q))."""
    x = gen.random(shape)
    np.log1p(np.negative(x, out=x), out=x)
    return np.floor(np.divide(x, np.log(q), out=x), out=x).astype(np.int64)


def draw_exponential(gen: np.random.Generator, rate: float, shape) -> np.ndarray:
    """Inverse CDF of Exp(rate) (mean 1/rate): one uniform per draw,
    -log1p(-u) / rate, computed as log1p(-u) / -rate: IEEE division is
    symmetric in sign, so the bits are the same and a pass is saved."""
    x = gen.random(shape)
    np.log1p(np.negative(x, out=x), out=x)
    return np.divide(x, -rate, out=x)


def model_draw(params: RateParams):
    """The sampler of the model's gaps and marks: :func:`draw_geometric`
    (int64) for geomgeom1, :func:`draw_exponential` (float64) for mm1."""
    return draw_exponential if params.model == "mm1" else draw_geometric


def sample_geometric(p: float, n: int, seed: Seed) -> np.ndarray:
    """``n`` i.i.d. draws with P{X=k} = (1-p)^(k-1) p on {1, 2, ...}.

    Inverse CDF on the integer grid; one uniform per draw, no rejection.
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    return draw_geometric(seed.generator(), p, n)


def sample_geometric0(q: float, n: int, seed: Seed) -> np.ndarray:
    """``n`` i.i.d. draws with P{X=k} = (1-q) q^k on {0, 1, 2, ...}.

    The zero-inclusive companion of :func:`sample_geometric`; this is the
    entry law of the stochastic tandems.
    """
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if q == 0:
        return np.zeros(n, dtype=np.int64)
    return draw_geometric0(seed.generator(), q, n)


def sample_exponential(rate: float, n: int, seed: Seed) -> np.ndarray:
    """``n`` i.i.d. Exp(rate) draws (mean 1/rate), by inverse CDF."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n < 0:
        raise ValueError("n must be >= 0")
    return draw_exponential(seed.generator(), rate, n)


def sample_input(params: RateParams, horizon: int, seed: Seed) -> MarkedSequence:
    """First ``horizon`` customers of the model input.

    Epochs are cumulative sums of i.i.d. gaps, marks ride the epochs;
    the window ends at the last epoch.  Customer-indexed on purpose:
    truncating by time would censor the mark statistics at the boundary.
    Raises ValueError when the integer epochs of geomgeom1 would not fit
    int64.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sample = sample_exponential if params.model == "mm1" else sample_geometric
    gaps = sample(params.arrival, horizon, seed.substream(0))
    if gaps.dtype == np.int64 and not _below_int64(gaps):
        raise ValueError(f"p = {params.arrival!r} is too small: "
                         f"the epochs of {horizon} customers do not fit int64")
    marks = sample(params.service, horizon, seed.substream(1))
    epochs = np.cumsum(gaps)
    return MarkedSequence(epochs, marks, window_end=epochs[-1])


def _wait_law(params: RateParams) -> tuple[float, float]:
    """``(busy, decay)`` of the queue's equilibrium wait W: P(W > 0) = busy,
    and given W > 0, W is Exp(decay) (M/M/1: busy = rho, decay = mu - lambda)
    or geometric on {1, 2, ...} with ratio decay (Geom/Geom/1: busy = rho*eta,
    decay = eta = (1-q)/(1-p))."""
    if params.model == "mm1":
        return params.utilization, params.service - params.arrival
    eta = (1 - params.service) / (1 - params.arrival)
    return params.utilization * eta, eta


def _wait_below(params: RateParams, x: np.ndarray) -> np.ndarray:
    """P(W < x) elementwise, W the equilibrium wait of :func:`_wait_law`:
    1 - busy * decay**(x-1) for integer x >= 1 (Geom/Geom/1), 1 - busy *
    exp(-decay * x) for x > 0 (M/M/1), and 0 for x <= 0."""
    busy, decay = _wait_law(params)
    positive = x > 0
    if params.model == "mm1":
        tail = np.exp(np.where(positive, x, 0) * -decay)
    else:
        tail = decay ** np.where(positive, x - 1, 0)
    return np.where(positive, 1 - busy * tail, 0.0)


def _stationary_wait(params: RateParams, gen: np.random.Generator):
    """Equilibrium wait of the model's queue, by :func:`_wait_law`.  The
    positive part is drawn first, then the uniform that decides whether the
    server is busy; an idle one gives 0 or 0.0."""
    busy, decay = _wait_law(params)
    rate = decay if params.model == "mm1" else 1 - decay
    return model_draw(params)(gen, rate, ()).item() * bool(gen.random() < busy)


def reverse(ms: MarkedSequence) -> MarkedSequence:
    """Time-reversal about the window ``[0, window_end]``.

    Epoch t maps to window_end - t (order restored by flipping), and mark i
    of the output is the mark that rode epoch n+1-i of the input.
    """
    return MarkedSequence(
        ms.window_end - ms.epochs[::-1],
        ms.marks[::-1].copy(),
        ms.window_end,
    )
