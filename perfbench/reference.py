"""Independent reference for the two observables of a saturated tandem.

The program computes D(N, K) and R(N) by cell-by-cell recursions.  This
module gets the same two numbers column by column from the closed forms of
those recursions, so a wrong answer from the program cannot be reproduced
here by the same mistake.

Queue k serves the departures of queue k-1 in order (queue 1 holds every
customer at time 0), so with S(n) the partial sums of u(., k)

    D_k(n) = S(n) + max_{m <= n} [D_{k-1}(m) - S(m-1)].

Store k fills from store k-1 one slot late and meets requests Q(n), the
partial sums of u(., K+1-k), as far as its stock allows:

    R_k(n) = Q(n) + min_{0 <= m <= n} [I_k(m) - Q(m)],  I_k(n) = R_{k-1}(n-1).
"""

from __future__ import annotations

import numpy as np


def last_departure(u: np.ndarray) -> int:
    """D(N, K) of the queue tandem driven by the integer matrix ``u``."""
    u = np.asarray(u, dtype=np.int64)
    prev = np.zeros(u.shape[0], dtype=np.int64)  # queue 0 releases everyone at 0
    for k in range(u.shape[1]):
        S = np.cumsum(u[:, k])
        prev = S + np.maximum.accumulate(prev - (S - u[:, k]))
    return int(prev[-1])


def store_total(u: np.ndarray) -> int:
    """R(N), the total shipped by the last store over slots 1..N."""
    u = np.asarray(u, dtype=np.int64)
    N, K = u.shape
    R = np.cumsum(u[:, K - 1])  # store 1 always meets its request
    for k in range(2, K + 1):
        Q = np.concatenate(([0], np.cumsum(u[:, K - k])))
        inflow = np.concatenate(([0, 0], R[:-1]))  # I(0) = I(1) = 0
        R = (Q + np.minimum.accumulate(inflow - Q))[1:]
    return int(R[-1])
