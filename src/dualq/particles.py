"""Interacting-particle views of the saturated tandems.

Queues in tandem run as a zero-range process: one site per stage, the site
for stage 1 holding the unserved reservoir, and the front particle of each
site carrying a countdown clock drawn from the service matrix.  Stores in
tandem run as the bus-stop process: a bus of size u(n, K+1-j) calls at
site j every slot and carts off as many particles as it can toward the
next site, arriving there the following slot.

Both reduce to 0/1 exclusion configurations through a gap encoding: one
occupied cell per site followed by one empty cell per resident particle,
downstream sites first.  A bus-stop slot then reads as every marker
jumping right by its bus size, clipped so nobody overtakes, processed left
to right.

The simulations are oracles for the tandem kernels, sharing no code with
them.  Each of them and of the exclusion maps has one body, a private core
on lists of Python numbers (``_zero_range_log``, ``_bus_stop_slots``,
``_gap_cells``, ``_gap_counts``, ``_exclusion_slot``; ``_bus_slot`` for
:func:`bus_stop_step`), which runs the per-slot and per-marker loops on
Python ints and floats, far cheaper per operation than numpy scalars on
matrices this small.  The public function is that core's wrapper: it
checks its input, turns it into lists with one ``tolist()``, and builds
the output: :class:`JumpEvent` records, loads and counts in the dtype of
the matrix's entries, or int8 cells.  A caller that already holds
checked lists, as the ``particles`` subcommand does for a whole group of
same-shape cases, calls the cores.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import tandem

__all__ = [
    "JumpEvent",
    "zero_range_run",
    "bus_stop_run",
    "bus_stop_step",
    "occupancy_history",
    "to_exclusion",
    "from_exclusion",
    "exclusion_step",
]


@dataclass(frozen=True)
class JumpEvent:
    """Particle ``particle`` left ``site`` at the end of slot ``slot``."""

    particle: int
    site: int
    slot: int


def zero_range_run(U) -> list[JumpEvent]:
    """Run the clock dynamics to completion and log every jump.

    Particle n leaves site j exactly at the queue-tandem departure epoch
    D(n, j); the log therefore has one event per (particle, site) pair.
    Zero clocks pass through a site within a single slot.
    """
    U = tandem._as_matrix(U)
    if U.u.dtype.kind != "i":
        raise ValueError("zero-range clocks need integer entries")
    return [JumpEvent(p, j, t) for p, j, t in _zero_range_log(U.u.tolist(), U.N, U.K)]


def _zero_range_log(u: list, N: int, K: int):
    """:func:`zero_range_run` on the rows ``u`` of an N x K integer matrix:
    yields each jump as a tuple (particle, site, slot), in the order of
    the log."""
    # sites[j] lists resident particle ids front-first; the front of a
    # nonempty site has clocks[j] service left and became front at front_since[j]
    sites = [deque(range(1, N + 1))] + [deque() for _ in range(K - 1)]
    clocks = [u[0][0]] + [None] * (K - 1)
    front_since = [0] * K
    horizon_guard = sum(map(sum, u)) + N * K + 2
    t = 0
    while True:
        # expired fronts jump now; zero clocks chain through several sites
        moved = True
        while moved:
            moved = False
            for j in range(K - 1, -1, -1):
                if not sites[j] or clocks[j] != 0:
                    continue
                p = sites[j].popleft()
                yield p, j + 1, t
                moved = True
                if sites[j]:
                    clocks[j] = u[sites[j][0] - 1][j]
                    front_since[j] = t
                else:
                    clocks[j] = None
                if j + 1 < K:
                    sites[j + 1].append(p)
                    if len(sites[j + 1]) == 1:
                        clocks[j + 1] = u[p - 1][j + 1]
                        front_since[j + 1] = t
        if not any(sites):  # a particle leaving the last site is gone
            return
        t += 1
        if t > horizon_guard:
            raise RuntimeError("zero-range run failed to drain")
        for j in range(K):
            if sites[j] and front_since[j] < t:
                clocks[j] -= 1


def _amounts(x, what: str) -> list:
    """``x`` as a list of Python numbers; ValueError unless it is 1-d and
    each is finite and nonnegative (NaN fails the range test too)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"{what} must be a 1-d sequence")
    x = x.tolist()
    if not all(0 <= v < math.inf for v in x):
        raise ValueError(f"{what} must be finite and nonnegative")
    return x


def _bus_slot(counts: list, bus_sizes: list) -> tuple[list, list]:
    """:func:`bus_stop_step` on checked lists of Python numbers."""
    moved = [min(b, c) for b, c in zip(bus_sizes, counts)]
    nxt = [c - m for c, m in zip(counts, moved)]
    for j in range(1, len(counts)):
        nxt[j] += moved[j - 1]
    return nxt, moved


def bus_stop_step(counts, bus_sizes) -> tuple[list, list]:
    """One synchronous slot of the bus-stop dynamics.

    ``counts[j]`` is what is available at site j+1 this slot (last slot's
    arrivals included); every bus loads min(size, available) and its cargo
    joins the next site's availability for the following slot.  Counts
    and sizes are finite nonnegative reals, as the entries of a float
    matrix are.  Returns (new counts, transported amounts).
    """
    counts = _amounts(counts, "counts")
    bus_sizes = _amounts(bus_sizes, "bus sizes")
    if len(counts) != len(bus_sizes):
        raise ValueError("need one bus size per site")
    return _bus_slot(counts, bus_sizes)


def _bus_stop_slots(u: list, reservoir) -> tuple[list, list]:
    """Site counts at every slot boundary (the initial ones first) and the
    amounts each slot transported, for the rows ``u`` of the matrix; bus j
    of slot n has size u(n, K+1-j).  Site 1 starts with ``reservoir``, at
    least what its buses take in all, and the other sites empty."""
    counts = [reservoir] + [0] * (len(u[0]) - 1)
    history, moves = [counts], []
    for row in u:
        counts, moved = _bus_slot(counts, row[::-1])
        history.append(counts)
        moves.append(moved)
    return history, moves


def _bus_stop_history(U) -> tuple[list, list]:
    """:func:`_bus_stop_slots` of a checked matrix, with a reservoir that
    never runs dry: its last column's total plus one, summed as numpy sums it."""
    return _bus_stop_slots(U.u.tolist(), U.u[:, -1].sum().item() + 1)


def bus_stop_run(U) -> np.ndarray:
    """Transported amounts, one row per slot and one column per site.

    Column j equals the store-tandem departure column r(., j); in
    particular the last column's total is R(N).
    """
    U = tandem._as_matrix(U)
    return np.array(_bus_stop_history(U)[1], dtype=U.u.dtype)


def to_exclusion(counts) -> np.ndarray:
    """Gap encoding of per-site counts as a 0/1 configuration.

    Sites are written downstream-first: one occupied cell per site, then
    one empty cell per resident particle, with the reservoir's (finite,
    truncated) count ending the configuration.
    """
    if np.ndim(counts) != 1:
        raise ValueError("counts must be a 1-d sequence, one per site")
    counts = list(counts)
    # the range test first: int() raises on NaN and inf
    if not counts or not all(0 <= c < math.inf and int(c) == c for c in counts):
        raise ValueError("counts must be nonnegative integers")
    return np.array(_gap_cells([int(m) for m in counts]), dtype=np.int8)


def _gap_cells(counts: list) -> list:
    """:func:`to_exclusion` of a list of nonnegative ints, as a list of cells."""
    cells = []
    for m in reversed(counts):
        cells.append(1)
        cells.extend([0] * m)
    return cells


def _cells(config) -> list:
    """A 0/1 configuration as a list of Python numbers; ValueError unless it
    is 1-d and every cell is 0 or 1."""
    config = np.asarray(config)
    if config.ndim != 1:
        raise ValueError("a configuration is a 1-d sequence of cells")
    cells = config.tolist()
    if not set(cells) <= {0, 1}:  # equal to 0 or 1: bools and 1.0 count, NaN fails
        raise ValueError("cells must be 0 or 1")
    return cells


def from_exclusion(config) -> list:
    """Inverse of :func:`to_exclusion`: recover the per-site counts."""
    cells = _cells(config)
    if not cells or cells[0] != 1:
        raise ValueError("configuration must start at a site marker")
    return _gap_counts(cells)


def _gap_counts(cells: list) -> list:
    """:func:`from_exclusion` of a list of 0/1 cells that starts at a marker."""
    ones = [i for i, c in enumerate(cells) if c == 1] + [len(cells)]
    return [ones[i + 1] - ones[i] - 1 for i in range(len(ones) - 2, -1, -1)]


def occupancy_history(U, model: str = "bus-stop") -> np.ndarray:
    """Slot-indexed site occupancy snapshots, one row per slot boundary.

    Row t holds the per-site particle counts after slot t (row 0 is the
    initial state).  For the bus-stop model the reservoir column carries
    its finite stand-in count, and the counts keep the dtype of U's
    entries, as :func:`bus_stop_run` does; for the zero-range model the
    counts are reconstructed from the jump log, so they match the clock
    dynamics exactly.
    """
    U = tandem._as_matrix(U)
    if model == "bus-stop":
        return np.array(_bus_stop_history(U)[0], dtype=U.u.dtype)
    if model == "zero-range":
        N, K = U.N, U.K
        log = zero_range_run(U)
        horizon = max((e.slot for e in log), default=0)
        out = np.zeros((horizon + 1, K), dtype=np.int64)
        out[:, 0] = N
        for e in log:
            out[e.slot:, e.site - 1] -= 1
            if e.site < K:
                out[e.slot:, e.site] += 1
        return out
    raise ValueError(f"unknown model {model!r}; use 'bus-stop' or 'zero-range'")


def exclusion_step(config, bus_sizes) -> np.ndarray:
    """One slot of the store exclusion process, natively on the 0/1 cells.

    Markers (read left to right, i.e. downstream store first) jump right by
    their site's bus size, clipped by the gap to the next marker; cells a
    marker walks past turn into holes behind it.  ``bus_sizes`` is given in
    site order (site 1 drives the rightmost marker), nonnegative integers;
    every cell of ``config`` is 0 or 1.  The configuration keeps its
    length; holes opening at the left edge are departed material.
    """
    out = _cells(config)
    bus_sizes = np.asarray(bus_sizes)
    if bus_sizes.ndim != 1:
        raise ValueError("bus sizes must be a 1-d sequence, one per marker")
    bus_sizes = bus_sizes.tolist()
    if out.count(1) != len(bus_sizes):
        raise ValueError("need one bus size per marker")
    # the range test first: int() raises on NaN and inf
    if not all(0 <= b < math.inf and int(b) == b for b in bus_sizes):
        raise ValueError("bus sizes must be nonnegative integers")
    return np.array(_exclusion_slot(out, [int(b) for b in bus_sizes]), dtype=np.int8)


def _exclusion_slot(cells: list, bus_sizes: list) -> list:
    """:func:`exclusion_step` of a list of 0/1 cells, in place, with one
    nonnegative int bus size per marker, in site order; returns ``cells``."""
    positions = [i for i, c in enumerate(cells) if c == 1]
    n_markers = len(positions)
    for i, pos in enumerate(positions):
        limit = positions[i + 1] if i + 1 < n_markers else len(cells)
        jump = min(bus_sizes[n_markers - 1 - i], limit - pos - 1)
        if jump:
            cells[pos] = 0
            cells[pos + jump] = 1
            positions[i] = pos + jump
    return cells
