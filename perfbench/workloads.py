"""The two benchmark workloads, as rounds of timed steps with untimed checks.

A round is one pass of a closed loop: each step runs only after the one
before it has returned.  Round ``i`` of a run with seed ``s`` hands the
program seed ``1000 * s + i`` (consecutive seeds over consecutive rounds),
and builds every other input from ``(s, i)`` with its own generator, so the
same seed gives the same inputs.  ``Step.run`` is the timed call;
``Step.check`` verifies its output afterwards, outside the timed region, and
returns the digest of everything the step produced.

The workloads follow the two kinds of computation the paper's recursions
feed, and each leaves idle the layers the other one loads:

* ``exact`` -- the exact pathwise checks.  ``verify-identities`` at
  acceptance criterion 1's size and ``particles`` at its defaults, through
  ``cli.main``: many tiny integer matrices, so per-call Python cost in
  ``rsk``, the scalar ``tandem`` kernels and ``particles`` dominates.  Then
  few long inputs through the library API: a geometric and an exponential
  trace of 5*10^4 customers through every pathwise object (all busy periods
  zigzagged, no subsampling), and one 2*10^4 x 20 integer matrix through the
  scalar tandem kernels, which loads ``queue_store`` and ``sampling``.
  ``schur`` and ``stattest`` stay idle.
* ``montecarlo`` -- the six experiment subcommands (``burke`` in both
  models) at their CLI defaults through ``cli.main``.  Work falls on
  ``stattest``, ``schur``, the batched ``tandem`` kernels and the rejection
  loop; the ``rsk`` oracles, ``particles`` and the ``queue_store`` loops idle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference

# The experiments run at their CLI defaults except for the significance
# level.  At the default 0.01 one test in a hundred rejects a true law by
# design, and a run makes hundreds of tests; at 1e-6 a verdict of "fail"
# points at the program, while the work done is unchanged.
ALPHA = "1e-6"

CUSTOMERS = 50_000       # per trace
GRID = 10_000            # queue-length evaluation points per trace
MATRIX = (20_000, 20)    # the long tandem matrix, entries uniform on 0..5


def program_seed(seed: int, round_index: int) -> int:
    if not 0 <= round_index < 1000:
        raise ValueError("a run has at most 1000 rounds")
    return 1000 * seed + round_index


@dataclass
class Checked:
    attempted: int
    failed: int
    digest: str
    notes: dict = field(default_factory=dict)


@dataclass
class Step:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    subcommand: str | None = None  # the CLI subcommand the step calls, if any


def _mod(name: str):
    # looked up at call time so that the boundary wrappers, when installed,
    # sit on the path of every call
    return sys.modules[f"dualq.{name}"]


def _hash_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h


# --------------------------------------------------------------------------
# CLI steps


def _cli_step(name: str, argv: list[str], exact_failures: bool = False) -> Step:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = _mod("cli").main(argv)
        return rc, buf.getvalue()

    def check(out) -> Checked:
        rc, text = out
        digest = hashlib.sha256(text.encode()).hexdigest()
        try:
            report = json.loads(text)
        except ValueError:
            return Checked(1, 1, digest)
        ok = rc == 0 and report.get("verdict") == "pass"
        if exact_failures:  # the report's failure count, not only its verdict
            ok = ok and all(t["statistic"] == 0 for t in report["tests"])
        notes = {}
        rate = report.get("diagnostics", {}).get("acceptance_rate")
        if rate is not None:
            notes["noncolliding_acceptance"] = rate
        return Checked(1, 0 if ok else 1, digest, notes)

    return Step(name, run, check, subcommand=argv[0])


def _identity_steps(seed: int, round_index: int) -> list[Step]:
    s = str(program_seed(seed, round_index))
    return [
        _cli_step("verify-identities", ["verify-identities", "--n", "6", "--k", "6",
                                        "--max-entry", "5", "--seed", s],
                  exact_failures=True),
        _cli_step("particles", ["particles", "--seed", s], exact_failures=True),
    ]


MONTECARLO = (
    ("burke-geom", ["burke"]),
    ("burke-exp", ["burke", "--model", "exp"]),
    ("zigzag-law", ["zigzag-law"]),
    ("noncolliding", ["noncolliding"]),
    ("interchange", ["interchange"]),
    ("shape-law", ["shape-law"]),
    ("laguerre", ["laguerre"]),
)


def montecarlo(seed: int, round_index: int) -> list[Step]:
    s = str(program_seed(seed, round_index))
    return [_cli_step(name, argv + ["--seed", s, "--alpha", ALPHA])
            for name, argv in MONTECARLO]


# --------------------------------------------------------------------------
# library steps


def _trace_step(name: str, params, seed) -> Step:
    qs = _mod("queue_store")

    def run():
        tr = qs.transform(_mod("sampling").sample_input(params, CUSTOMERS, seed))
        periods = qs.busy_periods(tr)
        zigzags = [qs.zigzag_from_trace(tr, p) for p in periods]
        back = qs.backward_check(tr)
        w = qs.lindley_forward(tr.w[0], tr.a, tr.s)
        W, Wbar = qs.workload_pair(tr)
        Q = qs.queue_length(tr, np.linspace(0.0, float(tr.D[-1]), GRID))
        return tr, periods, zigzags, back, w, W, Wbar, Q

    def check(out) -> Checked:
        tr, periods, zigzags, back, w, W, Wbar, Q = out
        # python's sum over the same marks in the same order: exact for floats too
        rises_ok = all(
            z.total_rise == sum(tr.s[p.customers.start:p.customers.stop].tolist())
            for z, p in zip(zigzags, periods))
        if tr.A.dtype.kind == "i":
            lindley_ok = np.array_equal(w, tr.w)
        else:
            scale = max(1.0, float(np.abs(tr.D).max()))
            lindley_ok = bool(np.max(np.abs(w - tr.w)) <= 1e-12 * scale)
        oks = (back.ok, rises_ok, lindley_ok)
        bounds = np.array([(p.customers.start, p.customers.stop) for p in periods])
        h = _hash_arrays(tr.A, tr.s, tr.D, tr.w, tr.r, bounds, w, Q,
                         W.times, W.values, W.left_values,
                         Wbar.times, Wbar.values, Wbar.left_values)
        h.update(repr([z.run_lengths for z in zigzags]).encode())
        h.update(repr((back.ok, back.max_error, back.first_violation)).encode())
        return Checked(len(oks), oks.count(False), h.hexdigest())

    return Step(name, run, check)


def _matrix_step(name: str, u: np.ndarray) -> Step:
    td = _mod("tandem")

    def run():
        return td.queue_departures(u), td.store_flow(u)

    def check(out) -> Checked:
        D, (rmat, wmat, R_seq) = out
        oks = (int(D[-1, -1]) == reference.last_departure(u),
               int(R_seq[-1]) == reference.store_total(u))
        digest = _hash_arrays(D, rmat, wmat, R_seq).hexdigest()
        return Checked(len(oks), oks.count(False), digest)

    return Step(name, run, check)


def _pathwise_steps(seed: int, round_index: int) -> list[Step]:
    sp = _mod("sampling")
    root = sp.Seed(program_seed(seed, round_index))
    u = np.random.default_rng([seed, round_index]).integers(
        0, 6, size=MATRIX, dtype=np.int64)
    return [
        _trace_step("geom-trace", sp.RateParams("geomgeom1", 0.3, 0.6), root.substream(0)),
        _trace_step("exp-trace", sp.RateParams("mm1", 0.4, 0.9), root.substream(1)),
        _matrix_step("matrix", u),
    ]


def exact(seed: int, round_index: int) -> list[Step]:
    return _identity_steps(seed, round_index) + _pathwise_steps(seed, round_index)


WORKLOADS = {"exact": exact, "montecarlo": montecarlo}
