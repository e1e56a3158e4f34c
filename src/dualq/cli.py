"""Command-line entry point: experiment runner and identity verifier.

Each subcommand is one entry of :data:`~dualq._commands.COMMANDS`, which
holds its help and its flags as (type, default, help); that module parses
the command line without numpy.  Here :func:`_runs` binds each entry's name
to its runner, which takes the merged settings and returns ``(payload, ok)``.
Every subcommand accepts ``--config FILE`` (a JSON object with the same
keys as the flags, each value of its flag's type; flags win) and
``--output PATH``; the report subcommands also take ``--format json|csv``
(a failing CSV report ends with its reproducer, :func:`_render`), while
``trace`` always writes CSV.  Exit status: 0 when every check
passes, 1 when a verdict fails, 2 on usage errors.  Reports carry the seed
and parameters, so identical invocations produce identical bytes.

Every report is a :class:`~dualq.stattest.ExperimentReport`, and every
report subcommand returns it through :func:`_verdict`.  The six
experiments hold statistical tests; ``verify-identities`` and
``particles`` hold one exact test, a
:class:`~dualq.stattest.ExactResult` counting the random cases that fail,
and name the first of them in ``diagnostics.first_failure``.

This module imports every layer, and numpy with them, when it is imported:
the benchmark's worker relies on that.  :mod:`dualq.__main__` parses first
and imports it only for a run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Callable

import numpy as np

from . import particles, queue_store, rsk, stattest, tandem
from ._commands import COMMANDS, DEFAULT_ALPHA, parse
from .sampling import RateParams, Seed

__all__ = ["main", "dispatch"]

RUNNERS: dict[str, Callable] = {}  # subcommand -> runner: settings -> (payload, ok)


def _runs(name: str):
    """Bind the decorated runner to subcommand ``name`` of the table."""
    def bind(run):
        RUNNERS[name] = run
        return run
    return bind


def _split(text: str, typ) -> list:
    return [typ(x) for x in text.split(",") if x.strip() != ""]


_INTEGER_TEXT = re.compile(r"[\d\s,+-]*")


def _number_array(text: str) -> np.ndarray:
    """Plain integer fields give int64 via int(), any other format float64."""
    if not _INTEGER_TEXT.fullmatch(text):
        return np.array(_split(text, float), dtype=np.float64)
    try:
        return np.array(_split(text, int), dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{text!r} holds an integer outside int64") from None


def _rate_params(cfg) -> RateParams:
    """The --model aliases geom and exp name RateParams' geomgeom1 and mm1."""
    model = {"geom": "geomgeom1", "exp": "mm1"}.get(cfg.model, cfg.model)
    return RateParams(model=model, arrival=cfg.p, service=cfg.q)


def _verdict(report: stattest.ExperimentReport) -> tuple[dict, bool]:
    return report.to_dict(), report.passed


CASE_ENTRIES = 147_456  # matrix entries drawn per block of cases: bounds the memory of any run


def _case_blocks(seed: int, cases: int, n_max: int, k_max: int, max_entry: int,
                 site_draws: bool = False):
    """The random cases in blocks ``(lo, n, k, E, sites)`` of cases lo, lo+1, ...

    One generator per quantity serves the whole run, one draw per case:
    substream 0 of ``Seed(seed)`` draws n in 1..n_max, substream 1 k in
    1..k_max, substream 2 an n_max x k_max matrix E with entries in
    0..max_entry, whose top-left n x k corner is the case's matrix.  With
    ``site_draws``, substreams 3 and 4 draw a row of k_max values in 0..5,
    the site counts and the buses, listed in ``sites``.  A stream draws the
    same values however it is cut, so the blocks, of :data:`CASE_ENTRIES`
    entries of E (or one matrix), do not change the cases.
    """
    gens = [Seed(seed).substream(j).generator() for j in range(5 if site_draws else 3)]
    block = max(1, CASE_ENTRIES // (n_max * k_max))
    for lo in range(0, cases, block):
        m = min(block, cases - lo)
        n = gens[0].integers(1, n_max + 1, size=m)
        k = gens[1].integers(1, k_max + 1, size=m)
        E = gens[2].integers(0, max_entry + 1, size=(m, n_max, k_max))
        yield lo, n, k, E, [g.integers(0, 6, size=(m, k_max)) for g in gens[3:]]


def _shape_groups(n: np.ndarray, k: np.ndarray):
    """(n, k, members) for each shape of a block, members the indices of its
    cases in increasing order."""
    key = n * (int(k.max()) + 1) + k
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order])) + 1
    for members in np.split(order, starts):
        yield int(n[members[0]]), int(k[members[0]]), members


def _random_cases(cfg, n_key: str, k_key: str, test: str, check,
                  site_draws: bool = False) -> tuple[dict, bool]:
    """Report one exact test: count the random matrices that fail ``check``.

    The cases come from :func:`_case_blocks`, with n and k at most
    cfg.<n_key> and cfg.<k_key>.  ``check(n, k, E, sites)`` takes a block
    and returns {index in the block: dict describing the failure} for its
    failing cases.  The diagnostics name the first failing case, and
    appear only if one fails.
    """
    for key, low in ((n_key, 1), (k_key, 1), ("max_entry", 0), ("cases", 1)):
        if getattr(cfg, key) < low:
            raise ValueError(f"need {key} >= {low}, got {getattr(cfg, key)}")
    params = {key: getattr(cfg, key) for key in (n_key, k_key, "max_entry", "cases")}
    # alpha judges statistical tests only; this report holds one exact test
    report = stattest.ExperimentReport(cfg.subcommand, params, Seed(cfg.seed),
                                       DEFAULT_ALPHA)
    failures = 0
    for lo, n, k, E, sites in _case_blocks(cfg.seed, cfg.cases, getattr(cfg, n_key),
                                           getattr(cfg, k_key), cfg.max_entry, site_draws):
        failed = check(n, k, E, sites)
        failures += len(failed)
        if failed and not report.diagnostics:
            j = min(failed)
            report.diagnostics = {"first_failure": {
                "case": lo + j, "matrix": E[j, :n[j], :k[j]].tolist(), **failed[j]}}
    report.results.append(stattest.ExactResult(test, failures, cfg.cases))
    return _verdict(report)


def _six_way_failures(n, k, E, _) -> dict:
    """Check the six-way identity once per shape group of the block; each
    failure carries both quadruples."""
    failures = {}
    for N, K, members in _shape_groups(n, k):
        lam1, lamK, ok = rsk.verify_row_queue_batch(E[members, :N, :K])
        for m in np.flatnonzero(~ok):
            failures[int(members[m])] = {"lambda1": lam1[m].tolist(),
                                         "lambdaK": lamK[m].tolist()}
    return failures


@_runs("verify-identities")
def _verify_identities(cfg):
    if cfg.n + cfg.k > rsk.BRUTE_FORCE_LIMIT:  # the path oracles' limit, before any draw
        raise ValueError(f"n + k = {cfg.n + cfg.k} exceeds the brute-force limit "
                         f"{rsk.BRUTE_FORCE_LIMIT}")
    return _random_cases(cfg, "n", "k", "six-way-identity", _six_way_failures)


@_runs("burke")
def _burke(cfg):
    return _verdict(stattest.burke_experiment(
        _rate_params(cfg), cfg.horizon, Seed(cfg.seed), alpha=cfg.alpha,
        samples_path=cfg.dump_samples))


@_runs("zigzag-law")
def _zigzag_law(cfg):
    return _verdict(stattest.zigzag_law_experiment(
        cfg.p, cfg.q, Seed(cfg.seed), n_periods=cfg.periods, alpha=cfg.alpha))


@_runs("noncolliding")
def _noncolliding(cfg):
    return _verdict(stattest.noncolliding_experiment(
        _rate_params(cfg), cfg.n, cfg.reps, Seed(cfg.seed), alpha=cfg.alpha))


@_runs("interchange")
def _interchange(cfg):
    return _verdict(stattest.interchange_experiment(
        _split(cfg.q, float), _split(cfg.sigma, int), cfg.n, cfg.reps, Seed(cfg.seed),
        alpha=cfg.alpha))


@_runs("shape-law")
def _shape_law(cfg):
    return _verdict(stattest.shape_law_experiment(
        _split(cfg.q, float), cfg.n, cfg.reps, Seed(cfg.seed), alpha=cfg.alpha))


@_runs("laguerre")
def _laguerre(cfg):
    return _verdict(stattest.laguerre_check(cfg.k, cfg.reps, Seed(cfg.seed),
                                            reference_mean=cfg.reference_mean, alpha=cfg.alpha))


def _broken_equivalences(u: list, N: int, K: int, D: list, r: list, reservoir,
                         counts: list, buses: list) -> list:
    """The names of the particle equivalences one case breaks, from the
    particle cores on lists: the case's matrix rows ``u``, its queue
    departures ``D`` and store flow ``r`` from the tandem kernels, an
    ample reservoir, and its site counts (reservoir included) and buses."""
    jumps = {(p, j): t for p, j, t in particles._zero_range_log(u, N, K)}
    cells = particles._gap_cells(counts)
    inverse = particles._gap_counts(cells) == counts
    stepped = particles._exclusion_slot(cells, buses)  # in place
    slot = particles._gap_cells(particles._bus_slot(counts, buses)[0])
    holds = {
        "zero-range-jumps": all(jumps.get((p, j)) == D[p][j]
                                for p in range(1, N + 1) for j in range(1, K + 1)),
        "bus-stop-loads": particles._bus_stop_slots(u, reservoir)[1] == r,
        "exclusion-inverse": inverse,
        # the same cells after the holes the departed material left
        "exclusion-step": stepped == [0] * (len(stepped) - len(slot)) + slot,
    }
    return [name for name, ok in holds.items() if not ok]


def _particle_failures(n, k, E, sites) -> dict:
    """Per case, four equivalences: zero-range jumps = queue departures,
    bus-stop loads = store flow, and the exclusion encoding inverts and
    commutes with a bus-stop slot on the case's site counts (an ample
    reservoir added at site 1) and buses.  A failing case records the names
    of those that broke, under ``equivalences``; a case on which a particle
    oracle raises records the exception, under ``error``.  Per shape group,
    the two tandem scans run once, and the matrices, site draws, reservoirs
    and kernel outputs become lists with one ``tolist()`` each; per case,
    the particle cores (``particles._zero_range_log`` and the others) run
    on those lists, with no numpy call and no check of their own, and the
    cases compare lists of Python numbers."""
    failures = {}
    for N, K, members in _shape_groups(n, k):
        u = E[members, :N, :K]
        D = tandem.queue_departures_batch(u).tolist()
        r = tandem._store_scan(tandem._rows_last(u))[0].transpose(2, 0, 1).tolist()
        totals = u.sum(axis=(1, 2)).tolist()
        # a reservoir that never runs dry: the last column's total plus one
        reservoirs = (u[:, :, -1].sum(axis=1) + 1).tolist()
        site_counts, site_buses = (s[members, :K].tolist() for s in sites)
        for m, (i, rows) in enumerate(zip(members.tolist(), u.tolist())):
            counts = site_counts[m]
            counts[0] += totals[m]
            try:
                broken = _broken_equivalences(rows, N, K, D[m], r[m], reservoirs[m],
                                              counts, site_buses[m])
            except Exception as exc:  # an oracle that raises fails its case
                failures[i] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            if broken:
                failures[i] = {"equivalences": broken}
    return failures


@_runs("particles")
def _particles(cfg):
    return _random_cases(cfg, "max_n", "max_k", "particle-equivalences",
                         _particle_failures, site_draws=True)


@_runs("trace")
def _trace(cfg):
    buf = io.StringIO()
    queue_store.trace_to_csv(
        queue_store.QueueTrace(_number_array(cfg.a), _number_array(cfg.s), cfg.w1), buf)
    return buf.getvalue(), True


def _render(payload, fmt) -> str:
    """The report as text.  CSV holds the test table; a failing report
    follows it with a blank row and a (key, value) table of its reproducer,
    the seed, the params and each diagnostic, every value as JSON."""
    if isinstance(payload, str):  # trace: CSV already
        return payload
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["test", "statistic", "p_value", "n_samples", "alpha", "passed"])
    for t in payload["tests"]:
        writer.writerow([t["name"], t["statistic"], t["p_value"],
                         t["n_samples"], t["alpha"], t["passed"]])
    if payload["verdict"] == "fail":
        writer.writerows([[], ["key", "value"]])
        for key, value in (("seed", payload["seed"]), ("params", payload["params"]),
                           *sorted(payload.get("diagnostics", {}).items())):
            writer.writerow([key, json.dumps(value, sort_keys=True)])
    return buf.getvalue()


# JSON types a config value may have, by the type of its flag
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _settings(flags: dict) -> argparse.Namespace:
    """defaults <- config file <- flags; config values must have their flag's type."""
    table = COMMANDS[flags["subcommand"]].flags
    config = {}
    if "config" in flags:
        with open(flags["config"]) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("the config file must hold a JSON object")
    unknown = set(config) - set(table)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        typ = table[key][0]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[typ]):
            raise ValueError(f"config key {key!r} must be {typ.__name__}, got {value!r}")
        config[key] = typ(value)
    defaults = {key: default for key, (_, default, _) in table.items()}
    cfg = argparse.Namespace(**{**defaults, **config, **flags})
    if getattr(cfg, "format", "json") not in ("json", "csv"):
        raise ValueError(f"unknown format {cfg.format!r}; use json or csv")
    return cfg


def main(argv=None) -> int:
    return dispatch(parse(argv))


def dispatch(flags: dict) -> int:
    """Run a subcommand from the flags :func:`~dualq._commands.parse` gave:
    merge its settings, run it and write its report; return the exit status."""
    try:
        cfg = _settings(flags)
        payload, ok = RUNNERS[cfg.subcommand](cfg)
        text = _render(payload, getattr(cfg, "format", None))
        if cfg.output:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
