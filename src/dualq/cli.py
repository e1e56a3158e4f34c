"""Command-line entry point: experiment runner and identity verifier.

Each subcommand is one entry of :data:`COMMANDS`, declared with
:func:`_command` next to its runner: its flags as (type, default, help) and
a runner that takes the merged settings and returns ``(payload, ok)``.
Every subcommand accepts ``--config FILE`` (a JSON object with the same
keys as the flags, each value of its flag's type; flags win) and
``--output PATH``; the report subcommands also take ``--format json|csv``,
while ``trace`` always writes CSV.  Exit status: 0 when every check
passes, 1 when a verdict fails, 2 on usage errors.  Reports carry the seed
and parameters, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import particles, queue_store, rsk, stattest, tandem
from .sampling import RateParams, Seed

__all__ = ["main"]


@dataclass(frozen=True)
class Command:
    help: str
    flags: dict  # key -> (type, default, help), the shared --config/--output first
    run: Callable  # settings namespace -> (payload, ok)


COMMANDS: dict[str, Command] = {}

_IO_FLAGS = {"config": (str, None, "JSON file supplying the same keys; flags override"),
             "output": (str, None, None)}
_REPORT_FLAGS = {**_IO_FLAGS, "format": (str, "json", "json or csv")}
_ALPHA = (float, stattest.DEFAULT_ALPHA, "")


def _command(name: str, help: str, io_flags: dict = _REPORT_FLAGS, **flags):
    """Register the decorated runner as subcommand ``name``; ``--help`` keeps this order."""
    def register(run):
        COMMANDS[name] = Command(help, {**io_flags, **flags}, run)
        return run
    return register


def _split(text: str, typ) -> list:
    return [typ(x) for x in text.split(",") if x.strip() != ""]


def _number_array(text: str) -> np.ndarray:
    """Plain integer fields give int64 via int(), any other format float64,
    the rule :func:`tandem.matrix_from_csv` follows."""
    if not tandem._INTEGER_TEXT.fullmatch(text):
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


# cases drawn, then checked, together; bounds the memory of any --cases
CASE_BLOCK = 4096


def _random_cases(cfg, n_key: str, k_key: str, test: str, check,
                  extra=lambda u, gen: None) -> tuple[dict, bool]:
    """Count the random matrices that fail ``check``.

    Case i draws from substream i: n in 1..cfg.<n_key>, k in 1..cfg.<k_key>,
    then an n x k matrix u with entries in 0..max_entry, then any further
    inputs ``extra(u, gen)``: one generator, rewound per case, serves every
    case, so all draws happen here.  Cases are drawn :data:`CASE_BLOCK` at a
    time; ``check`` takes a block as a list of ``(u, extra)`` pairs and
    returns per case None on a pass or a dict describing the failure.  The
    diagnostics name the first failing case, and appear only if one fails.
    """
    for key, low in ((n_key, 1), (k_key, 1), ("max_entry", 0), ("cases", 1)):
        if getattr(cfg, key) < low:
            raise ValueError(f"need {key} >= {low}, got {getattr(cfg, key)}")
    seed = Seed(cfg.seed)
    gen = seed.generator()
    failures, first = 0, None
    for lo in range(0, cfg.cases, CASE_BLOCK):
        block = []
        for i in range(lo, min(lo + CASE_BLOCK, cfg.cases)):
            seed.substream(i).rewind(gen)
            n = int(gen.integers(1, getattr(cfg, n_key) + 1))
            k = int(gen.integers(1, getattr(cfg, k_key) + 1))
            u = gen.integers(0, cfg.max_entry + 1, size=(n, k))
            block.append((u, extra(u, gen)))
        for i, ((u, _), failure) in enumerate(zip(block, check(block)), lo):
            if failure is not None:
                failures += 1
                if first is None:
                    first = {"case": i, "matrix": u.tolist(), **failure}
    ok = failures == 0
    params = {key: getattr(cfg, key) for key in (n_key, k_key, "max_entry", "cases")}
    payload = {"name": cfg.subcommand, "params": params,
               "seed": {"master": cfg.seed, "stream": 0},
               "tests": [{"name": test, "statistic": failures, "p_value": 1.0 if ok else 0.0,
                          "n_samples": cfg.cases, "alpha": 0.0, "passed": ok}],
               "verdict": "pass" if ok else "fail"}
    if first is not None:
        payload["diagnostics"] = {"first_failure": first}
    return payload, ok


def _six_way_failures(block) -> list:
    """Check the six-way identity once per shape group of the block; each
    failure carries both quadruples."""
    failures = [None] * len(block)
    groups: dict[tuple, list[int]] = {}
    for j, (u, _) in enumerate(block):
        groups.setdefault(u.shape, []).append(j)
    for members in groups.values():
        lam1, lamK, ok = rsk.verify_row_queue_batch(np.stack([block[j][0] for j in members]))
        for m in np.flatnonzero(~ok):
            failures[members[m]] = {"lambda1": lam1[m].tolist(), "lambdaK": lamK[m].tolist()}
    return failures


@_command("verify-identities", "six-way tableau/path/tandem identity on random matrices",
         n=(int, 6, "max customers"), k=(int, 4, "max stages"),
         max_entry=(int, 5, "entries drawn from {0..max}"),
         cases=(int, 10000, "random matrices"), seed=(int, 0, ""))
def _verify_identities(cfg):
    if cfg.n + cfg.k > rsk.BRUTE_FORCE_LIMIT:  # the path oracles' limit, before any draw
        raise ValueError(f"n + k = {cfg.n + cfg.k} exceeds the brute-force limit "
                         f"{rsk.BRUTE_FORCE_LIMIT}")
    return _random_cases(cfg, "n", "k", "six-way-identity", _six_way_failures)


@_command("burke", "joint output law of the equilibrium queue",
         model=(str, "geom", "geom (geomgeom1) or exp (mm1)"),
         p=(float, 0.3, "arrival parameter (p or lambda)"),
         q=(float, 0.6, "mark parameter (q or mu)"),
         horizon=(int, 100000, "customers, in equilibrium from the first"),
         seed=(int, 0, ""), alpha=_ALPHA,
         dump_samples=(str, None, "write raw (d, r) pairs to this CSV path"))
def _burke(cfg):
    return _verdict(stattest.burke_experiment(
        _rate_params(cfg), cfg.horizon, Seed(cfg.seed), alpha=cfg.alpha,
        samples_path=cfg.dump_samples))


@_command("zigzag-law", "busy-period trajectory law",
         p=(float, 0.3, "gap parameter"), q=(float, 0.7, "mark parameter, 0 < p < q < 1"),
         periods=(int, 100000, "busy periods"),
         seed=(int, 0, ""), alpha=_ALPHA)
def _zigzag_law(cfg):
    return _verdict(stattest.zigzag_law_experiment(
        cfg.p, cfg.q, Seed(cfg.seed), n_periods=cfg.periods, alpha=cfg.alpha))


@_command("noncolliding",
         "walks conditioned never to collide (exact h-transform) vs max/min functionals",
         model=(str, "geom", "geom (geomgeom1) or exp (mm1)"),
         p=(float, 0.3, "gap parameter"), q=(float, 0.7, "mark parameter"),
         n=(int, 3, "steps per conditioned walk"),
         reps=(int, 100000, "conditioned walks"),
         seed=(int, 0, ""), alpha=_ALPHA)
def _noncolliding(cfg):
    return _verdict(stattest.noncolliding_experiment(
        _rate_params(cfg), cfg.n, cfg.reps, Seed(cfg.seed), alpha=cfg.alpha))


@_command("interchange", "stage reordering leaves (D, R) unchanged",
         q=(str, "0.3,0.6", "comma-separated stage weights"),
         sigma=(str, "1,0", "0-based permutation"),
         n=(int, 4, "customers"), reps=(int, 100000, ""),
         seed=(int, 0, ""), alpha=_ALPHA)
def _interchange(cfg):
    return _verdict(stattest.interchange_experiment(
        _split(cfg.q, float), _split(cfg.sigma, int), cfg.n, cfg.reps, Seed(cfg.seed),
        alpha=cfg.alpha))


@_command("shape-law", "insertion-shape law and growth transitions",
         q=(str, "0.3,0.5", "comma-separated stage weights"),
         n=(int, 4, "rows"), reps=(int, 100000, ""),
         seed=(int, 0, ""), alpha=_ALPHA)
def _shape_law(cfg):
    return _verdict(stattest.shape_law_experiment(
        _split(cfg.q, float), cfg.n, cfg.reps, Seed(cfg.seed), alpha=cfg.alpha))


@_command("laguerre", "exponentiality of R in the square exponential case",
         k=(int, 3, "stages (square case)"), reps=(int, 1000000, ""),
         reference_mean=(float, None, "positive and finite; default the exact 1/K"),
         seed=(int, 0, ""), alpha=_ALPHA)
def _laguerre(cfg):
    return _verdict(stattest.laguerre_check(cfg.k, cfg.reps, Seed(cfg.seed),
                                            reference_mean=cfg.reference_mean, alpha=cfg.alpha))


def _particle_inputs(u, gen) -> tuple[list, list]:
    """Site counts, with an ample reservoir at site 1, and bus arrivals."""
    k = u.shape[1]
    counts = gen.integers(0, 6, size=k).tolist()
    counts[0] += int(np.sum(u))
    return counts, gen.integers(0, 6, size=k).tolist()


def _particles_agree(u, counts, buses) -> bool:
    """Zero-range jumps = queue departures, bus-stop loads = store flow, and the
    exclusion encoding inverts and commutes with a bus-stop slot on ``counts``
    and ``buses``."""
    U = tandem.ServiceMatrix(u)
    D = tandem.queue_departures(U)
    jumps = {(e.particle, e.site): e.slot for e in particles.zero_range_run(U)}
    config = particles.to_exclusion(counts)
    return (all(jumps.get((p, j)) == D[p, j]
                for p in range(1, U.N + 1) for j in range(1, U.K + 1))
            and np.array_equal(particles.bus_stop_run(U), tandem.store_flow(U)[0])
            and particles.from_exclusion(config) == counts
            and np.array_equal(
                np.trim_zeros(particles.exclusion_step(config, buses), "f"),
                particles.to_exclusion(particles.bus_stop_step(counts, buses)[0])))


@_command("particles", "particle-system equivalences on random instances",
         cases=(int, 1000, ""), max_n=(int, 5, ""), max_k=(int, 5, ""),
         max_entry=(int, 5, ""), seed=(int, 0, ""))
def _particles(cfg):
    return _random_cases(cfg, "max_n", "max_k", "particle-equivalences",
                         lambda block: [None if _particles_agree(u, *inputs) else {}
                                        for u, inputs in block],
                         _particle_inputs)


@_command("trace", "per-customer trace table as CSV", io_flags=_IO_FLAGS,
         a=(str, "0,3", "comma-separated arrival epochs"),
         s=(str, "5,1", "comma-separated marks"),
         w1=(float, 0.0, "initial wait"))
def _trace(cfg):
    buf = io.StringIO()
    queue_store.trace_to_csv(
        queue_store.trace_from_arrays(_number_array(cfg.a), _number_array(cfg.s), w1=cfg.w1),
        buf)
    return buf.getvalue(), True


def _render(payload, fmt) -> str:
    if isinstance(payload, str):  # trace: CSV already
        return payload
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["test", "statistic", "p_value", "n_samples", "alpha", "passed"])
    for t in payload.get("tests", []):
        writer.writerow([t["name"], t["statistic"], t["p_value"],
                         t["n_samples"], t["alpha"], t["passed"]])
    return buf.getvalue()


# JSON types a config value may have, by the type of its flag
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _settings(cmd: Command, flags: dict) -> argparse.Namespace:
    """defaults <- config file <- flags; config values must have their flag's type."""
    config = {}
    if "config" in flags:
        with open(flags["config"]) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("the config file must hold a JSON object")
    unknown = set(config) - set(cmd.flags)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        typ = cmd.flags[key][0]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[typ]):
            raise ValueError(f"config key {key!r} must be {typ.__name__}, got {value!r}")
        config[key] = typ(value)
    defaults = {key: default for key, (_, default, _) in cmd.flags.items()}
    cfg = argparse.Namespace(**{**defaults, **config, **flags})
    if getattr(cfg, "format", "json") not in ("json", "csv"):
        raise ValueError(f"unknown format {cfg.format!r}; use json or csv")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualq",
                                     description="queue/store duality toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key, (typ, _, hlp) in cmd.flags.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, help=hlp,
                           default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    cmd = COMMANDS[flags["subcommand"]]
    try:
        cfg = _settings(cmd, flags)
        payload, ok = cmd.run(cfg)
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
