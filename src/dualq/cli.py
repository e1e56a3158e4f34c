"""Command-line entry point: experiment runner and identity verifier.

Every subcommand accepts ``--config FILE`` (JSON with the same keys as the
flags; flags win) and ``--output PATH``.  Exit status: 0 when every check
passes, 1 when a verdict fails, 2 on usage errors.  Reports carry the seed
and parameters, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import particles, queue_store, rsk, stattest, tandem
from .sampling import RateParams, Seed

__all__ = ["main", "RunConfig"]


SUBCOMMANDS = (
    "verify-identities",
    "burke",
    "zigzag-law",
    "noncolliding",
    "interchange",
    "shape-law",
    "laguerre",
    "particles",
    "trace",
)


class RunConfig:
    """Merged view of defaults, config file, and explicit flags."""

    def __init__(self, subcommand: str, defaults: dict, config: dict, flags: dict):
        unknown = set(config) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        self.subcommand = subcommand
        self.values = {**defaults, **config, **flags}

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None


def _num_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _maybe_int_array(values: list[float]) -> np.ndarray:
    if all(float(v).is_integer() for v in values):
        return np.array([int(v) for v in values], dtype=np.int64)
    return np.array(values, dtype=np.float64)


def _rate_params(cfg) -> RateParams:
    model = {"geom": "geomgeom1", "geomgeom1": "geomgeom1",
             "exp": "mm1", "mm1": "mm1"}.get(cfg.model)
    if model is None:
        raise ValueError(f"unknown model {cfg.model!r}")
    return RateParams(model=model, arrival=cfg.p, service=cfg.q)


def _emit(payload: dict, cfg) -> None:
    if cfg.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["test", "statistic", "p_value", "n_samples", "alpha", "passed"])
        for t in payload.get("tests", []):
            writer.writerow([t["name"], t["statistic"], t["p_value"],
                             t["n_samples"], t["alpha"], t["passed"]])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {cfg.format!r}")
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(report, cfg) -> int:
    _emit(report.to_dict(), cfg)
    return 0 if report.passed else 1


def _exact_exit(cfg, name: str, params: dict, test: str, failures: int) -> int:
    """Emit the report of an exact check that failed on ``failures`` of the cases."""
    ok = failures == 0
    _emit({"name": name, "params": params, "seed": {"master": cfg.seed, "stream": 0},
           "tests": [{"name": test, "statistic": failures, "p_value": 1.0 if ok else 0.0,
                      "n_samples": cfg.cases, "alpha": 0.0, "passed": ok}],
           "verdict": "pass" if ok else "fail"}, cfg)
    return 0 if ok else 1


def _cmd_verify_identities(cfg) -> int:
    seed = Seed(cfg.seed)
    failures = 0
    for i in range(cfg.cases):
        gen = seed.substream(i).generator()
        n = int(gen.integers(1, cfg.n + 1))
        k = int(gen.integers(1, cfg.k + 1))
        u = gen.integers(0, cfg.max_entry + 1, size=(n, k))
        failures += 0 if rsk.verify_row_queue(tandem.ServiceMatrix(u)).ok else 1
    params = {"n": cfg.n, "k": cfg.k, "max_entry": cfg.max_entry, "cases": cfg.cases}
    return _exact_exit(cfg, "verify-identities", params, "six-way-identity", failures)


def _cmd_particles(cfg) -> int:
    seed = Seed(cfg.seed)
    failures = 0
    for i in range(cfg.cases):
        gen = seed.substream(i).generator()
        n = int(gen.integers(1, cfg.max_n + 1))
        k = int(gen.integers(1, cfg.max_k + 1))
        u = gen.integers(0, cfg.max_entry + 1, size=(n, k))
        U = tandem.ServiceMatrix(u)
        Dmat = tandem.queue_departures(U)
        jumps = {(e.particle, e.site): e.slot for e in particles.zero_range_run(U)}
        ok = all(jumps.get((p, j)) == Dmat[p, j]
                 for p in range(1, n + 1) for j in range(1, k + 1))
        rmat = tandem.store_flow(U)[0]
        ok = ok and np.array_equal(particles.bus_stop_run(U), rmat)
        counts = gen.integers(0, 6, size=k).tolist()
        counts[0] += int(np.sum(u))  # ample reservoir
        ok = ok and particles.from_exclusion(particles.to_exclusion(counts)) == counts
        buses = gen.integers(0, 6, size=k).tolist()
        lhs = np.trim_zeros(
            particles.exclusion_step(particles.to_exclusion(counts), buses), "f")
        rhs = particles.to_exclusion(particles.bus_stop_step(counts, buses)[0])
        ok = ok and np.array_equal(lhs, rhs)
        failures += 0 if ok else 1
    params = {"cases": cfg.cases, "max_n": cfg.max_n, "max_k": cfg.max_k,
              "max_entry": cfg.max_entry}
    return _exact_exit(cfg, "particles", params, "particle-equivalences", failures)


def _cmd_trace(cfg) -> int:
    A = _maybe_int_array(_num_list(cfg.a))
    s = _maybe_int_array(_num_list(cfg.s))
    trace = queue_store.trace_from_arrays(A, s, w1=cfg.w1)
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            queue_store.trace_to_csv(trace, fh)
    else:
        queue_store.trace_to_csv(trace, sys.stdout)
    return 0


def _experiment_command(cfg) -> int:
    name = cfg.subcommand
    seed = Seed(cfg.seed)
    if name == "burke":
        report = stattest.burke_experiment(_rate_params(cfg), cfg.horizon,
                                           cfg.burn_in, seed, alpha=cfg.alpha,
                                           samples_path=cfg.dump_samples or None)
    elif name == "zigzag-law":
        report = stattest.zigzag_law_experiment(cfg.p, cfg.q, seed,
                                                n_periods=cfg.periods,
                                                max_rise=cfg.max_rise,
                                                alpha=cfg.alpha)
    elif name == "noncolliding":
        report = stattest.noncolliding_experiment(_rate_params(cfg), cfg.n,
                                                  cfg.trunc, cfg.reps, seed,
                                                  alpha=cfg.alpha)
    elif name == "interchange":
        q = _num_list(cfg.q)
        sigma = _int_list(cfg.sigma)
        report = stattest.interchange_experiment(q, sigma, cfg.n, cfg.reps,
                                                 seed, alpha=cfg.alpha)
    elif name == "shape-law":
        report = stattest.shape_law_experiment(_num_list(cfg.q), cfg.n,
                                               cfg.reps, seed, alpha=cfg.alpha)
    elif name == "laguerre":
        ref = cfg.reference_mean if cfg.reference_mean > 0 else None
        report = stattest.laguerre_check(cfg.k, cfg.reps, seed,
                                         reference_mean=ref, alpha=cfg.alpha)
    else:  # pragma: no cover
        raise ValueError(name)
    return _report_exit(report, cfg)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="dualq",
                                     description="queue/store duality toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults: dict[str, dict] = {}

    def add(name, spec, help=""):
        p = sub.add_parser(name, help=help)
        d = {"output": None, "format": "json", "config": None}
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file supplying the same keys; flags override")
        p.add_argument("--output", default=argparse.SUPPRESS)
        p.add_argument("--format", choices=["json", "csv"], default=argparse.SUPPRESS)
        for flag, (typ, default, hlp) in spec.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=typ,
                           default=argparse.SUPPRESS, help=hlp)
            d[flag] = default
        defaults[name] = d
        return p

    add("verify-identities", {
        "n": (int, 6, "max customers"), "k": (int, 4, "max stages"),
        "max_entry": (int, 5, "entries drawn from {0..max}"),
        "cases": (int, 10000, "random matrices"), "seed": (int, 0, ""),
    }, help="six-way tableau/path/tandem identity on random matrices")
    add("burke", {
        "model": (str, "geom", "geom or exp"),
        "p": (float, 0.3, "arrival parameter (p or lambda)"),
        "q": (float, 0.6, "mark parameter (q or mu)"),
        "horizon": (int, 100000, ""), "burn_in": (int, 10000, ""),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
        "dump_samples": (str, "", "write raw (d, r) pairs to this CSV path"),
    }, help="joint output law of the equilibrium queue")
    add("zigzag-law", {
        "p": (float, 0.3, ""), "q": (float, 0.7, ""),
        "periods": (int, 100000, "busy periods"),
        "max_rise": (int, 4, "enumerate trajectories up to this rise"),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
    }, help="busy-period trajectory law")
    add("noncolliding", {
        "model": (str, "geom", "geom or exp"),
        "p": (float, 0.3, ""), "q": (float, 0.7, ""),
        "n": (int, 3, "prefix length"), "trunc": (int, 50, "conditioning horizon"),
        "reps": (int, 100000, "accepted samples"),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
    }, help="conditioned walks vs max/min functionals")
    add("interchange", {
        "q": (str, "0.3,0.6", "comma-separated stage weights"),
        "sigma": (str, "1,0", "0-based permutation"),
        "n": (int, 4, "customers"), "reps": (int, 100000, ""),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
    }, help="stage reordering leaves (D, R) unchanged")
    add("shape-law", {
        "q": (str, "0.3,0.5", "comma-separated stage weights"),
        "n": (int, 4, "rows"), "reps": (int, 100000, ""),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
    }, help="insertion-shape law and growth transitions")
    add("laguerre", {
        "k": (int, 3, "stages (square case)"), "reps": (int, 1000000, ""),
        "reference_mean": (float, 0.0, "0 means the exact 1/K"),
        "seed": (int, 0, ""), "alpha": (float, 0.01, ""),
    }, help="exponentiality of R in the square exponential case")
    add("particles", {
        "cases": (int, 1000, ""), "max_n": (int, 5, ""), "max_k": (int, 5, ""),
        "max_entry": (int, 5, ""), "seed": (int, 0, ""),
    }, help="particle-system equivalences on random instances")
    add("trace", {
        "a": (str, "0,3", "comma-separated arrival epochs"),
        "s": (str, "5,1", "comma-separated marks"),
        "w1": (float, 0.0, "initial wait"),
    }, help="per-customer trace table as CSV")
    defaults["trace"]["format"] = "csv"
    return parser, defaults


def main(argv=None) -> int:
    parser, defaults = _build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k != "subcommand"}
    config = {}
    if "config" in flags:
        with open(flags.pop("config")) as fh:
            config = json.load(fh)
    try:
        cfg = RunConfig(args.subcommand, defaults[args.subcommand], config, flags)
        if args.subcommand == "verify-identities":
            return _cmd_verify_identities(cfg)
        if args.subcommand == "particles":
            return _cmd_particles(cfg)
        if args.subcommand == "trace":
            return _cmd_trace(cfg)
        return _experiment_command(cfg)
    except (ValueError, OSError, stattest.InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
