"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--spans FILE]

The loop is closed: rounds run one after another until the next one would
end past ``--seconds``.  With ``--trace 1`` rounds alternate untraced and
traced; the per-layer metrics come from the traced ones, and
``trace.overhead_s`` is the median traced round minus the median untraced one.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_dualq():
    """Import ``dualq`` from ``src/`` of this checkout and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import dualq
    import dualq.cli  # noqa: F401  (loads every layer module)

    if not Path(dualq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dualq was imported from {dualq.__file__}, not {src}")
    return dualq


class Caches:
    """Empties the program's functools caches before every step, as a fresh
    CLI process would find them, and tallies the ``ssyt_count`` hits."""

    def __init__(self):
        found = {id(v): v for mod in tracing.dualq_modules() for v in vars(mod).values()
                 if callable(getattr(v, "cache_clear", None)) and hasattr(v, "cache_info")}
        self.caches = list(found.values())
        self.ssyt = getattr(sys.modules["dualq.schur"], "ssyt_count", None)

    def fresh(self) -> tuple[int, int]:
        """Clear all caches; return ssyt_count's (hits, misses) since the last clear."""
        info = getattr(self.ssyt, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        for c in self.caches:
            c.cache_clear()
        return hits, misses


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans: str | None = None) -> dict:
    """Closed loop of rounds of workload ``name`` for about ``seconds``
    (at least one round, two when traced); returns the run's figures.
    A traced run writes its spans to ``spans`` when given."""
    make_steps = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    caches = Caches()
    rounds = []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while True:
        i = len(rounds)
        traced = trace and i % 2 == 1
        steps = make_steps(seed, i)
        times, outs = {}, []
        hits = misses = 0
        t_round = time.perf_counter()
        with tracer.traced(i) if traced else nullcontext():
            for step in steps:
                h, m = caches.fresh()
                hits, misses = hits + h, misses + m
                t0 = time.perf_counter()
                outs.append(step.run())
                times[step.name] = time.perf_counter() - t0
        h, m = caches.fresh()
        hits, misses = hits + h, misses + m
        record = {"traced": traced, "steps": times, "wall_s": sum(times.values()),
                  "digests": {}, "failed": [],
                  "extra": {"ssyt_hits": hits, "ssyt_misses": misses}}
        for step, out in zip(steps, outs):
            checked = step.check(out)
            attempted += checked.attempted
            failed += checked.failed
            record["digests"][step.name] = checked.digest
            if checked.failed:
                record["failed"].append(step.name)
            record["extra"].update(checked.notes)
            if step.subcommand:
                key = tracing.cli_metric(step.subcommand)
                record["extra"][key] = record["extra"].get(key, 0.0) + times[step.name]
        del outs
        if traced:
            record["self_s_total"] = tracing.self_time_total(tracer, i)
        record["round_s"] = time.perf_counter() - t_round
        rounds.append(record)
        # a traced run needs an untraced and a traced round; stop before the
        # next round would end past the time budget
        if len(rounds) >= (2 if trace else 1) and (
                time.perf_counter() - t_begin
                + statistics.median(r["round_s"] for r in rounds) > seconds):
            break

    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    result = {
        "workload": name, "seed": seed, "rounds": rounds,
        "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced_runs = [i for i, r in enumerate(rounds) if r["traced"]]
        overhead = statistics.median(rounds[i]["wall_s"] for i in traced_runs) - result["wall_s"]
        extra = {i: rounds[i]["extra"] for i in traced_runs}
        units = tracing.layer_units()
        result["layer_metrics"] = {
            k: {"value": v, "unit": units[k]}
            for k, v in tracing.layer_metrics(tracer, traced_runs, extra, overhead).items()}
        if spans:
            tracer.write(spans, t_begin)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (gzipped CSV)")
    args = ap.parse_args(argv)
    try:
        import_dualq()
    except ImportError as exc:
        print(f"error: cannot import dualq: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.spans)
    result["environment"] = {"python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
