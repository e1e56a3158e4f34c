"""Spans at the module boundaries of ``dualq``, recorded from outside it.

:class:`Tracer` replaces the public functions listed in :data:`LAYERS` with
wrappers, in every ``dualq`` namespace that binds them, and puts the
originals back afterwards; ``src/`` is never edited.  Each call through a
wrapper records one span (name, start, end, parent span, run id) in flat
in-memory arrays, plus work counts taken from its arguments and return
value.  :func:`layer_metrics` turns the spans into per-layer figures.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> functions wrapped at its boundary.  "Seed.generator" is a method.
# Recursive helpers (ssyt_count) and small same-layer helpers (word_of,
# trace_from_arrays) are left bare: a span per call would cost more than the
# work it measures, and their time stays in their layer's self time anyway.
LAYERS = {
    "cli": ("main",),
    "stattest": (
        "burke_experiment", "zigzag_law_experiment", "noncolliding_experiment",
        "interchange_experiment", "shape_law_experiment", "laguerre_check",
        "ks_test", "chi2_test", "chi2_two_sample", "independence_test",
        "lag1_test", "geometric_fit_test",
    ),
    "rsk": ("verify_row_queue", "tableau_of", "lambda_operators", "path_max",
            "path_min"),
    "particles": ("zero_range_run", "bus_stop_run", "bus_stop_step",
                  "to_exclusion", "from_exclusion", "exclusion_step"),
    "schur": ("shape_distribution", "transition_distribution"),
    "tandem": ("queue_departures", "store_flow", "tandem_trace", "tandem_outputs",
               "queue_departures_batch", "store_departures_batch"),
    "queue_store": ("transform", "lindley_forward", "busy_periods",
                    "zigzag_from_trace", "backward_check", "workload_pair",
                    "queue_length"),
    "sampling": ("Seed.generator", "sample_geometric", "sample_geometric0",
                 "sample_exponential", "sample_input", "reverse"),
}

SUBCOMMANDS = ("verify-identities", "particles", "burke", "zigzag-law",
               "noncolliding", "interchange", "shape-law", "laguerre")


def cli_metric(subcommand: str) -> str:
    """Per-layer metric holding the time of one CLI subcommand per round."""
    return f"cli.{subcommand.replace('-', '_')}.s"

# inclusive-time metrics: metric -> wrapped functions whose outermost spans
# it sums
TIMED = {
    **{f"queue_store.{f}.s": (f"queue_store.{f}",) for f in (
        "zigzag_from_trace", "busy_periods", "backward_check",
        "lindley_forward", "workload_pair", "transform")},
    **{f"tandem.{f}.s": (f"tandem.{f}",) for f in (
        "queue_departures", "store_flow", "queue_departures_batch",
        "store_departures_batch")},
    **{f"rsk.{f}.s": (f"rsk.{f}",) for f in (
        "tableau_of", "lambda_operators", "path_max", "path_min")},
    **{f"schur.{f}.s": (f"schur.{f}",) for f in (
        "shape_distribution", "transition_distribution")},
    **{f"particles.{f}.s": (f"particles.{f}",) for f in (
        "zero_range_run", "bus_stop_run")},
    **{f"stattest.{e}.s": (f"stattest.{f}",) for f, e in (
        ("burke_experiment", "burke"), ("zigzag_law_experiment", "zigzag_law"),
        ("noncolliding_experiment", "noncolliding"),
        ("interchange_experiment", "interchange"),
        ("shape_law_experiment", "shape_law"), ("laguerre_check", "laguerre"))},
    "stattest.gof.s": tuple(f"stattest.{f}" for f in (
        "ks_test", "chi2_test", "chi2_two_sample", "independence_test",
        "lag1_test", "geometric_fit_test")),
}


def _cells(U) -> int:
    return int(np.asarray(getattr(U, "u", U)).size)


def _size(a, r) -> int:
    return r.size


def _length(a, r) -> int:
    return len(r)


def _customers_in(a, r) -> int:
    return len(a[0])


def _cells_in(a, r) -> int:
    return _cells(a[0])


# wrapped function -> work counters it adds to, each a function of the
# call's (args, result)
COUNTS = {
    "sample_geometric": (("sampling.draws", _size),),
    "sample_geometric0": (("sampling.draws", _size),),
    "sample_exponential": (("sampling.draws", _size),),
    "transform": (("queue_store.customers", _length),),
    "lindley_forward": (("queue_store.customers", _length),),
    "busy_periods": (("queue_store.customers", _customers_in),
                     ("queue_store.periods", _length)),
    "backward_check": (("queue_store.customers", _customers_in),),
    "workload_pair": (("queue_store.customers", _customers_in),),
    "zigzag_from_trace": (("queue_store.customers", lambda a, r: len(a[1].customers)),),
    "queue_departures": (("tandem.cells", _cells_in),),
    "store_flow": (("tandem.cells", _cells_in),),
    "queue_departures_batch": (("tandem.cells", _cells_in),),
    "store_departures_batch": (("tandem.cells", _cells_in),),
    "tableau_of": (("rsk.letters", lambda a, r: len(a[0])),),
    "zero_range_run": (("particles.events", _length),),
    "bus_stop_run": (("particles.events", _size),),
}
COUNTED = ("sampling.draws", "queue_store.customers", "queue_store.periods",
           "tandem.cells", "rsk.letters", "particles.events")


def dualq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dualq" or name.startswith("dualq."))]


class Tracer:
    """Span recorder for the traced rounds of one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}  # run id -> work counts
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, full: str, fn, run_id: int):
        if full not in self._index:
            self._index[full] = len(self.names)
            self.names.append(full)
        idx = self._index[full]
        counters = COUNTS.get(full.split(".")[-1], ())
        counts = self.counts[run_id]
        stack, name_id, parent, run = self._stack, self.name_id, self.parent, self.run
        start, end, clock = self.start, self.end, time.perf_counter

        def wrapper(*args, **kwargs):
            # stamps first and last, so the span's own bookkeeping is inside it
            t0 = clock()
            sid = len(start)
            start.append(t0)
            end.append(t0)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            run.append(run_id)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                for key, work in counters:
                    counts[key] = counts.get(key, 0) + int(work(args, result))
                return result
            finally:
                stack.pop()
                end[sid] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, run_id: int) -> None:
        mods = dualq_modules()
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"dualq.{layer}"]
            for name in funcs:
                if "." in name:  # a method: patch the class
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(f"{layer}.{name}", orig, run_id))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", orig, run_id)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()

    @contextmanager
    def traced(self, run_id: int):
        """Wrap the boundaries for one round; spans carry ``run_id``."""
        self.counts.setdefault(run_id, {})
        self.install(run_id)
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path, t0: float) -> None:
        """Spans as gzipped CSV, times in seconds from ``t0``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{self.run[sid]},{sid},{self.parent[sid]},"
                         f"{names[self.name_id[sid]]},{self.start[sid] - t0:.9f},"
                         f"{self.end[sid] - t0:.9f}\n")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in a fixed order; all are reported on every
    workload, zero where the layer is idle."""
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "calls")]
    names += list(COUNTED) + list(TIMED)
    names += ["rsk.verify_row_queue.p50_ms", "rsk.verify_row_queue.p99_ms",
              "rsk.verify_row_queue.samples", "schur.ssyt_count.hit_ratio",
              "stattest.noncolliding.acceptance"]
    names += [cli_metric(s) for s in SUBCOMMANDS]
    names += ["trace.overhead_s", "trace.spans"]
    return names


def layer_units() -> dict[str, str]:
    units = {}
    for n in layer_metric_names():
        if n.endswith("_s") or n.endswith(".s"):
            units[n] = "s"
        elif n.endswith("_ms"):
            units[n] = "ms"
        elif n.endswith("hit_ratio") or n.endswith("acceptance"):
            units[n] = "ratio"
        else:
            units[n] = "count"
    return units


def _spans(tracer: Tracer) -> dict:
    """The span arrays as numpy arrays, with each span's self time."""
    parent = np.array(tracer.parent, dtype=np.int64)
    dur = np.array(tracer.end) - np.array(tracer.start)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    layers = np.array([n.split(".")[0] for n in tracer.names] + [""], dtype=object)
    name_id = np.array(tracer.name_id, dtype=np.int64)
    span_layer = layers[name_id]
    parent_layer = layers[np.where(has_parent, name_id[np.maximum(parent, 0)], -1)]
    return {"name": np.array(tracer.names + [""], dtype=object)[name_id],
            "layer": span_layer, "parent": parent, "dur": dur, "self": dur - child,
            "run": np.array(tracer.run, dtype=np.int64),
            "entry": parent_layer != span_layer}


def _outermost(in_group: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans of the group with no ancestor in the group, so nested calls
    (geometric_fit_test inside chi2_test's group) are not counted twice."""
    inside = np.zeros_like(in_group)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        inside[live] |= in_group[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return in_group & ~inside


def layer_metrics(tracer: Tracer, runs: list[int], extra: dict[int, dict],
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: the median over the traced rounds ``runs`` of each
    round's figure.  ``extra`` holds per-round figures taken outside the
    spans: cache statistics, CLI subcommand times and report diagnostics."""
    sp = _spans(tracer)
    outer = {metric: _outermost(np.isin(sp["name"], names), sp["parent"])
             for metric, names in TIMED.items()}
    rows = []
    for r in runs:
        sel = sp["run"] == r
        counts, ext = tracer.counts.get(r, {}), extra.get(r, {})
        row = {}
        for layer in LAYERS:
            mine = sel & (sp["layer"] == layer)
            row[f"{layer}.self_s"] = float(sp["self"][mine].sum())
            row[f"{layer}.calls"] = int((mine & sp["entry"]).sum())
        for key in COUNTED:
            row[key] = counts.get(key, 0)
        for metric, mask in outer.items():
            row[metric] = float(sp["dur"][sel & mask].sum())
        hits, misses = ext.get("ssyt_hits", 0), ext.get("ssyt_misses", 0)
        row["schur.ssyt_count.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        row["stattest.noncolliding.acceptance"] = ext.get("noncolliding_acceptance", 0.0)
        for s in SUBCOMMANDS:
            row[cli_metric(s)] = ext.get(cli_metric(s), 0.0)
        row["trace.spans"] = int(sel.sum())
        rows.append(row)
    out = {name: float(statistics.median(row[name] for row in rows))
           for name in rows[0]}
    vrq = sp["dur"][np.isin(sp["run"], runs) & (sp["name"] == "rsk.verify_row_queue")] * 1e3
    out["rsk.verify_row_queue.p50_ms"] = float(np.median(vrq)) if vrq.size else 0.0
    out["rsk.verify_row_queue.p99_ms"] = float(np.quantile(vrq, 0.99)) if vrq.size else 0.0
    out["rsk.verify_row_queue.samples"] = float(vrq.size)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in layer_metric_names()}


def self_time_total(tracer: Tracer, run: int) -> float:
    """Sum over layers of self time in one traced round."""
    sp = _spans(tracer)
    return float(sp["self"][sp["run"] == run].sum())
