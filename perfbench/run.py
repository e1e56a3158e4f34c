"""dualq benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload exact|montecarlo \
        --seed N --seconds S --trace 0|1

The run measures set-up time (fresh interpreters running ``python -m dualq
--help``: import plus CLI parser), then runs the workload in a fresh,
single-threaded worker process for about ``S`` seconds, checks every output
outside the timed region, and prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones.  The full record of the run
(environment, per-round step times, output digests) is written to
``.perfbench/runs/`` and the spans of a traced run to ``.perfbench/spans/``.
The program is imported from ``src/`` of the checkout; without it the run
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("exact", "montecarlo")
SETUP_REPEATS = 5       # timed fresh interpreters, after one untimed warm-up
DEADLINE_S = 170.0      # the whole run, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Wall time of fresh ``python -m dualq --help`` processes."""
    cmd = [sys.executable, "-m", "dualq", "--help"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        if i:  # the first one fills the bytecode and file caches
            times.append(time.perf_counter() - t0)
    return times


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha() -> str:
    """Digest of the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dualq benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dualq" / "__init__.py").is_file():
        print(f"error: no dualq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        setup = measure_setup(env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up run failed: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / "spans" / f"{tag}.csv.gz")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: the workload overran the run deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(result["wall_s"], "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"git_sha": git_sha(), "source_sha256": source_sha(),
                        **result["environment"], **cpu_info(),
                        "thread_env": {v: env[v] for v in THREAD_VARS}},
        "setup_samples_s": setup,
        "rounds": result["rounds"],
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
