"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest perfbench -q

They take a few minutes: every workload runs a few whole rounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_dualq()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dualq import tandem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(name: str, seed: int) -> dict:
    res = worker.run_workload(name, seed, 0, False)
    assert res["failed"] == 0
    return res["rounds"][0]["digests"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_alone_fixes_every_output(name):
    first, again, other = _digests(name, 5), _digests(name, 5), _digests(name, 6)
    assert first == again
    assert all(first[step] != other[step] for step in first)


# layers each workload is built to exercise, and layers it must leave idle
BUSY = {
    "exact": ({"cli", "rsk", "tandem", "particles", "sampling", "queue_store"},
              {"schur", "stattest"}),
    "montecarlo": ({"cli", "stattest", "schur", "tandem", "sampling"},
                   {"rsk", "particles"}),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_self_times_account_for_the_wall_time(name):
    res = worker.run_workload(name, 3, 0, True)
    assert res["failed"] == 0
    lm = {k: v["value"] for k, v in res["layer_metrics"].items()}
    assert set(lm) == {m["name"] for m in SPEC["per_layer"]}
    for r in res["rounds"]:
        if r["traced"]:
            # only the benchmark's own glue between spans is left over
            assert 0 <= r["wall_s"] - r["self_s_total"] <= 0.02 * r["wall_s"]
    self_total = sum(lm[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(self_total - res["wall_s"]) <= abs(lm["trace.overhead_s"]) + 0.02 * res["wall_s"]
    busy, idle = BUSY[name]
    assert all(lm[f"{layer}.self_s"] > 0 for layer in busy)
    assert all(lm[f"{layer}.self_s"] == 0 for layer in idle)


def test_reference_matches_the_tandem_kernels():
    gen = np.random.default_rng(0)
    shapes = [(1, 1), (1, 5), (5, 1), (2, 7), (7, 2)] + [
        tuple(gen.integers(1, 12, size=2)) for _ in range(200)]
    for n, k in shapes:
        u = gen.integers(0, 6, size=(n, k))
        assert reference.last_departure(u) == tandem.queue_departures(u)[-1, -1]
        assert reference.store_total(u) == tandem.store_flow(u)[2][-1]


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, kind):
    out = _bench(ROOT, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
