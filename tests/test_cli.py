import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from dualq import _commands, cli, particles, rsk, schur, tandem
from dualq.cli import main
from dualq.sampling import Seed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify-identities", "--cases", "200",
                       "--n", "4", "--k", "3", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["tests"][0]["name"] == "six-way-identity"
    assert payload["tests"][0]["statistic"] == 0


def test_trace_hand_example(capsys):
    code, out, _ = run(capsys, "trace", "--a", "0,3", "--s", "5,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,A,s,D,r,w"
    assert lines[1] == "1,0,5,5,3,0"
    assert lines[2] == "2,3,1,6,,2"


def test_trace_to_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "trace", "--a", "1,2,9", "--s", "2,2,1",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,A,s,D,r,w")


def test_burke_small_run(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "burke", "--model", "geom", "--p", "0.3",
                     "--q", "0.6", "--horizon", "5000", "--seed", "1",
                     "--output", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "pass"
    assert payload["params"]["horizon"] == 5000


def test_burke_dump_samples(tmp_path, capsys):
    dump = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "burke", "--model", "geom", "--horizon", "2000", "--seed", "1",
                     "--dump-samples", str(dump))
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "n,d,r"
    assert len(lines) == 2001


def test_burke_csv_format(capsys):
    code, out, _ = run(capsys, "burke", "--model", "geom", "--horizon", "5000",
                       "--seed", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "test,statistic,p_value,n_samples,alpha,passed"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 4000, "seed": 9}))
    code, out, _ = run(capsys, "burke", "--config", str(cfg), "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["horizon"] == 4000
    assert payload["seed"]["master"] == 11  # flag beats config


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizons": 4000}))
    code, _, err = run(capsys, "burke", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_unstable_params_exit_usage_error(capsys):
    code, _, err = run(capsys, "burke", "--model", "geom", "--p", "0.7",
                       "--q", "0.3", "--horizon", "1000")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_failing_verdict_exits_one(capsys):
    code, out, _ = run(capsys, "laguerre", "--k", "3", "--reps", "20000",
                       "--reference-mean", "3.0", "--seed", "2")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_particles_subcommand(capsys):
    code, out, _ = run(capsys, "particles", "--cases", "60", "--seed", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_zigzag_subcommand(capsys):
    code, out, _ = run(capsys, "zigzag-law", "--periods", "8000", "--seed", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_interchange_subcommand(capsys):
    code, out, _ = run(capsys, "interchange", "--q", "0.3,0.6", "--sigma", "1,0",
                       "--n", "3", "--reps", "8000", "--seed", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_noncolliding_subcommand(capsys):
    code, out, _ = run(capsys, "noncolliding", "--model", "geom", "--p", "0.3",
                       "--q", "0.7", "--n", "2", "--reps", "8000", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["diagnostics"]["acceptance_rate"] > 0.2
    assert payload["diagnostics"]["proposals"] * payload["diagnostics"]["acceptance_rate"] \
        == pytest.approx(2 * 8000)


def test_reports_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "shape-law", "--reps", "4000", "--seed", "8")
    _, out2, _ = run(capsys, "shape-law", "--reps", "4000", "--seed", "8")
    assert out1 == out2


# sha256 of seeded reports, recorded before the tandem, shape and sampler
# kernels were consolidated; the reports must not move by a byte.  The first
# group holds integer counts only.  The second carries p-values from scipy,
# whose last bits may differ on another numpy/scipy, so it is checked only
# on the versions it was recorded with.
EXACT_DIGESTS = {
    ("verify-identities", "--cases", "300", "--seed", "0"):
        "376a95ffc7f1329f6462dccd30aad50ac2ba9c0b33b60b78e8aba0764faf572b",
    ("verify-identities", "--cases", "300", "--seed", "1"):
        "92eaf185c3614976d445c79b4b56064ecbcdd141e0358e459eb6e48acac8d994",
    ("particles", "--cases", "100", "--seed", "0"):
        "6319e1bad924b6229e3a14db953ddf6fa7e66504762111a37819f0a1f4aad5a1",
    ("particles", "--cases", "100", "--seed", "1"):
        "9204848d18a3bdfbc97fbdcff869e65f02160e6e7b7ae0617db82ae70fac9ef6",
    # the benchmark's size, 10^4 cases up to 6 x 6
    ("verify-identities", "--n", "6", "--k", "6", "--max-entry", "5", "--seed", "1000"):
        "e2190913bb74a7d7ed6b4a66118d22de83f39b843de8c7cfce32665306fc1861",
}
RECORDED_WITH = ("2.4.6", "1.17.1")  # numpy, scipy
SCIPY_DIGESTS = {
    ("shape-law", "--reps", "3000", "--seed", "0"):
        "cacd6421f1c0f6cfb4873be91901c06074a93c0309f9fbe317d9d5b80641cede",
    ("shape-law", "--reps", "3000", "--seed", "1"):
        "4a1e5ea71195cdfe66ed294a05e607b3cf7a61b82638368f7f57814124be80be",
    ("interchange", "--reps", "3000", "--seed", "0"):
        "246e7ad8925e8e631ba6e080eca51c4b5ede0be123a03a9d117abd298ab9660a",
    ("interchange", "--reps", "3000", "--seed", "1"):
        "6a3ebb11b5008c8ec0b6b318e45a7da813cb0fe09cf3292bd0cfda45f3bf841e",
    ("laguerre", "--reps", "20000", "--seed", "0"):
        "f90c3a1fc7b4bbbf166e58631710cf0f1423b2af5c3f006fe2e5c8a1bb001bfc",
    ("laguerre", "--reps", "20000", "--seed", "1"):
        "8100cded8dcbaf2c483a4dbcc6c49c99df0087ac98059a74312e68e245573ad5",
    # re-recorded when burke stopped discarding a 10^4-customer burn-in and
    # started customer 1 from the stationary wait: the trace, the tests and
    # the params/diagnostics keys all changed
    ("burke", "--horizon", "20000", "--seed", "0"):
        "c45667963432c6ce7d4f5a830a54c690cf44dc4abc092ad242b72b68fffe4daa",
    ("burke", "--model", "exp", "--horizon", "20000", "--seed", "0"):
        "5d7c911f941f3fa1bb08cfe541e34c843d1d40e97290bb624cab1491f4addd9f",
    # re-recorded when zigzag-law started to draw its queue input through
    # sample_input: gaps now come from substream 0 and marks from substream
    # 1 (they were swapped), so the periods differ; the tests and keys do not.
    # The 3000-period run at p = 0.55 draws several blocks
    ("zigzag-law", "--periods", "20000", "--seed", "0"):
        "a1e91049ac5516cb43b77fd75eb4e828d084a00d6f6cfe48adcd7723d2b0d481",
    ("zigzag-law", "--p", "0.55", "--q", "0.6", "--periods", "3000", "--seed", "0"):
        "60e2fd8be8409701b35e2283606cad3a6e4eb9183d59131c5dd6d994bb2b5ed7",
    # re-recorded when noncolliding replaced its 50-step rejection of whole
    # walks by the exact h-transform sampler: the draws, the diagnostics and
    # the params (no horizon_trunc) all changed
    ("noncolliding", "--reps", "20000", "--seed", "0"):
        "6f340ade60cda4cb77dc90a0d8520afc7928a3f03739eba7b648244604d05348",
    ("noncolliding", "--model", "exp", "--reps", "20000", "--seed", "0"):
        "cb5d98b2155b83c924a6b6326366fa2afb2f2f8e42c0e699d653f5841e141b8a",
    # recorded before the experiments moved to replication-innermost kernels,
    # buffered rejection walks and per-row category counts: three stages, a
    # single row, one-step and six-step walks, K = 1 and K = 5; the two
    # noncolliding walks re-recorded with the h-transform sampler, as above
    ("interchange", "--q", "0.2,0.3,0.4", "--sigma", "2,0,1", "--n", "6", "--reps", "3000",
     "--seed", "0"):
        "ec611db7b2ec9f3471827802f5221870b18eb1a3e1437b73e387a637f806958f",
    ("shape-law", "--q", "0.2,0.4,0.6", "--n", "1", "--reps", "3000", "--seed", "0"):
        "715c4f842aa5b7f12b1b5f9a7781aa596940261f7d70f3cedc85a63057e1333e",
    ("noncolliding", "--n", "1", "--reps", "20000", "--seed", "0"):
        "62920613309c0cb08494e9d21899c450b08955993e1f80c4a8c8a605ed579889",
    ("noncolliding", "--n", "6", "--model", "exp", "--reps", "20000", "--seed", "0"):
        "45df722197d97b9174220b5ee69d77a1e3ccacb8379e236502c7d8dea51aab6c",
    ("laguerre", "--k", "1", "--reps", "20000", "--seed", "0"):
        "d1948b6632b4c5c815f4bffe21b8168a7b632764cac8613a7c34ad24e504cb52",
    ("laguerre", "--k", "5", "--reps", "20000", "--seed", "0"):
        "4c8e3304471cffc8299f7fdb447910e75b2db383fa10b1ba0c720a95bf2f18cf",
    # recorded before the category counts moved to int64 row keys: the 30-long
    # departure prefixes overflow int64 keys, so the partial keys are re-ranked
    ("interchange", "--q", "0.02,0.03,0.05", "--sigma", "2,0,1", "--n", "30",
     "--reps", "20000", "--seed", "7"):
        "ec3ed41bb8087c1375d43af5bb835d63a4bbb82a0a27abde28290b21295475fb",
    # recorded before shape-law cut its pmfs at half the chi-square's cell
    # bound instead of 1e-12 and 1e-9; the run went from about 40 s to 3 s
    ("shape-law", "--q", "0.2,0.4,0.6", "--n", "6", "--reps", "20000", "--seed", "1"):
        "41374128772c40bc4232f87fd31f905b3e7b93252514138e168466db15f139f7",
}


def _report_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(EXACT_DIGESTS))
def test_exact_reports_pinned(capsys, argv):
    assert _report_digest(capsys, argv) == EXACT_DIGESTS[argv]


@pytest.mark.skipif((np.__version__, scipy.__version__) != RECORDED_WITH,
                    reason="digests recorded with numpy %s, scipy %s" % RECORDED_WITH)
@pytest.mark.parametrize("argv", sorted(SCIPY_DIGESTS))
def test_experiment_reports_pinned(capsys, argv):
    assert _report_digest(capsys, argv) == SCIPY_DIGESTS[argv]


# --- blocks and reproducers of the random-case checks ---------------------------

def _stream_rows(seed, j, rows, low, high, size=()):
    """The first ``rows`` draws of substream j of a random-case run, one
    array of shape ``size`` with values in low..high per case."""
    return Seed(seed).substream(j).generator().integers(low, high + 1, size=(rows, *size))


def _case_matrix(seed, i, max_n, max_k, max_entry=5):
    """Case i's matrix from fresh generators of streams 0-2: the top-left
    n_i x k_i corner of the i-th max_n x max_k entry draw."""
    n = _stream_rows(seed, 0, i + 1, 1, max_n)[i]
    k = _stream_rows(seed, 1, i + 1, 1, max_k)[i]
    return _stream_rows(seed, 2, i + 1, 0, max_entry, (max_n, max_k))[i, :n, :k].tolist()


def _fresh_particle_inputs(seed, i, max_n, max_k, max_entry=5):
    """Case i of particles from fresh generators of streams 0-4: the matrix,
    then its first k_i site counts (before the reservoir is added) and buses."""
    u = _case_matrix(seed, i, max_n, max_k, max_entry)
    return (u, *(_stream_rows(seed, j, i + 1, 0, 5, (max_k,))[i, :len(u[0])].tolist()
                 for j in (3, 4)))


_CHECKS = {"verify-identities": "_six_way_failures", "particles": "_particle_failures"}


def _recording_run(capsys, monkeypatch, argv):
    """Run argv; return its (code, out, err), every case its check saw as
    (matrix, *site rows), and the number of cases of each block."""
    name = _CHECKS[argv[0]]
    real = getattr(cli, name)
    cases, blocks = [], []

    def recording(n, k, E, sites):
        blocks.append(len(n))
        cases.extend((E[j, :n[j], :k[j]].tolist(), *(s[j, :k[j]].tolist() for s in sites))
                     for j in range(len(n)))
        return real(n, k, E, sites)

    monkeypatch.setattr(cli, name, recording)
    try:
        return run(capsys, *argv), cases, blocks
    finally:
        monkeypatch.setattr(cli, name, real)


_RUNS = {"verify-identities": ("verify-identities", "--cases", "50", "--n", "5", "--k", "5",
                               "--seed", "3"),
         "particles": ("particles", "--cases", "50", "--seed", "3")}  # 5 x 5 at most


@pytest.mark.parametrize("some_fail", [False, True])
@pytest.mark.parametrize("subcommand", sorted(_RUNS))
def test_blocks_do_not_change_the_cases_or_the_report(capsys, monkeypatch, subcommand,
                                                      some_fail):
    if some_fail:  # cases whose entries sum to a multiple of 7 fail
        real = tandem.queue_departures_batch
        monkeypatch.setattr(tandem, "queue_departures_batch", lambda u: real(u) + (
            u.sum(axis=(1, 2)) % 7 == 0)[:, None, None])
    budget = cli.CASE_ENTRIES
    runs = []
    for per_block in (1, 3, None):  # None: as many as the budget holds, here all 50
        monkeypatch.setattr(cli, "CASE_ENTRIES", 25 * per_block if per_block else budget)
        runs.append(_recording_run(capsys, monkeypatch, _RUNS[subcommand]))
    assert [blocks for _, _, blocks in runs] == [[1] * 50, [3] * 16 + [2], [50]]
    report, cases, _ = runs[0]
    assert all(r == report and c == cases for r, c, _ in runs)
    if subcommand == "particles":
        assert cases == [_fresh_particle_inputs(3, i, 5, 5) for i in range(50)]
    else:
        assert cases == [(_case_matrix(3, i, 5, 5),) for i in range(50)]
    payload = json.loads(report[1])
    failing = [i for i, (u, *_) in enumerate(cases) if np.sum(u) % 7 == 0]
    assert report[0] == (1 if some_fail else 0)
    assert payload["tests"][0]["statistic"] == (len(failing) if some_fail else 0)
    if some_fail:
        assert 0 < len(failing) < 50
        first = payload["diagnostics"]["first_failure"]
        assert first["case"] == failing[0] and first["matrix"] == cases[failing[0]][0]
    else:
        assert "diagnostics" not in payload


@pytest.mark.parametrize("budget, n_max, k_max, cases", [
    (cli.CASE_ENTRIES, 6, 6, 10000),   # the benchmark's size: 4096 cases a block
    (cli.CASE_ENTRIES, 40, 30, 500),
    (100, 7, 7, 10),                  # a matrix over the budget: one a block
    (100, 3, 4, 30),
])
def test_no_block_draws_more_entries_than_the_budget(monkeypatch, budget, n_max, k_max,
                                                     cases):
    monkeypatch.setattr(cli, "CASE_ENTRIES", budget)
    blocks = list(cli._case_blocks(5, cases, n_max, k_max, 5, site_draws=True))
    sizes = [len(n) for _, n, *_ in blocks]
    assert [lo for lo, *_ in blocks] == [sum(sizes[:b]) for b in range(len(sizes))]
    assert sum(sizes) == cases and max(sizes) == max(1, budget // (n_max * k_max))
    for _, n, k, E, sites in blocks:
        assert E.size <= max(budget, n_max * k_max)
        assert E.shape == (len(n), n_max, k_max)
        assert [s.shape for s in sites] == [(len(n), k_max)] * 2


def test_verify_identities_names_first_failure(capsys, monkeypatch):
    real = tandem.queue_departures_batch
    monkeypatch.setattr(tandem, "queue_departures_batch", lambda u: real(u) + 1)
    code, out, _ = run(capsys, "verify-identities", "--cases", "20", "--seed", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["tests"][0]["statistic"] == 20
    first = payload["diagnostics"]["first_failure"]
    assert first["case"] == 0
    assert first["matrix"] == _case_matrix(4, 0, 6, 4)
    lam1, lamK = first["lambda1"], first["lambdaK"]
    assert lam1[:3] == [lam1[0]] * 3 and lam1[3] == lam1[0] + 1
    assert lamK == [lamK[0]] * 4


def _more_loads(real):
    """``particles._bus_stop_slots`` with every load one too many."""
    def wrong(u, reservoir):
        history, moves = real(u, reservoir)
        return history, [[x + 1 for x in row] for row in moves]
    return wrong


def test_particles_names_first_failure(capsys, monkeypatch):
    monkeypatch.setattr(particles, "_bus_stop_slots", _more_loads(particles._bus_stop_slots))
    code, out, _ = run(capsys, "particles", "--cases", "10", "--seed", "4")
    assert code == 1
    first = json.loads(out)["diagnostics"]["first_failure"]
    assert first == {"case": 0, "matrix": _case_matrix(4, 0, 5, 5),
                     "equivalences": ["bus-stop-loads"]}


_BREAKS = {  # equivalence -> the particle core it reads, and a wrong version of it
    "zero-range-jumps": ("_zero_range_log", lambda real: lambda u, N, K: (
        (p, j, t + 1) for p, j, t in real(u, N, K))),
    "bus-stop-loads": ("_bus_stop_slots", _more_loads),
    "exclusion-inverse": ("_gap_counts", lambda real: lambda cells: real(cells) + [0]),
    "exclusion-step": ("_exclusion_slot",
                       lambda real: lambda cells, buses: real(cells, buses) + [1]),
}


@pytest.mark.parametrize("equivalence", sorted(_BREAKS))
def test_particle_failure_names_the_broken_equivalence(capsys, monkeypatch, equivalence):
    name, wrong = _BREAKS[equivalence]
    monkeypatch.setattr(particles, name, wrong(getattr(particles, name)))
    code, out, _ = run(capsys, "particles", "--cases", "10", "--seed", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["tests"][0]["statistic"] == 10
    assert payload["diagnostics"]["first_failure"]["equivalences"] == [equivalence]


def test_particle_case_on_which_an_oracle_raises_fails_by_name(capsys, monkeypatch):
    # an oracle that raises on one drawn case fails that case, not the run
    real = particles._exclusion_slot

    def clip_past_the_edge(cells, buses):
        if sum(buses) > 10:
            raise IndexError("list assignment index out of range")
        return real(cells, buses)

    monkeypatch.setattr(particles, "_exclusion_slot", clip_past_the_edge)
    code, out, _ = run(capsys, "particles", "--cases", "10", "--seed", "4")
    assert code == 1
    payload = json.loads(out)
    raised = [i for i in range(10) if sum(_fresh_particle_inputs(4, i, 5, 5)[2]) > 10]
    assert 0 < len(raised) < 10
    assert payload["tests"][0]["statistic"] == len(raised)
    assert payload["diagnostics"]["first_failure"] == {
        "case": raised[0], "matrix": _case_matrix(4, raised[0], 5, 5),
        "error": "IndexError: list assignment index out of range"}


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refuse


# the checking, converting entry points a random-case check must not call per
# case: the cases run the list-level cores on one tolist() per shape group
_PER_CASE = [(rsk, "tableau_of"), (rsk, "_letters"), (particles, "JumpEvent"),
             (particles, "to_exclusion"), (particles, "from_exclusion"),
             (particles, "exclusion_step"), (particles, "bus_stop_run"),
             (tandem, "ServiceMatrix")]


@pytest.mark.parametrize("subcommand", ["verify-identities", "particles"])
def test_random_cases_make_no_numpy_round_trip_per_case(capsys, monkeypatch, subcommand):
    for module, name in _PER_CASE:
        monkeypatch.setattr(module, name, _refused(f"{module.__name__}.{name}"))
    code, out, _ = run(capsys, subcommand, "--cases", "200")
    assert code == 0
    assert json.loads(out)["tests"][0]["statistic"] == 0


def test_passing_csv_report_is_the_test_table(capsys):
    code, out, _ = run(capsys, "verify-identities", "--cases", "50", "--format", "csv")
    assert code == 0
    assert out == ("test,statistic,p_value,n_samples,alpha,passed\r\n"
                   "six-way-identity,0,1.0,50,0.0,True\r\n")


@pytest.mark.parametrize("argv, name, broken", [
    (["verify-identities", "--cases", "50"], "queue_departures_batch",
     lambda real: lambda u: real(u) + 1),
    (["particles", "--cases", "20"], "_bus_stop_slots", _more_loads),
], ids=["verify-identities", "particles"])
def test_failing_csv_report_names_its_reproducer(capsys, monkeypatch, argv, name, broken):
    # the CSV of a failing report carries what its JSON carries to reproduce it
    module = tandem if name in vars(tandem) else particles
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    code, out, _ = run(capsys, *argv, "--seed", "4")
    assert code == 1
    payload = json.loads(out)
    code, out, _ = run(capsys, *argv, "--seed", "4", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[:2] == [["test", "statistic", "p_value", "n_samples", "alpha", "passed"],
                        [payload["tests"][0]["name"], str(payload["tests"][0]["statistic"]),
                         "0.0", argv[-1], "0.0", "False"]]
    assert rows[2:4] == [[], ["key", "value"]]
    assert {key: json.loads(value) for key, value in rows[4:]} == {
        "seed": payload["seed"], "params": payload["params"],
        "first_failure": payload["diagnostics"]["first_failure"]}


@pytest.mark.parametrize("subcommand", ["burke", "verify-identities", "particles"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_two(capsys, subcommand, seed):
    # masked to 64 bits, --seed -1 drew the stream of seed 2**64 - 1
    code, out, err = run(capsys, subcommand, "--seed", seed)
    assert code == 2 and out == ""
    assert "seed master must lie in 0..2**64 - 1" in err


# --- config types, dropped and invalid inputs ----------------------------------

@pytest.mark.parametrize("subcommand, config", [
    ("burke", {"seed": 1.5}),          # int flag, JSON float
    ("burke", {"seed": 2.0}),          # int flag, integral JSON float
    ("burke", {"horizon": "100"}),     # int flag, JSON string
    ("burke", {"seed": True}),         # int flag, JSON bool
    ("burke", {"alpha": "0.1"}),       # float flag, JSON string
    ("burke", {"p": False}),           # float flag, JSON bool
    ("burke", {"model": 1}),           # str flag, JSON number
    ("burke", {"dump_samples": None}),  # str flag, JSON null
    ("trace", {"w1": [0]}),            # float flag, JSON list
    ("interchange", {"q": [0.3, 0.6]}),
])
def test_config_value_of_wrong_type_exits_two(tmp_path, capsys, subcommand, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, subcommand, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(next(iter(config))) in err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["horizon"]))
    code, _, err = run(capsys, "burke", "--config", str(cfg))
    assert code == 2 and err.startswith("error:")


def test_config_int_valued_float_matches_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "exp", "p": 1, "q": 2, "horizon": 3000}))
    from_config = run(capsys, "burke", "--config", str(cfg))
    from_flags = run(capsys, "burke", "--model", "exp", "--p", "1", "--q", "2",
                     "--horizon", "3000")
    assert from_config == from_flags
    assert json.loads(from_config[1])["params"]["arrival"] == 1.0


@pytest.mark.parametrize("argv", [
    ("--alpha", "nan"),                                  # wrote "alpha": NaN, exit 1
    ("--alpha=-1", "--reference-mean", "100"),           # passed a KS test at p = 4.8e-184
])
def test_alpha_outside_the_open_unit_interval_exits_two(capsys, argv):
    code, out, err = run(capsys, "laguerre", "--reps", "100", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "alpha must lie strictly in (0, 1)" in err


def _no_draws(self):
    raise AssertionError("drew before the inputs were checked")


@pytest.mark.parametrize("alpha", ["nan", "0"])
@pytest.mark.parametrize("subcommand", ["burke", "zigzag-law", "noncolliding",
                                        "interchange", "shape-law", "laguerre"])
def test_alpha_is_checked_before_the_first_draw(monkeypatch, capsys, subcommand, alpha):
    # laguerre --alpha nan ran its 10^6 reps (about 1 s) before it exited 2
    monkeypatch.setattr(Seed, "generator", _no_draws)
    code, out, err = run(capsys, subcommand, "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha must lie strictly in (0, 1)" in err


@pytest.mark.parametrize("mean", ["0", "-5", "nan", "inf"])
def test_reference_mean_must_be_positive_and_finite(monkeypatch, capsys, mean):
    # 0, -5 and nan quietly tested against the exact 1/K and exited 0
    monkeypatch.setattr(Seed, "generator", _no_draws)
    code, out, err = run(capsys, "laguerre", "--reps", "100", f"--reference-mean={mean}")
    assert code == 2 and out == ""
    assert "reference_mean must be positive and finite" in err


@pytest.mark.parametrize("subcommand", ["burke", "laguerre", "verify-identities"])
def test_format_is_checked_before_the_first_draw(monkeypatch, capsys, tmp_path, subcommand):
    # a bad "format" in a config file ran the whole experiment before it exited 2
    monkeypatch.setattr(Seed, "generator", _no_draws)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    for argv in (("--config", str(cfg)), ("--format", "xml")):
        code, out, err = run(capsys, subcommand, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "unknown format 'xml'; use json or csv" in err


def test_help_names_the_formats(capsys):
    with pytest.raises(SystemExit):
        main(["burke", "--help"])
    assert "json or csv" in capsys.readouterr().out


def test_verify_identities_checks_the_path_limit_before_the_first_draw(monkeypatch, capsys):
    # --cases 2000 drew and checked cases until one drew n + k = 15, then exited 2;
    # --cases 3 passed, because no case happened to draw that size
    monkeypatch.setattr(Seed, "generator", _no_draws)
    for cases in ("3", "2000"):
        code, out, err = run(capsys, "verify-identities", "--n", "8", "--k", "7",
                             "--cases", cases)
        assert code == 2 and out == ""
        assert f"n + k = 15 exceeds the brute-force limit {rsk.BRUTE_FORCE_LIMIT}" in err


def test_verify_identities_runs_at_the_path_limit(capsys):
    code, out, _ = run(capsys, "verify-identities", "--n", "7", "--k", "7", "--cases", "20")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ("--q", "0.999,0.5", "--n", "2", "--reps", "50"),           # ran for over 120 s
    ("--q", "0.5,0.6,0.7", "--n", "20", "--reps", "20000"),    # exited 2 after 166 s
    ("--q", "0.2,0.4,0.6,0.3", "--n", "8", "--reps", "20000"),  # killed after 73 CPU minutes
], ids=["weight-near-one", "twenty-rows", "four-stages"])
def test_shape_law_past_the_shape_budget_exits_two_before_the_first_draw(
        monkeypatch, capsys, argv):
    monkeypatch.setattr(Seed, "generator", _no_draws)
    code, out, err = run(capsys, "shape-law", *argv)
    assert code == 2 and out == ""
    assert f"past the shape budget {schur.SHAPE_BUDGET}" in err


@pytest.mark.parametrize("argv, message", [
    (("zigzag-law", "--p", "0.7", "--q", "0.3"), "0 < p < q < 1"),
    (("burke", "--model", "foo"), "unknown model 'foo'"),
], ids=["unstable", "unknown-model"])
def test_rate_params_rules_still_exit_two(capsys, argv, message):
    # guard: RateParams is now the one home of both rules
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("p, message", [
    ("1e-30", "a geometric draw does not fit int64"),  # traceback under -W error, exit 1
    ("1e-16", "epochs of 1001 customers do not fit int64"),  # "must be nondecreasing"
])
def test_geometric_input_past_int64_exits_two(capsys, p, message):
    code, out, err = run(capsys, "burke", "--p", p, "--q", "0.5", "--horizon", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"p = {float(p)!r} is too small" in err
    assert message in err


def test_trace_has_no_format_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--format", "json"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    code, _, err = run(capsys, "trace", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err


def test_help_lists_subcommands_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert ("{verify-identities,burke,zigzag-law,noncolliding,interchange,"
            "shape-law,laguerre,particles,trace}") in capsys.readouterr().out


def test_trace_keeps_integers_exact(capsys):
    # 2^53 + 1 has no float64; going through float() printed 9007199254740992
    code, out, _ = run(capsys, "trace", "--a", "0,9007199254740993", "--s", "1,1")
    assert code == 0
    assert out.splitlines()[2] == "2,9007199254740993,1,9007199254740994,,0"


def test_trace_float_text_stays_float(capsys):
    code, out, _ = run(capsys, "trace", "--a", "0.0,3.0", "--s", "5.0,1.0")
    assert code == 0
    assert out.splitlines()[1:] == ["1,0.0,5.0,5.0,3.0,0.0", "2,3.0,1.0,6.0,,2.0"]


def test_trace_integer_outside_int64_exits_two(capsys):
    code, _, err = run(capsys, "trace", "--a", "0,99999999999999999999", "--s", "1,1")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("flags", [
    ("--a", "1,0", "--s", "1,1"),      # printed r = -1
    ("--a", "0,1", "--s=-3,2"),        # printed D = -3
    ("--a", "0,nan", "--s", "1,2"),    # printed a NaN trace
    ("--w1", "inf"),                   # OverflowError traceback, exit 1
    ("--a", "0,1", "--s", "4611686018427387904,4611686018427387904"),  # printed D = -2^63
])
def test_trace_without_meaning_exits_two(capsys, flags):
    code, out, err = run(capsys, "trace", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("shape-law", "--q", "1.5,0.3"),        # died with OverflowError
    ("shape-law", "--q", "0.5,1.0"),
    ("interchange", "--q", "1.0,0.5"),      # reported a failed verdict (exit 1)
    ("interchange", "--q", "0.3,-0.5"),
])
def test_invalid_weights_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv, "--reps", "200")
    assert code == 2 and out == ""
    assert "strictly in (0, 1)" in err


@pytest.mark.parametrize("argv", [
    ("interchange", "--n", "0"),      # died with IndexError
    ("interchange", "--reps", "0"),   # died with ZeroDivisionError
    ("shape-law", "--n", "0"),        # "fewer than two bins after pooling"
    ("shape-law", "--reps", "0"),
    ("noncolliding", "--reps", "0"),  # numpy's "need at least one array to concatenate"
    ("verify-identities", "--cases", "0"),  # printed a passing report of zero cases
    ("particles", "--cases", "0"),
    ("verify-identities", "--n", "0"),
    ("verify-identities", "--k", "0"),
    ("particles", "--max-n", "0"),          # numpy's bare "low >= high"
    ("particles", "--max-k", "0"),
    ("verify-identities", "--max-entry", "-1"),
    ("particles", "--max-entry", "-1"),
])
def test_empty_sizes_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    # rejected where the size enters, not deep in a kernel
    assert (">= 0" if argv[1] == "--max-entry" else ">= 1") in err
    if argv[0] in ("verify-identities", "particles"):
        assert f"need {argv[1][2:].replace('-', '_')} >=" in err



def test_laguerre_single_rep_exits_two(capsys):
    # a sample standard deviation needs two values; one printed "sample_std": NaN
    code, out, err = run(capsys, "laguerre", "--reps", "1")
    assert code == 2 and out == ""
    assert "reps >= 2" in err

@pytest.mark.parametrize("argv, message", [
    # almost every 6-long departure prefix is distinct, so the prefix test
    # pools every category into its rest cell
    (("interchange", "--q", "0.2,0.5,0.7", "--sigma", "2,0,1", "--n", "6", "--reps", "3000"),
     "departure-prefix-two-sample: fewer than two categories"),
    # three gaps are two lag-1 pairs, whose r is +-1 and p = 1.0 whatever the
    # data: both lag-1 tests passed (two gaps died with scipy's length error)
    (("burke", "--model", "exp", "--horizon", "3", "--seed", "1"),
     "gap-lag1: need at least 4 values"),
], ids=["interchange", "burke"])
def test_degenerate_test_names_itself(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_zigzag_law_has_no_max_rise(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zigzag-law", "--max-rise", "5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_rise": 4}))
    code, _, err = run(capsys, "zigzag-law", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err


def test_burke_has_no_burn_in(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["burke", "--burn-in", "5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"burn_in": 5}))
    code, _, err = run(capsys, "burke", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err


def test_noncolliding_has_no_trunc(tmp_path, capsys):
    # the h-transform conditions on the whole future: there is no horizon to set
    with pytest.raises(SystemExit) as exc:
        main(["noncolliding", "--trunc", "50"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trunc": 50}))
    code, out, err = run(capsys, "noncolliding", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config keys: ['trunc']" in err


def _readme_command_lines() -> list[list[str]]:
    """The ``dualq ...`` command lines of README's shell blocks, each as the
    argument list after ``dualq``: continuations joined, comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["dualq"]:
                commands.append(words[1:])
    return commands


def test_readme_command_lines_parse(capsys):
    # a flag deleted from the CLI must not linger in the documented commands
    commands = _readme_command_lines()
    assert len(commands) >= len(_commands.COMMANDS)
    assert {argv[0] for argv in commands} == set(_commands.COMMANDS)
    failures = []
    for argv in commands:
        try:
            _commands.parse(argv)
        except SystemExit:
            failures.append((" ".join(argv), capsys.readouterr().err.strip()))
    assert failures == []


# Only the goodness-of-fit tests need scipy; the exact subcommands start without it.
_SCIPY_PROBE = """
import sys
from dualq.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "scipy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("trace",),
    ("verify-identities", "--cases", "50"),
    ("particles", "--cases", "50"),
])
def test_exact_subcommands_do_not_import_scipy(argv):
    proc = _run_probe(_SCIPY_PROBE, *argv)
    assert proc.stderr.split()[-2:] == ["0", "False"], proc.stderr


def _python(*args, text: bool = True) -> subprocess.CompletedProcess:
    """Run ``python args`` in a fresh interpreter on this checkout's package;
    argparse wraps its help to 80 columns there."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=text, timeout=120)


def _run_probe(probe: str, *args) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter on this checkout's package."""
    return _python("-c", probe, *args)


# The experiments take their laws from scipy.special; scipy.stats costs most of
# their memory and stays out.
_LAWS_PROBE = """
import sys
from dualq.cli import main
for argv in sys.argv[1:]:
    code = main(argv.split())
    print(argv.split()[0], code, "scipy.special" in sys.modules,
          "scipy.stats" in sys.modules, file=sys.stderr)
"""
_SMALL_EXPERIMENTS = ("burke --horizon 2000", "zigzag-law --periods 2000",
                      "noncolliding --reps 2000", "interchange --reps 2000",
                      "shape-law --reps 2000", "laguerre --reps 2000")


def test_experiments_import_scipy_special_and_not_scipy_stats():
    proc = _run_probe(_LAWS_PROBE, *_SMALL_EXPERIMENTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"{argv.split()[0]} 0 True False"
                                        for argv in _SMALL_EXPERIMENTS], proc.stderr


# --- the entry point: python -m dualq and the console script -------------------

def _imported(importtime_report: str) -> set:
    """The modules a ``python -X importtime`` report on stderr lists."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_report.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("burke", "--help"), 0),
    (("--no-such-flag",), 2),
])
def test_parsing_loads_neither_numpy_nor_the_layers(argv, code):
    # --help and usage errors end in dualq._commands, before dualq.cli
    proc = _python("-X", "importtime", "-m", "dualq", *argv)
    assert proc.returncode == code, proc.stderr
    loaded = _imported(proc.stderr)
    assert "argparse" in loaded
    assert {m for m in loaded if m.split(".")[0] in ("numpy", "scipy")} == set()
    assert {m for m in loaded if m.startswith("dualq.")} == {"dualq._commands"}


LAYERS = ("sampling", "queue_store", "tandem", "rsk", "schur", "particles", "stattest")


def test_importing_cli_loads_every_layer():
    # the benchmark's worker imports dualq.cli, then finds each layer in
    # sys.modules to empty its caches and to trace it
    proc = _run_probe("import sys, dualq.cli; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert {f"dualq.{layer}" for layer in LAYERS} <= set(proc.stdout.split())


@pytest.mark.parametrize("argv", [("--help",), ("trace", "--a", "0,3", "--s", "5,1")])
def test_python_m_dualq_matches_main(capsys, monkeypatch, argv):
    # the same bytes, the trace's CSV line ends included
    proc = _python("-m", "dualq", *argv, text=False)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out.encode(),
                                                           out.err.encode())


def test_every_subcommand_of_the_table_has_a_runner():
    assert set(cli.RUNNERS) == set(_commands.COMMANDS)
