"""Command-line interface: subcommands, exit codes, and reproducible output.

Core claims:
  * sample/learn round-trip through files reproduces the in-process learner
    byte for byte, in both CSV and binary sample formats; a file name ending
    in `.bin` is binary and any other is CSV, and `--format` is a usage
    error (exit 2) in sample, learn and citest.
  * citest picks the conditional or unconditional test from the column count
    and emits a JSON verdict document with the effective configuration.
  * experiment prints the same CSV to stdout that it writes to --out, with a
    `seconds` column of 0.0, and logs each row's measured time to stderr;
    its seed comes from the config and that of calibrate from --seed,
    whatever the environment holds.
  * verify-facts exits 0 when every flag holds and 1 otherwise, and below
    each regime's epsilon floor prints one error line; calibrate reports
    failures with per-candidate diagnostics and exit 1, and takes k = 2 with
    epsilon in (1, 2); an empty `--grid`, and a `--grid` value that is not
    positive and finite, named by the flag before calibrate runs, are one
    error line and exit 1.
  * An epsilon or delta at which the sample-size formula is not finite, and
    an infinite epsilon, give one error line and exit 1 in citest and
    calibrate.
  * The SeparationCurve key 'regime' takes only a JSON string, and only the
    name of a family: an unknown name is one error line naming 'options' and
    the key, and exit 1, before any cell runs.
  * Error taxonomy: missing files exit 1, malformed sample files exit 2 with
    a line-numbered message, running out of memory is one error line and
    exit 1, and so is a `calibrate --trials` count whose count tables no
    memory can hold, at once.  citest on a file of no rows is one error line
    and exit 1.  `learn --mode params` without `--tree`, checked before the
    samples are read, a `--k` outside 2..256, also checked before the
    samples are read or calibrate runs, and `citest` on neither 2 nor 3
    columns are one error line and exit 1; only argparse's usage errors
    raise SystemExit, with code 2: among them an unknown `--mode` or
    `--regime`.  Every subcommand is run through `main`, so through the
    parser.
  * `sample --count` outside 0 to the most rows an array of the model's
    width can hold is one error line naming the flag and exit 1, before any
    row is drawn.
  * Two subprocess invocations with the same seed produce identical bytes.
  * `learn` on either sample format, `citest` and `verify-facts` derive no
    seed and never load hashlib's OpenSSL module where numpy does not load
    it on import (numpy 2); `sample` does, through numpy.random.
"""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chowliu
from chowliu import Alphabet, cli, estimation, harness
from chowliu import citest as citest_mod
from chowliu.cli import main
from chowliu.estimation import SampleSet, read_csv, write_binary, write_csv
from chowliu.model import (
    random_tree_model,
    root_at,
    sample,
    tree_model_from_json,
    tree_model_to_json,
    undirected_tree_from_json,
    undirected_tree_to_json,
)
from chowliu.estimation import learn_parameters
from chowliu.structure import chow_liu_structure, learn_tree_distribution


@pytest.fixture
def model_path(tmp_path):
    m = random_tree_model(4, 2, seed=11, cpt_floor=0.1)
    path = tmp_path / "model.json"
    path.write_text(tree_model_to_json(m))
    return path


def columns(*cols):
    return SampleSet(Alphabet(2), np.stack([c.astype(np.uint8) for c in cols], axis=1))


# ------------------------------------------------------------- sample + learn


def test_sample_then_learn_full_matches_library(model_path, tmp_path, capsys):
    samples = tmp_path / "data.csv"
    learned = tmp_path / "learned.json"
    assert main(["sample", "--model", str(model_path), "--count", "2000", "--seed", "5", "--out", str(samples)]) == 0
    assert main(["learn", "--samples", str(samples), "--mode", "full", "--out", str(learned)]) == 0
    want = tree_model_to_json(learn_tree_distribution(read_csv(samples)))
    assert learned.read_text() == want + "\n"
    # JSON parses back into a model over the right shape.
    m = tree_model_from_json(learned.read_text())
    assert m.n == 4 and m.k == 2


def test_binary_and_csv_routes_agree(model_path, tmp_path):
    csv_out = tmp_path / "data.csv"
    bin_out = tmp_path / "data.bin"
    for out in (csv_out, bin_out):
        assert main(["sample", "--model", str(model_path), "--count", "500", "--seed", "21", "--out", str(out)]) == 0
    learned_csv = tmp_path / "from_csv.json"
    learned_bin = tmp_path / "from_bin.json"
    assert main(["learn", "--samples", str(csv_out), "--mode", "full", "--out", str(learned_csv)]) == 0
    assert main(["learn", "--samples", str(bin_out), "--mode", "full", "--out", str(learned_bin)]) == 0
    # Same seed, same draws; only the container format differs.
    assert learned_csv.read_text() == learned_bin.read_text()


def test_learn_on_a_binary_file_without_variables_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    write_binary(SampleSet(Alphabet(2), np.zeros((5, 0), dtype=np.uint8)), path)
    assert main(["learn", "--samples", str(path), "--mode", "full"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: need at least one node"


def test_learn_structure_to_stdout(model_path, tmp_path, capsys):
    samples = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "1500", "--seed", "6", "--out", str(samples)]) == 0
    capsys.readouterr()
    assert main(["learn", "--samples", str(samples), "--mode", "structure"]) == 0
    payload = capsys.readouterr().out
    tree = undirected_tree_from_json(payload)
    assert tree == chow_liu_structure(read_csv(samples))


def test_learn_params_uses_given_skeleton(model_path, tmp_path, capsys):
    samples = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "1000", "--seed", "8", "--out", str(samples)]) == 0
    s = read_csv(samples)
    skeleton = chow_liu_structure(s)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(undirected_tree_to_json(skeleton))
    capsys.readouterr()
    assert main(["learn", "--samples", str(samples), "--mode", "params", "--tree", str(tree_path)]) == 0
    payload = capsys.readouterr().out.strip()
    assert payload == tree_model_to_json(learn_parameters(s, root_at(skeleton, 0)))


def test_learn_params_requires_tree(model_path, tmp_path, capsys):
    samples = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "100", "--seed", "8", "--out", str(samples)]) == 0
    capsys.readouterr()
    # Checked before the samples are read: a missing file is not reported.
    for path in (samples, tmp_path / "missing.csv"):
        assert main(["learn", "--samples", str(path), "--mode", "params"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --tree is required with --mode params"]
        assert captured.out == ""
    # An unknown mode is argparse's usage error, before any handler runs.
    with pytest.raises(SystemExit) as exit_info:
        main(["learn", "--samples", str(samples), "--mode", "everything"])
    assert exit_info.value.code == 2
    assert "chowliu learn: error: argument --mode: invalid choice: " in capsys.readouterr().err


@pytest.mark.parametrize("k", [-5, 0, 1, 257, 300])
@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("command", [["learn", "--mode", "full"], ["citest", "--epsilon", "0.1", "--delta", "0.1"]])
def test_k_outside_the_alphabet_sizes_exits_1_naming_the_flag(tmp_path, capsys, command, fmt, k):
    samples = tmp_path / f"data.{fmt}"
    s = SampleSet(Alphabet(2), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    (write_binary if fmt == "bin" else write_csv)(s, samples)
    # Checked before the samples are read: a missing file is not reported.
    for path in (samples, tmp_path / f"missing.{fmt}"):
        assert main([command[0], "--samples", str(path), *command[1:], "--k", str(k)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --k must be an alphabet size from 2 to 256, got {k}"]
        assert captured.out == ""


# -------------------------------------------------------------------- citest


def test_citest_three_columns_dependent(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 600)
    path = tmp_path / "dep3.csv"
    write_csv(columns(x, x, np.zeros(600)), path)
    capsys.readouterr()
    assert main(["citest", "--samples", str(path), "--epsilon", "0.3", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "conditional"
    assert doc["verdict"] == "dependent"
    assert doc["statistic"] >= doc["threshold"]
    assert doc["threshold"] == pytest.approx(0.15)
    assert doc["n_samples"] == 600


def test_citest_three_columns_independent(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 600)
    path = tmp_path / "ci3.csv"
    # X = Y = Z is constant given Z, hence conditionally independent.
    write_csv(columns(x, x, x), path)
    capsys.readouterr()
    assert main(["citest", "--samples", str(path), "--epsilon", "0.3", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "conditional"
    assert doc["verdict"] == "independent"
    assert doc["statistic"] == pytest.approx(0.0, abs=1e-12)


def test_citest_two_columns(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, 800)
    dep = tmp_path / "dep2.csv"
    write_csv(columns(x, x), dep)
    ind = tmp_path / "ind2.csv"
    write_csv(columns(rng.integers(0, 2, 800), rng.integers(0, 2, 800)), ind)
    capsys.readouterr()
    assert main(["citest", "--samples", str(dep), "--epsilon", "0.3", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "unconditional" and doc["verdict"] == "dependent"
    assert main(["citest", "--samples", str(ind), "--epsilon", "0.3", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "unconditional" and doc["verdict"] == "independent"


def test_citest_rejects_other_column_counts(tmp_path, capsys):
    rng = np.random.default_rng(2)
    path = tmp_path / "four.csv"
    write_csv(columns(*(rng.integers(0, 2, 50) for _ in range(4))), path)
    assert main(["citest", "--samples", str(path), "--epsilon", "0.3", "--delta", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: citest expects 2 or 3 columns, got 4"]
    assert captured.out == ""


def test_citest_on_a_file_of_no_rows_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    write_binary(SampleSet(Alphabet(2), np.empty((0, 3), dtype=np.uint8)), path)
    assert main(["citest", "--samples", str(path), "--epsilon", "0.3", "--delta", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: need at least one sample"]
    assert captured.out == ""


def test_citest_config_overrides(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, 200)
    path = tmp_path / "pair.csv"
    write_csv(columns(x, x), path)
    config = tmp_path / "tester.json"
    config.write_text(json.dumps({"c_sample": 2.0, "c_decision": 0.25}))
    capsys.readouterr()
    assert main(["citest", "--samples", str(path), "--epsilon", "0.2", "--delta", "0.1", "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_sample"] == 2.0
    assert doc["c_decision"] == 0.25
    assert doc["threshold"] == pytest.approx(0.25 * 0.2)


def test_citest_warns_when_undersampled(tmp_path, capsys):
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, 10)
    path = tmp_path / "tiny.csv"
    write_csv(columns(x, x), path)
    capsys.readouterr()
    assert main(["citest", "--samples", str(path), "--epsilon", "0.1", "--delta", "0.1"]) == 0
    err = capsys.readouterr().err
    assert "below the recommended" in err


# ---------------------------------------------------------------- experiment


def experiment_config(tmp_path, seed):
    cfg = {
        "kind": "Add1Risk",
        "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 150}],
        "trials": 20,
        "seed": seed,
    }
    path = tmp_path / f"config{seed}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_stdout_matches_file(tmp_path, capsys):
    config = experiment_config(tmp_path, 9)
    capsys.readouterr()
    assert main(["experiment", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == stdout


def test_experiment_logs_the_time_of_each_row_to_stderr_only(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "Add1Risk", "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 150},
                                                               {"n": 1, "k": 4, "epsilon": 0.1, "N": 80}],
                                  "trials": 5, "seed": 3}))
    assert main(["experiment", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",0.0") for row in rows)
    logged = [line for line in captured.err.splitlines() if line.startswith("row ")]
    assert [line.split(" (")[0] for line in logged] == ["row n=1 k=3 epsilon=0.05 N=150",
                                                        "row n=1 k=4 epsilon=0.1 N=80"]
    assert all(re.fullmatch(r".* \(\d+\.\d{3}s\)", line) for line in logged)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == captured.out.encode()


def test_sample_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "10", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --seed must be a non-negative integer, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("count", [-1, 10**20], ids=["negative", "oversized"])
def test_sample_rejects_a_count_out_of_range_naming_the_flag(tmp_path, capsys, monkeypatch, count):
    # The bound is checked before any row is drawn, so nothing is allocated.
    monkeypatch.setattr(cli, "sample", lambda *args: pytest.fail("sample ran"))
    model_path = tmp_path / "model.json"
    model_path.write_text(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", str(count), "--seed", "1", "--out", str(out)]) == 1
    most = harness._max_samples(3)
    assert capsys.readouterr().err.splitlines() == [
        f"error: --count must be from 0 to {most} for a model of 3 variables, got {count}"
    ]
    assert not out.exists()


def test_sample_draws_the_largest_count_in_range(tmp_path, monkeypatch):
    drawn = []

    def stub(m, count, seed):
        drawn.append(count)
        raise MemoryError

    monkeypatch.setattr(cli, "sample", stub)
    model_path = tmp_path / "model.json"
    model_path.write_text(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    count = harness._max_samples(3)
    assert main(["sample", "--model", str(model_path), "--count", str(count), "--seed", "1",
                 "--out", str(tmp_path / "data.csv")]) == 1
    assert drawn == [count]


def test_seeds_ignore_the_environment(tmp_path, capsys, monkeypatch):
    commands = (["experiment", "--config", str(experiment_config(tmp_path, 1))],
                ["calibrate", "--epsilon", "0.5", "--delta", "0.1", "--k", "2", "--trials", "100",
                 "--seed", "1", "--grid", "1024"])
    capsys.readouterr()
    for argv in commands:
        monkeypatch.delenv("CHOWLIU_SEED", raising=False)
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setenv("CHOWLIU_SEED", "2")
        assert main(argv) == 0
        assert capsys.readouterr().out == want


# -------------------------------------------------------------- verify-facts


def test_verify_facts_pass_and_fail(capsys):
    assert main(["verify-facts", "--regime", "realizable", "--epsilon", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["hellinger_sq"] == pytest.approx(0.05, abs=1e-12)
    # At epsilon = 0.2 the quadratic-ratio flag trips, so the command fails.
    assert main(["verify-facts", "--regime", "nonrealizable", "--epsilon", "0.2"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["pass"] is False
    assert "kl_quadratic_ok" in captured.err
    # An unknown regime is argparse's usage error, before any handler runs.
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-facts", "--regime", "gaussian", "--epsilon", "0.1"])
    assert exit_info.value.code == 2
    assert "chowliu verify-facts: error: argument --regime: invalid choice: " in capsys.readouterr().err


def test_verify_facts_epsilon_out_of_range_exits_1(capsys):
    rc = main(["verify-facts", "--regime", "nonrealizable", "--epsilon", "0.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "regime, epsilon, message",
    [
        ("nonrealizable", "1e-320", "epsilon must lie in [1e-06, 0.25), got 1e-320"),
        ("nonrealizable", "1e-8", "epsilon must lie in [1e-06, 0.25), got 1e-08"),
        ("realizable", "1e-16", "epsilon must lie in [1e-13, 1), got 1e-16"),
        ("realizable", "1e-308", "epsilon must lie in [1e-13, 1), got 1e-308"),
    ],
)
def test_verify_facts_below_the_floor_exits_1(capsys, regime, epsilon, message):
    assert main(["verify-facts", "--regime", regime, "--epsilon", epsilon]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


# ----------------------------------------------------------------- calibrate


def test_calibrate_failure_reports_diagnostics(capsys):
    rc = main(["calibrate", "--epsilon", "0.5", "--delta", "0.1", "--k", "2", "--trials", "100", "--seed", "1",
               "--grid", "1e-9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "calibration failed" in err
    assert "c_sample=1e-09" in err


def test_calibrate_success_writes_file(tmp_path, capsys):
    out = tmp_path / "tuned.json"
    rc = main(["calibrate", "--epsilon", "0.5", "--delta", "0.1", "--k", "2", "--trials", "100", "--seed", "1",
               "--out", str(out), "--grid", "1024"])
    assert rc == 0
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert doc["c_sample"] == 1024.0
    assert doc["required_samples_cmi"] >= doc["required_samples_mi"]
    assert out.read_text() == stdout


def test_calibrate_with_an_empty_grid_exits_1(capsys):
    assert main(["calibrate", "--epsilon", "0.1", "--delta", "0.1", "--k", "2", "--trials", "100", "--grid"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: the c_sample grid is empty"]
    assert captured.out == ""


@pytest.mark.parametrize("k", [-5, 0, 1, 257, 300])
def test_calibrate_k_outside_the_alphabet_sizes_exits_1_naming_the_flag(capsys, monkeypatch, k):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrate ran")

    monkeypatch.setattr(citest_mod, "calibrate", no_calibration)
    argv = ["calibrate", "--epsilon", "0.1", "--delta", "0.1", "--k", str(k), "--trials", "100", "--grid", "1024"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --k must be an alphabet size from 2 to 256, got {k}"]
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_calibrate_grid_value_not_positive_and_finite_exits_1_naming_the_flag(capsys, monkeypatch, value):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrate ran")

    monkeypatch.setattr(citest_mod, "calibrate", no_calibration)
    argv = ["calibrate", "--epsilon", "0.1", "--delta", "0.1", "--k", "2", "--trials", "100", "--grid", "1", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --grid values must be positive and finite, got {float(value)}"]
    assert captured.out == ""


def test_calibrate_trials_no_memory_can_hold_exits_1_at_once(capsys):
    # 1e14 trials of eight int64 counts take 5.7 PiB, more than any address
    # space holds, so the one allocation fails before any draw.
    argv = ["calibrate", "--epsilon", "0.1", "--delta", "0.1", "--k", "2", "--trials", "100000000000000",
            "--grid", "0.1875"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: out of memory: ")
    assert captured.out == ""


def test_calibrate_binary_epsilon_between_one_and_two(capsys):
    # The realizable pair needs epsilon <= 1; above that the family goes without it.
    rc = main(["calibrate", "--epsilon", "1.5", "--delta", "0.1", "--k", "2", "--trials", "100",
               "--grid", "1024"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["c_sample"] == 1024.0


# -------------------------------------------------------------- error routes


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def no_memory(p, count, seed):
        raise MemoryError("Unable to allocate 968. TiB for an array")

    monkeypatch.setattr(estimation, "sample_dense", no_memory)
    assert main(["calibrate", "--epsilon", "0.5", "--delta", "0.1", "--k", "2", "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory: Unable to allocate 968. TiB for an array"]


def test_missing_file_exits_1(capsys):
    assert main(["learn", "--samples", "no-such-file.csv", "--mode", "full"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n0,x\n")
    assert main(["learn", "--samples", str(path), "--mode", "full"]) == 2
    assert ":2:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", [
    ["sample", "--model", "model.json", "--count", "10", "--seed", "1", "--out", "data.csv"],
    ["learn", "--samples", "data.csv", "--mode", "full"],
    ["citest", "--samples", "data.csv", "--epsilon", "0.1", "--delta", "0.1"],
], ids=["sample", "learn", "citest"])
def test_format_flag_is_a_usage_error(capsys, command):
    # A file name ending in .bin is binary and any other is CSV; no flag overrides it.
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--format", "bin"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format bin" in capsys.readouterr().err


def test_invalid_model_json_exits_1_without_sampling(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    doc["root_marginal"] = [2.0, -1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(bad), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: negative entry in root marginal"]
    assert not out.exists()


def test_model_json_missing_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "k": 2}))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(bad), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: model is missing key 'root'"]
    assert not out.exists()


def test_tree_json_missing_key_exits_1(model_path, tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "50", "--seed", "1", "--out", str(data)]) == 0
    bad = tmp_path / "tree.json"
    bad.write_text(json.dumps({"n": 3}))
    capsys.readouterr()
    assert main(["learn", "--samples", str(data), "--mode", "params", "--tree", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: tree is missing key 'edges'"


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"kind": "RealizableRecovery"}, "experiment config is missing key 'grid'"),
        ({"kind": "Add1Risk", "grid": [{"n": 1, "k": 3}], "trials": 2, "seed": 1},
         "experiment grid cell is missing key 'epsilon'"),
        ([1, 2], "experiment config must be a JSON object"),
    ],
    ids=["config-key", "cell-key", "not-an-object"],
)
def test_experiment_json_missing_key_exits_1(tmp_path, capsys, doc, message):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_tree_json_value_of_wrong_type_exits_1(model_path, tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "50", "--seed", "1", "--out", str(data)]) == 0
    bad = tmp_path / "tree.json"
    bad.write_text(json.dumps({"n": 3, "edges": 5}))
    capsys.readouterr()
    assert main(["learn", "--samples", str(data), "--mode", "params", "--tree", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: tree has a bad value for key 'edges': 'int' object is not iterable"
    )


def test_model_json_value_of_wrong_type_exits_1(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    doc["parents"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(bad), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: model has a bad value for key 'parents': 'int' object is not iterable"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"kind": "Add1Risk", "grid": 5, "trials": 2, "seed": 1},
         "experiment config has a bad value for key 'grid': 'int' object is not iterable"),
        ({"kind": "Add1Risk", "grid": [{"n": 1, "k": [4], "epsilon": 0.1}], "trials": 2, "seed": 1},
         "experiment grid cell has a bad value for key 'k': int() argument must be a string, "
         "a bytes-like object or a real number, not 'list'"),
    ],
    ids=["grid", "cell-k"],
)
def test_experiment_json_value_of_wrong_type_exits_1(tmp_path, capsys, doc, message):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("kind", ["RealizableRecovery", "NonRealizableRecovery", "Add1Risk"])
def test_experiment_cell_without_n_exits_1_naming_the_cell(tmp_path, capsys, kind):
    bad = tmp_path / "config.json"
    cells = [{"n": 3, "k": 2, "epsilon": 0.1, "N": 10}, {"n": 3, "k": 2, "epsilon": 0.1}]
    bad.write_text(json.dumps({"kind": kind, "grid": cells, "trials": 2, "seed": 1}))
    assert main(["experiment", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {kind} grid cell 1 needs key 'N' of at least 1, got 0"]


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1], "tester config must be a JSON object"),
        ({"c_sample": [1]}, "tester config has a bad value for key 'c_sample': float() argument must be "
                            "a string or a real number, not 'list'"),
    ],
    ids=["not-an-object", "c_sample"],
)
def test_citest_config_of_wrong_type_exits_1(tmp_path, capsys, doc, message):
    x = np.arange(40) % 2
    samples = tmp_path / "pair.csv"
    write_csv(columns(x, x), samples)
    config = tmp_path / "tester.json"
    config.write_text(json.dumps(doc))
    args = ["citest", "--samples", str(samples), "--epsilon", "0.2", "--delta", "0.1", "--config", str(config)]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_csv_bytes_that_are_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"0,1\n1,\xff\n")
    assert main(["learn", "--samples", str(path), "--mode", "structure"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:2: bytes that are not valid UTF-8"]


def test_csv_symbol_above_255_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("0,1\n300,2\n")
    assert main(["learn", "--samples", str(path), "--mode", "full"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:2: symbol 300 above 255, the largest one-byte symbol"]


def write_cls1(path, n: int, k: int, payload: bytes) -> None:
    path.write_bytes(struct.pack("<4sIIQ", b"CLS1", n, k, len(payload) // n) + payload)


@pytest.mark.parametrize(
    "k,payload,message",
    [
        (2, bytes([0, 1, 5, 1]), "symbol out of range"),
        (1, bytes([0, 0, 0, 0]), "alphabet size must be an int >= 2"),
        (300, bytes([0, 1, 2, 3]), "alphabet too large"),
    ],
    ids=["symbol-out-of-range", "k-below-2", "k-above-256"],
)
def test_malformed_binary_header_or_symbols_exit_2(tmp_path, capsys, k, payload, message):
    path = tmp_path / "bad.bin"
    write_cls1(path, 2, k, payload)
    assert main(["learn", "--samples", str(path), "--mode", "full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


# ------------------------------------------- NaN, infinity and deep nesting

DEEP = "[" * 100_000 + "]" * 100_000


def test_deep_model_json_exits_1_without_sampling(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(deep), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: model is nested too deeply to parse"]
    assert not out.exists()


def test_deep_tree_json_exits_1(model_path, tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model_path), "--count", "50", "--seed", "1", "--out", str(data)]) == 0
    deep = tmp_path / "tree.json"
    deep.write_text(DEEP)
    capsys.readouterr()
    assert main(["learn", "--samples", str(data), "--mode", "params", "--tree", str(deep)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == ["error: tree is nested too deeply to parse"]
    assert len(err) == 2  # the line that reports the samples read, then the error


def test_deep_experiment_config_exits_1(tmp_path, capsys):
    deep = tmp_path / "config.json"
    deep.write_text(DEEP)
    assert main(["experiment", "--config", str(deep)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: experiment config is nested too deeply to parse"]


def test_deep_tester_config_exits_1(tmp_path, capsys):
    x = np.arange(40) % 2
    samples = tmp_path / "pair.csv"
    write_csv(columns(x, x), samples)
    deep = tmp_path / "tester.json"
    deep.write_text(DEEP)
    args = ["citest", "--samples", str(samples), "--epsilon", "0.2", "--delta", "0.1", "--config", str(deep)]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: tester config is nested too deeply to parse"]


def test_nan_root_marginal_exits_1_without_sampling(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    doc["root_marginal"] = [float("nan"), float("nan")]
    doc["cpt"]["1"][0] = [float("nan"), float("nan")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(bad), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: model has a bad value for key 'root_marginal': expected a finite number, got nan"
    ]
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "NaN"])
def test_citest_nan_epsilon_exits_1(tmp_path, capsys, epsilon):
    x = np.arange(40) % 2
    samples = tmp_path / "pair.csv"
    write_csv(columns(x, x), samples)
    assert main(["citest", "--samples", str(samples), "--epsilon", epsilon, "--delta", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: epsilon must be positive"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "cell,options,message",
    [
        ('{"n": 1, "k": 4, "epsilon": NaN, "N": 100}', "{}",
         "experiment grid cell has a bad value for key 'epsilon': expected a finite number, got nan"),
        ('{"n": 1, "k": 4, "epsilon": Infinity, "N": 100}', "{}",
         "experiment grid cell has a bad value for key 'epsilon': expected a finite number, got inf"),
        ('{"n": 1, "k": 4, "epsilon": 1' + "0" * 400 + ', "N": 100}', "{}",
         "experiment grid cell has a bad value for key 'epsilon': int too large to convert to float"),
        ('{"n": 1, "k": 4, "epsilon": 0.1, "N": 100}', '{"constant": -Infinity}',
         "Add1Risk 'options' has a bad value for key 'constant': expected a finite number, got -inf"),
    ],
    ids=["nan", "infinity", "huge-integer", "option"],
)
def test_experiment_non_finite_number_exits_1(tmp_path, capsys, cell, options, message):
    bad = tmp_path / "config.json"
    bad.write_text(f'{{"kind": "Add1Risk", "grid": [{cell}], "trials": 2, "seed": 1, "options": {options}}}')
    assert main(["experiment", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("citest", ["--epsilon", "1e-320", "--delta", "0.1"], "no finite sample size at epsilon=1e-320 and delta=0.1"),
        ("citest", ["--epsilon", "0.1", "--delta", "1e-320"], "no finite sample size at epsilon=0.1 and delta=1e-320"),
        ("citest", ["--epsilon", "inf", "--delta", "0.1"], "epsilon must be finite"),
        ("calibrate", ["--epsilon", "1e-320", "--delta", "0.1", "--k", "2", "--trials", "100"],
         "no finite sample size at epsilon=1e-320 and delta=0.1"),
        ("calibrate", ["--epsilon", "inf", "--delta", "0.1", "--k", "2"], "epsilon must be finite"),
    ],
    ids=["citest-epsilon", "citest-delta", "citest-inf", "calibrate-epsilon", "calibrate-inf"],
)
def test_sample_size_that_is_not_finite_exits_1(tmp_path, capsys, command, options, message):
    if command == "citest":
        samples = tmp_path / "pair.csv"
        write_csv(columns(np.arange(40) % 2, np.arange(40) % 2), samples)
        options = ["--samples", str(samples), *options]
    assert main([command, *options]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize("regime", [5, True, ["realizable"], None, "gaussian"])
def test_separation_regime_takes_only_a_string(tmp_path, capsys, monkeypatch, regime):
    def no_trials(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_run_trials", no_trials)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"kind": "SeparationCurve", "grid": [{"n": 3, "k": 2, "epsilon": 0.1},
                                                                   {"n": 3, "k": 2, "epsilon": 0.2}],
                               "trials": 2, "seed": 1, "options": {"regime": regime}}))
    assert main(["experiment", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    expected = "'realizable' or 'nonrealizable'" if isinstance(regime, str) else "a string"
    assert captured.err.splitlines() == [
        f"error: SeparationCurve 'options' has a bad value for key 'regime': expected {expected}, got {regime!r}"
    ]
    assert captured.out == ""


# ---------------------------------------------------------------- subprocess


def test_subprocess_runs_are_byte_identical(model_path, tmp_path):
    def run(out):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "chowliu.cli",
                "sample",
                "--model",
                str(model_path),
                "--count",
                "400",
                "--seed",
                "3",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    first = run(tmp_path / "a.csv")
    second = run(tmp_path / "b.csv")
    assert first == second


# Runs one command through main in a fresh process and prints its exit code
# and whether hashlib's OpenSSL module, about 3.5 MB of the process, is loaded.
HASHLIB_CHILD = """
import sys
from chowliu.cli import main
code = main(sys.argv[1:])
print(code, "_hashlib" in sys.modules)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(chowliu.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def numpy_loads_openssl() -> bool:
    """Whether importing numpy alone loads OpenSSL: numpy 1.x imports
    numpy.random, and with it secrets and hmac, on import; numpy 2 on first
    use."""
    proc = subprocess.run([sys.executable, "-c", "import sys, numpy; print('_hashlib' in sys.modules)"],
                          env=child_env(), capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip() == "True"


@pytest.mark.parametrize(
    "command,loaded",
    [
        (["learn", "--samples", "{csv}", "--mode", "full"], False),
        (["learn", "--samples", "{bin}", "--mode", "full"], False),
        (["citest", "--samples", "{pair}", "--epsilon", "0.5", "--delta", "0.1"], False),
        (["verify-facts", "--regime", "realizable", "--epsilon", "0.1"], False),
        # sample loads it through numpy.random, so the check can see it.
        (["sample", "--model", "{model}", "--count", "100", "--seed", "1", "--out", "{out}"], True),
    ],
    ids=["learn-csv", "learn-cls1", "citest", "verify-facts", "sample"],
)
def test_only_commands_that_draw_load_openssl(model_path, tmp_path, numpy_loads_openssl, command, loaded):
    if numpy_loads_openssl and not loaded:
        pytest.skip("this numpy loads OpenSSL on import")
    s = sample(tree_model_from_json(model_path.read_text()), 500, seed=2)
    files = {"csv": tmp_path / "s.csv", "bin": tmp_path / "s.bin", "pair": tmp_path / "pair.csv",
             "model": model_path, "out": tmp_path / "out.csv"}
    write_csv(s, files["csv"])
    write_binary(s, files["bin"])
    write_csv(SampleSet(s.alphabet, s.rows[:, :2]), files["pair"])
    proc = subprocess.run([sys.executable, "-c", HASHLIB_CHILD, *(arg.format(**files) for arg in command)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"
