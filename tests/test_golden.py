"""Golden CLI outputs: fixed inputs and seeds give pinned bytes.

Core claims:
  * `sample` (CSV and binary), `learn --mode structure|full` and `calibrate`
    write outputs whose sha256 digests are pinned here.
  * `experiment` writes, for each of the five kinds at a tiny grid, the
    pinned CSV: every column matches exactly except `mean_excess` and
    `p95_excess`, which may move by at most 1e-12.
  * `citest` prints, for 2 and 3 columns, with `--k` and with `--config`,
    the pinned verdict document byte for byte, so its key order is pinned.

The pins guard refactors that must not change any output or RNG draw.
"""

import hashlib
import json

import numpy as np
import pytest

from chowliu import Alphabet
from chowliu.cli import main
from chowliu.estimation import SampleSet, write_csv
from chowliu.model import random_tree_model, tree_model_to_json

EXCESS_TOL = 1e-12


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Run every file-producing command once; return {name: path}."""
    root = tmp_path_factory.mktemp("golden")
    model = root / "model.json"
    model.write_text(tree_model_to_json(random_tree_model(6, 3, seed=7, cpt_floor=0.02)))
    out = {"model.json": model}
    for name in ("data.csv", "data.bin"):
        out[name] = root / name
        assert main(["sample", "--model", str(model), "--count", "800", "--seed", "9", "--out", str(out[name])]) == 0
    runs = {
        "structure.json": ["learn", "--samples", str(out["data.csv"]), "--mode", "structure"],
        "full-csv.json": ["learn", "--samples", str(out["data.csv"]), "--mode", "full"],
        "full-bin.json": ["learn", "--samples", str(out["data.bin"]), "--mode", "full"],
        "calibrate.json": ["calibrate", "--epsilon", "0.2", "--delta", "0.1", "--k", "2",
                           "--trials", "100", "--grid", "0.0625", "0.125", "0.25"],
    }
    for name, argv in runs.items():
        out[name] = root / name
        assert main(argv + ["--out", str(out[name])]) == 0
    return out


DIGESTS = {
    "model.json": "9c2c1820cd621fae0facf68996fc188bcbc47f23df2242967e0829778faceae6",
    "data.csv": "2a8b1af3f72bc1d0526eb5ae17a98240dfd6e84e4d9c93874f8198b5e6054a61",
    "data.bin": "693a8020dc3eebae5e2c5ee08ce568c11572cb67cf0ca2deb13a769534878559",
    "structure.json": "bbbf0a9a80807d8286276c4aec41d534fd0c0d14dd9151c4c2cfcefff43bd17e",
    "full-csv.json": "79b9c77de915de7e89ed0875ec4f35411c003f26e8058dcded5c8319edf6b596",
    "full-bin.json": "79b9c77de915de7e89ed0875ec4f35411c003f26e8058dcded5c8319edf6b596",
    "calibrate.json": "cc222f478e5dc5c6aebff83e01df03809b8d88fb40852bc4347895590b838c2b",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_command_output_digest(files, name):
    assert digest(files[name]) == DIGESTS[name]


EXPERIMENTS = {
    "RealizableRecovery": (
        {"grid": [{"n": 5, "k": 2, "epsilon": 0.02, "N": 300}, {"n": 4, "k": 3, "epsilon": 0.02, "N": 60}],
         "trials": 3, "seed": 4},
        (
            "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds\n"
            "5,2,0.02,300,3,1.0,0.0005289426661200617,0.0014281451985241665,0.0\n"
            "4,3,0.02,60,3,0.3333333333333333,0.062411058064798595,0.12947645787507572,0.0\n"
        ),
    ),
    "NonRealizableRecovery": (
        {"grid": [{"n": 6, "k": 2, "epsilon": 0.05, "N": 30}, {"n": 3, "k": 2, "epsilon": 0.05, "N": 12}],
         "trials": 4, "seed": 5,
         "options": {"instance_epsilon": 0.1}},
        (
            "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds\n"
            "6,2,0.05,30,4,0.75,0.03223138342121701,0.10958670363213778,0.0\n"
            "3,2,0.05,12,4,0.5,0.06446276684243402,0.12892553368486803,0.0\n"
        ),
    ),
    "SeparationCurve": (
        {"grid": [{"n": 3, "k": 2, "epsilon": 0.3}, {"n": 3, "k": 2, "epsilon": 0.2}], "trials": 4, "seed": 6,
         "options": {"regime": "realizable"}},
        (
            "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds\n"
            "3,2,0.3,6,4,0.25,0.31703181585449314,0.4227090878059908,0.0\n"
            "3,2,0.3,12,4,1.0,0.0,0.0,0.0\n"
            "3,2,0.2,6,4,0.25,0.243812230043586,0.325082973391448,0.0\n"
            "3,2,0.2,12,4,0.75,0.081270743347862,0.27632052738273066,0.0\n"
            "3,2,0.2,24,4,1.0,0.0,0.0,0.0\n"
        ),
    ),
    "Add1Risk": (
        {"grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 150}, {"n": 1, "k": 9, "epsilon": 0.1, "N": 90}],
         "trials": 6, "seed": 7},
        (
            "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds\n"
            "1,3,0.05,150,6,0.6666666666666666,-0.009268673737597226,0.00710263630085883,0.0\n"
            "1,9,0.1,90,6,1.0,-0.06246692037337407,-0.033921312382786756,0.0\n"
        ),
    ),
    "CITesterRates": (
        {"grid": [{"n": 3, "k": 2, "epsilon": 0.3, "N": 0}, {"n": 3, "k": 3, "epsilon": 0.4, "N": 150}],
         "trials": 3, "seed": 8},
        (
            "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds\n"
            "3,2,0.3,41,3,1.0,-0.26026054044420316,-0.23941095802716034,0.0\n"
            "3,3,0.4,150,3,1.0,-0.36136097094681774,-0.3473178132425113,0.0\n"
        ),
    ),
}


def run_experiment_csv(tmp_path, kind: str) -> str:
    doc = dict(EXPERIMENTS[kind][0], kind=kind)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_experiment_csv_matches_pinned(tmp_path, kind):
    got = run_experiment_csv(tmp_path, kind).splitlines()
    want = EXPERIMENTS[kind][1].splitlines()
    assert len(got) == len(want) and got[0] == want[0]
    header = want[0].split(",")
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(header, got_row.split(","), want_row.split(",")):
            if column.endswith("_excess"):
                assert abs(float(g) - float(w)) <= EXCESS_TOL, (column, g, w)
            else:
                assert g == w, (column, g, w)


# Columns whose cell frequencies are powers of two, so every logarithm in the
# statistic is of a power of two and the printed digits do not depend on the
# platform's log implementation.
CITEST_COLUMNS = {
    "equal": ([0, 1] * 8, [0, 1] * 8),
    "product": ([0, 0, 1, 1] * 4, [0, 1] * 8),
    "slices": ([0, 1] * 4 + [0, 0, 1, 1] * 2, [0, 1] * 4 + [0, 1] * 4, [0] * 8 + [1] * 8),
}

CITEST_STDOUT = {
    "two-columns": (
        "equal", [],
        '{"kind": "unconditional", "verdict": "dependent", "statistic": 0.6931471805599453, '
        '"threshold": 0.1, "n_samples": 16, "recommended_samples": 36, "epsilon": 0.2, "delta": 0.1, '
        '"k": 2, "c_sample": 0.1875, "c_decision": 0.5}\n',
    ),
    "two-columns-k": (
        "equal", ["--k", "3"],
        '{"kind": "unconditional", "verdict": "dependent", "statistic": 0.6931471805599453, '
        '"threshold": 0.1, "n_samples": 16, "recommended_samples": 102, "epsilon": 0.2, "delta": 0.1, '
        '"k": 3, "c_sample": 0.1875, "c_decision": 0.5}\n',
    ),
    "two-columns-config": (
        "product", ["--config", "CONFIG"],
        '{"kind": "unconditional", "verdict": "independent", "statistic": 0.0, '
        '"threshold": 0.05, "n_samples": 16, "recommended_samples": 376, "epsilon": 0.2, "delta": 0.1, '
        '"k": 2, "c_sample": 2.0, "c_decision": 0.25}\n',
    ),
    "three-columns": (
        "slices", [],
        '{"kind": "conditional", "verdict": "dependent", "statistic": 0.34657359027997264, '
        '"threshold": 0.1, "n_samples": 16, "recommended_samples": 71, "epsilon": 0.2, "delta": 0.1, '
        '"k": 2, "c_sample": 0.1875, "c_decision": 0.5}\n',
    ),
    "three-columns-config": (
        "slices", ["--config", "CONFIG"],
        '{"kind": "conditional", "verdict": "dependent", "statistic": 0.34657359027997264, '
        '"threshold": 0.05, "n_samples": 16, "recommended_samples": 752, "epsilon": 0.2, "delta": 0.1, '
        '"k": 2, "c_sample": 2.0, "c_decision": 0.25}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(CITEST_STDOUT))
def test_citest_stdout_matches_pinned(tmp_path, capsys, case):
    """The verdict document's bytes, key order included; "CONFIG" in the
    extra arguments stands for a tester config file."""
    columns, extra, want = CITEST_STDOUT[case]
    rows = np.array(CITEST_COLUMNS[columns], dtype=np.uint8).T
    samples = tmp_path / "samples.csv"
    write_csv(SampleSet(Alphabet(2), rows), samples)
    config = tmp_path / "tester.json"
    config.write_text(json.dumps({"c_sample": 2.0, "c_decision": 0.25}))
    argv = ["citest", "--samples", str(samples), "--epsilon", "0.2", "--delta", "0.1"]
    assert main(argv + [str(config) if a == "CONFIG" else a for a in extra]) == 0
    assert capsys.readouterr().out == want
