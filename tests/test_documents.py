"""JSON documents and sample formats are read strictly: no input is dropped
or misread without a word.

Core claims:
  * Every JSON loader rejects a key its document does not define, and each
    experiment kind takes only its own option keys: the CLI prints one
    `error:` line naming the key and exits 1.
  * Scalar keys are typed strictly: an integer key takes no boolean, string
    or fraction, and a number key no string.
  * Grid cells the kind cannot run are errors naming the cell, raised before
    any cell runs: a negative `N` or one above what numpy can draw, SeparationCurve cells other than n = 3,
    k = 2 and an epsilon above 0 without `N`, and the `n`, `k` and epsilon
    rules of the other kinds.  A SeparationCurve grid without two distinct epsilons,
    which cannot give a slope, is an error naming the key `grid`, also
    raised before any cell runs.
  * Probability arrays take numbers only: a boolean or a string at any depth
    of `root_marginal` or a `cpt` row names its key.
  * `--k` sets the alphabet of CSV and CLS1 input alike.
  * The README's tables of cell rules and option keys match the harness,
    and its one flag table per subcommand matches the parser: every flag,
    in order, with `required` or its default, and its Meaning cell, with the
    backticks removed, as the flag's help.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from chowliu import Alphabet
from chowliu import harness
from chowliu.cli import _build_parser, main
from chowliu.estimation import SampleSet, write_binary, write_csv
from chowliu.harness import _KINDS, KINDS, _grid_maximum, _regime
from chowliu.model import (
    _float,
    _int,
    random_tree_model,
    tree_model_from_json,
    tree_model_to_json,
    undirected_tree_to_json,
)

README = Path(__file__).resolve().parents[1] / "README.md"

ADD1 = {"kind": "Add1Risk", "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 20}], "trials": 2, "seed": 1}
SEPARATION = {"kind": "SeparationCurve", "grid": [{"n": 3, "k": 2, "epsilon": 0.3}], "trials": 2, "seed": 1}


def with_cell(doc, **cell):
    return {**doc, "grid": [doc["grid"][0], {**doc["grid"][0], **cell}]}


def no_trials(*args):
    raise AssertionError("a cell ran")


@pytest.mark.parametrize(
    "doc,message",
    [
        ({**ADD1, "option": {"constant": 5.0}}, "experiment config has unknown key 'option'"),
        ({**ADD1, "options": {"constnat": 3}}, "Add1Risk 'options' has unknown key 'constnat'"),
        ({**ADD1, "options": {"cpt_floor": 0.1}}, "Add1Risk 'options' has unknown key 'cpt_floor'"),
        ({**ADD1, "grid": [{**ADD1["grid"][0], "eps": 0.1}]}, "experiment grid cell has unknown key 'eps'"),
        ({**ADD1, "options": {"timing": True}}, "Add1Risk 'options' has unknown key 'timing'"),
        ({**ADD1, "out": "rows.csv"}, "experiment config has unknown key 'out'"),
        ({**ADD1, "options": {"constant": "x"}},
         "Add1Risk 'options' has a bad value for key 'constant': expected a number, got 'x'"),
        ({**ADD1, "options": [["constant", 5.0]]}, "Add1Risk 'options' must be a JSON object"),
        ({**ADD1, "trials": 2.9}, "experiment config has a bad value for key 'trials': expected an integer, got 2.9"),
        ({**ADD1, "seed": "7"}, "experiment config has a bad value for key 'seed': expected an integer, got '7'"),
        ({**ADD1, "grid": [{**ADD1["grid"][0], "N": True}]},
         "experiment grid cell has a bad value for key 'N': expected an integer, got True"),
        ({**ADD1, "kind": "CITesterRates", "grid": [{"n": 3, "k": 2, "epsilon": 0.3, "N": -5}]},
         "CITesterRates grid cell 0 needs key 'N' of at least 0, got -5"),
        (with_cell(SEPARATION, n=4),
         "SeparationCurve grid cell 1 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 4, k 2, epsilon 0.3, N 0"),
        (with_cell(SEPARATION, k=3),
         "SeparationCurve grid cell 1 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 3, k 3, epsilon 0.3, N 0"),
        (with_cell(SEPARATION, N=24),
         "SeparationCurve grid cell 1 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 3, k 2, epsilon 0.3, N 24"),
        ({**SEPARATION, "options": {"max_samples": 1}},
         "SeparationCurve 'options' has a bad value for key 'max_samples': expected an integer of at least 6, got 1"),
    ],
    ids=["config-key", "option-key", "other-kinds-option", "cell-key", "timing-key", "out-key", "constant-string",
         "options-list", "trials-fraction", "seed-string", "N-boolean", "N-negative", "separation-n",
         "separation-k", "separation-N", "separation-max-samples"],
)
def test_experiment_config_that_is_not_read_as_written_exits_1(tmp_path, capsys, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


def test_model_with_an_extra_key_or_a_fractional_n_exits_1(tmp_path, capsys):
    doc = json.loads(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    bad = tmp_path / "model.json"
    for changed, message in (({"weights": []}, "model has unknown key 'weights'"),
                             ({"n": 2.9}, "model has a bad value for key 'n': expected an integer, got 2.9")):
        bad.write_text(json.dumps({**doc, **changed}))
        out = tmp_path / "data.csv"
        assert main(["sample", "--model", str(bad), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


def test_tree_with_an_extra_key_exits_1(tmp_path, capsys):
    m = random_tree_model(3, 2, seed=1)
    data = tmp_path / "data.csv"
    write_csv(SampleSet(Alphabet(2), np.array([[0, 1, 1], [1, 0, 1]])), data)
    bad = tmp_path / "tree.json"
    bad.write_text(json.dumps({**json.loads(undirected_tree_to_json(m.tree.skeleton())), "root": 0}))
    assert main(["learn", "--samples", str(data), "--mode", "params", "--tree", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: tree has unknown key 'root'"


def test_tester_config_with_a_misspelled_key_exits_1(tmp_path, capsys):
    samples = tmp_path / "pair.csv"
    write_csv(SampleSet(Alphabet(2), np.stack([np.arange(40) % 2] * 2, axis=1)), samples)
    config = tmp_path / "tester.json"
    config.write_text(json.dumps({"c_sampel": 2.0}))
    args = ["citest", "--samples", str(samples), "--epsilon", "0.2", "--delta", "0.1", "--config", str(config)]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: tester config has unknown key 'c_sampel'"]


@pytest.mark.parametrize(
    "doc,message",
    [
        (with_cell(ADD1, n=50),
         "Add1Risk grid cell 1 needs n 1, k at least 2 and an epsilon (the delta) above 0, got n 50, k 3, epsilon 0.05, N 20"),
        ({**ADD1, "kind": "CITesterRates", "grid": [{"n": 3, "k": 2, "epsilon": 0.3},
                                                    {"n": 1, "k": 2, "epsilon": 0.3}]},
         "CITesterRates grid cell 1 needs n 3, got n 1, k 2, epsilon 0.3, N 0"),
        ({**ADD1, "kind": "NonRealizableRecovery", "grid": [{"n": 3, "k": 2, "epsilon": 0.3, "N": 50},
                                                            {"n": 3, "k": 3, "epsilon": 0.3, "N": 50}]},
         "NonRealizableRecovery grid cell 1 needs n a positive multiple of 3 and k 2 (the triples are binary), "
         "got n 3, k 3, epsilon 0.3, N 50"),
        (with_cell(ADD1, epsilon=0),
         "Add1Risk grid cell 1 needs n 1, k at least 2 and an epsilon (the delta) above 0, got n 1, k 3, epsilon 0.0, N 20"),
        (with_cell(ADD1, epsilon=-0.1),
         "Add1Risk grid cell 1 needs n 1, k at least 2 and an epsilon (the delta) above 0, got n 1, k 3, epsilon -0.1, N 20"),
        ({**ADD1, "kind": "RealizableRecovery", "grid": [{"n": 4, "k": 2, "epsilon": 0.1, "N": 50},
                                                         {"n": 0, "k": 2, "epsilon": 0.1, "N": 50}]},
         "RealizableRecovery grid cell 1 needs n at least 1 and an epsilon above 0, got n 0, k 2, epsilon 0.1, N 50"),
        ({**ADD1, "kind": "RealizableRecovery", "grid": [{"n": 4, "k": 2, "epsilon": 0.1, "N": 50},
                                                         {"n": 4, "k": 2, "epsilon": -0.1, "N": 50}]},
         "RealizableRecovery grid cell 1 needs n at least 1 and an epsilon above 0, got n 4, k 2, epsilon -0.1, N 50"),
        (with_cell(ADD1, k=1),
         "Add1Risk grid cell 1 needs n 1, k at least 2 and an epsilon (the delta) above 0, got n 1, k 1, epsilon 0.05, N 20"),
        (with_cell(ADD1, k=0),
         "Add1Risk grid cell 1 needs n 1, k at least 2 and an epsilon (the delta) above 0, got n 1, k 0, epsilon 0.05, N 20"),
        ({**SEPARATION, "grid": [{"n": 3, "k": 2, "epsilon": 0.0}, {"n": 3, "k": 2, "epsilon": 0.3}]},
         "SeparationCurve grid cell 0 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 3, k 2, epsilon 0.0, N 0"),
    ],
    ids=["Add1Risk-n", "CITesterRates-n", "NonRealizableRecovery-k", "Add1Risk-zero-delta", "Add1Risk-negative-delta",
         "RealizableRecovery-n", "RealizableRecovery-negative-epsilon", "Add1Risk-k1", "Add1Risk-k0",
         "SeparationCurve-zero-epsilon"],
)
def test_cell_outside_the_kinds_rule_exits_1_before_any_cell_runs(tmp_path, capsys, monkeypatch, doc, message):
    monkeypatch.setattr(harness, "_run_trials", no_trials)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("epsilons", [[0.3], [0.3, 0.3]], ids=["one", "repeated"])
def test_separation_grid_without_two_distinct_epsilons_exits_1_naming_the_key(tmp_path, capsys, monkeypatch,
                                                                              epsilons):
    # The slope of log N* against log(1 / epsilon) needs two distinct points.
    monkeypatch.setattr(harness, "_run_trials", no_trials)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SEPARATION, "grid": [{"n": 3, "k": 2, "epsilon": eps} for eps in epsilons]}))
    assert main(["experiment", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: SeparationCurve key 'grid' needs at least two distinct epsilons to fit a slope, got {epsilons}"]


@pytest.mark.parametrize("epsilon,size", [(1e-300, "3.11e+303"), (1e-20, "2.14e+22")])
def test_citester_sample_size_numpy_cannot_draw_exits_1_naming_the_cell(tmp_path, capsys, epsilon, size):
    doc = {"kind": "CITesterRates", "grid": [{"n": 3, "k": 2, "epsilon": 0.3, "N": 20},
                                             {"n": 3, "k": 2, "epsilon": epsilon}], "trials": 1, "seed": 1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: CITesterRates grid cell 1 needs key 'N' or a larger key 'epsilon': epsilon {epsilon} gives "
        f"a formula sample size of {size}, more than numpy can draw"]
    assert captured.out == ""


@pytest.mark.parametrize("kind,cell,N", [
    ("Add1Risk", {"n": 1, "k": 3, "epsilon": 0.05}, 10**19),
    ("RealizableRecovery", {"n": 4, "k": 2, "epsilon": 0.1}, 10**19),
    ("CITesterRates", {"n": 3, "k": 2, "epsilon": 0.3}, 10**19),
    ("RealizableRecovery", {"n": 16, "k": 2, "epsilon": 0.1}, 10**18),
], ids=["Add1Risk", "RealizableRecovery", "CITesterRates", "RealizableRecovery-wide"])
def test_grid_cell_N_numpy_cannot_draw_exits_1_naming_the_cell(tmp_path, capsys, kind, cell, N):
    # 10^19 rows of float64 draws would take more bytes than an array may
    # hold; so would 10^18 rows of 16 one-byte symbols, though their draws would fit.
    doc = {"kind": kind, "grid": [{**cell, "N": 20}, {**cell, "N": N}], "trials": 1, "seed": 1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    n = cell["n"]
    assert captured.err.splitlines() == [
        f"error: {kind} grid cell 1 needs key 'N' of at most {np.iinfo(np.intp).max // max(8, n)}, the most numpy "
        f"can draw for n {n}, got {N}"]
    assert captured.out == ""


def test_separation_target_out_of_reach_exits_1_naming_the_cell(tmp_path, capsys):
    doc = {"kind": "SeparationCurve", "grid": [{"n": 3, "k": 2, "epsilon": 0.01}, {"n": 3, "k": 2, "epsilon": 0.02}],
           "trials": 20, "seed": 1, "options": {"max_samples": 100}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: SeparationCurve grid cell 0 reached a success rate of 0.8 at no sample size up to "
        "'options' key 'max_samples' 100, got epsilon 0.01"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "probs,bad",
    [(["0.5", "0.5"], "'0.5'"), ([True, False], "True"), ([0.5, True], "True")],
    ids=["strings", "booleans", "number-and-boolean"],
)
def test_model_root_marginal_takes_numbers_only(probs, bad):
    doc = json.loads(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    with pytest.raises(ValueError) as err:
        tree_model_from_json(json.dumps({**doc, "root_marginal": probs}))
    assert str(err.value) == f"model has a bad value for key 'root_marginal': expected a number, got {bad}"


def test_model_with_a_string_in_a_cpt_row_exits_1(tmp_path, capsys):
    doc = json.loads(tree_model_to_json(random_tree_model(3, 2, seed=1)))
    doc["cpt"]["1"][0][1] = str(doc["cpt"]["1"][0][1])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "data.csv"
    assert main(["sample", "--model", str(model), "--count", "10", "--seed", "1", "--out", str(out)]) == 1
    message = f"model has a bad value for key 'cpt': expected a number, got {doc['cpt']['1'][0][1]!r}"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_strict_converters():
    assert _int(7) == 7 and _int(1e12) == 10**12 and _int(-3.0) == -3
    assert _float(2) == 2.0 and _float(0.5) == 0.5
    for convert, value in ((_int, True), (_int, "7"), (_int, 2.5), (_int, float("inf")), (_float, False),
                           (_float, "0.5")):
        with pytest.raises(ValueError, match="^expected "):
            convert(value)
    # Other values keep the messages of int() and float().
    with pytest.raises(TypeError, match="int\\(\\) argument"):
        _int([1])
    with pytest.raises(TypeError, match="float\\(\\) argument"):
        _float(None)


def test_k_sets_the_alphabet_of_csv_and_cls1_alike(tmp_path, capsys):
    rng = np.random.default_rng(3)
    s = SampleSet(Alphabet(2), rng.integers(0, 2, size=(200, 4)))
    write_csv(s, tmp_path / "data.csv")
    write_binary(s, tmp_path / "data.bin")
    outputs = []
    for name in ("data.csv", "data.bin"):
        assert main(["learn", "--samples", str(tmp_path / name), "--mode", "full", "--k", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["k"] == 3


def test_cls1_symbol_at_least_k_exits_2(tmp_path, capsys):
    path = tmp_path / "data.bin"
    write_binary(SampleSet(Alphabet(3), np.array([[0, 2], [1, 0]])), path)
    assert main(["learn", "--samples", str(path), "--mode", "full", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "symbol out of range" in err


def readme_table(header: str) -> list:
    """The body rows of the README table whose header row is `header`, as
    lists of cell texts."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_cell_table_matches_the_kinds():
    rows = readme_table("| Kind | Smallest `N` | Other cell rules |")
    assert [row[0] for row in rows] == [f"`{kind}`" for kind in KINDS]
    assert [int(row[1]) for row in rows] == [_KINDS[kind][1] for kind in KINDS]
    assert [row[2].split(";")[0] for row in rows] == [_KINDS[kind][3][0] for kind in KINDS]


def test_readme_option_table_matches_the_kinds():
    types = {_int: "integer", _float: "number", _regime: "string", _grid_maximum: "integer"}
    want = []
    for kind in KINDS:
        for key, (convert, default) in _KINDS[kind][2].items():
            shown = "the cell's `epsilon`" if default is None else f"`{json.dumps(default)}`"
            want.append((f"`{kind}`", f"`{key}`", types[convert], shown))
    rows = readme_table("| Kind | Key | Type | Default | Meaning |")
    assert [tuple(row[:4]) for row in rows] == want
    assert all(re.search(r"\w", row[4]) for row in rows)


def test_readme_flag_tables_match_the_parser():
    (subcommands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subcommands.choices.items():
        want = []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            shown = "required" if action.required else "none" if action.default is None else f"`{action.default}`"
            want.append((", ".join(f"`{option}`" for option in action.option_strings), shown, action.help))
        rows = readme_table(f"| `chowliu {name}` flag | Required or default | Meaning |")
        assert [(option, shown, meaning.replace("`", "")) for option, shown, meaning in rows] == want, name


def test_float_takes_only_finite_numbers():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^expected a finite number, got "):
            _float(value)
    with pytest.raises(OverflowError):
        _float(10**400)
    assert _float(-1e308) == -1e308
