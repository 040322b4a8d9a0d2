"""Property test of the command line on mutated JSON documents.

Core claim:
    - `cli.main` on a valid model, tree, tester config or experiment config
      (all five kinds) with a key dropped, an unknown key added or a value
      replaced from a fixed list returns 0, 1 or 2, lets no exception
      escape, and on failure ends stderr with one `error:` line

No mutation raises a size key (n, N, trials, max_samples) above the valid
document's value, nor `--count`, so every example stays small: a dropped
SeparationCurve `max_samples` would probe sample sizes up to 2^20.

The module skips where hypothesis is not installed.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from chowliu.cli import main  # noqa: E402
from chowliu.estimation import write_csv  # noqa: E402
from chowliu.model import sample, tree_model_from_json  # noqa: E402

MODEL = {"n": 3, "k": 2, "root": 0, "parents": [-1, 0, 1], "root_marginal": [0.4, 0.6],
         "cpt": {"1": [[0.7, 0.3], [0.2, 0.8]], "2": [[0.9, 0.1], [0.5, 0.5]]}}
DOCUMENTS = {
    "model": MODEL,
    "tree": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "tester": {"c_sample": 2.0, "c_decision": 0.5},
    "RealizableRecovery": {"kind": "RealizableRecovery", "grid": [{"n": 4, "k": 2, "epsilon": 0.1, "N": 50}],
                           "trials": 2, "seed": 1, "options": {"cpt_floor": 0.05}},
    "NonRealizableRecovery": {"kind": "NonRealizableRecovery", "grid": [{"n": 3, "k": 2, "epsilon": 0.3, "N": 50}],
                              "trials": 2, "seed": 1, "options": {"instance_epsilon": 0.3}},
    "SeparationCurve": {"kind": "SeparationCurve",
                        "grid": [{"n": 3, "k": 2, "epsilon": 0.3}, {"n": 3, "k": 2, "epsilon": 0.4}],
                        "trials": 2, "seed": 1, "options": {"regime": "realizable", "max_samples": 48}},
    "Add1Risk": {"kind": "Add1Risk", "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 20}], "trials": 2, "seed": 1,
                 "options": {"constant": 4.0}},
    # No N: the tester's formula sets the sample size.
    "CITesterRates": {"kind": "CITesterRates", "grid": [{"n": 3, "k": 2, "epsilon": 0.3}], "trials": 2, "seed": 1,
                      "options": {"delta": 0.1, "c_sample": 0.1875}},
}
VALUES = [0, -1, 0.0, 1e-300, 2.5, True, "x", None, [], {}]
OPERATIONS = ["drop", "add", "replace"]

MUTATIONS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def locations(doc, path=()):
    """The path of every value in the document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def candidates(doc, operation: str) -> list:
    """The paths an operation can act on: keys of objects to drop, objects to
    add a key to, and values other than the document itself to replace."""
    paths = list(locations(doc))
    if operation == "drop":
        return [p for p in paths if p and isinstance(at(doc, p[:-1]), dict)]
    if operation == "add":
        return [p for p in paths if isinstance(at(doc, p), dict)]
    return paths[1:]


def mutate(doc, mutations):
    """The document after each (operation, where, value): `where` picks one
    of the operation's candidate paths, modulo their number."""
    doc = copy.deepcopy(doc)
    for operation, where, value in mutations:
        paths = candidates(doc, operation)
        if not paths:
            continue
        path = paths[where % len(paths)]
        if operation == "drop":
            del at(doc, path[:-1])[path[-1]]
        elif operation == "add":
            at(doc, path)["unknown"] = copy.deepcopy(value)
        else:
            at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    return doc


def raises_a_size(doc) -> bool:
    """Whether a SeparationCurve config lost its max_samples to the default
    of 2^20, the one size a mutation of these documents can raise."""
    options = doc.get("options", {})
    return doc.get("kind") == "SeparationCurve" and isinstance(options, dict) and "max_samples" not in options


def path_index(name: str, operation: str, path: tuple) -> int:
    """The `where` that makes the operation act on `path` of a valid document."""
    return candidates(DOCUMENTS[name], operation).index(path)


def run(name: str, doc, tmp: Path) -> tuple:
    """(return code, stderr) of cli.main on the document."""
    path = tmp / "doc.json"
    path.write_text(json.dumps(doc))
    data = tmp / "data.csv"
    write_csv(sample(tree_model_from_json(json.dumps(MODEL)), 60, seed=3), data)
    argv = {
        "model": ["sample", "--model", str(path), "--count", "20", "--seed", "1", "--out", str(tmp / "out.csv")],
        "tree": ["learn", "--samples", str(data), "--mode", "params", "--tree", str(path)],
        "tester": ["citest", "--samples", str(data), "--epsilon", "0.2", "--delta", "0.1", "--config", str(path)],
    }.get(name, ["experiment", "--config", str(path)])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@MUTATIONS
@given(st.sampled_from(sorted(DOCUMENTS)),
       st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 1000), st.sampled_from(VALUES)),
                min_size=1, max_size=2))
# An epsilon of 0 once ended SeparationCurve in a ZeroDivisionError.
@example("SeparationCurve", [("replace", path_index("SeparationCurve", "replace", ("grid", 0, "epsilon")), 0)])
# The tester's formula size at epsilon 1e-300 is past numpy's largest array.
@example("CITesterRates", [("replace", path_index("CITesterRates", "replace", ("grid", 0, "epsilon")), 1e-300)])
def test_mutated_document_gives_an_exit_code_and_no_traceback(name, mutations):
    doc = mutate(DOCUMENTS[name], mutations)
    assume(not raises_a_size(doc))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run(name, doc, Path(tmp))
    assert code in (0, 1, 2)
    assert code == 0 or err.splitlines()[-1].startswith("error: "), err
