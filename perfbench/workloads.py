"""Workloads of the chowliu CLI benchmark: seeded inputs, the commands of one
pass, and the correctness gate against pinned reference outputs.

Inputs are made by this file's own numpy code, never by `chowliu.sample`, so a
change to the program's samplers cannot change what the other layers are fed.
The workload seed selects one of VARIANTS input variants; each variant's input
and output digests are pinned in pinned.json (written by pin.py), so any seed
can be checked byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"
VARIANTS = 16

# Two workloads of CLI commands, each one pass of the commands it lists (see
# README.md for what each loads and bypasses, and the predicted effect of each
# planned change).  Both run a `learn`, timed on its own as learn_s.
#   mi-oracle:  learn on a wide binary file (structure.mi_matrix under load),
#               then a RealizableRecovery experiment (the exact oracle);
#               bypasses CSV I/O and the CI tester.
#   csv-citest: sample writes a tall CSV, learn reads it (CSV I/O under load),
#               then calibrate (the CI tester); bypasses the MI kernel at
#               scale and the exact oracle.
WORKLOADS = ("mi-oracle", "csv-citest")
LEARN = "learn"

# The groups of commands the workloads are made of.  Each group draws its
# inputs from its own stream, numbered by its place here, so its inputs do not
# depend on which workload runs it; reordering changes the pinned inputs.
PARTS = ("wide", "tall", "harness", "calibrate")

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is only for
# smoke.py, which checks the benchmark itself in a few seconds.
SCALES = {
    "full": {
        "wide": {"n": 100, "k": 4, "count": 50_000},
        "tall": {"n": 16, "k": 2, "count": 200_000},
        "harness": {"n": 40, "ks": (2, 3), "counts": (2000, 4000), "trials": 3},
        "calibrate_grid": None,
    },
    "tiny": {
        "wide": {"n": 12, "k": 3, "count": 2000},
        "tall": {"n": 6, "k": 2, "count": 3000},
        "harness": {"n": 8, "ks": (2, 3), "counts": (200, 400), "trials": 2},
        # The two smallest candidates around the answer: the same trials as the
        # full search for these candidates, so the same output bytes.
        "calibrate_grid": ("0.125", "0.1875"),
    },
}

EPSILON = 0.1
CALIBRATE_C_SAMPLE = 0.1875
EXPERIMENT_EXACT = ("n", "k", "epsilon", "N", "trials", "success_rate")
EXPERIMENT_CLOSE = ("mean_excess", "p95_excess")
# Oracle weight differences of a correct faster exact oracle were measured at
# <= 1.3e-15, so the excess columns get this absolute slack.
EXPERIMENT_ATOL = 1e-12


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    outputs: tuple  # file names under the output directory this command writes


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    scale: str
    inputs: dict  # file name -> sha256 of each generated input
    commands: tuple

    def argv(self, command: Command, outdir: Path) -> list:
        return [a.format(out=outdir) for a in command.argv]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- input generation ------------------------------------------------------------


def _tree_model(rng: np.random.Generator, n: int, k: int):
    """Random recursive tree rooted at 0 with Dirichlet rows pulled towards a
    permutation, so neighbours carry clearly more information than non-neighbours."""
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    root_marginal = rng.dirichlet(np.full(k, 2.0))
    cpt = {}
    for node in range(1, n):
        perm = rng.permutation(k)
        rows = 0.4 * rng.dirichlet(np.ones(k), size=k)
        rows[np.arange(k), perm] += 0.6
        cpt[node] = rows / rows.sum(axis=1, keepdims=True)
    return parent, root_marginal, cpt


def _ancestral_rows(rng: np.random.Generator, parent, root_marginal, cpt, count: int) -> np.ndarray:
    n, k = len(parent), root_marginal.shape[0]
    rows = np.empty((count, n), dtype=np.uint8)
    rows[:, 0] = np.minimum(np.searchsorted(np.cumsum(root_marginal), rng.random(count)), k - 1)
    for node in range(1, n):  # parents precede children in a recursive tree
        cum = np.cumsum(cpt[node], axis=1)[rows[:, parent[node]]]
        rows[:, node] = np.minimum((cum < rng.random(count)[:, None]).sum(axis=1), k - 1)
    return rows


def _write_model_json(path: Path, parent, root_marginal, cpt) -> None:
    doc = {
        "n": len(parent),
        "k": int(root_marginal.shape[0]),
        "root": 0,
        "parents": parent,
        "root_marginal": [float(x) for x in root_marginal],
        "cpt": {str(node): [[float(x) for x in row] for row in cpt[node]] for node in sorted(cpt)},
    }
    path.write_text(json.dumps(doc))


def _write_cls1(path: Path, rows: np.ndarray, k: int) -> None:
    count, n = rows.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQ", b"CLS1", n, k, count))
        fh.write(np.ascontiguousarray(rows, dtype=np.uint8).tobytes())


def _wide_commands(rng, sizes, variant, indir: Path) -> tuple:
    n, k, count = sizes["wide"]["n"], sizes["wide"]["k"], sizes["wide"]["count"]
    parent, root_marginal, cpt = _tree_model(rng, n, k)
    _write_cls1(indir / "samples.bin", _ancestral_rows(rng, parent, root_marginal, cpt, count), k)
    return (Command(LEARN, ("learn", "--samples", str(indir / "samples.bin"), "--mode", "full",
                            "--out", "{out}/model.json"), ("model.json",)),)


def _tall_commands(rng, sizes, variant, indir: Path) -> tuple:
    n, k, count = sizes["tall"]["n"], sizes["tall"]["k"], sizes["tall"]["count"]
    _write_model_json(indir / "model.json", *_tree_model(rng, n, k))
    return (
        Command("sample", ("sample", "--model", str(indir / "model.json"), "--count", str(count),
                           "--seed", str(1000 + variant), "--out", "{out}/samples.csv"), ("samples.csv",)),
        Command(LEARN, ("learn", "--samples", "{out}/samples.csv", "--mode", "full",
                        "--out", "{out}/model.json"), ("model.json",)),
    )


def _harness_commands(rng, sizes, variant, indir: Path) -> tuple:
    h = sizes["harness"]
    config = {
        "kind": "RealizableRecovery",
        "grid": [{"n": h["n"], "k": k, "epsilon": EPSILON, "N": count}
                 for k in h["ks"] for count in h["counts"]],
        "trials": h["trials"],
        "seed": 2000 + variant,
    }
    (indir / "experiment.json").write_text(json.dumps(config))
    return (Command("experiment", ("experiment", "--config", str(indir / "experiment.json"),
                                   "--out", "{out}/experiment.csv"), ("experiment.csv",)),)


def _calibrate_commands(rng, sizes, variant, indir: Path) -> tuple:
    # The reference configuration at its default seed: the workload seed does
    # not change it, because only this seed pins c_sample = 0.1875.
    argv = ["calibrate", "--epsilon", "0.1", "--delta", "0.1", "--k", "2", "--trials", "200",
            "--out", "{out}/calibrate.json"]
    if sizes["calibrate_grid"] is not None:
        argv += ["--grid", *sizes["calibrate_grid"]]
    return (Command("calibrate", tuple(argv), ("calibrate.json", "calibrate.stdout")),)


COMPOSITION = {
    "mi-oracle": (("wide", _wide_commands), ("harness", _harness_commands)),
    "csv-citest": (("tall", _tall_commands), ("calibrate", _calibrate_commands)),
}


def prepare(name: str, seed: int, scale: str, indir: Path) -> Workload:
    """Write the inputs of `name` for `seed` into `indir` and return its commands.
    Output paths in the commands hold an `{out}` placeholder for the directory."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    sizes = SCALES[scale]
    variant = seed % VARIANTS
    indir.mkdir(parents=True, exist_ok=True)
    commands = ()
    for part, make in COMPOSITION[name]:
        commands += make(np.random.default_rng([PARTS.index(part), variant]), sizes, variant, indir)
    inputs = {p.name: sha256_file(p) for p in sorted(indir.iterdir())}
    return Workload(name, variant, scale, inputs, commands)


# -- correctness gate --------------------------------------------------------------


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def pinned_entry(pinned: dict, w: Workload) -> dict:
    return pinned[w.scale][w.name][str(w.variant)]


def describe_output(path: Path) -> object:
    """The pinned form of one output file: experiment CSVs keep their rows so
    that the excess columns can be compared with a tolerance; every other
    output is pinned by its sha256."""
    if path.name == "experiment.csv":
        return {"rows": path.read_text().splitlines()}
    return sha256_file(path)


def _experiment_problems(text: str, pinned_rows: list) -> list:
    lines = text.splitlines()
    if len(lines) != len(pinned_rows) or not lines or lines[0] != pinned_rows[0]:
        return [f"experiment CSV has {len(lines)} lines or another header"]
    header = pinned_rows[0].split(",")
    problems = []
    for lineno, (got, want) in enumerate(zip(lines[1:], pinned_rows[1:]), start=2):
        g, w = dict(zip(header, got.split(","))), dict(zip(header, want.split(",")))
        if len(g) != len(header) or set(g) != set(w):
            problems.append(f"experiment CSV line {lineno}: wrong column count")
            continue
        for col in EXPERIMENT_EXACT:
            if g[col] != w[col]:
                problems.append(f"experiment CSV line {lineno}: {col}={g[col]} != pinned {w[col]}")
        for col in EXPERIMENT_CLOSE:
            try:
                delta = abs(float(g[col]) - float(w[col]))
            except ValueError:
                delta = float("inf")
            if not delta <= EXPERIMENT_ATOL:
                problems.append(f"experiment CSV line {lineno}: {col}={g[col]} differs from pinned {w[col]}")
        if g["seconds"] != w["seconds"]:
            problems.append(f"experiment CSV line {lineno}: seconds={g['seconds']} != pinned {w['seconds']}")
    return problems


def check_command(w: Workload, pinned: dict, command: Command, outdir: Path) -> list:
    """Problems with one command's outputs; an empty list means they are correct."""
    expected = pinned_entry(pinned, w)["outputs"]
    problems = []
    for name in command.outputs:
        path = outdir / name
        if not path.is_file():
            problems.append(f"{command.label}: missing output {name}")
            continue
        want = expected[name]
        if isinstance(want, dict):
            problems += [f"{command.label}: {p}" for p in _experiment_problems(path.read_text(), want["rows"])]
        elif sha256_file(path) != want:
            problems.append(f"{command.label}: {name} differs from its pinned digest")
        if name == "calibrate.json" and w.scale == "full":
            try:
                c_sample = json.loads(path.read_text())["c_sample"]
            except (ValueError, KeyError, TypeError):
                c_sample = None
            if c_sample != CALIBRATE_C_SAMPLE:
                problems.append(f"{command.label}: c_sample={c_sample!r}, expected {CALIBRATE_C_SAMPLE}")
    return problems
