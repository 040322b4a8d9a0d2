"""Experiment harness: grid-driven trials with deterministic seeding and a
stable CSV output schema.

Every trial's randomness comes from a seed derived from (master seed, kind,
cell index, trial index), so runs are reproducible cell-by-cell and
independent of execution order.  The CSV's `seconds` column is written as 0.0
unless timing is explicitly enabled, keeping default output byte-identical
across runs; measured wall time always goes to the returned rows.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .citest import (
    DEFAULT_C_SAMPLE,
    INDEPENDENT,
    TesterConfig,
    calibration_family,
    required_samples_cmi,
    test_conditional_independence,
)
from .estimation import DEFAULT_ADD_ONE_CONSTANT, SampleSet, _add_one_kl, add_one_risk_bound
from .hardinstances import nonrealizable_triple, realizable_triple
from .info import _pairwise_mi
from .model import (
    Alphabet,
    _float,
    _int,
    _json_fields,
    exact_mi_matrix,
    random_tree_model,
    sample,
    sample_dense,
)
from .seeding import derive_seed
from .structure import chow_liu_structure, max_weight_spanning_tree, tree_weight

__all__ = [
    "KINDS",
    "CSV_HEADER",
    "ExperimentCell",
    "ExperimentConfig",
    "ExperimentRow",
    "SeparationPoint",
    "SeparationResult",
    "run_experiment",
    "write_rows_csv",
    "separation_curve",
    "fitted_slope",
]

CSV_HEADER = "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds"


def _path_or_none(value):
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a path string, got {type(value).__name__}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentCell:
    n: int
    k: int
    epsilon: float
    n_samples: int


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    grid: tuple
    trials: int
    seed: int
    out_path: str | None = None
    options: dict = field(default_factory=dict)
    # `options` decoded by the kind's spec: wall time in the CSV or not, and the runner's keyword arguments.
    timing: bool = field(init=False, repr=False, compare=False)
    kind_options: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not self.grid:
            raise ValueError("grid must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "grid", tuple(self.grid))
        spec = _KINDS[self.kind][2]
        *values, timing = _json_fields(self.options, f"{self.kind} 'options'", {**spec, "timing": (_bool, False)})
        object.__setattr__(self, "timing", timing)
        object.__setattr__(self, "kind_options", dict(zip(spec, values)))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        kind, cells, trials, seed, out_path, options = _json_fields(json.loads(text), "experiment config", {
            "kind": lambda kind: kind,  # checked, as are the options, when the config is built
            "grid": list,
            "trials": _int,
            "seed": _int,
            "out": (_path_or_none, None),
            "options": (lambda options: options, {}),
        })
        cell = {"n": _int, "k": _int, "epsilon": _float, "N": (_int, 0)}
        grid = tuple(ExperimentCell(*_json_fields(c, "experiment grid cell", cell)) for c in cells)
        return ExperimentConfig(kind, grid, trials, seed, out_path, options)

    def to_json(self, indent=2) -> str:
        doc = {
            "kind": self.kind,
            "grid": [
                {"n": c.n, "k": c.k, "epsilon": c.epsilon, "N": c.n_samples} for c in self.grid
            ],
            "trials": self.trials,
            "seed": self.seed,
            "options": self.options,
        }
        if self.out_path is not None:
            doc["out"] = self.out_path
        return json.dumps(doc, indent=indent)


@dataclass(frozen=True)
class ExperimentRow:
    """One grid cell's aggregate.  `excess` is the cell's loss measure: exact
    tree-weight shortfall for recovery kinds, KL minus its bound for Add1Risk,
    and statistic minus epsilon on the independent instance for CITesterRates."""

    n: int
    k: int
    epsilon: float
    n_samples: int
    trials: int
    success_rate: float
    mean_excess: float
    p95_excess: float
    seconds: float


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(rows, timing: bool) -> str:
    """The experiment CSV: the header, then one line per row; `seconds` is
    0.0 unless timing."""
    return CSV_HEADER + "\n" + "".join(
        f"{r.n},{r.k},{_fmt(r.epsilon)},{r.n_samples},{r.trials},{_fmt(r.success_rate)},"
        f"{_fmt(r.mean_excess)},{_fmt(r.p95_excess)},{_fmt(r.seconds if timing else 0.0)}\n"
        for r in rows
    )


def write_rows_csv(rows, path, timing: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(rows, timing))


def _run_trials(cell: ExperimentCell, trials: int, trial) -> ExperimentRow:
    """Run trial(t) -> (success, excess) for t in range(trials) and
    aggregate the cell's row, timing the whole loop."""
    start = time.perf_counter()
    successes = 0
    excesses = []
    for t in range(trials):
        success, excess = trial(t)
        successes += success
        excesses.append(excess)
    arr = np.asarray(excesses, dtype=np.float64)
    return ExperimentRow(
        n=cell.n,
        k=cell.k,
        epsilon=cell.epsilon,
        n_samples=cell.n_samples,
        trials=trials,
        success_rate=successes / trials,
        mean_excess=float(arr.mean()),
        p95_excess=float(np.percentile(arr, 95)),
        seconds=time.perf_counter() - start,
    )


def _shortfall(weights, s: SampleSet) -> float:
    """True weight of the best tree minus that of the tree learned from s."""
    best = tree_weight(weights, max_weight_spanning_tree(weights))
    return best - tree_weight(weights, chow_liu_structure(s))


# -- recovery kinds -------------------------------------------------------------


def _realizable_cell(cell: ExperimentCell, trials: int, master: int, index: int, cpt_floor) -> ExperimentRow:
    def trial(t):
        m = random_tree_model(cell.n, cell.k, derive_seed(master, "real", index, t, "model"), cpt_floor)
        s = sample(m, cell.n_samples, derive_seed(master, "real", index, t, "data"))
        excess = _shortfall(exact_mi_matrix(m), s)
        return excess <= cell.epsilon, excess

    return _run_trials(cell, trials, trial)


def _block_mi_matrix(blocks) -> np.ndarray:
    """Exact pairwise MI of an independent block product: block-diagonal, with
    cross-block entries exactly zero."""
    offsets = list(itertools.accumulate((b.n for b in blocks), initial=0))
    pairs = (((offset + i, offset + j), b.marginal((i, j)))
             for b, offset in zip(blocks, offsets) for i, j in itertools.combinations(range(b.n), 2))
    return _pairwise_mi(offsets[-1], pairs)


def _sample_blocks(blocks, count: int, seed: int) -> SampleSet:
    columns = [sample_dense(b, count, derive_seed(seed, i)).rows for i, b in enumerate(blocks)]
    return SampleSet(Alphabet(blocks[0].k), np.hstack(columns))


def _nonrealizable_cell(cell: ExperimentCell, trials: int, master: int, index: int, instance_epsilon) -> ExperimentRow:
    instance_eps = cell.epsilon if instance_epsilon is None else instance_epsilon

    def trial(t):
        rng = np.random.default_rng(derive_seed(master, "nonreal", index, t, "pick"))
        blocks = [nonrealizable_triple(int(rng.integers(1, 4)), instance_eps) for _ in range(cell.n // 3)]
        s = _sample_blocks(blocks, cell.n_samples, derive_seed(master, "nonreal", index, t, "data"))
        excess = _shortfall(_block_mi_matrix(blocks), s)
        return excess <= cell.epsilon, excess

    return _run_trials(cell, trials, trial)


# -- separation curve -----------------------------------------------------------


@dataclass(frozen=True)
class SeparationPoint:
    epsilon: float
    n_star: int


@dataclass(frozen=True)
class SeparationResult:
    regime: str
    points: tuple
    slope: float  # of log N* against log(1 / epsilon)
    rows: tuple   # one ExperimentRow per probed (epsilon, N)


def fitted_slope(points) -> float:
    xs = np.array([math.log(1.0 / p.epsilon) for p in points])
    ys = np.array([math.log(p.n_star) for p in points])
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(xs, ys, 1)[0])


def _sample_size_grid(start: int, maximum: int) -> list:
    """Doubling grid: start, 2*start, 4*start, ... up to maximum."""
    if start < 1:
        raise ValueError(f"start must be at least 1, got {start}")
    out = []
    value = int(start)
    while value <= maximum:
        out.append(value)
        value *= 2
    return out


def separation_curve(
    regime: str,
    epsilons,
    trials: int,
    seed: int,
    target_rate: float = 0.8,
    start: int = 6,
    max_samples: int = 1 << 20,
) -> SeparationResult:
    """Smallest sample size (on a doubling grid) at which the structure
    learner is epsilon-approximate in at least `target_rate` of trials, per
    construction epsilon, plus the fitted log-log slope of N* against 1/eps.

    A trial succeeds when the learner is epsilon-approximate on every member
    of the three-member family, each member judged on its own independent
    sample set.  That mirrors the indistinguishability argument the families
    are built for: the learner must handle whichever member it is handed, so
    a sample size only counts once no member trips it up.  Success per member
    is the exact weight inequality on the known ground truth (learned tree's
    true weight within epsilon of the true optimum); the recorded excess is
    the worst member's.
    """
    if regime not in ("realizable", "nonrealizable"):
        raise ValueError(f"unknown regime {regime!r}")
    make = realizable_triple if regime == "realizable" else nonrealizable_triple
    points = []
    rows = []
    for eps in epsilons:
        joints = [make(index, eps) for index in (1, 2, 3)]
        instances = [(joint, _block_mi_matrix([joint])) for joint in joints]
        n_star = None
        for count in _sample_size_grid(start, max_samples):

            def trial(t):
                worst = 0.0
                for index, (joint, weights) in enumerate(instances):
                    s = sample_dense(joint, count, derive_seed(seed, regime, eps, count, t, index))
                    worst = max(worst, _shortfall(weights, s))
                return worst <= eps, worst

            rows.append(_run_trials(ExperimentCell(n=3, k=2, epsilon=eps, n_samples=count), trials, trial))
            if rows[-1].success_rate >= target_rate:
                n_star = count
                break
        if n_star is None:
            raise RuntimeError(f"no sample size up to {max_samples} reached the target rate at epsilon={eps}")
        points.append(SeparationPoint(epsilon=float(eps), n_star=n_star))
    return SeparationResult(
        regime=regime, points=tuple(points), slope=fitted_slope(points), rows=tuple(rows)
    )


# -- bound-checking kinds ---------------------------------------------------------


def _add1_cell(cell: ExperimentCell, trials: int, master: int, index: int, constant) -> ExperimentRow:
    """`epsilon` carries delta for the KL bound; success means the achieved KL
    stays under the calibrated bound."""
    delta = cell.epsilon
    bound = add_one_risk_bound(cell.k, delta, cell.n_samples, constant)

    def trial(t):
        rng = np.random.default_rng(derive_seed(master, "add1", index, t))
        d = _add_one_kl(rng.dirichlet(np.ones(cell.k)), cell.n_samples, rng)
        return d <= bound, d - bound

    return _run_trials(cell, trials, trial)


def _citester_cell(cell: ExperimentCell, trials: int, master: int, index: int, delta, c_sample) -> ExperimentRow:
    """Each trial tests one conditionally independent and one dependent member
    of the calibration family; success means both verdicts are correct."""
    cfg = TesterConfig(epsilon=cell.epsilon, delta=delta, k=cell.k, c_sample=c_sample)
    count = cell.n_samples if cell.n_samples > 0 else required_samples_cmi(cfg)
    family = {m.name: m for m in calibration_family(cell.k, cell.epsilon)}
    ci = family["ci-common-cause"]
    dep = family["dep-borderline"]

    def trial(t):
        s_ci = sample_dense(ci.joint, count, derive_seed(master, "citest", index, t, "ci"))
        s_dep = sample_dense(dep.joint, count, derive_seed(master, "citest", index, t, "dep"))
        v_ci = test_conditional_independence(s_ci, cfg)
        v_dep = test_conditional_independence(s_dep, cfg)
        return (v_ci.verdict == INDEPENDENT) and (v_dep.verdict != INDEPENDENT), v_ci.statistic - cell.epsilon

    return _run_trials(ExperimentCell(cell.n, cell.k, cell.epsilon, count), trials, trial)


def _separation_kind(cfg: ExperimentConfig, **options) -> list:
    """Every probe runs the three-bit families, at sample sizes of its own."""
    epsilons = [cell.epsilon for cell in cfg.grid]
    return list(separation_curve(epsilons=epsilons, trials=cfg.trials, seed=cfg.seed, **options).rows)


def _each_cell(run_cell):
    """A kind's runner that runs run_cell on each grid cell in turn."""
    return lambda cfg, **options: [run_cell(c, cfg.trials, cfg.seed, i, **options) for i, c in enumerate(cfg.grid)]


# The one owner of each experiment kind: its runner, (config, **decoded
# options) -> rows; the smallest N its grid cells accept; its option keys, as
# a _json_fields spec; and its other cell rule, as (words, test of a cell).
# Every kind also takes the key "timing".
_KINDS = {
    "RealizableRecovery": (_each_cell(_realizable_cell), 1, {"cpt_floor": (_float, 0.05)},
                           ("none", lambda cell: True)),
    "NonRealizableRecovery": (_each_cell(_nonrealizable_cell), 1, {"instance_epsilon": (_float, None)},
                              ("n a positive multiple of 3 and k 2 (the triples are binary)",
                               lambda cell: cell.n >= 3 and cell.n % 3 == 0 and cell.k == 2)),
    "SeparationCurve": (_separation_kind, 0, {"regime": (str, "realizable"), "target_rate": (_float, 0.8),
                                              "start": (_int, 6), "max_samples": (_int, 1 << 20)},
                        ("n 3, k 2 and no key 'N'", lambda cell: (cell.n, cell.k, cell.n_samples) == (3, 2, 0))),
    "Add1Risk": (_each_cell(_add1_cell), 1, {"constant": (_float, DEFAULT_ADD_ONE_CONSTANT)},
                 ("n 1", lambda cell: cell.n == 1)),
    "CITesterRates": (_each_cell(_citester_cell), 0, {"delta": (_float, 0.1),
                                                      "c_sample": (_float, DEFAULT_C_SAMPLE)},
                      ("n 3", lambda cell: cell.n == 3)),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every grid cell and return one ExperimentRow per cell (the
    SeparationCurve kind emits one row per probed sample size).  Writes the
    CSV to cfg.out_path when set; pass options={"timing": true} to record
    wall time in the file, at the cost of byte-identical reruns."""
    run, min_samples, _, (needs, accepts) = _KINDS[cfg.kind]
    for index, cell in enumerate(cfg.grid):
        if cell.n_samples < min_samples:
            raise ValueError(f"{cfg.kind} grid cell {index} needs key 'N' of at least {min_samples}, "
                             f"got {cell.n_samples}")
    for index, cell in enumerate(cfg.grid):
        if not accepts(cell):
            raise ValueError(f"{cfg.kind} grid cell {index} needs {needs}, "
                             f"got n {cell.n}, k {cell.k}, N {cell.n_samples}")
    rows = run(cfg, **cfg.kind_options)
    if cfg.out_path is not None:
        write_rows_csv(rows, cfg.out_path, cfg.timing)
    return rows
