"""Experiment harness: grid-driven trials with deterministic seeding and a
stable CSV output schema.

Every trial's randomness comes from a seed derived from (master seed, kind,
cell index, trial index), so runs are reproducible cell-by-cell and
independent of execution order.  The CSV's `seconds` column is always
written as 0.0, so every output reproduces byte for byte; measured wall time
goes only to the returned rows.

One loop, `_run_trials`, aggregates each row from its trials' (success,
excess) outcomes, timing the pass over them.  RealizableRecovery,
NonRealizableRecovery and Add1Risk run one trial per outcome.  SeparationCurve
and CITesterRates pass a generator whose first step draws every trial of each
member into one count stack (`estimation._trial_counts`, as `calibrate` does)
and takes the member's statistics from one MI or CMI call on it.

Each kind has one entry, `run_experiment` on an `ExperimentConfig`; the
SeparationCurve slope is `fitted_slope` of that kind's rows.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .citest import DEFAULT_C_SAMPLE, TesterConfig, calibration_family, required_samples_cmi
from .estimation import DEFAULT_ADD_ONE_CONSTANT, SampleSet, _add_one_kl, _max_samples, _trial_counts
from .estimation import add_one_risk_bound
from .hardinstances import nonrealizable_triple, realizable_triple
from .info import _pairwise_mi, conditional_mi, mutual_information
from .model import (
    Alphabet,
    _float,
    _int,
    _json_document,
    _json_fields,
    exact_mi_matrix,
    random_tree_model,
    sample,
    sample_dense,
)
from .seeding import derive_seed
from .structure import MIMatrix, max_weight_spanning_tree, mi_matrix, tree_weight

__all__ = [
    "KINDS",
    "CSV_HEADER",
    "ExperimentCell",
    "ExperimentConfig",
    "ExperimentRow",
    "run_experiment",
    "write_rows_csv",
    "fitted_slope",
]

CSV_HEADER = "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds"
_GRID_START = 6  # first sample size of the separation curve's doubling grid
_TARGET_RATE = 0.8  # success rate at which a separation probe stops


# The most trials a cell can run: _run_trials keeps one float64 excess per
# trial in one array.
_MAX_TRIALS = np.iinfo(np.intp).max // 8


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
    options: dict = field(default_factory=dict)
    # `options` decoded by the kind's spec: the runner's keyword arguments.
    kind_options: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not self.grid:
            raise ValueError("grid must not be empty")
        trials = self.trials
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or not 1 <= trials <= _MAX_TRIALS:
            raise ValueError(f"trials must be from 1 to {_MAX_TRIALS}, got {trials}")
        object.__setattr__(self, "grid", tuple(self.grid))
        spec = _KINDS[self.kind][2]
        object.__setattr__(self, "kind_options",
                           dict(zip(spec, _json_fields(self.options, f"{self.kind} 'options'", spec))))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        kind, cells, trials, seed, options = _json_document(text, "experiment config", {
            "kind": lambda kind: kind,  # checked, as are the options, when the config is built
            "grid": list,
            "trials": _int,
            "seed": _int,
            "options": (lambda options: options, {}),
        })
        cell = {"n": _int, "k": _int, "epsilon": _float, "N": (_int, 0)}
        grid = tuple(ExperimentCell(*_json_fields(c, "experiment grid cell", cell)) for c in cells)
        return ExperimentConfig(kind, grid, trials, seed, options)


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


def _csv_text(rows) -> str:
    """The experiment CSV: the header, then one line per row; `seconds` is
    always 0.0, as wall time does not reproduce."""
    return CSV_HEADER + "\n" + "".join(
        f"{r.n},{r.k},{_fmt(r.epsilon)},{r.n_samples},{r.trials},{_fmt(r.success_rate)},"
        f"{_fmt(r.mean_excess)},{_fmt(r.p95_excess)},0.0\n"
        for r in rows
    )


def write_rows_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(rows))


def _p95(values: np.ndarray) -> float:
    """np.percentile(values, 95) with its default linear rule, bit for bit,
    without the numpy.ma import its first call makes (through np.unique)."""
    x = np.sort(values)
    at = (len(x) - 1) * 0.95
    i = math.floor(at)
    if i >= len(x) - 1:
        return float(x[-1])
    t = at - i
    step = x[i + 1] - x[i]
    return float(x[i + 1] - step * (1 - t) if t >= 0.5 else x[i] + step * t)


def _run_trials(cell: ExperimentCell, trials: int, outcomes) -> ExperimentRow:
    """Aggregate the cell's row from outcomes, the trials' (success, excess)
    pairs in trial order, timing the whole pass over them, draws included.
    The excesses' array is allocated before the first outcome, so a trial
    count no memory can hold fails at once."""
    start = time.perf_counter()
    successes = 0
    excesses = np.empty(trials, dtype=np.float64)
    for t, (success, excess) in enumerate(outcomes):
        successes += bool(success)
        excesses[t] = excess
    return ExperimentRow(
        n=cell.n,
        k=cell.k,
        epsilon=cell.epsilon,
        n_samples=cell.n_samples,
        trials=trials,
        success_rate=successes / trials,
        mean_excess=float(excesses.mean()),
        p95_excess=_p95(excesses),
        seconds=time.perf_counter() - start,
    )


def _truth(weights: np.ndarray) -> tuple:
    """The true weights as an MIMatrix, and the weight of their best tree."""
    truth = MIMatrix(weights)
    return truth, tree_weight(truth, max_weight_spanning_tree(truth))


def _shortfall(truth: MIMatrix, best: float, learned) -> float:
    """best, the true weight of the best tree, minus the true weight of the
    tree learned from the weights `learned`."""
    return best - tree_weight(truth, max_weight_spanning_tree(learned))


# -- recovery kinds -------------------------------------------------------------


def _realizable_cell(cell: ExperimentCell, trials: int, master: int, index: int, cpt_floor) -> ExperimentRow:
    def trial(t):
        m = random_tree_model(cell.n, cell.k, derive_seed(master, "real", index, t, "model"), cpt_floor)
        s = sample(m, cell.n_samples, derive_seed(master, "real", index, t, "data"))
        excess = _shortfall(*_truth(exact_mi_matrix(m)), mi_matrix(s))
        return excess <= cell.epsilon, excess

    return _run_trials(cell, trials, map(trial, range(trials)))


def _block_mi_matrix(blocks) -> np.ndarray:
    """Exact pairwise MI of an independent block product: block-diagonal, with
    cross-block entries exactly zero."""
    offsets = list(itertools.accumulate((b.n for b in blocks), initial=0))
    pairs = ((offset + us, offset + vs, np.stack([b.marginal(pair) for pair in zip(us, vs)]))
             for b, offset in zip(blocks, offsets) for us, vs in [np.triu_indices(b.n, 1)])
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
        excess = _shortfall(*_truth(_block_mi_matrix(blocks)), mi_matrix(s))
        return excess <= cell.epsilon, excess

    return _run_trials(cell, trials, map(trial, range(trials)))


# -- separation curve -----------------------------------------------------------


def fitted_slope(rows) -> float:
    """The least-squares slope of log N* against log(1 / epsilon) over a
    SeparationCurve run's rows at which a probe stopped, those whose success
    rate reached the target: one row per grid epsilon, repeats included."""
    stops = [row for row in rows if row.success_rate >= _TARGET_RATE]
    if len(stops) < 2:
        raise ValueError("need at least two points to fit a slope")
    xs = np.array([math.log(1.0 / row.epsilon) for row in stops])
    ys = np.array([math.log(row.n_samples) for row in stops])
    return float(np.polyfit(xs, ys, 1)[0])


def _grid_maximum(value) -> int:
    """A SeparationCurve 'max_samples': an integer that admits the grid's first size."""
    value = _int(value)
    if value < _GRID_START:
        raise ValueError(f"expected an integer of at least {_GRID_START}, got {value!r}")
    return value


_FAMILIES = {"realizable": realizable_triple, "nonrealizable": nonrealizable_triple}


def _regime(value) -> str:
    """A SeparationCurve 'regime': the name of a family of three-bit triples."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    if value not in _FAMILIES:
        raise ValueError(f"expected {' or '.join(map(repr, _FAMILIES))}, got {value!r}")
    return value


def _sample_size_grid(maximum: int) -> list:
    """Doubling grid: 6, 12, 24, ... up to maximum."""
    out = []
    value = _GRID_START
    while value <= maximum:
        out.append(value)
        value *= 2
    return out


def _learned_weights(joint, count: int, trials: int, seed_of) -> np.ndarray:
    """mi_matrix of each trial's draw from a three-variable joint, bit for bit,
    as a (trials, 3, 3) stack: the pair tables sum the integer counts, as the
    count pass does, before the division."""
    tables = _trial_counts(joint, count, trials, seed_of)
    pairs = np.stack([tables.sum(axis=3), tables.sum(axis=2), tables.sum(axis=1)], axis=1) / count
    us, vs = np.triu_indices(3, 1)
    weights = np.zeros((trials, 3, 3))
    weights[:, us, vs] = weights[:, vs, us] = mutual_information(pairs.reshape(-1, 2, 2)).reshape(trials, 3)
    return weights


def _separation_kind(cfg: ExperimentConfig, regime: str, max_samples: int) -> list:
    """Per grid epsilon, a probe of the doubling grid from 6 up to max_samples
    that stops at the first sample size where the structure learner is
    epsilon-approximate in at least 80 % of trials; one row per probed size.

    A trial succeeds when the learner is epsilon-approximate on every member
    of the three-member family, each member judged on its own independent
    sample set.  That mirrors the indistinguishability argument the families
    are built for: the learner must handle whichever member it is handed, so
    a sample size only counts once no member trips it up.  Success per member
    is the exact weight inequality on the known ground truth (learned tree's
    true weight within epsilon of the true optimum); the recorded excess is
    the worst member's.
    """
    epsilons = [cell.epsilon for cell in cfg.grid]
    if len(set(epsilons)) < 2:  # each is above 0 by the cell rule
        raise ValueError(f"SeparationCurve key 'grid' needs at least two distinct epsilons to fit a slope, "
                         f"got {epsilons}")
    rows = []
    for index, cell in enumerate(cfg.grid):
        eps = cell.epsilon
        joints = [_FAMILIES[regime](member, eps) for member in (1, 2, 3)]
        instances = [(joint, *_truth(_block_mi_matrix([joint]))) for joint in joints]
        for count in _sample_size_grid(max_samples):

            def outcomes():  # every member's trials at once, on the first step
                learned = [_learned_weights(joint, count, cfg.trials,
                                            lambda t: derive_seed(cfg.seed, regime, eps, count, t, i))
                           for i, (joint, _, _) in enumerate(instances)]
                for t in range(cfg.trials):
                    worst = 0.0
                    for (_, truth, best), weights in zip(instances, learned):
                        worst = max(worst, _shortfall(truth, best, weights[t]))
                    yield worst <= eps, worst

            rows.append(_run_trials(ExperimentCell(cell.n, cell.k, eps, count), cfg.trials, outcomes()))
            if rows[-1].success_rate >= _TARGET_RATE:
                break
        else:
            raise ValueError(f"SeparationCurve grid cell {index} reached a success rate of {_TARGET_RATE} at no "
                             f"sample size up to 'options' key 'max_samples' {max_samples}, got epsilon {eps}")
    return rows


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

    return _run_trials(cell, trials, map(trial, range(trials)))


def _citester_cell(cell: ExperimentCell, trials: int, master: int, index: int, delta, c_sample) -> ExperimentRow:
    """Each trial tests one conditionally independent and one dependent member
    of the calibration family; success means both verdicts are correct: the
    first statistic below c_decision * epsilon and the second at or above it."""
    cfg = TesterConfig(epsilon=cell.epsilon, delta=delta, k=cell.k, c_sample=c_sample)
    count = cell.n_samples
    if count == 0:
        count = required_samples_cmi(cfg)
        if count > _max_samples(cell.n):
            raise ValueError(f"CITesterRates grid cell {index} needs key 'N' or a larger key 'epsilon': epsilon "
                             f"{cell.epsilon} gives a formula sample size of {count:.3g}, more than numpy can draw")
    family = {m.name: m for m in calibration_family(cell.k, cell.epsilon)}
    threshold = cfg.c_decision * cfg.epsilon

    def outcomes():  # every trial's statistics at once, on the first step
        stats = []
        for tag, name in (("ci", "ci-common-cause"), ("dep", "dep-borderline")):
            tables = _trial_counts(family[name].joint, count, trials,
                                   lambda t: derive_seed(master, "citest", index, t, tag))
            tables /= count
            stats.append(conditional_mi(tables))
            del tables  # one member's stack at a time
        for ci, dep in zip(*stats):
            yield ci < threshold <= dep, ci - cell.epsilon

    return _run_trials(ExperimentCell(cell.n, cell.k, cell.epsilon, count), trials, outcomes())


def _each_cell(run_cell):
    """A kind's runner that runs run_cell on each grid cell in turn."""
    return lambda cfg, **options: [run_cell(c, cfg.trials, cfg.seed, i, **options) for i, c in enumerate(cfg.grid)]


# The one owner of each experiment kind: its runner, (config, **decoded
# options) -> rows; the smallest N its grid cells accept; its option keys, as
# a _json_fields spec; and its other cell rule, as (words, test of a cell).
_KINDS = {
    "RealizableRecovery": (_each_cell(_realizable_cell), 1, {"cpt_floor": (_float, 0.05)},
                           ("n at least 1 and an epsilon above 0", lambda cell: cell.n >= 1 and cell.epsilon > 0.0)),
    "NonRealizableRecovery": (_each_cell(_nonrealizable_cell), 1, {"instance_epsilon": (_float, None)},
                              ("n a positive multiple of 3 and k 2 (the triples are binary)",
                               lambda cell: cell.n >= 3 and cell.n % 3 == 0 and cell.k == 2)),
    "SeparationCurve": (_separation_kind, 0, {"regime": (_regime, "realizable"),
                                              "max_samples": (_grid_maximum, 1 << 20)},
                        ("n 3, k 2, an epsilon above 0 and no key 'N'",
                         lambda cell: (cell.n, cell.k, cell.n_samples) == (3, 2, 0) and cell.epsilon > 0.0)),
    "Add1Risk": (_each_cell(_add1_cell), 1, {"constant": (_float, DEFAULT_ADD_ONE_CONSTANT)},
                 ("n 1, k at least 2 and an epsilon (the delta) above 0",
                  lambda cell: cell.n == 1 and cell.k >= 2 and cell.epsilon > 0.0)),
    "CITesterRates": (_each_cell(_citester_cell), 0, {"delta": (_float, 0.1),
                                                      "c_sample": (_float, DEFAULT_C_SAMPLE)},
                      ("n 3", lambda cell: cell.n == 3)),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every grid cell and return one ExperimentRow per cell (the
    SeparationCurve kind emits one row per probed sample size), each with
    its measured wall time; writes nothing (see write_rows_csv)."""
    run, min_samples, _, (needs, accepts) = _KINDS[cfg.kind]
    for index, cell in enumerate(cfg.grid):
        if cell.n_samples < min_samples:
            raise ValueError(f"{cfg.kind} grid cell {index} needs key 'N' of at least {min_samples}, "
                             f"got {cell.n_samples}")
        if cell.n_samples > _max_samples(cell.n):
            raise ValueError(f"{cfg.kind} grid cell {index} needs key 'N' of at most {_max_samples(cell.n)}, the "
                             f"most numpy can draw for n {cell.n}, got {cell.n_samples}")
    for index, cell in enumerate(cfg.grid):
        if not accepts(cell):
            raise ValueError(f"{cfg.kind} grid cell {index} needs {needs}, "
                             f"got n {cell.n}, k {cell.k}, epsilon {cell.epsilon}, N {cell.n_samples}")
    return run(cfg, **cfg.kind_options)
