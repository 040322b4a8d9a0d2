"""Experiment harness: deterministic seeding, grid running, CSV output.

Core claims:
  * ExperimentConfig validates its kind, grid, and trial count, and reads
    from a JSON document with every key given as the config built by hand;
    its check that trials is an integer from 1, for every kind, is made
    before any draw;
    more trials than one float64 array holds (intp max // 8) is an error
    naming trials when the config is built, before anything runs, and a
    trial count no memory can hold is one out-of-memory error line at once.
  * Rows serialize under a fixed header with repr floats; the seconds column
    is always 0.0, so the output is byte-stable.
  * run_experiment is deterministic given (kind, grid, trials, seed): two
    runs return identical statistics, which write_rows_csv writes as
    identical files.
  * Each experiment kind produces sane aggregates on small grids, and the
    NonRealizableRecovery kind rejects grids its families cannot fill, naming
    the cell, before any trial runs; a binary CITesterRates cell runs at an
    epsilon in (1, 2), outside the realizable pair's domain, and its row is
    the one the public conditional tester gives trial by trial, with Python
    floats in its fields and a time that covers its draws; the cell holds one
    member's count stack at a time (tracemalloc peak at most 1.5 stacks).
  * NonRealizableRecovery's exact truth, the block-diagonal MI matrix,
    matches the pairwise MI of the dense block product within 1e-15, and is
    exactly 0 across blocks.
  * The SeparationCurve kind probes a doubling sample-size grid from 6 until
    a success rate of 0.8 is reached, and fitted_slope fits the log-log
    slope of N* vs 1/epsilon over the rows at which a probe stopped, one per
    grid epsilon, repeats included; its only option keys are 'regime' and
    'max_samples', a grid that cannot give a slope is rejected before any
    trial runs, and an epsilon that reaches the target at no sample size
    names its cell.  Its rows and slope are the public learner's run trial
    by trial, ties of the learned weights at N = 6 included, and each row's
    time covers its draws.
  * derive_seed maps label tuples to stable, order-sensitive 63-bit seeds.
"""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from chowliu import harness
from chowliu.citest import INDEPENDENT, TesterConfig, calibration_family, required_samples_cmi
from chowliu.citest import test_conditional_independence as cmi_verdict
from chowliu.cli import main
from chowliu.harness import (
    CSV_HEADER,
    ExperimentCell,
    ExperimentConfig,
    ExperimentRow,
    _sample_size_grid,
    fitted_slope,
    run_experiment,
    write_rows_csv,
)
from chowliu.hardinstances import block_product, nonrealizable_triple, realizable_triple
from chowliu.info import mutual_information
from chowliu.model import sample_dense
from chowliu.seeding import derive_seed
from chowliu.structure import chow_liu_structure, max_weight_spanning_tree, mi_matrix, tree_weight


def stats(row):
    """Row fields that must reproduce exactly (everything but wall time)."""
    return (
        row.n,
        row.k,
        row.epsilon,
        row.n_samples,
        row.trials,
        row.success_rate,
        row.mean_excess,
        row.p95_excess,
    )


# ----------------------------------------------------------------- config type


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ExperimentConfig("Mystery", (ExperimentCell(1, 2, 0.1, 10),), trials=1, seed=0)


def test_config_rejects_empty_grid_and_bad_trials():
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig("Add1Risk", (), trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig("Add1Risk", (ExperimentCell(1, 2, 0.1, 10),), trials=0, seed=0)


@pytest.mark.parametrize("trials", ["1e308", str(np.iinfo(np.intp).max // 8 + 1)], ids=["1e308", "most-plus-1"])
def test_config_rejects_more_trials_than_one_array_holds(trials):
    # Only built, never run.
    most = np.iinfo(np.intp).max // 8
    text = '{"kind": "Add1Risk", "grid": [{"n": 1, "k": 2, "epsilon": 0.1, "N": 10}], "trials": %s, "seed": 0}'
    with pytest.raises(ValueError, match=f"^trials must be from 1 to {most}, got {int(float(trials))}$"):
        ExperimentConfig.from_json(text % trials)
    assert ExperimentConfig.from_json(text % most).trials == most


def test_trials_no_memory_can_hold_exit_1_at_once(tmp_path, capsys):
    # 1e15 float64 excesses take 7.1 PiB, more than any address space holds,
    # so the one allocation fails before the first trial.
    config = tmp_path / "config.json"
    config.write_text('{"kind": "Add1Risk", "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 10}], '
                      '"trials": 1e15, "seed": 1}')
    assert main(["experiment", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: out of memory: ")
    assert captured.out == ""


@pytest.mark.parametrize("trials", [0, -1, 2.5])
def test_config_and_separation_curve_take_an_integer_count_of_trials_before_any_draw(trials, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a trial drew samples")

    monkeypatch.setattr(harness, "_trial_counts", no_draws)
    message = re.escape(f"trials must be from 1 to {np.iinfo(np.intp).max // 8}, got {trials}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig("Add1Risk", (ExperimentCell(1, 2, 0.1, 10),), trials=trials, seed=0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        separation_config((0.1, 0.2), trials=trials, seed=1)


def test_config_coerces_grid_to_tuple():
    cfg = ExperimentConfig("Add1Risk", [ExperimentCell(1, 2, 0.1, 10)], trials=1, seed=0)
    assert isinstance(cfg.grid, tuple)


def test_config_json_round_trip():
    doc = {
        "kind": "CITesterRates",
        "grid": [{"n": 3, "k": 2, "epsilon": 0.3}, {"n": 3, "k": 3, "epsilon": 0.1, "N": 500}],
        "trials": 40,
        "seed": 123,
        "options": {"delta": 0.05},
    }
    assert ExperimentConfig.from_json(json.dumps(doc)) == ExperimentConfig(
        "CITesterRates",
        (ExperimentCell(3, 2, 0.3, 0), ExperimentCell(3, 3, 0.1, 500)),
        trials=40,
        seed=123,
        options={"delta": 0.05},
    )


def test_config_from_json_defaults():
    doc = {
        "kind": "Add1Risk",
        "grid": [{"n": 1, "k": 4, "epsilon": 0.05}],
        "trials": 10,
        "seed": 3,
    }
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg.grid[0].n_samples == 0
    assert cfg.options == {}


# ------------------------------------------------------------------ CSV output


def test_write_rows_csv_header_and_repr_floats(tmp_path):
    row = ExperimentRow(
        n=3, k=2, epsilon=0.05, n_samples=200, trials=25,
        success_rate=0.88, mean_excess=-0.0125, p95_excess=0.5, seconds=1.5,
    )
    path = tmp_path / "rows.csv"
    write_rows_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "n,k,epsilon,N,trials,success_rate,mean_excess,p95_excess,seconds"
    assert lines[1] == "3,2,0.05,200,25,0.88,-0.0125,0.5,0.0"


# -------------------------------------------------------------- determinism


def test_run_experiment_is_deterministic(tmp_path):
    def run(path):
        cfg = ExperimentConfig("Add1Risk", (ExperimentCell(1, 3, 0.05, 200),), trials=25, seed=9)
        rows = run_experiment(cfg)
        write_rows_csv(rows, path)
        return rows

    rows_a = run(tmp_path / "a.csv")
    rows_b = run(tmp_path / "b.csv")
    assert [stats(r) for r in rows_a] == [stats(r) for r in rows_b]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # Wall time is measured on the returned rows even though the file says 0.
    assert rows_a[0].seconds > 0.0
    assert (tmp_path / "a.csv").read_text().splitlines()[1].endswith(",0.0")


def test_different_seeds_differ():
    grid = (ExperimentCell(1, 3, 0.05, 50),)
    rows_a = run_experiment(ExperimentConfig("Add1Risk", grid, trials=25, seed=1))
    rows_b = run_experiment(ExperimentConfig("Add1Risk", grid, trials=25, seed=2))
    assert stats(rows_a[0]) != stats(rows_b[0])


# ------------------------------------------------------------ experiment kinds


def test_add1_risk_cell():
    cfg = ExperimentConfig(
        "Add1Risk",
        (ExperimentCell(1, 4, 0.1, 100), ExperimentCell(1, 4, 0.1, 1000)),
        trials=50,
        seed=7,
    )
    rows = run_experiment(cfg)
    # epsilon carries delta: the KL bound should hold in at least 1 - delta of
    # trials, and the average slack (excess is KL minus bound) stays negative.
    assert rows[0].success_rate >= 0.8
    assert rows[1].success_rate >= 0.95
    assert rows[0].mean_excess < 0.0
    assert rows[1].mean_excess < 0.0


def test_realizable_recovery_cell():
    cfg = ExperimentConfig(
        "RealizableRecovery", (ExperimentCell(5, 2, 0.3, 500),), trials=10, seed=3
    )
    rows = run_experiment(cfg)
    assert rows[0].success_rate >= 0.9
    assert rows[0].mean_excess >= -1e-12
    assert rows[0].n == 5 and rows[0].k == 2 and rows[0].trials == 10


def test_nonrealizable_recovery_cell():
    cfg = ExperimentConfig(
        "NonRealizableRecovery",
        (ExperimentCell(3, 2, 0.5, 400),),
        trials=8,
        seed=3,
        options={"instance_epsilon": 0.1},
    )
    rows = run_experiment(cfg)
    assert rows[0].success_rate >= 0.8
    assert rows[0].mean_excess >= -1e-12


@pytest.mark.parametrize("picks", [(1,), (2, 3), (3, 1, 2)])
def test_block_mi_matrix_matches_the_dense_block_product(picks):
    blocks = [nonrealizable_triple(index, 0.1) for index in picks]
    exact = harness._block_mi_matrix(blocks)
    dense = block_product(blocks)
    for u in range(dense.n):
        for v in range(u + 1, dense.n):
            reference = mutual_information(dense.marginal((u, v)))
            if u // 3 == v // 3:
                assert abs(exact[u, v] - reference) <= 1e-15
            else:
                assert exact[u, v] == 0.0
                assert abs(reference) <= 1e-15


def test_nonrealizable_recovery_validates_grid():
    with pytest.raises(ValueError, match="multiple of 3"):
        run_experiment(
            ExperimentConfig(
                "NonRealizableRecovery", (ExperimentCell(4, 2, 0.5, 100),), trials=2, seed=1
            )
        )
    with pytest.raises(ValueError, match="binary"):
        run_experiment(
            ExperimentConfig(
                "NonRealizableRecovery", (ExperimentCell(3, 3, 0.5, 100),), trials=2, seed=1
            )
        )


def test_nonrealizable_recovery_rejects_a_later_cell_before_any_trial(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a trial drew samples")

    monkeypatch.setattr(harness, "_sample_blocks", no_blocks)
    grid = (ExperimentCell(3, 2, 0.5, 100), ExperimentCell(4, 2, 0.5, 100))
    with pytest.raises(ValueError) as err:
        run_experiment(ExperimentConfig("NonRealizableRecovery", grid, trials=2, seed=1))
    assert str(err.value) == ("NonRealizableRecovery grid cell 1 needs n a positive multiple of 3 and k 2 "
                              "(the triples are binary), got n 4, k 2, epsilon 0.5, N 100")


def test_citester_rates_cell_fills_sample_size():
    cfg = ExperimentConfig(
        "CITesterRates", (ExperimentCell(3, 2, 0.3, 0),), trials=20, seed=11
    )
    rows = run_experiment(cfg)
    want = required_samples_cmi(TesterConfig(epsilon=0.3, delta=0.1, k=2))
    assert rows[0].n_samples == want
    assert rows[0].success_rate >= 0.9


# At N = 10 some verdicts are wrong, so the rows tell each member's draws apart.
@pytest.mark.parametrize("k,epsilon,N", [(2, 0.3, 0), (2, 0.3, 10), (3, 0.5, 10)])
def test_citester_rates_row_is_the_testers_trial_by_trial(k, epsilon, N):
    trials, seed = 30, 5
    row, = run_experiment(ExperimentConfig("CITesterRates", (ExperimentCell(3, k, epsilon, N),), trials, seed))
    cfg = TesterConfig(epsilon=epsilon, delta=0.1, k=k)
    count = N or required_samples_cmi(cfg)
    family = {m.name: m.joint for m in calibration_family(k, epsilon)}
    successes, excesses = 0, []
    for t in range(trials):
        v_ci = cmi_verdict(sample_dense(family["ci-common-cause"], count, derive_seed(seed, "citest", 0, t, "ci")), cfg)
        v_dep = cmi_verdict(sample_dense(family["dep-borderline"], count, derive_seed(seed, "citest", 0, t, "dep")), cfg)
        successes += v_ci.verdict == INDEPENDENT and v_dep.verdict != INDEPENDENT
        excesses.append(v_ci.statistic - epsilon)
    assert (row.n_samples, row.success_rate, row.mean_excess) == (count, successes / trials, float(np.mean(excesses)))
    assert row.p95_excess == float(np.percentile(excesses, 95))
    for value in (row.success_rate, row.mean_excess, row.p95_excess, row.seconds):
        assert type(value) is float


def test_citester_rates_row_time_covers_the_draws(monkeypatch):
    draw = harness._trial_counts

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(harness, "_trial_counts", slow_draw)
    row, = run_experiment(ExperimentConfig("CITesterRates", (ExperimentCell(3, 2, 0.3, 20),), trials=3, seed=1))
    assert row.seconds >= 0.1  # both members' draws


def test_citester_rates_cell_holds_one_count_stack_at_a_time():
    # One member's stack is 100 trials of 16^3 float64 counts, 3.125 MiB.  The
    # second run is measured, so caches the first run fills do not count.
    cfg = ExperimentConfig("CITesterRates", (ExperimentCell(3, 16, 0.2, 300),), trials=100, seed=3)
    run_experiment(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 100 * 16**3 * 8


def test_citester_rates_binary_cell_above_epsilon_one():
    cfg = ExperimentConfig("CITesterRates", (ExperimentCell(3, 2, 1.5, 50),), trials=2, seed=11)
    rows = run_experiment(cfg)
    assert [(row.epsilon, row.n_samples, row.trials) for row in rows] == [(1.5, 50, 2)]


# ----------------------------------------------------------- separation curve


def test_sample_size_grid_doubles():
    assert _sample_size_grid(100) == [6, 12, 24, 48, 96]
    assert _sample_size_grid(6) == [6]
    assert _sample_size_grid(5) == []


def separation_config(epsilons, trials, seed, **options):
    return ExperimentConfig("SeparationCurve", tuple(ExperimentCell(3, 2, eps, 0) for eps in epsilons),
                            trials=trials, seed=seed, options=options)


def test_fitted_slope_on_exact_powers():
    def row(epsilon, n_samples, success_rate):
        return ExperimentRow(3, 2, epsilon, n_samples, 10, success_rate, 0.0, 0.0, 0.0)

    # N* = const / eps^2 exactly, so the log-log slope is 2; the rows below
    # the 0.8 target are probes that went on, and a repeated epsilon is a
    # point of its own.
    rows = [row(0.1, 50, 0.5), row(0.1, 100, 0.8), row(0.1, 50, 0.7), row(0.1, 100, 0.9), row(0.2, 25, 1.0)]
    assert fitted_slope(rows) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="two points"):
        fitted_slope(rows[:2])


def test_separation_curve_small_run_is_deterministic():
    rows = run_experiment(separation_config((0.1, 0.2), trials=30, seed=1))
    again = run_experiment(separation_config((0.1, 0.2), trials=30, seed=1))
    assert [stats(row) for row in rows] == [stats(row) for row in again]
    assert fitted_slope(rows) == fitted_slope(again)
    # Every probed row is a 3-bit cell; each probe's last row, and only it,
    # met the 0.8 target, and N* never grows as epsilon loosens.
    for row in rows:
        assert row.n == 3 and row.k == 2
    last = {row.epsilon: row for row in rows}
    stops = [row for row in rows if row.success_rate >= 0.8]
    assert stops == list(last.values()) and list(last) == [0.1, 0.2]
    assert stops[0].n_samples >= stops[1].n_samples


def separation_by_trial(regime, epsilons, trials, seed):
    """The SeparationCurve rows and slope, with each member's tree of each
    trial learned by the public learner from its own sample set; and whether
    the learned weights of some trial tied."""
    make = realizable_triple if regime == "realizable" else nonrealizable_triple
    rows, points, tied = [], [], False
    for eps in epsilons:
        members = []
        for index in (1, 2, 3):
            joint = make(index, eps)
            truth = np.zeros((3, 3))
            for u, v in ((0, 1), (0, 2), (1, 2)):
                truth[u, v] = truth[v, u] = mutual_information(joint.marginal((u, v)))
            members.append((joint, truth, tree_weight(truth, max_weight_spanning_tree(truth))))
        count = 6
        while True:
            successes, excesses = 0, []
            for t in range(trials):
                worst = 0.0
                for index, (joint, truth, best) in enumerate(members):
                    s = sample_dense(joint, count, derive_seed(seed, regime, eps, count, t, index))
                    weights = mi_matrix(s).weights
                    tied = tied or len({weights[0, 1], weights[0, 2], weights[1, 2]}) < 3
                    worst = max(worst, best - tree_weight(truth, chow_liu_structure(s)))
                successes += worst <= eps
                excesses.append(worst)
            rows.append((3, 2, eps, count, trials, successes / trials, float(np.mean(excesses)),
                         float(np.percentile(excesses, 95))))
            if successes / trials >= 0.8:
                break
            count *= 2
        points.append((math.log(1.0 / eps), math.log(count)))
    slope = float(np.polyfit(*np.array(points).T, 1)[0])
    return rows, slope, tied


@pytest.mark.parametrize("regime", ["realizable", "nonrealizable"])
def test_separation_curve_is_the_learners_trial_by_trial(regime):
    # Every probe starts at N = 6, where some trials' learned weights tie and
    # the pinned Kruskal order alone picks the tree.
    rows, slope, tied = separation_by_trial(regime, (0.1, 0.2), trials=20, seed=4)
    got = run_experiment(separation_config((0.1, 0.2), trials=20, seed=4, regime=regime))
    assert tied and rows[0][3] == 6
    assert [stats(row) for row in got] == rows
    assert fitted_slope(got) == slope


def test_separation_row_time_covers_the_draws(monkeypatch):
    draw = harness._trial_counts

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(harness, "_trial_counts", slow_draw)
    rows = run_experiment(separation_config((0.2, 0.3), trials=3, seed=1))
    assert all(row.seconds >= 0.15 for row in rows)  # the three members' draws


def test_separation_curve_runs_through_run_experiment(tmp_path):
    out = tmp_path / "sep.csv"
    rows = run_experiment(separation_config((0.1, 0.2), trials=20, seed=5, regime="realizable"))
    write_rows_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1


def test_separation_curve_options_are_regime_and_max_samples():
    assert list(harness._KINDS["SeparationCurve"][2]) == ["regime", "max_samples"]
    for key, value in (("target_rate", 0.8), ("start", 6)):
        with pytest.raises(ValueError, match=f"^SeparationCurve 'options' has unknown key '{key}'$"):
            ExperimentConfig("SeparationCurve", (ExperimentCell(3, 2, 0.1, 0),), 1, 1, options={key: value})


def test_separation_curve_rejects_an_unknown_regime():
    with pytest.raises(ValueError, match=re.escape(
            "SeparationCurve 'options' has a bad value for key 'regime': "
            "expected 'realizable' or 'nonrealizable', got 'gaussian'")):
        separation_config((0.1, 0.2), trials=1, seed=1, regime="gaussian")


def test_separation_curve_rejects_unknown_regime(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    # The names are matched exactly, when the config is read and before any
    # trial; the two known names pass.
    monkeypatch.setattr(harness, "_run_trials", no_trials)
    for regime in ("Realizable", "realizable ", "non-realizable", ""):
        with pytest.raises(ValueError, match="'regime'"):
            ExperimentConfig.from_json(json.dumps({
                "kind": "SeparationCurve", "grid": [{"n": 3, "k": 2, "epsilon": 0.1}, {"n": 3, "k": 2, "epsilon": 0.2}],
                "trials": 5, "seed": 1, "options": {"regime": regime}}))
    for regime in ("realizable", "nonrealizable"):
        assert separation_config((0.1, 0.2), trials=5, seed=1, regime=regime).kind_options["regime"] == regime


def test_separation_curve_reports_unreachable_target():
    cfg = separation_config((0.01, 0.02), trials=5, seed=1, max_samples=6)
    with pytest.raises(ValueError, match=re.escape(
            "SeparationCurve grid cell 0 reached a success rate of 0.8 at no sample size up to "
            "'options' key 'max_samples' 6, got epsilon 0.01")):
        run_experiment(cfg)


@pytest.mark.parametrize("epsilons,message", [
    ((0.0, 0.3), "SeparationCurve grid cell 0 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 3, k 2, "
                 "epsilon 0.0, N 0"),
    ((-0.1, 0.3), "SeparationCurve grid cell 0 needs n 3, k 2, an epsilon above 0 and no key 'N', got n 3, k 2, "
                  "epsilon -0.1, N 0"),
    ((0.3,), "SeparationCurve key 'grid' needs at least two distinct epsilons to fit a slope, got [0.3]"),
    ((0.3, 0.3), "SeparationCurve key 'grid' needs at least two distinct epsilons to fit a slope, got [0.3, 0.3]"),
    ((), "grid must not be empty"),
], ids=["zero", "negative", "one", "repeated", "none"])
def test_separation_curve_needs_two_distinct_positive_epsilons_before_any_trial(epsilons, message, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trials", no_trials)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(separation_config(epsilons, trials=5, seed=1))


# ---------------------------------------------------------------- seed deriving


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(1, "a", 0.5) == derive_seed(1, "a", 0.5)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed("real", 0) != derive_seed("real", 1)


def test_derive_seed_range_and_spread():
    seeds = {derive_seed("cell", i) for i in range(200)}
    assert len(seeds) == 200
    for s in seeds:
        assert isinstance(s, int)
        assert 0 <= s < 1 << 63


def test_p95_is_bit_identical_to_numpy_percentile():
    rng = np.random.default_rng(95)
    for t in range(2000):
        size = int(rng.integers(1, 45))
        values = [rng.random(size), np.round(rng.normal(size=size), 2),
                  rng.exponential(size=size) * 10.0 ** rng.integers(-20, 20),
                  rng.choice([0.0, -0.0, 1e-17, -1e-17, 0.5, 3.0], size=size)][t % 4]
        got, want = harness._p95(values), float(np.percentile(values, 95))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (values, got, want)
