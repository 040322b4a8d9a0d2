"""Experiment harness: deterministic seeding, grid running, CSV output.

Core claims:
  * ExperimentConfig validates its kind, grid, and trial count, and survives
    a JSON round trip unchanged.
  * Rows serialize under a fixed header with repr floats; the seconds column
    is 0.0 unless timing is requested, so default output is byte-stable.
  * run_experiment is deterministic given (kind, grid, trials, seed): two
    runs return identical statistics and identical output files.
  * Each experiment kind produces sane aggregates on small grids, and the
    NonRealizableRecovery kind rejects grids its families cannot fill, naming
    the cell, before any trial runs.
  * separation_curve probes a doubling sample-size grid until the target
    success rate is reached and fits the log-log slope of N* vs 1/epsilon.
  * derive_seed maps label tuples to stable, order-sensitive 63-bit seeds.
"""

import json
import math

import numpy as np
import pytest

from chowliu import harness
from chowliu.citest import TesterConfig, required_samples_cmi
from chowliu.harness import (
    CSV_HEADER,
    ExperimentCell,
    ExperimentConfig,
    ExperimentRow,
    SeparationPoint,
    _sample_size_grid,
    fitted_slope,
    run_experiment,
    separation_curve,
    write_rows_csv,
)
from chowliu.seeding import derive_seed


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


def test_config_coerces_grid_to_tuple():
    cfg = ExperimentConfig("Add1Risk", [ExperimentCell(1, 2, 0.1, 10)], trials=1, seed=0)
    assert isinstance(cfg.grid, tuple)


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        "CITesterRates",
        (ExperimentCell(3, 2, 0.3, 0), ExperimentCell(3, 3, 0.1, 500)),
        trials=40,
        seed=123,
        out_path="rates.csv",
        options={"delta": 0.05},
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_from_json_defaults():
    doc = {
        "kind": "Add1Risk",
        "grid": [{"n": 1, "k": 4, "epsilon": 0.05}],
        "trials": 10,
        "seed": 3,
    }
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg.grid[0].n_samples == 0
    assert cfg.out_path is None
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


def test_write_rows_csv_timing_flag(tmp_path):
    row = ExperimentRow(
        n=1, k=2, epsilon=0.1, n_samples=10, trials=2,
        success_rate=1.0, mean_excess=0.0, p95_excess=0.0, seconds=1.5,
    )
    timed = tmp_path / "timed.csv"
    write_rows_csv([row], timed, timing=True)
    assert timed.read_text().splitlines()[1].endswith(",1.5")


# -------------------------------------------------------------- determinism


def test_run_experiment_is_deterministic(tmp_path):
    def run(path):
        cfg = ExperimentConfig(
            "Add1Risk",
            (ExperimentCell(1, 3, 0.05, 200),),
            trials=25,
            seed=9,
            out_path=str(path),
        )
        return run_experiment(cfg)

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
                              "(the triples are binary), got n 4, k 2, N 100")


def test_citester_rates_cell_fills_sample_size():
    cfg = ExperimentConfig(
        "CITesterRates", (ExperimentCell(3, 2, 0.3, 0),), trials=20, seed=11
    )
    rows = run_experiment(cfg)
    want = required_samples_cmi(TesterConfig(epsilon=0.3, delta=0.1, k=2))
    assert rows[0].n_samples == want
    assert rows[0].success_rate >= 0.9


# ----------------------------------------------------------- separation curve


def test_sample_size_grid_doubles():
    assert _sample_size_grid(6, 100) == [6, 12, 24, 48, 96]
    assert _sample_size_grid(5, 5) == [5]
    assert _sample_size_grid(7, 6) == []


def test_fitted_slope_on_exact_powers():
    points = [SeparationPoint(0.1, 100), SeparationPoint(0.2, 25)]
    # N* = const / eps^2 exactly, so the log-log slope is 2.
    assert fitted_slope(points) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="two points"):
        fitted_slope([SeparationPoint(0.1, 100)])


def test_separation_curve_small_run_is_deterministic():
    result = separation_curve("realizable", (0.1, 0.2), trials=30, seed=1)
    again = separation_curve("realizable", (0.1, 0.2), trials=30, seed=1)
    assert result.points == again.points
    assert result.slope == again.slope
    assert result.regime == "realizable"
    assert [p.epsilon for p in result.points] == [0.1, 0.2]
    # N* never grows as epsilon loosens, and every probed row is a 3-bit cell
    # whose final probe met the 0.8 target.
    assert result.points[0].n_star >= result.points[1].n_star
    for row in result.rows:
        assert row.n == 3 and row.k == 2
    by_eps = {}
    for row in result.rows:
        by_eps[row.epsilon] = row
    for point in result.points:
        assert by_eps[point.epsilon].n_samples == point.n_star
        assert by_eps[point.epsilon].success_rate >= 0.8


def test_separation_curve_runs_through_run_experiment(tmp_path):
    out = tmp_path / "sep.csv"
    cfg = ExperimentConfig(
        "SeparationCurve",
        (ExperimentCell(3, 2, 0.1, 0), ExperimentCell(3, 2, 0.2, 0)),
        trials=20,
        seed=5,
        out_path=str(out),
        options={"regime": "realizable"},
    )
    rows = run_experiment(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1


def test_separation_curve_rejects_unknown_regime():
    with pytest.raises(ValueError, match="regime"):
        separation_curve("gaussian", (0.1,), trials=5, seed=1)


def test_separation_curve_reports_unreachable_target():
    with pytest.raises(RuntimeError, match="no sample size"):
        separation_curve("realizable", (0.01,), trials=5, seed=1, max_samples=6)


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
