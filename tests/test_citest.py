"""Plug-in (conditional) independence testing and its calibration.

Core claims:
    - TesterConfig validates its numeric ranges
    - the sample-size formulas reproduce hand-evaluated values (918 / 459 at
      c_sample=1, k=2, eps=delta=0.1), respect monotonicity, and floor at 1
    - verdicts follow the statistic-vs-threshold rule; degenerate inputs give
      statistic 0 and Independent
    - completeness and soundness hold at the shipped calibrated constant in
      at least 1 - delta of 200 seeded trials
    - the statistic is nonnegative and invariant to symbol relabeling
    - the calibration family's exact conditional MIs match an independent
      oracle, and it carries the realizable pair exactly when k = 2 and
      epsilon <= 1; calibrate() is deterministic, honors degenerate grids, fails
      with diagnostics when no candidate works, and reproduces the shipped
      constant at the reference configuration
"""

import math

import numpy as np
import pytest

# The two verdict operations are imported under aliases so pytest does not
# mistake them for test functions of this module.
from chowliu import (
    Alphabet,
    CalibrationError,
    DenseJoint,
    SampleSet,
    TesterConfig,
    calibrate,
    calibration_family,
    required_samples_cmi,
    required_samples_mi,
    sample_dense,
)
from chowliu import test_conditional_independence as cmi_verdict
from chowliu import test_independence as mi_verdict
from chowliu.citest import DEFAULT_C_SAMPLE, DEPENDENT, INDEPENDENT

from oracles import direct_cmi

LN2 = math.log(2.0)


# -- helpers -----------------------------------------------------------------

def common_cause_joint(flip: float = 0.3) -> DenseJoint:
    """X and Y are independent noisy readings of a fair bit Z: true CMI 0."""
    table = np.zeros((2, 2, 2))
    for z in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                px = 1.0 - flip if x == z else flip
                py = 1.0 - flip if y == z else flip
                table[x, y, z] = 0.5 * px * py
    return DenseJoint(3, Alphabet(2), table.reshape(-1))


def constant_z_copy_joint() -> DenseJoint:
    """Z always 0, X = Y fair: I(X;Y|Z) = ln 2."""
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 1, 0] = 0.5
    return DenseJoint(3, Alphabet(2), table.reshape(-1))


# -- config and sample sizes -----------------------------------------------------

def test_config_validation():
    TesterConfig(epsilon=0.1, delta=0.1, k=2)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.0, delta=0.1, k=2)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, delta=1.0, k=2)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, delta=0.1, k=1)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, delta=0.1, k=2, c_sample=0.0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, delta=0.1, k=2, c_decision=1.0)


def test_required_samples_reference_values():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2, c_sample=1.0)
    # Hand evaluation: (8 / 0.1) * ln 20 * ln(2 * ln 10 / 0.1) = 917.9...
    exact = (8.0 / 0.1) * math.log(20.0) * math.log(2.0 * math.log(10.0) / 0.1)
    assert required_samples_cmi(cfg) == math.ceil(exact) == 918
    assert required_samples_mi(cfg) == math.ceil(exact / 2.0) == 459


def test_required_samples_monotonicity():
    base = TesterConfig(epsilon=0.1, delta=0.1, k=2, c_sample=1.0)
    halved = TesterConfig(epsilon=0.05, delta=0.1, k=2, c_sample=1.0)
    assert required_samples_cmi(halved) > 2 * required_samples_cmi(base)

    k4 = TesterConfig(epsilon=0.1, delta=0.1, k=4, c_sample=1.0)
    assert required_samples_cmi(k4) >= 8 * required_samples_cmi(base)

    stricter = TesterConfig(epsilon=0.1, delta=0.01, k=2, c_sample=1.0)
    assert required_samples_cmi(stricter) > required_samples_cmi(base)


def test_required_samples_floor():
    cfg = TesterConfig(epsilon=1e9, delta=0.5, k=2, c_sample=1e-9)
    assert required_samples_cmi(cfg) == 1
    assert required_samples_mi(cfg) == 1


def test_mi_formula_is_k_fold_reduction():
    for k in (2, 3, 5):
        cfg = TesterConfig(epsilon=0.07, delta=0.2, k=k, c_sample=1.0)
        inner = max(math.log(1.0 / cfg.delta), 1.0)
        log1 = max(math.log(k / cfg.delta), 1.0)
        log2 = max(math.log(k * inner / cfg.epsilon), 1.0)
        lead_cmi = (k**3 / cfg.epsilon) * log1 * log2
        lead_mi = (k**2 / cfg.epsilon) * log1 * log2
        assert lead_cmi == pytest.approx(k * lead_mi, abs=1e-9)
        assert required_samples_cmi(cfg) == math.ceil(lead_cmi)
        assert required_samples_mi(cfg) == math.ceil(lead_mi)


# -- verdicts ----------------------------------------------------------------------

def test_identical_rows_give_independent():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    s = SampleSet(Alphabet(2), np.tile([1, 0, 1], (50, 1)))
    v = cmi_verdict(s, cfg)
    assert v.statistic == 0.0
    assert v.verdict == INDEPENDENT
    assert v.threshold == pytest.approx(0.05, abs=1e-15)
    assert v.n_samples == 50


def test_single_sample_mi_test_vacuous():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    s = SampleSet(Alphabet(2), [[0, 1]])
    v = mi_verdict(s, cfg)
    assert v.statistic == 0.0
    assert v.verdict == INDEPENDENT


def test_column_count_enforced():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    with pytest.raises(ValueError):
        cmi_verdict(SampleSet(Alphabet(2), [[0, 1]]), cfg)
    with pytest.raises(ValueError):
        mi_verdict(SampleSet(Alphabet(2), [[0, 1, 0]]), cfg)


def test_completeness_on_common_cause():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    count = required_samples_cmi(cfg)
    joint = common_cause_joint()
    correct = 0
    for t in range(200):
        s = sample_dense(joint, count, seed=100_000 + t)
        if cmi_verdict(s, cfg).verdict == INDEPENDENT:
            correct += 1
    assert correct >= 180  # 1 - delta of 200


def test_soundness_on_constant_z_copy():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    count = required_samples_cmi(cfg)
    joint = constant_z_copy_joint()
    correct = 0
    for t in range(200):
        s = sample_dense(joint, count, seed=200_000 + t)
        if cmi_verdict(s, cfg).verdict == DEPENDENT:
            correct += 1
    assert correct >= 180


def test_mi_test_rates():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    count = required_samples_mi(cfg)
    product = DenseJoint(2, Alphabet(2), [0.25, 0.25, 0.25, 0.25])
    copy = DenseJoint(2, Alphabet(2), [0.5, 0.0, 0.0, 0.5])
    independent_ok = 0
    dependent_ok = 0
    for t in range(200):
        s = sample_dense(product, count, seed=300_000 + t)
        independent_ok += mi_verdict(s, cfg).verdict == INDEPENDENT
        s = sample_dense(copy, count, seed=400_000 + t)
        dependent_ok += mi_verdict(s, cfg).verdict == DEPENDENT
    assert independent_ok >= 180
    assert dependent_ok >= 180


def test_statistic_nonnegative_and_relabel_invariant():
    rng = np.random.default_rng(23)
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=3)
    rows = rng.integers(0, 3, size=(400, 3))
    s = SampleSet(Alphabet(3), rows)
    v = cmi_verdict(s, cfg)
    assert v.statistic >= 0.0

    perm = np.array([2, 0, 1])
    relabeled = SampleSet(Alphabet(3), perm[rows])
    v2 = cmi_verdict(relabeled, cfg)
    assert v2.statistic == pytest.approx(v.statistic, abs=1e-12)

    pair = SampleSet(Alphabet(3), rows[:, :2])
    pair2 = SampleSet(Alphabet(3), perm[rows[:, :2]])
    assert mi_verdict(pair2, cfg).statistic == pytest.approx(
        mi_verdict(pair, cfg).statistic, abs=1e-12
    )


# -- calibration --------------------------------------------------------------------

def test_calibration_family_exact_cmis():
    for k, epsilon in ((2, 0.1), (3, 0.05)):
        members = calibration_family(k, epsilon)
        names = [m.name for m in members]
        assert "ci-common-cause" in names
        assert "ci-product" in names
        assert "dep-copy" in names
        assert "dep-borderline" in names
        if k == 2:
            assert "dep-realizable-pair" in names
        for m in members:
            oracle = direct_cmi(m.joint.table())
            assert m.true_cmi == pytest.approx(oracle, abs=1e-12)
            if m.name.startswith("ci-"):
                assert m.true_cmi == 0.0
            else:
                assert m.true_cmi > epsilon


@pytest.mark.parametrize("epsilon, has_pair", [(0.5, True), (1.0, True), (1.5, False), (2.5, False)])
def test_calibration_family_carries_the_pair_only_in_its_domain(epsilon, has_pair):
    names = [m.name for m in calibration_family(2, epsilon)]
    assert ("dep-realizable-pair" in names) == has_pair
    assert len(names) == 4 + has_pair


def test_calibration_family_pinned_members():
    members = {m.name: m for m in calibration_family(2, 0.1)}
    assert members["dep-copy"].true_cmi == pytest.approx(LN2, abs=1e-12)
    assert members["dep-borderline"].true_cmi == pytest.approx(1.5 * 0.1, abs=1e-12)
    half = 0.05
    entropy_of_half = -(half * math.log(half) + (1 - half) * math.log(1 - half))
    assert members["dep-realizable-pair"].true_cmi == pytest.approx(entropy_of_half, abs=1e-12)


def test_calibrate_degenerate_grid():
    # Single-candidate grid that passes comes back verbatim.  A coarse
    # epsilon keeps the implied per-trial sample count small.
    cfg = TesterConfig(epsilon=0.5, delta=0.1, k=2)
    out = calibrate(cfg, trials=100, seed=5, grid=[1024.0])
    assert out.c_sample == 1024.0
    assert (out.epsilon, out.delta, out.k) == (cfg.epsilon, cfg.delta, cfg.k)


def test_calibrate_deterministic_and_matches_shipped_constant():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    first = calibrate(cfg)
    second = calibrate(cfg)
    assert first == second
    assert first.c_sample == DEFAULT_C_SAMPLE


def test_calibrate_failure_carries_diagnostics():
    cfg = TesterConfig(epsilon=0.1, delta=0.1, k=2)
    with pytest.raises(CalibrationError) as info:
        calibrate(cfg, trials=100, seed=5, grid=[1e-9])
    assert info.value.diagnostics  # names the failing members / rates
    with pytest.raises(ValueError):
        calibrate(cfg, trials=50)


@pytest.mark.parametrize("key", ["epsilon", "c_sample"])
def test_tester_config_rejects_nan(key):
    fields = {"epsilon": 0.1, "delta": 0.1, "k": 2, key: float("nan")}
    with pytest.raises(ValueError, match=f"^{key} must be positive$"):
        TesterConfig(**fields)
