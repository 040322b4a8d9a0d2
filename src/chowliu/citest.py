"""Plug-in (conditional) independence testing with calibrated sample sizes.

The statistic is the plug-in (conditional) mutual information of the
empirical table; the verdict is "dependent" exactly when the statistic
reaches c_decision * epsilon.  The sample-size formulas are stated up to a
universal constant; `calibrate` pins that constant empirically on a fixed
family of distributions so that, at the returned size, independent inputs
stay below epsilon and dependent inputs stay above c_decision times their
true value, each with probability at least 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimation import SampleSet, _max_samples, _sample_size, _trial_counts, empirical_counts
from .hardinstances import _copy_channel, _mixture, realizable_triple
from .info import conditional_mi, mutual_information
from .model import Alphabet, DenseJoint
from .seeding import derive_seed

__all__ = [
    "INDEPENDENT",
    "DEPENDENT",
    "DEFAULT_C_SAMPLE",
    "TesterConfig",
    "TestVerdict",
    "CalibrationError",
    "required_samples_cmi",
    "required_samples_mi",
    "test_conditional_independence",
    "test_independence",
    "calibration_family",
    "calibrate",
]

INDEPENDENT = "independent"
DEPENDENT = "dependent"

# Produced by calibrate() at the reference configuration (epsilon=0.1,
# delta=0.1, k=2, 200 trials, seed 20260814); see README.
DEFAULT_C_SAMPLE = 0.1875


@dataclass(frozen=True)
class TesterConfig:
    epsilon: float
    delta: float
    k: int
    c_sample: float = DEFAULT_C_SAMPLE
    c_decision: float = 0.5

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.epsilon == math.inf:
            raise ValueError("epsilon must be finite")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.k < 2:
            raise ValueError("alphabet size must be >= 2")
        if not self.c_sample > 0:
            raise ValueError("c_sample must be positive")
        if not 0 < self.c_decision < 1:
            raise ValueError("c_decision must lie in (0, 1)")


@dataclass(frozen=True)
class TestVerdict:
    verdict: str
    statistic: float
    threshold: float
    n_samples: int


def required_samples_cmi(cfg: TesterConfig) -> int:
    """Samples for the conditional test:
    ceil(c_sample * (k^3 / eps) * log(k / delta) * log(k * log(1/delta) / eps)),
    every log natural and floored at 1, and at least 1 overall."""
    return _sample_size(cfg.c_sample, cfg.k**3, cfg.k, cfg.epsilon, cfg.delta)


def required_samples_mi(cfg: TesterConfig) -> int:
    """Unconditional variant: one factor of k fewer (k^2 in place of k^3)."""
    return _sample_size(cfg.c_sample, cfg.k**2, cfg.k, cfg.epsilon, cfg.delta)


def _statistic(s: SampleSet) -> float:
    """Plug-in MI of a 2-column set, or plug-in I(col0; col1 | col2) of a
    3-column set."""
    joint = empirical_counts(s, tuple(range(s.n_variables))) / s.n_samples
    return mutual_information(joint) if s.n_variables == 2 else conditional_mi(joint)


def _verdict(s: SampleSet, cfg: TesterConfig) -> TestVerdict:
    if s.n_samples < 1:
        raise ValueError("need at least one sample")
    statistic = _statistic(s)
    threshold = cfg.c_decision * cfg.epsilon
    verdict = DEPENDENT if statistic >= threshold else INDEPENDENT
    return TestVerdict(verdict, statistic, threshold, s.n_samples)


def test_conditional_independence(s: SampleSet, cfg: TesterConfig) -> TestVerdict:
    """Plug-in conditional MI test on a 3-variable sample set (X, Y, Z)."""
    if s.n_variables != 3:
        raise ValueError("conditional test expects exactly 3 columns (X, Y, Z)")
    return _verdict(s, cfg)


def test_independence(s: SampleSet, cfg: TesterConfig) -> TestVerdict:
    """Plug-in MI test on a 2-variable sample set (X, Y)."""
    if s.n_variables != 2:
        raise ValueError("independence test expects exactly 2 columns (X, Y)")
    return _verdict(s, cfg)


# -- calibration ----------------------------------------------------------------


@dataclass(frozen=True)
class _FamilyMember:
    name: str
    joint: DenseJoint
    true_cmi: float  # exact I(X;Y|Z); 0 for the conditionally independent members


def _noisy_copy_triple(k: int, weight: float) -> DenseJoint:
    """X = Y = C for a uniform hidden value C, while Z copies C with
    probability 1 - weight and is uniform otherwise.  I(X;Y|Z) = H(C|Z),
    which rises from 0 (weight 0) to log k (weight 1)."""
    noisy = _copy_channel(k, 1.0 - weight + weight / k, weight / k)
    return _mixture(np.full(k, 1.0 / k), np.eye(k), np.eye(k), noisy)


def _common_cause_triple(k: int) -> DenseJoint:
    """X and Y are independent noisy copies of a uniform Z; I(X;Y|Z) = 0."""
    cond = _copy_channel(k, 0.7 + (1.0 - 0.7) / k, (1.0 - 0.7) / k)
    return _mixture(np.full(k, 1.0 / k), cond, cond, np.eye(k))


def _solve_noisy_copy_weight(k: int, target_cmi: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        value = conditional_mi(_noisy_copy_triple(k, mid).table())
        if value < target_cmi:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def calibration_family(k: int, epsilon: float) -> list:
    """Fixed family used by `calibrate` and the rate experiments: two exactly
    conditionally independent members, one far dependent member, and one
    borderline member tuned to true CMI = 1.5 * epsilon.  For binary
    alphabets and epsilon <= 1 (the realizable family's domain) the family
    also carries the perfectly-correlated-pair instance (two equal uniform
    bits plus a noisy observer of them), whose conditional dependence given
    the observer is exactly the binary entropy of epsilon / 2."""
    product = DenseJoint(3, Alphabet(k), np.full(k**3, 1.0 / k**3))
    copy_table = np.zeros((k, k, k))
    for x in range(k):
        copy_table[x, x, :] = 1.0 / k**2
    members = [
        _FamilyMember("ci-common-cause", _common_cause_triple(k), 0.0),
        _FamilyMember("ci-product", product, 0.0),
        _FamilyMember("dep-copy", DenseJoint(3, Alphabet(k), copy_table.reshape(-1)), math.log(k)),
    ]
    borderline = _noisy_copy_triple(k, _solve_noisy_copy_weight(k, 1.5 * epsilon))
    members.append(
        _FamilyMember("dep-borderline", borderline, conditional_mi(borderline.table()))
    )
    if k == 2 and epsilon <= 1.0:
        pair = realizable_triple(1, epsilon)
        # Statistic convention is I(col0; col1 | col2), so the noisy observer
        # (axis 0 of the generator) moves to the last column.
        view = np.ascontiguousarray(np.transpose(pair.table(), (1, 2, 0)))
        half = epsilon / 2.0
        exact = -(half * math.log(half) + (1.0 - half) * math.log(1.0 - half))
        members.append(
            _FamilyMember("dep-realizable-pair", DenseJoint(3, Alphabet(2), view.reshape(-1)), exact)
        )
    return members


class CalibrationError(RuntimeError):
    """No candidate constant met the target rates; carries the per-candidate
    observed pass rates for diagnosis."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def calibrate(cfg: TesterConfig, trials: int = 200, seed: int = 20260814, grid=None) -> TesterConfig:
    """Smallest c_sample on the grid (powers of two times {1, 1.5}, spanning
    1/16 to 1536) at which both guarantees hold on the calibration family:

    - independent members: statistic < epsilon in >= 1 - delta of trials;
    - dependent members: statistic > c_decision * true CMI in >= 1 - delta.

    Trials use seeds derived from (seed, member, candidate, trial), so the
    search is deterministic and order-independent.  A candidate whose sample
    size numpy cannot draw is a ValueError before any trial runs.
    """
    if trials < 100:
        raise ValueError("need at least 100 calibration trials")
    if grid is None:
        grid = sorted(2.0**e * m for e in range(-4, 11) for m in (1.0, 1.5))
    if len(grid) == 0:
        raise ValueError("the c_sample grid is empty")
    counts = [required_samples_cmi(replace(cfg, c_sample=float(candidate))) for candidate in grid]
    for candidate, count in zip(grid, counts):
        if count > _max_samples(3):
            raise ValueError(f"epsilon {cfg.epsilon} and c_sample {float(candidate)} give a formula sample size "
                             f"of {count:.3g}, more than numpy can draw")
    family = calibration_family(cfg.k, cfg.epsilon)
    diagnostics = {}
    for candidate, count in zip(grid, counts):
        tuned = replace(cfg, c_sample=float(candidate))
        rates = {}
        ok = True
        for member in family:
            tables = _trial_counts(member.joint, count, trials,
                                   lambda t: derive_seed(seed, "calibrate", member.name, candidate, t))
            tables /= count
            stats = conditional_mi(tables)
            del tables  # one member's stack at a time
            if member.true_cmi == 0.0:
                failures = int(np.count_nonzero(stats >= cfg.epsilon))
            else:
                failures = int(np.count_nonzero(stats <= cfg.c_decision * member.true_cmi))
            rates[member.name] = 1.0 - failures / trials
            if failures / trials > cfg.delta:
                ok = False
        diagnostics[float(candidate)] = rates
        if ok:
            return tuned
    raise CalibrationError("no c_sample on the grid met the target rates", diagnostics)
