"""Information measures over small probability tables.

Everything is in nats.  Mutual information has two independent
implementations kept deliberately separate: the production entropy form
H(X) + H(Y) - H(X, Y), and a per-cell decomposition into deviation terms
(`mutual_information_from_deviations`) that the test suite cross-checks
against it.  Do not collapse one into the other; the redundancy is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairTable",
    "TripleTable",
    "ChainRuleGap",
    "DeviationBounds",
    "entropy",
    "mutual_information",
    "mutual_information_from_deviations",
    "conditional_mi",
    "chain_rule_gap",
    "kl_deviation_term",
    "kl_deviation_bounds",
]

_SUM_TOL = 1e-9
_DOMAIN_TOL = 1e-12  # rounding slack allowed at the edges of the (delta, base) domain


def _validated_table(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional table, got shape {arr.shape}")
    k = arr.shape[0]
    if any(d != k for d in arr.shape):
        raise ValueError(f"table axes must share one alphabet, got shape {arr.shape}")
    if k < 2:
        raise ValueError("alphabet size must be >= 2")
    if np.any(arr < 0):
        raise ValueError("negative probability in table")
    total = float(arr.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"table sums to {total!r}, not 1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PairTable:
    """Joint distribution of two variables over a shared alphabet."""

    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint", _validated_table(self.joint, 2))

    @property
    def k(self) -> int:
        return self.joint.shape[0]

    @property
    def x_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def y_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @property
    def deviations(self) -> np.ndarray:
        """Cell-wise deviation of the joint from the product of its marginals."""
        return self.joint - np.outer(self.x_marginal, self.y_marginal)


@dataclass(frozen=True)
class TripleTable:
    """Joint distribution of three variables (X, Y, Z) over a shared alphabet."""

    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint", _validated_table(self.joint, 3))

    @property
    def k(self) -> int:
        return self.joint.shape[0]

    @property
    def z_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=(0, 1))


def _joint_of(table, ndim: int) -> np.ndarray:
    if isinstance(table, (PairTable, TripleTable)):
        if table.joint.ndim != ndim:
            raise ValueError(f"expected a {ndim}-variable table")
        return table.joint
    return _validated_table(table, ndim)


def entropy(dist) -> float:
    """Shannon entropy in nats, with the 0 log 0 = 0 convention."""
    arr = np.asarray(dist, dtype=np.float64).reshape(-1)
    if np.any(arr < 0):
        raise ValueError("negative probability")
    nz = arr[arr > 0]
    return float(-np.sum(nz * np.log(nz)))


def _mi(joint: np.ndarray) -> float:
    value = entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - entropy(joint)
    # Exact MI is nonnegative; float cancellation can leave ~-1e-16 dust.
    return value if value > 0.0 else 0.0


def mutual_information(table) -> float:
    """Plug-in mutual information H(X) + H(Y) - H(X, Y), clamped at zero."""
    return _mi(_joint_of(table, 2))


def _pairwise_mi(n: int, pairs) -> np.ndarray:
    """The n x n MI matrix: mutual_information(table) at (i, j) and (j, i) for
    each ((i, j), table) in pairs, taken in any order, and zero elsewhere."""
    w = np.zeros((n, n))
    for (i, j), table in pairs:
        w[i, j] = w[j, i] = mutual_information(table)
    return w


def _clamped_deviation(delta: float, base: float) -> float:
    """Check that (delta, base) lies in the domain, up to rounding slack, and
    clamp delta into [-base, 1 - base]."""
    if not 0.0 <= base <= 1.0:
        raise ValueError(f"base must lie in [0, 1], got {base!r}")
    lo, hi = -base, 1.0 - base
    if delta < lo - _DOMAIN_TOL or delta > hi + _DOMAIN_TOL:
        raise ValueError(f"deviation {delta!r} outside [{lo!r}, {hi!r}]")
    return min(max(delta, lo), hi)


def kl_deviation_term(delta: float, base: float) -> float:
    """One cell's contribution to a KL-style divergence as a function of its
    deviation from a reference mass.

    For reference mass ``base`` and deviation ``delta`` the contribution is
    ``(delta + base) * log(1 + delta / base) - delta``, extended by continuity
    to ``delta == -base`` (value ``base``) and to ``delta == base == 0``
    (value 0).  The domain is ``base`` in [0, 1], ``delta`` in
    [-base, 1 - base].
    """
    delta = _clamped_deviation(delta, base)
    if base == 0.0:
        return 0.0 if delta == 0.0 else math.inf
    if delta == -base:
        return base
    value = (delta + base) * math.log1p(delta / base) - delta
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class DeviationBounds:
    """Envelope g = min(delta^2 / base, |delta| log(2 + |delta| / base)) and
    the sandwich [g / 3, g] that contains the deviation term."""

    envelope: float
    lower: float
    upper: float


def kl_deviation_bounds(delta: float, base: float) -> DeviationBounds:
    delta = _clamped_deviation(delta, base)
    if delta == 0.0:
        g = 0.0
    elif base == 0.0:
        g = math.inf
    else:
        g = min(delta * delta / base, abs(delta) * math.log(2.0 + abs(delta) / base))
    return DeviationBounds(envelope=g, lower=g / 3.0, upper=g)


def mutual_information_from_deviations(table) -> float:
    """Mutual information as the sum of per-cell deviation terms.

    Alternative route to `mutual_information`, used as a cross-check: the two
    must agree to ~1e-10 on any valid table.
    """
    joint = _joint_of(table, 2)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    base = np.outer(px, py)
    dev = joint - base
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            total += kl_deviation_term(float(dev[i, j]), float(base[i, j]))
    return total


def _cmi(joint: np.ndarray) -> float:
    pz = joint.sum(axis=(0, 1))
    total = 0.0
    for z in range(joint.shape[2]):
        if pz[z] <= 0.0:
            continue  # empty conditioning slices contribute zero
        total += float(pz[z]) * _mi(joint[:, :, z] / pz[z])
    return total


def conditional_mi(table) -> float:
    """Conditional mutual information I(X; Y | Z) of a (X, Y, Z) table.

    Computed as the Z-weighted average of per-slice mutual informations;
    slices with zero marginal mass contribute nothing.
    """
    return _cmi(_joint_of(table, 3))


@dataclass(frozen=True)
class ChainRuleGap:
    """Both sides of the identity I(X;Y) - I(X;Z) = I(X;Y|Z) - I(X;Z|Y)."""

    mi_gap: float
    cmi_gap: float


def chain_rule_gap(table) -> ChainRuleGap:
    joint = _joint_of(table, 3)
    mi_xy = _mi(joint.sum(axis=2))
    mi_xz = _mi(joint.sum(axis=1))
    cmi_xy_given_z = _cmi(joint)
    cmi_xz_given_y = _cmi(np.transpose(joint, (0, 2, 1)))
    return ChainRuleGap(mi_gap=mi_xy - mi_xz, cmi_gap=cmi_xy_given_z - cmi_xz_given_y)
