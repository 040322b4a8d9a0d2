"""Three-bit instance families that separate easy from hard recovery.

Both families consist of three distributions over binary (X, Y, Z) that are
pairwise close yet prefer different trees, plus a block-product helper for
scaling them up to many variables.  Every quantity here is computed by exact
enumeration of the 8-entry tables; nothing is sampled.

Non-realizable family: each bit independently copies a hidden fair coin B
with probability 3/4 +- epsilon (one coordinate gets the minus sign) and is
otherwise replaced by a fresh fair coin, so each bit agrees with B with
probability 7/8 +- epsilon/2.  No tree fits any member exactly, the members
are O(epsilon^2) apart in KL, and the best and second-best trees are
separated by at least 0.4 * epsilon in weight.

Realizable family: one pair of bits is perfectly correlated and uniform, and
the remaining bit copies their common value with probability 1 - epsilon
(else a fresh fair coin).  Members are exactly tree-structured, epsilon/2
apart in squared Hellinger distance, and their tree weights separate by
roughly (epsilon / 2) * log(2 / epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import mutual_information
from .model import Alphabet, DenseJoint, kl_divergence, statistical_distances

__all__ = [
    "NonRealizableFacts",
    "RealizableFacts",
    "nonrealizable_triple",
    "realizable_triple",
    "block_product",
    "verify_nonrealizable_facts",
    "verify_realizable_facts",
]

# Sign of each coordinate's epsilon / 2 term, per non-realizable member index.
_NONREALIZABLE_SIGNS = {1: (1, 1, -1), 2: (1, -1, 1), 3: (-1, 1, 1)}
# Smallest epsilon each fact check accepts.  Below about 1.1e-8 float64
# rounding swamps the non-realizable KL halving ratio (and epsilon**2 can
# underflow to 0); below about 3.2e-15 it swamps the realizable MI gap,
# which is a difference of two values near log 2.  Each floor keeps a
# margin of more than x10 above the largest epsilon seen to go wrong.
_NONREALIZABLE_FLOOR = 1e-6
_REALIZABLE_FLOOR = 1e-13


def _copy_channel(k: int, stay: float, move: float) -> np.ndarray:
    """k x k channel from a hidden value to an observed one: `stay` on the
    diagonal and `move` everywhere else."""
    channel = np.full((k, k), move)
    np.fill_diagonal(channel, stay)
    return channel


def _mixture(prior, *channels) -> DenseJoint:
    """Variables that are independent given one hidden value h ~ prior:
    P(x_0, ..., x_m) = sum_h channels[0][h, x_0] * ... * channels[m][h, x_m] * prior[h].

    The channel entries are multiplied in variable order, the prior last, and
    h is summed out in order; the pinned tables depend on this exact order."""
    prior = np.asarray(prior, dtype=np.float64)
    m = len(channels)
    joint = 1.0
    for i, channel in enumerate(channels):
        joint = joint * np.reshape(channel, (prior.size,) + (1,) * i + (-1,) + (1,) * (m - 1 - i))
    joint = joint * prior.reshape((-1,) + (1,) * m)
    return DenseJoint(m, Alphabet(joint.shape[1]), joint.sum(axis=0).reshape(-1))


def nonrealizable_triple(index: int, epsilon: float) -> DenseJoint:
    """Member `index` of the non-realizable family at gap `epsilon`.

    Accepts epsilon = 0 (all three members coincide) up to but excluding 1/4,
    where a copy probability would reach 1.
    """
    if index not in _NONREALIZABLE_SIGNS:
        raise ValueError(f"member index must be 1, 2, or 3, got {index}")
    if not 0.0 <= epsilon < 0.25:
        raise ValueError(f"epsilon must lie in [0, 0.25), got {epsilon}")
    agree = [7.0 / 8.0 + s * epsilon / 2.0 for s in _NONREALIZABLE_SIGNS[index]]
    return _mixture([0.5, 0.5], *(_copy_channel(2, a, 1.0 - a) for a in agree))


def realizable_triple(index: int, epsilon: float) -> DenseJoint:
    """Member `index` of the realizable (exactly tree-structured) family.

    Member i has the two coordinates other than i - 1 perfectly correlated
    and uniform; coordinate i - 1 copies their common value with probability
    1 - epsilon and is a fresh fair coin otherwise, so it agrees with the pair
    with probability 1 - epsilon / 2.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"member index must be 1, 2, or 3, got {index}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    agree = 1.0 - epsilon / 2.0
    channels = [np.eye(2)] * 3
    channels[index - 1] = _copy_channel(2, agree, 1.0 - agree)
    return _mixture([0.5, 0.5], *channels)


def block_product(blocks) -> DenseJoint:
    """Independent product of dense joints over a shared alphabet; variables
    concatenate in block order, preserving most-significant-first indexing."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    k = blocks[0].k
    for b in blocks:
        if b.k != k:
            raise ValueError("blocks must share one alphabet")
    probs = blocks[0].probs
    n = blocks[0].n
    for b in blocks[1:]:
        probs = np.kron(probs, b.probs)
        n += b.n
    return DenseJoint(n, Alphabet(k), probs)


@dataclass(frozen=True)
class NonRealizableFacts:
    """Exact closeness and separation quantities for the non-realizable pair
    (member 1 vs member 2) at one epsilon."""

    epsilon: float
    kl_r1_r2: float
    mi_gap: float  # I(X;Y) - I(X;Z) under member 1
    mi_gap_bound: float  # 0.4 * epsilon
    mi_gap_ok: bool
    kl_quadratic_ratio: float  # (KL / eps^2) relative to the same at eps / 2
    kl_quadratic_ok: bool


def verify_nonrealizable_facts(epsilon: float) -> NonRealizableFacts:
    """Exact dense-table checks: the two members are O(epsilon^2) apart in KL
    (ratio across epsilon halving stays within x1.5 of quadratic), while the
    best and second-best weight trees of member 1 differ by at least
    0.4 * epsilon in MI.  Epsilon must lie in [1e-6, 0.25)."""
    if not _NONREALIZABLE_FLOOR <= epsilon < 0.25:
        raise ValueError(f"epsilon must lie in [{_NONREALIZABLE_FLOOR}, 0.25), got {epsilon}")
    r1 = nonrealizable_triple(1, epsilon)
    r2 = nonrealizable_triple(2, epsilon)
    kl = kl_divergence(r1, r2)
    mi_xy = mutual_information(r1.marginal((0, 1)))
    mi_xz = mutual_information(r1.marginal((0, 2)))
    gap = mi_xy - mi_xz
    half = epsilon / 2.0
    kl_half = kl_divergence(nonrealizable_triple(1, half), nonrealizable_triple(2, half))
    ratio = (kl / epsilon**2) / (kl_half / half**2)
    return NonRealizableFacts(
        epsilon=epsilon,
        kl_r1_r2=kl,
        mi_gap=gap,
        mi_gap_bound=0.4 * epsilon,
        mi_gap_ok=gap >= 0.4 * epsilon,
        kl_quadratic_ratio=ratio,
        kl_quadratic_ok=1.0 / 1.5 <= ratio <= 1.5,
    )


@dataclass(frozen=True)
class RealizableFacts:
    """Exact closeness and separation quantities for the realizable pair
    (member 1 vs member 2) at one epsilon."""

    epsilon: float
    hellinger_sq: float
    hellinger_expected: float  # exactly epsilon / 2
    hellinger_ok: bool
    mi_gap: float  # I(Y;Z) - I(X;Z) under member 1
    mi_gap_leading: float  # (epsilon / 2) * log(2 / epsilon)
    mi_gap_ok: bool


def verify_realizable_facts(epsilon: float) -> RealizableFacts:
    """Exact dense-table checks: members 1 and 2 sit exactly epsilon / 2 apart
    in squared Hellinger distance, while member 1's strong edge beats its weak
    edges by at least (epsilon / 2) * log(2 / epsilon) in MI.  Epsilon must
    lie in [1e-13, 1)."""
    if not _REALIZABLE_FLOOR <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [{_REALIZABLE_FLOOR}, 1), got {epsilon}")
    r1 = realizable_triple(1, epsilon)
    r2 = realizable_triple(2, epsilon)
    hell = statistical_distances(r1, r2).hellinger_sq
    mi_yz = mutual_information(r1.marginal((1, 2)))
    mi_xz = mutual_information(r1.marginal((0, 2)))
    gap = mi_yz - mi_xz
    leading = (epsilon / 2.0) * math.log(2.0 / epsilon)
    return RealizableFacts(
        epsilon=epsilon,
        hellinger_sq=hell,
        hellinger_expected=epsilon / 2.0,
        hellinger_ok=abs(hell - epsilon / 2.0) <= 1e-15,
        mi_gap=gap,
        mi_gap_leading=leading,
        mi_gap_ok=gap >= leading,
    )
