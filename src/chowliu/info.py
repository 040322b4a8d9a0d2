"""Information measures over small probability tables.

Everything is in nats.  Mutual information has two independent
implementations kept deliberately separate: the production entropy form
H(X) + H(Y) - H(X, Y), and a per-cell decomposition into deviation terms
(`mutual_information_from_deviations`) that the test suite cross-checks
against it.  Do not collapse one into the other; the redundancy is the point.

Entropy, mutual information and conditional mutual information each have one
kernel (`_entropies`, `_mi`, `_cmi`), and it works on stacks: one table is a
stack of one.  `mutual_information` takes one table or a (B, k, k) stack and
`conditional_mi` one table or a (B, k, k, k) stack; each table's value is
bit-identical however its tables are stacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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


def _check_distribution(arr: np.ndarray, what: str, tol: float) -> None:
    """Raise a ValueError naming `what`, and the row for 2-D input, unless every
    entry is nonnegative and each row along the last axis sums to 1 within tol.
    NaN fails the entry test and +inf the sum test."""
    if not (arr >= 0).all():
        bad = np.flatnonzero(~(arr >= 0))[0]
        word = "NaN" if np.isnan(arr.flat[bad]) else "negative"
        row = f" at row {bad // arr.shape[-1]}" if arr.ndim > 1 else ""
        raise ValueError(f"{word} entry in {what}{row}")
    sums = arr.sum(axis=-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if bad.size:
        row = f" at row {bad[0]}" if arr.ndim > 1 else ""
        raise ValueError(f"{what} row sum != 1{row}: {float(sums.flat[bad[0]])!r}")


def _check_axes(shape) -> None:
    """A ValueError unless the table axes `shape` share one alphabet of size >= 2."""
    if any(d != shape[0] for d in shape):
        raise ValueError(f"table axes must share one alphabet, got shape {shape}")
    if shape[0] < 2:
        raise ValueError("alphabet size must be >= 2")


def _stacked(table, ndim: int) -> tuple:
    """(stack, single): `table` as a checked stack of ndim-dimensional tables
    over one alphabet, and whether it was one table rather than a stack.  One
    table becomes a stack of one that stays a view in its own layout, since
    the layout decides the order, and so the last bits, of every sum; a stack
    is made C-contiguous.  A failing table of a stack is named by its row b."""
    arr = np.asarray(table, dtype=np.float64)
    single = arr.ndim == ndim
    if not single and arr.ndim != ndim + 1:
        raise ValueError(f"expected a {ndim}-dimensional table or a stack of them, got shape {arr.shape}")
    stack = arr[None] if single else np.ascontiguousarray(arr)
    _check_axes(stack.shape[1:])
    _check_distribution(arr.reshape(-1) if single else stack.reshape(len(stack), stack.shape[1] ** ndim),
                        "table", _SUM_TOL)
    return stack, single


def _table(table, ndim: int) -> np.ndarray:
    """One checked ndim-dimensional table, as a stack of one."""
    stack, single = _stacked(table, ndim)
    if not single:
        raise ValueError(f"expected a {ndim}-dimensional table, got shape {stack.shape}")
    return stack


def _entropies(rows: np.ndarray) -> np.ndarray:
    """The entropy of each row of a 2-D array.  Rows are grouped by their
    count m of positive entries; each group's compacted (B_m, m) array is
    summed along axis 1, which gives every row the pairwise summation that
    np.sum gives it alone, so a row's entropy does not depend on its stack."""
    positive = rows > 0
    counts = positive.sum(axis=1)
    out = np.empty(rows.shape[0])
    for m in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == m)
        nz = rows[group][positive[group]].reshape(group.size, m)
        out[group] = -(nz * np.log(nz)).sum(axis=1)
    return out


def entropy(dist) -> float:
    """Shannon entropy in nats, with the 0 log 0 = 0 convention."""
    arr = np.asarray(dist, dtype=np.float64).reshape(1, -1)
    if not (arr >= 0).all():
        raise ValueError("negative or NaN probability")
    return float(_entropies(arr)[0])


def _mi(stack: np.ndarray) -> np.ndarray:
    """H(X) + H(Y) - H(X, Y) of each table of a (B, k, k) stack, clamped at
    zero: exact MI is nonnegative, and float cancellation can leave ~-1e-16
    dust."""
    b, k = stack.shape[:2]
    value = _entropies(stack.sum(axis=2)) + _entropies(stack.sum(axis=1)) - _entropies(stack.reshape(b, k * k))
    return np.where(value > 0.0, value, 0.0)


def _cmi(stack: np.ndarray) -> np.ndarray:
    """I(X; Y | Z) of each table of a (B, k, k, k) stack: the Z-weighted sum of
    the slices' MI, in z order; slices with zero mass contribute nothing."""
    pz = stack.sum(axis=(1, 2))
    out = np.zeros(len(stack))
    for z in range(stack.shape[3]):
        has = np.flatnonzero(pz[:, z] > 0.0)
        out[has] += pz[has, z] * _mi(stack[has, :, :, z] / pz[has, z, None, None])
    return out


def mutual_information(table) -> float | np.ndarray:
    """Plug-in mutual information H(X) + H(Y) - H(X, Y), clamped at zero.

    Takes one k x k table and returns a float, or a (B, k, k) stack of tables
    and returns an array of B floats, each bit-identical to the call on its
    table alone.  Every table of a stack is checked; a failing one is named
    by its row b in the message."""
    stack, single = _stacked(table, 2)
    values = _mi(stack)
    return float(values[0]) if single else values


# Byte size above which the pairs of an MI matrix are cut into several stacks
# of k x k tables (8 bytes an entry): the exact oracle cuts its pair list by
# it, and the count pass its spans of group-pair tables.  Without the cut, the
# pairs of n = 100 variables at k = 256 would take 2.6 GB.
_STACK_BUDGET_BYTES = 3 << 20


def _row_spans(lo: int, hi: int, k: int):
    """Consecutive ranges covering lo <= j < hi, each small enough that a stack
    of its k x k tables fits _STACK_BUDGET_BYTES."""
    step = max(1, _STACK_BUDGET_BYTES // (8 * k * k))
    return (range(j, min(j + step, hi)) for j in range(lo, hi, step))


def _pairwise_mi(n: int, pairs) -> np.ndarray:
    """The n x n MI matrix: mutual_information(stack)[t] at (us[t], vs[t]) and
    (vs[t], us[t]) for each (us, vs, stack) in pairs, where stack holds the
    table of each pair (us[t], vs[t]); the lists come in any order, and other
    entries are zero."""
    w = np.zeros((n, n))
    for us, vs, stack in pairs:
        w[us, vs] = w[vs, us] = mutual_information(stack)
    return w


def _clamped_deviation(delta: float, base: float) -> float:
    """Check that (delta, base) lies in the domain, up to rounding slack, and
    clamp delta into [-base, 1 - base]."""
    if not 0.0 <= base <= 1.0:
        raise ValueError(f"base must lie in [0, 1], got {base!r}")
    lo, hi = -base, 1.0 - base
    if not lo - _DOMAIN_TOL <= delta <= hi + _DOMAIN_TOL:
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
    joint = _table(table, 2)[0]
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    base = np.outer(px, py)
    dev = joint - base
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            total += kl_deviation_term(float(dev[i, j]), float(base[i, j]))
    return total


def conditional_mi(table) -> float | np.ndarray:
    """Conditional mutual information I(X; Y | Z) of a (X, Y, Z) table.

    Computed as the Z-weighted sum of per-slice mutual informations; slices
    with zero marginal mass contribute nothing.  Takes one k x k x k table and
    returns a float, or a (B, k, k, k) stack and returns an array of B floats,
    each bit-identical to the call on its table alone, as
    `mutual_information` does.
    """
    stack, single = _stacked(table, 3)
    values = _cmi(stack)
    return float(values[0]) if single else values


@dataclass(frozen=True)
class ChainRuleGap:
    """Both sides of the identity I(X;Y) - I(X;Z) = I(X;Y|Z) - I(X;Z|Y)."""

    mi_gap: float
    cmi_gap: float


def chain_rule_gap(table) -> ChainRuleGap:
    joint = _table(table, 3)
    mi_xy, mi_xz = _mi(joint.sum(axis=3))[0], _mi(joint.sum(axis=2))[0]
    cmi_xy_given_z, cmi_xz_given_y = _cmi(joint)[0], _cmi(np.transpose(joint, (0, 1, 3, 2)))[0]
    return ChainRuleGap(mi_gap=float(mi_xy - mi_xz), cmi_gap=float(cmi_xy_given_z - cmi_xz_given_y))
