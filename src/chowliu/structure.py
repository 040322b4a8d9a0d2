"""Tree structure learning from samples.

The learner is classical: estimate all pairwise mutual informations by
plug-in, then take a maximum-weight spanning tree.  Tie-breaking in the
spanning tree is pinned exactly (weight descending, then smaller endpoint,
then larger endpoint) so results are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import SampleSet, _pair_counts, learn_parameters
from .info import _pairwise_mi
from .model import TreeModel, UndirectedTree, root_at

__all__ = [
    "MIMatrix",
    "mi_matrix",
    "max_weight_spanning_tree",
    "tree_weight",
    "chow_liu_structure",
    "learn_tree_distribution",
    "exchange_pairing",
]


@dataclass(frozen=True)
class MIMatrix:
    """Symmetric nonnegative pairwise-weight matrix with a zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12):
            raise ValueError("weight matrix must be symmetric")
        if np.any(arr < 0):
            raise ValueError("negative weight")
        arr = (arr + arr.T) / 2.0
        np.fill_diagonal(arr, 0.0)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def mi_matrix(s: SampleSet) -> MIMatrix:
    """Plug-in mutual information for every variable pair of a sample set."""
    if s.n_samples < 1:
        raise ValueError("need at least one sample")
    return MIMatrix(_pairwise_mi(s.n_variables, ((ij, counts / s.n_samples) for ij, counts in _pair_counts(s))))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _weights_of(w) -> np.ndarray:
    if isinstance(w, MIMatrix):
        return w.weights
    return MIMatrix(np.asarray(w, dtype=np.float64)).weights


def max_weight_spanning_tree(w) -> UndirectedTree:
    """Kruskal with the pinned deterministic edge order: weight descending,
    then (u, v) ascending with u < v.  Equal-weight inputs therefore always
    produce the same tree."""
    weights = _weights_of(w)
    n = weights.shape[0]
    order = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda e: (-weights[e[0], e[1]], e[0], e[1]),
    )
    uf = _UnionFind(n)
    picked = []
    for u, v in order:
        if uf.union(u, v):
            picked.append((u, v))
            if len(picked) == n - 1:
                break
    return UndirectedTree(n, tuple(picked))


def tree_weight(w, t: UndirectedTree) -> float:
    weights = _weights_of(w)
    return float(sum(weights[u, v] for u, v in t.edges))


def chow_liu_structure(s: SampleSet) -> UndirectedTree:
    """Maximum-weight spanning tree of the empirical pairwise MI."""
    return max_weight_spanning_tree(mi_matrix(s))


def learn_tree_distribution(s: SampleSet) -> TreeModel:
    """Full pipeline: learn a structure, root it at node 0, then fit add-1
    conditionals along the learned tree."""
    return learn_parameters(s, root_at(chow_liu_structure(s), 0))


def exchange_pairing(t1: UndirectedTree, t2: UndirectedTree) -> list:
    """Pair the edges of t1 \\ t2 with the edges of t2 \\ t1 so that swapping
    any single pair (drop e from t1, add its partner f) again yields a
    spanning tree.

    Works by repeated exchange: take the smallest unmatched edge e of t1,
    split t1 at e, walk t2's path between e's endpoints, and match e with the
    first path edge crossing the split.  The matched edge is then replaced by
    e inside the working copy of t2, shrinking the symmetric difference by
    one pair per step, so the result is a bijection.
    """
    if t1.n != t2.n:
        raise ValueError("trees must share the same node set")
    base = set(t1.edges)
    current = set(t2.edges)
    pairs = []
    while base - current:
        e = min(base - current)
        u, v = e
        # u's side of e in t1: u and its descendants when t1 hangs from v.
        split = root_at(t1, v)
        side = {u}
        for x in split.topological_order():
            if split.parent[x] in side:
                side.add(x)
        path = root_at(UndirectedTree(t1.n, tuple(current)), u).path(u, v)
        partner = None
        for a, b in zip(path, path[1:]):
            if (a in side) != (b in side):
                partner = (min(a, b), max(a, b))
                break
        if partner is None:  # cannot happen on valid spanning trees
            raise RuntimeError("no crossing edge found")
        pairs.append((e, partner))
        current.remove(partner)
        current.add(e)
    return pairs
